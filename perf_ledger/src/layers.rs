//! Per-layer probes of the offline stack — `datasets`, `core`,
//! `transformer`, `exec`, `kernels` — on one batch shape of the
//! workload. Each layer is measured from outside, by timing calls into
//! its public functions; every call sits in a span so the traced run's
//! self-time table decomposes the cold path.

use cora_core::autotune::TuneBudget;
use cora_core::lower::lower;
use cora_core::program::{CompiledProgram, ParallelPrep};
use cora_core::Operator;
use cora_exec::microkernel::{dot_panel, exp_chunk, saxpy_panel};
use cora_exec::{CpuPool, MathMode};
use cora_transformer::autotune::{stage_operator, EncoderAutotuner};
use cora_transformer::encoder_compiled::{
    bias_operator, ln_norm_operator, ln_sum_operator, ln_var_operator, CompiledEncoderLayer,
};
use cora_transformer::flops::wasted_computation_ratio;
use cora_transformer::{
    encoder_layer_padded, encoder_layer_ragged, EncoderConfig, EncoderWeights, RaggedBatch,
};

use crate::common::{bits_equal, max_abs_diff, median_ms, reps_for, time_ms, Ctx, REF_TOL};
use crate::gen::Rng;
use crate::report::{Outcome, STAGES};
use crate::stats::median;

/// Most rows the autotuner probe searches on.
const TUNE_ROWS: usize = 700;

/// The standalone operator of every stage, in pipeline order: the
/// tunable twelve come from `stage_operator`, the other nine from the
/// same public constructors `CompiledEncoderLayer::build` uses.
fn stage_operators(cfg: &EncoderConfig, lens: &[usize]) -> Vec<(&'static str, Operator)> {
    let rows: usize = lens.iter().sum();
    let h = cfg.hidden;
    STAGES
        .iter()
        .map(|&stage| {
            let op = stage_operator(stage, cfg, lens).unwrap_or_else(|| match stage {
                "qkv_bias" => bias_operator(stage, rows, 3 * h, false),
                "attn_bias_residual" | "ff_bias_residual" => bias_operator(stage, rows, h, true),
                "ln1_sum" | "ln2_sum" => ln_sum_operator(stage, rows, h),
                "ln1_var" | "ln2_var" => ln_var_operator(stage, rows, h),
                "ln1_norm" | "ln2_norm" => ln_norm_operator(stage, rows, h),
                other => panic!("stage `{other}` has no public operator constructor"),
            });
            (stage, op)
        })
        .collect()
}

/// Runs one stage program alone, on seeded inputs sized from the
/// verifier's access hulls; returns its median milliseconds.
fn stage_alone_ms(
    pool: &CpuPool,
    program: &CompiledProgram,
    prep: &ParallelPrep,
    reps: usize,
    rng: &mut Rng,
) -> f64 {
    let outcome = prep.verify_outcome();
    // Non-negative values: variances and softmax sums stay in the
    // domain the stage sees in a real forward.
    let inputs: Vec<(&str, Vec<f32>)> = program
        .input_names()
        .into_iter()
        .map(|name| {
            let len = outcome.required_input_len(name).unwrap_or(0).max(0) as usize;
            (name, (0..len).map(|_| rng.unit() as f32).collect())
        })
        .collect();
    let borrowed: Vec<(&str, &[f32])> = inputs.iter().map(|(n, v)| (*n, &v[..])).collect();
    let mut out = vec![0.0f32; program.output_size()];
    let mut session = program.parallel_session_with(prep);
    session.run_into(pool, &borrowed, &mut out);
    median_ms(reps, || {
        std::hint::black_box(session.run_into(pool, &borrowed, &mut out));
    })
}

/// Direct calls into the three microkernels the fused instructions use.
fn microkernels(out: &mut Outcome, rng: &mut Rng) {
    let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.signed_f32()).collect() };
    // Shapes of the scaled model: 64-wide rows, 256 outputs.
    let (n_i, n_o) = (64usize, 256usize);
    let (a, b) = (fill(n_i * n_o), fill(n_i * n_o));
    let mut acc = vec![0.0f32; n_o];
    let calls = 2_000;
    let dot_ms = median_ms(5, || {
        for _ in 0..calls {
            dot_panel(
                &mut acc,
                0,
                &a,
                0,
                n_i,
                &b,
                0,
                n_i,
                n_i,
                n_o,
                MathMode::Strict,
            );
        }
        std::hint::black_box(&mut acc);
    });
    let flops = (2 * n_i * n_o * calls) as f64;
    out.metrics
        .put("exec.microkernel.dot_panel_gflops", flops / dot_ms / 1e6);

    let mut row = vec![0.0f32; n_o];
    let saxpy_ms = median_ms(5, || {
        for _ in 0..calls {
            saxpy_panel(&mut row, &a, 0, 1, &b, 0, n_o, n_i);
        }
        std::hint::black_box(&mut row);
    });
    out.metrics.put(
        "exec.microkernel.saxpy_panel_gflops",
        flops / saxpy_ms / 1e6,
    );

    let src = fill(4096);
    let mut dst = vec![0.0f32; 4096];
    let sweeps = 200;
    let exp_ms = median_ms(5, || {
        for _ in 0..sweeps {
            exp_chunk(&mut dst, &src);
        }
        std::hint::black_box(&mut dst);
    });
    out.metrics.put(
        "exec.microkernel.exp_ns_per_elem",
        exp_ms * 1e6 / (4096 * sweeps) as f64,
    );
}

/// Probes every offline layer on the shape `lens`.
pub fn probe(ctx: &mut Ctx, w: &EncoderWeights, lens: &[usize], out: &mut Outcome) {
    let cfg = ctx.cfg;
    let pool = ctx.pool;
    let mut rng = Rng::new(ctx.seed, 0x1a7e);
    let x = RaggedBatch::random(lens, cfg.hidden, rng.next_u64());
    let rows = x.rows();
    let max_len = lens.iter().copied().max().unwrap_or(0);
    let m = &mut out.metrics;
    m.put("datasets.rows", rows as f64);
    m.put(
        "datasets.padded_rows_ratio",
        wasted_computation_ratio(&cfg, lens),
    );

    // The cold path as a user runs it: nothing → first output.
    let ((layer, mut prep, first, build_ms, prepare_ms, first_forward_ms), cold_ms) =
        ctx.rec.span("cold_op", 0, |rec| {
            let (layer, build_ms) = rec.span("build", 0, |_| {
                CompiledEncoderLayer::build(&cfg, lens).expect("built-in schedules are legal")
            });
            let (mut prep, prepare_ms) = rec.span("prepare", 0, |_| {
                layer.prepare().expect("built-in schedules outline")
            });
            let (first, forward_ms) = rec.span("first_forward", 0, |rec| {
                let (layer, prep) = (&layer, &mut prep);
                let mut session = rec
                    .span("session_with", 0, move |_| layer.session_with(prep))
                    .0;
                session.forward(&pool, w, &x)
            });
            (layer, prep, first, build_ms, prepare_ms, forward_ms)
        });
    m.put("transformer.encoder_compiled.build_ms", build_ms);
    m.put("core.pipeline.prepare_ms", prepare_ms);

    // The same path taken apart stage by stage: what `build` and
    // `prepare` spend on lowering, bytecode, prelude tables and proofs.
    let pipeline = layer.pipeline().expect("probe shapes are non-empty");
    assert_eq!(
        pipeline.stage_labels(),
        STAGES,
        "encoder stage list changed"
    );
    let (mut lower_ms, mut compile_ms, mut prelude_ms, mut prep_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut nodes, mut instrs, mut fused, mut bytes, mut blocks) = (0, 0, 0, 0, 0);
    let mut preps: Vec<ParallelPrep> = Vec::with_capacity(STAGES.len());
    ctx.rec.span("decomposed", 0, |rec| {
        for (stage, op) in stage_operators(&cfg, lens) {
            let (program, ms) = rec.span("lower", 0, |_| {
                lower(&op).unwrap_or_else(|e| panic!("stage `{stage}` fails to lower: {e}"))
            });
            lower_ms += ms;
            nodes += program.stmt().count_nodes();
            let (compiled, ms) = rec.span("compile", 0, |_| program.compile());
            compile_ms += ms;
            let body_len = compiled.parallel_body().map_or(0, |b| b.len());
            instrs += compiled.vm().len() + body_len;
            let (a, b, c) = compiled.vm().fused_counts();
            fused += a + b + c;
        }
        // Preludes and proofs on the layer's own stage programs, so the
        // math mode and wiring are the ones `prepare` sees.
        for (stage, program) in pipeline.stage_programs() {
            let (data, ms) = rec.span("prelude", 0, |_| program.build_prelude());
            prelude_ms += ms;
            bytes += data.total_bytes();
            let (prep, ms) = rec.span("parallel_prep", 0, |_| program.parallel_prep());
            prep_ms += ms;
            let prep = prep
                .unwrap_or_else(|e| panic!("stage `{stage}` fails to verify: {e}"))
                .unwrap_or_else(|| panic!("stage `{stage}` has no block axis"));
            blocks += prep.verify_outcome().n_blocks;
            preps.push(prep);
        }
    });
    // `parallel_prep` builds the prelude again before proving.
    let verify_ms = (prep_ms - prelude_ms).max(0.0);
    m.put("core.lower.ms", lower_ms);
    m.put("core.lower.stmt_nodes", nodes as f64);
    m.put("core.compile.ms", compile_ms);
    m.put("core.compile.instrs", instrs as f64);
    m.put("core.compile.fused_instrs", fused as f64);
    m.put("core.prelude.ms", prelude_ms);
    m.put("core.prelude.bytes", bytes as f64);
    m.put("core.verify.ms", verify_ms);
    m.put("core.verify.blocks", blocks as f64);
    m.put("core.verify.share_of_cold", verify_ms / cold_ms);
    // `prepare` builds each stage's prelude twice (serial + parallel).
    m.put(
        "core.cold.accounted_share",
        (lower_ms + compile_ms + prelude_ms + prep_ms + first_forward_ms) / cold_ms,
    );
    let plan = pipeline.plan();
    m.put("core.pipeline.arena_elems", plan.arena_elems() as f64);
    m.put(
        "core.pipeline.arena_share",
        plan.arena_elems() as f64 / plan.unshared_elems() as f64,
    );
    let mint_us: Vec<f64> = (0..200)
        .map(|_| time_ms(|| drop(std::hint::black_box(layer.session_with(&mut prep)))).1 * 1e3)
        .collect();
    m.put("core.pipeline.session_with_us", median(&mint_us));

    // Warm forwards of the one shape, every tier against its bound.
    let reps = reps_for(first_forward_ms);
    let mut session = layer.session_with(&mut prep);
    let forward_ms = ctx
        .rec
        .span("forward_reps", 0, |_| {
            median_ms(reps, || {
                std::hint::black_box(session.forward(&pool, w, &x));
            })
        })
        .0;
    let serial = session.forward_serial(w, &x);
    let serial_ms = median_ms(reps, || {
        std::hint::black_box(session.forward_serial(w, &x));
    });
    let run = session.run(Some(&pool), w, &x);
    let pool2 = CpuPool::new(2);
    session.forward(&pool2, w, &x);
    let par2_ms = median_ms(reps, || {
        std::hint::black_box(session.forward(&pool2, w, &x));
    });
    let reference = encoder_layer_ragged(&pool, &cfg, w, &x);
    let ragged_ms = median_ms(reps, || {
        std::hint::black_box(encoder_layer_ragged(&pool, &cfg, w, &x));
    });
    let padded_in = x.to_padded(max_len);
    encoder_layer_padded(&pool, &cfg, w, lens, max_len, &padded_in);
    let padded_ms = median_ms(reps, || {
        std::hint::black_box(encoder_layer_padded(
            &pool, &cfg, w, lens, max_len, &padded_in,
        ));
    });
    let fast = CompiledEncoderLayer::build_with_math(&cfg, lens, MathMode::Fast)
        .expect("built-in schedules are legal");
    let mut fast_session = fast.session().expect("built-in schedules outline");
    let fast_out = fast_session.forward(&pool, w, &x);
    let fast_ms = median_ms(reps, || {
        std::hint::black_box(fast_session.forward(&pool, w, &x));
    });
    out.check(max_abs_diff(&first, &reference.data) <= REF_TOL, || {
        format!("probe {lens:?}: compiled output differs from the hand-written kernels")
    });
    out.check(bits_equal(&first, &serial), || {
        format!("probe {lens:?}: parallel tier is not bit-identical to forward_serial")
    });
    out.check(
        max_abs_diff(&fast_out, &reference.data) <= 5.0 * REF_TOL,
        || format!("probe {lens:?}: Fast-mode output is out of tolerance"),
    );
    let m = &mut out.metrics;
    m.put("transformer.encoder_compiled.forward_ms", forward_ms);
    m.put("transformer.encoder_compiled.forward_serial_ms", serial_ms);
    m.put("transformer.encoder_compiled.fast_forward_ms", fast_ms);
    m.put(
        "transformer.encoder_compiled.vs_ragged_ref",
        ragged_ms / forward_ms,
    );
    m.put("kernels.padded_ms", padded_ms);
    m.put("kernels.ragged_ref_ms", ragged_ms);
    m.put("exec.runtime.par2_forward_ms", par2_ms);
    m.put("exec.runtime.par2_speedup", forward_ms / par2_ms);
    m.put(
        "exec.runtime.proven_dispatch_overhead",
        forward_ms / serial_ms,
    );
    let totals = run.total_stats();
    m.put("exec.vm.gflops", totals.flops as f64 / forward_ms / 1e6);
    m.put("exec.vm.aux_loads_per_run", totals.aux_loads as f64);
    m.put("exec.vm.stores_per_run", totals.stores as f64);

    // Each stage program alone, with its exact flop count.
    let stage_reps = reps.min(10);
    ctx.rec.span("stages_alone", 0, |rec| {
        for (((stage, program), prep), stats) in
            pipeline.stage_programs().zip(&preps).zip(&run.stages)
        {
            assert_eq!(stats.label, stage);
            let ms = rec
                .span(stage, 0, |_| {
                    stage_alone_ms(&pool, program, prep, stage_reps, &mut rng)
                })
                .0;
            m.put(&format!("exec.vm.stage_ms.{stage}"), ms);
            m.put(
                &format!("exec.vm.stage_flops.{stage}"),
                stats.stats.flops as f64,
            );
        }
    });

    // What switching the tuner on would cost: one fresh bucket, then a
    // different shape of the same bucket. Every candidate is compiled
    // and proven, so the search runs on a prefix of the shape of at
    // most `TUNE_ROWS` rows (at least one sequence).
    let mut tune_rows = 0;
    let tune_lens: Vec<usize> = lens
        .iter()
        .copied()
        .take_while(|&l| {
            tune_rows += l;
            tune_rows <= TUNE_ROWS.max(l)
        })
        .collect();
    let mut tuner =
        EncoderAutotuner::new(TuneBudget::trials(16).with_max_ms(500.0), rng.next_u64());
    let (_, tuned) = ctx
        .rec
        .span("autotune", 0, |_| {
            tuner
                .tuned_layer(&cfg, &tune_lens, MathMode::Strict)
                .expect("built-in schedules are legal")
        })
        .0;
    let reversed: Vec<usize> = tune_lens.iter().rev().copied().collect();
    let (_, hit) = tuner
        .tuned_layer(&cfg, &reversed, MathMode::Strict)
        .expect("built-in schedules are legal");
    out.check(hit.cache_hit && hit.trials == 0, || {
        "a same-bucket shape missed the tuning cache".to_string()
    });
    let m = &mut out.metrics;
    m.put("transformer.autotune.tune_ms", tuned.tuning_ms);
    m.put("transformer.autotune.trials", tuned.trials as f64);
    m.put("transformer.autotune.cache_hit_ms", hit.tuning_ms);

    microkernels(out, &mut rng);
}
