//! Differential properties of the fully compiled encoder layer: across
//! random ragged batches (including 0- and 1-length sequences), hidden
//! sizes and head counts, [`CompiledEncoderLayer`] must
//!
//! * match the hand-written reference `encoder_layer_ragged` within
//!   tight tolerance (the compiled operators replay the reference
//!   kernels' loop orders, so the drift is a few ULPs),
//! * produce, serially and at 1, 2 and 8 workers, outputs bit-identical
//!   to its stages run one by one as standalone programs, and
//! * report per-stage `InterpStats` (summed over workers) equal to
//!   those standalone runs' exactly.
//!
//! The table's MHA block is held the same way under both `Attend`s: to
//! `masked_mha_ragged` under `Causal`, plus the property that defines
//! it (no token's output depends on a later token), and to the padded
//! baseline `mha_padded` under `Full`.
//!
//! The encoder pipeline is the paper's end-to-end artifact; this suite
//! is what locks it to the reference implementation.

use std::collections::HashMap;

use proptest::prelude::*;

use cora::core::pipeline::{Chain, ChainRefusal, PipelineRun, StageStats};
use cora::core::prelude::{lower, ScheduleError};
use cora::datasets::Dataset;
use cora::exec::{CpuPool, MathMode};
use cora::transformer::encoder_compiled::{stage, Attend, CompiledEncoderLayer, Geometry};
use cora::transformer::masked_mha::masked_mha_ragged;
use cora::transformer::mha::mha_padded;
use cora::transformer::{encoder_layer_ragged, EncoderConfig, EncoderWeights, RaggedBatch};

fn small_config(heads: usize, head_dim: usize, ff_mult: usize) -> EncoderConfig {
    EncoderConfig {
        hidden: heads * head_dim,
        heads,
        head_dim,
        ff: heads * head_dim * ff_mult,
        layers: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random raggedness (0-/1-length sequences included) × model shape:
    /// the compiled pipeline matches the reference kernels, and its runs
    /// at every worker count are bit-identical to the stages run one by
    /// one on the owned-buffer VM, with the same per-stage statistics.
    #[test]
    fn compiled_encoder_layer_matches_reference(
        lens in prop::collection::vec(0usize..7, 1..5),
        heads_idx in 0usize..3,
        head_dim_idx in 0usize..3,
        ff_mult in 1usize..3,
        seed in 0u64..1000,
    ) {
        let heads = [1usize, 2, 4][heads_idx];
        let head_dim = [2usize, 4, 8][head_dim_idx];
        let cfg = small_config(heads, head_dim, ff_mult);
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(1));
        let rows: usize = lens.iter().sum();

        let reference = encoder_layer_ragged(&CpuPool::new(4), &cfg, &w, &x);
        let layer = CompiledEncoderLayer::build(&cfg, &lens).expect("legal schedules");
        let mut session = layer.session().expect("stages outline");

        // Serial compiled run vs reference kernels: tight tolerance.
        let serial = session.run(None, &w, &x);
        prop_assert_eq!(serial.output.len(), reference.data.len());
        let worst = reference
            .data
            .iter()
            .zip(&serial.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst < 1e-3,
            "compiled layer diverges from reference by {} (rows = {})",
            worst,
            rows
        );

        // Every worker count: bit-identical outputs and exactly equal
        // per-stage statistics to the stages run alone.
        let want = stage_by_stage(&layer, (&cfg, Attend::Full), &w, &x, false);
        assert_same_run(&serial, &want, "serial");
        for workers in [1usize, 2, 8] {
            let par = session.run(Some(&CpuPool::new(workers)), &w, &x);
            assert_same_run(&par, &want, &format!("{workers} workers"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Strict vs Fast differential across random ragged batches
    /// (0-/1-length sequences included): a Fast-mode layer stays within
    /// the compounded microkernel tolerances of both the Strict run and
    /// the hand-written reference, and Fast is deterministic — serial
    /// and parallel runs are bit-identical to the unchained Fast
    /// parallel tier.
    #[test]
    fn fast_encoder_layer_matches_strict_within_tolerance(
        lens in prop::collection::vec(0usize..7, 1..5),
        heads_idx in 0usize..3,
        head_dim_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let heads = [1usize, 2, 4][heads_idx];
        let head_dim = [2usize, 4, 8][head_dim_idx];
        let cfg = small_config(heads, head_dim, 2);
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(1));

        let strict = CompiledEncoderLayer::build(&cfg, &lens).expect("legal schedules");
        let fast = CompiledEncoderLayer::build_with_math(&cfg, &lens, MathMode::Fast)
            .expect("legal schedules");
        prop_assert_eq!(strict.math_mode(), MathMode::Strict);
        prop_assert_eq!(fast.math_mode(), MathMode::Fast);

        let mut s_session = strict.session().expect("stages outline");
        let mut f_session = fast.session().expect("stages outline");
        let s_out = s_session.run(None, &w, &x);
        let f_out = f_session.run(None, &w, &x);
        prop_assert_eq!(s_out.output.len(), f_out.output.len());

        // Layer-norm at the end keeps outputs O(1), so an absolute bound
        // covers the compounded per-op tolerances across all 21 stages.
        let worst = s_out
            .output
            .iter()
            .zip(&f_out.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst < 5e-3,
            "fast layer diverges from strict by {}", worst
        );
        let reference = encoder_layer_ragged(&CpuPool::new(4), &cfg, &w, &x);
        let worst_ref = reference
            .data
            .iter()
            .zip(&f_out.output)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst_ref < 5e-3,
            "fast layer diverges from reference by {}", worst_ref
        );

        // Stats are static metadata: mode must not change the charge.
        prop_assert_eq!(s_out.total_stats(), f_out.total_stats());

        // Fast is deterministic: every width, bit for bit.
        let want = unchained(&fast, &w, &x, &CpuPool::new(2));
        prop_assert_eq!(bits(&f_out.output), bits(&want), "fast serial run");
        for workers in [2usize, 8] {
            let pool = CpuPool::new(workers);
            let par = f_session.run(Some(&pool), &w, &x);
            prop_assert_eq!(
                bits(&par.output), bits(&want),
                "fast parallel output diverges at {} workers", workers
            );
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The MHA block (the stage table's attention prefix plus the output
    /// bias) under either `Attend`, across random raggedness (0-/1-length
    /// sequences included) × heads: matches its reference — the
    /// hand-written `masked_mha_ragged` under `Causal`, the un-padded rows
    /// of `mha_padded` under `Full` — stores one score per attended key
    /// and is proven block-parallel, runs serially and at 1, 2 and 8
    /// workers bit-identically to its stages run alone, and, causal,
    /// never lets a later token reach an earlier one.
    #[test]
    fn mha_block_matches_reference_and_causal_never_leaks(
        lens in prop::collection::vec(0usize..7, 1..5),
        heads_idx in 0usize..3,
        head_dim_idx in 0usize..3,
        attend_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let heads = [1usize, 2, 4][heads_idx];
        let head_dim = [2usize, 4, 8][head_dim_idx];
        let attend = [Attend::Full, Attend::Causal][attend_idx];
        let cfg = small_config(heads, head_dim, 1);
        let h = cfg.hidden;
        let w = EncoderWeights::random(&cfg, seed);
        let x = RaggedBatch::random(&lens, h, seed.wrapping_add(1));
        let rows: usize = lens.iter().sum();

        let (reference, tolerance) = match attend {
            Attend::Causal => (masked_mha_ragged(&CpuPool::new(4), &cfg, &w, &x), 1e-3),
            Attend::Full => (mha_padded_rows(&cfg, &w, &x), 1e-4),
        };
        let layer = CompiledEncoderLayer::build_mha(&cfg, &lens, attend).expect("legal schedules");
        let mut session = layer.session().expect("stages outline");
        let serial = session.run(None, &w, &x);
        prop_assert_eq!(serial.output.len(), reference.len());
        let worst = max_abs_diff(&reference, &serial.output);
        prop_assert!(
            worst < tolerance,
            "compiled {:?} MHA diverges from reference by {} (rows = {})",
            attend,
            worst,
            rows
        );

        // Ragged and block-bound: the score stage stores one entry per
        // attended key of each (head, row), and every stage carries a
        // proof for the parallel tier — one block per (head, row) in
        // attention.
        let keys: usize = lens.iter().map(|&l| (0..l).map(|p| attend.extent(p, l)).sum::<usize>()).sum();
        let (_, scores) = layer
            .pipeline()
            .expect("a pipeline")
            .stage_programs()
            .find(|(label, _)| *label == "scores")
            .expect("the attention prefix has a score stage");
        prop_assert_eq!(scores.output_size(), heads * keys);
        for (label, outcome) in session.verify_outcomes() {
            if label == "scores" {
                prop_assert_eq!(outcome.n_blocks, heads * rows);
            }
        }

        // Serial, every worker count, session reuse and the one-shot
        // `forward`: the stages' standalone outputs and statistics.
        let want = stage_by_stage(&layer, (&cfg, attend), &w, &x, false);
        assert_same_run(&serial, &want, "serial");
        for workers in [1usize, 2, 8] {
            let par = session.run(Some(&CpuPool::new(workers)), &w, &x);
            assert_same_run(&par, &want, &format!("{workers} workers"));
        }
        let one_shot = layer.forward(&CpuPool::new(2), &w, &x);
        prop_assert_eq!(bits(&one_shot), bits(&serial.output));

        // Causality: perturb the last token of the first non-empty
        // sequence. Only that token's own row may change — not the
        // earlier rows of its sequence, not any other sequence.
        let first = lens.iter().position(|&l| l > 0);
        if let (Attend::Causal, Some(s)) = (attend, first) {
            let last = x.row_offset(s) + lens[s] - 1;
            let mut moved = x.clone();
            for v in &mut moved.data[last * h..(last + 1) * h] {
                *v += 1.0;
            }
            let y = session.run(None, &w, &moved).output;
            let (before, own, after) = (..last * h, last * h..(last + 1) * h, (last + 1) * h..);
            prop_assert_eq!(
                bits(&y[before]), bits(&serial.output[before]),
                "future tokens must not leak"
            );
            prop_assert_eq!(bits(&y[after.clone()]), bits(&serial.output[after]));
            prop_assert_ne!(bits(&y[own.clone()]), bits(&serial.output[own]));
        }
    }
}

/// The un-padded rows of the padded baseline MHA (`mha_padded`): the
/// full-attention reference, `Σ lens × hidden`.
fn mha_padded_rows(cfg: &EncoderConfig, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
    let max_len = x.lens.iter().copied().max().unwrap_or(0);
    let padded = mha_padded(
        &CpuPool::new(4),
        cfg,
        w,
        &x.lens,
        max_len,
        &x.to_padded(max_len),
    );
    let h = cfg.hidden;
    let rows = x.lens.iter().enumerate();
    rows.flat_map(|(s, &l)| padded[s * max_len * h..][..l * h].to_vec())
        .collect()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// The compiled full-attention MHA on the empty shapes — no batch, and
/// zero-length sequences beside non-empty ones — against the padded
/// baseline's un-padded rows.
#[test]
fn full_mha_matches_the_padded_baseline_on_empty_shapes() {
    let cfg = small_config(2, 4, 1);
    let w = EncoderWeights::random(&cfg, 5);
    for lens in [vec![], vec![0usize], vec![0, 0], vec![3, 0, 5, 1]] {
        let x = RaggedBatch::random(&lens, cfg.hidden, 6);
        let want = mha_padded_rows(&cfg, &w, &x);
        let layer = CompiledEncoderLayer::build_mha(&cfg, &lens, Attend::Full).expect("builds");
        let got = layer.forward(&CpuPool::new(2), &w, &x);
        assert_eq!(got.len(), want.len(), "lens {lens:?}");
        let worst = max_abs_diff(&got, &want);
        assert!(worst < 1e-4, "lens {lens:?}: diverges by {worst}");
    }
}

/// The session is shape-keyed: one build serves repeated calls (layers)
/// with different weights, with no recompilation — and results equal a
/// freshly built layer's.
#[test]
fn session_reuse_across_layers_matches_fresh_builds() {
    let cfg = small_config(4, 4, 2);
    let lens = vec![6usize, 0, 2, 1];
    let x = RaggedBatch::random(&lens, cfg.hidden, 11);
    let pool = CpuPool::new(4);
    let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
    let mut session = layer.session().unwrap();
    let mut activations = x.clone();
    for layer_idx in 0..3 {
        let w = EncoderWeights::random(&cfg, 100 + layer_idx);
        let out = session.forward(&pool, &w, &activations);
        // A freshly compiled layer agrees bit-for-bit.
        let fresh =
            CompiledEncoderLayer::build(&cfg, &lens)
                .unwrap()
                .forward(&pool, &w, &activations);
        assert_eq!(out, fresh, "layer {layer_idx} diverges from fresh build");
        activations = RaggedBatch {
            lens: lens.clone(),
            data: out,
            hidden: cfg.hidden,
        };
    }
}

/// Every external buffer a stage of the table may read, by pipeline
/// buffer name.
fn external_buffers(w: &EncoderWeights, x: &RaggedBatch) -> HashMap<&'static str, Vec<f32>> {
    HashMap::from([
        ("X", x.data.clone()),
        ("Wqkv", w.wqkv.clone()),
        ("Bqkv", w.bqkv.clone()),
        ("Wo", w.wo.clone()),
        ("Bo", w.bo.clone()),
        ("W1", w.w1.clone()),
        ("B1", w.b1.clone()),
        ("W2", w.w2.clone()),
        ("B2", w.b2.clone()),
        ("Ln1G", w.ln1_g.clone()),
        ("Ln1B", w.ln1_b.clone()),
        ("Ln2G", w.ln2_g.clone()),
        ("Ln2B", w.ln2_b.clone()),
    ])
}

/// Runs `layer`'s stages one by one as standalone programs, wiring
/// buffers as the stage table does: on the tree-walking interpreter —
/// the semantics every compiled tier reproduces bit for bit under
/// `Strict` — or, with `interpret == false`, on the owned-buffer VM,
/// which binds every buffer as written and so never takes the
/// packed-panel row (`vm_props` holds that tier to the interpreter).
/// Returns the last output and each stage's statistics, one dispatch
/// per stage; an empty batch runs every stage over zero rows.
fn stage_by_stage(
    layer: &CompiledEncoderLayer,
    (cfg, attend): (&EncoderConfig, Attend),
    w: &EncoderWeights,
    x: &RaggedBatch,
    interpret: bool,
) -> PipelineRun {
    let geometry = Geometry::new(cfg, &x.lens, attend);
    let mut bufs = external_buffers(w, x);
    let mut out = "";
    let mut stages = Vec::new();
    let labels = layer.pipeline().expect("a pipeline").stage_labels();
    for label in labels {
        let row = stage(label).expect("pipeline labels come from the stage table");
        let inputs: Vec<(&str, Vec<f32>)> = (row.wires.iter())
            .map(|(name, buf)| (*name, bufs[buf].clone()))
            .collect();
        let program = lower(&row.operator(&geometry)).expect("built-in schedules are legal");
        let run = if interpret {
            program.run(&inputs)
        } else {
            program.compile().run(&inputs)
        };
        bufs.insert(row.out, run.output);
        out = row.out;
        let label = label.to_string();
        stages.push(StageStats {
            label,
            stats: run.stats,
        });
    }
    PipelineRun {
        output: bufs.remove(out).unwrap_or_default(),
        dispatches: stages.len(),
        stages,
    }
}

/// The Strict forward, serial and at 1 and 4 workers, is bit-identical
/// to the interpreter, under `Full` (the encoder
/// layer) and `Causal` (the masked block), on the shapes the score
/// stage's packed-panel reuse must survive: zero-length and single-token
/// sequences, one 512-token sequence, and `(head, row)` tiles that
/// straddle sequence boundaries. The tree walker needs ~14 s for the
/// 512-token layers in a debug build, so there (only) they are held to
/// the owned-buffer VM instead; release runs interpret every shape.
#[test]
fn strict_forwards_match_the_interpreter_on_panel_reuse_edges() {
    type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;
    let builds: [(Attend, Build); 2] = [
        (Attend::Full, CompiledEncoderLayer::build),
        (Attend::Causal, |c, l| {
            CompiledEncoderLayer::build_mha(c, l, Attend::Causal)
        }),
    ];
    let straddling = vec![13usize, 5, 0, 21, 1, 9];
    for (cfg, lens) in [
        (small_config(2, 4, 2), vec![0usize, 1, 0, 3, 1, 0]),
        (small_config(1, 2, 1), vec![512]),
        (small_config(2, 4, 2), straddling.clone()),
    ] {
        let w = EncoderWeights::random(&cfg, 7);
        let x = RaggedBatch::random(&lens, cfg.hidden, 8);
        let interpret = !cfg!(debug_assertions) || lens.iter().all(|&l| l < 512);
        for (attend, build) in builds {
            let at = format!("{attend:?} lens {lens:?}");
            let layer = build(&cfg, &lens).expect("legal schedules");
            let mut session = layer.session().expect("stages outline");
            let serial = session.forward_serial(&w, &x);
            let reference = stage_by_stage(&layer, (&cfg, attend), &w, &x, interpret).output;
            assert_eq!(bits(&serial), bits(&reference), "{at}: serial");
            for workers in [1usize, 4] {
                let par = session.forward(&CpuPool::new(workers), &w, &x);
                assert_eq!(bits(&par), bits(&reference), "{at}: {workers} workers");
            }
            if lens == straddling {
                // Some score tile holds rows of two sequences.
                let grain = (session.verify_outcomes().into_iter())
                    .find_map(|(label, v)| (label == "scores").then_some(v.grain))
                    .expect("a score stage");
                let mut end = 0;
                assert!(grain > 1, "{at}");
                assert!(
                    lens.iter().any(|l| {
                        end += l;
                        end % grain != 0
                    }),
                    "{at}"
                );
            }
        }
    }
}

/// Zero-row batches flow through the whole stack.
#[test]
fn empty_batch_round_trips() {
    let cfg = small_config(2, 4, 2);
    let lens = vec![0usize, 0, 0];
    let w = EncoderWeights::random(&cfg, 3);
    let x = RaggedBatch::random(&lens, cfg.hidden, 4);
    let reference = encoder_layer_ragged(&CpuPool::new(2), &cfg, &w, &x);
    assert!(reference.data.is_empty());
    let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
    let mut session = layer.session().unwrap();
    assert!(session.forward(&CpuPool::new(2), &w, &x).is_empty());
    assert!(session.forward_serial(&w, &x).is_empty());
}

type Build = fn(&EncoderConfig, &[usize]) -> Result<CompiledEncoderLayer, ScheduleError>;

/// The encoder layer under `Full`, the masked attention block under
/// `Causal`.
const BUILDS: [(Attend, Build); 2] = [
    (Attend::Full, CompiledEncoderLayer::build),
    (Attend::Causal, |c, l| {
        CompiledEncoderLayer::build_mha(c, l, Attend::Causal)
    }),
];

/// The chain tripwire: at `program_golden`'s two shapes and at MNLI-16,
/// the encoder layer (`Full`) and the masked block (`Causal`) run as
/// exactly three chains — the QKV projection, the attention block, and
/// everything after it — so a forward, serial or parallel, is three
/// dispatches, not one per stage, and the arena holds only the three
/// chain outputs.
#[test]
fn encoder_layers_run_as_three_chains() {
    let cfg = EncoderConfig::scaled(8);
    let mnli16 = Dataset::Mnli.sample_lengths(16, 42);
    let edge = [5usize, 0, 3, 1, 7, 12, 1, 0];
    let mnli = [21usize, 34, 9, 17, 40, 13, 28, 6];
    let attention = [
        "scores",
        "scale",
        "row_max",
        "row_exp",
        "row_sum",
        "row_softmax",
        "attnv",
    ];
    let encoder_tail = [
        "out_proj",
        "attn_bias_residual",
        "ln1_sum",
        "ln1_var",
        "ln1_norm",
        "ff1",
        "ff1_bias_gelu",
        "ff2",
        "ff_bias_residual",
        "ln2_sum",
        "ln2_var",
        "ln2_norm",
    ];
    for lens in [&edge[..], &mnli, &mnli16] {
        for (attend, build) in BUILDS {
            let at = format!("{attend:?} lens {lens:?}");
            let layer = build(&cfg, lens).expect("legal schedules");
            let pipeline = layer.pipeline().expect("a pipeline");
            let labels = pipeline.stage_labels();
            let (tail, out): (&[&str], &str) = match attend {
                Attend::Full => (&encoder_tail, "OUT"),
                Attend::Causal => (&["out_proj", "attn_bias"], "Y"),
            };
            let want: Vec<Vec<&str>> = vec![
                vec!["qkv_proj", "qkv_bias"],
                attention.to_vec(),
                tail.to_vec(),
            ];
            let chains: Vec<Vec<&str>> = (pipeline.chains().iter())
                .map(|c| labels[c.stages.clone()].to_vec())
                .collect();
            assert_eq!(chains, want, "{at}");
            let refusals: Vec<Option<ChainRefusal>> = pipeline
                .chains()
                .iter()
                .map(|c: &Chain| c.refusal.clone())
                .collect();
            let tiles = Some(ChainRefusal::TilesDiffer);
            assert_eq!(refusals, [tiles.clone(), tiles, None], "{at}");
            let arena: Vec<&str> = pipeline
                .plan()
                .arena()
                .iter()
                .map(|e| e.name.as_str())
                .collect();
            assert_eq!(arena, ["QKV", "O", out], "{at}");

            let w = EncoderWeights::random(&cfg, 5);
            let x = RaggedBatch::random(lens, cfg.hidden, 6);
            let mut session = layer.session().expect("stages outline");
            let par = session.run(Some(&CpuPool::new(2)), &w, &x);
            let serial = session.run(None, &w, &x);
            assert_eq!((par.dispatches, serial.dispatches), (3, 3), "{at}");
            assert_eq!(bits(&par.output), bits(&serial.output), "{at}");
        }
    }
}

/// The pipeline's external inputs, bound from `bufs`: every wired
/// buffer no stage produces.
fn pipeline_inputs<'a>(
    layer: &CompiledEncoderLayer,
    bufs: &'a HashMap<&'static str, Vec<f32>>,
) -> Vec<(&'static str, &'a [f32])> {
    let rows: Vec<_> = (layer.pipeline().expect("a pipeline").stage_labels())
        .into_iter()
        .map(|label| stage(label).expect("a table stage"))
        .collect();
    let mut names: Vec<&'static str> = (rows.iter())
        .flat_map(|row| row.wires.iter().map(|(_, buf)| *buf))
        .filter(|buf| rows.iter().all(|row| row.out != *buf))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| (name, &bufs[name][..]))
        .collect()
}

/// `layer`'s stage programs run one after another, each on its own
/// parallel session over `pool` — the unchained parallel tier, one
/// dispatch per stage; an empty batch runs every stage over zero tiles.
fn unchained(
    layer: &CompiledEncoderLayer,
    w: &EncoderWeights,
    x: &RaggedBatch,
    pool: &CpuPool,
) -> Vec<f32> {
    let pipeline = layer.pipeline().expect("a pipeline");
    let mut bufs = external_buffers(w, x);
    let mut out = "";
    for (label, program) in pipeline.stage_programs() {
        let row = stage(label).expect("a table stage");
        let inputs: Vec<(&str, Vec<f32>)> = (row.wires.iter())
            .map(|(name, buf)| (*name, bufs[buf].clone()))
            .collect();
        let mut session = program
            .parallel_session()
            .expect("proves")
            .expect("parallel");
        bufs.insert(row.out, session.run(pool, inputs).output);
        out = row.out;
    }
    bufs.remove(out).expect("the last stage's output")
}

/// Asserts `run` has `want`'s output bits and, stage by stage, its
/// labels and statistics.
fn assert_same_run(run: &PipelineRun, want: &PipelineRun, at: &str) {
    assert_eq!(bits(&run.output), bits(&want.output), "{at}");
    assert_eq!(run.stages.len(), want.stages.len(), "{at}");
    for (a, b) in run.stages.iter().zip(&want.stages) {
        assert_eq!((&a.label, a.stats), (&b.label, b.stats), "{at}");
    }
}

/// Chained forwards on the shapes that stress tiles: zero-length and
/// single-token sequences, one 512-token sequence, and tiles that
/// straddle sequence boundaries. Strict chained runs — at the grain
/// rule's tiles and at grain 1 (`prepare_at_grain`), on 1 and 4 workers,
/// `Full` and `Causal` — are bit-identical to the stages run one by one
/// on the owned-buffer VM, with exactly their per-stage statistics (the
/// interpreter holds that tier in
/// `strict_forwards_match_the_interpreter_on_panel_reuse_edges`); Fast
/// chained runs are bit-identical to the unchained Fast parallel tier.
#[test]
fn chained_forwards_match_serial_at_every_grain_and_unchained_fast_runs() {
    for (cfg, lens) in [
        (small_config(2, 4, 2), vec![0usize, 1, 0, 3, 1, 0]),
        (small_config(1, 2, 1), vec![512]),
        (small_config(2, 4, 2), vec![13usize, 5, 0, 21, 1, 9]),
    ] {
        let w = EncoderWeights::random(&cfg, 17);
        let x = RaggedBatch::random(&lens, cfg.hidden, 18);
        let bufs = external_buffers(&w, &x);
        for (attend, build) in BUILDS {
            let layer = build(&cfg, &lens).expect("legal schedules");
            let pipeline = layer.pipeline().expect("a pipeline");
            let inputs = pipeline_inputs(&layer, &bufs);
            let serial = stage_by_stage(&layer, (&cfg, attend), &w, &x, false);
            for workers in [1usize, 4] {
                let pool = CpuPool::new(workers);
                let at = format!("{attend:?} lens {lens:?}, {workers} workers");
                let rule = layer.session().expect("outlines").run(Some(&pool), &w, &x);
                assert_same_run(&rule, &serial, &format!("{at}, rule grain"));
                let prep = pipeline.prepare_at_grain(1).expect("proves per block");
                let chains = prep.chains().count();
                let per_block = pipeline.session_with(prep).run(&pool, &inputs);
                assert_same_run(&per_block, &serial, &format!("{at}, grain 1"));
                assert_eq!(per_block.dispatches, chains, "{at}, grain 1");
            }
        }
        let fast = CompiledEncoderLayer::build_with_math(&cfg, &lens, MathMode::Fast)
            .expect("legal schedules");
        for workers in [1usize, 4] {
            let pool = CpuPool::new(workers);
            let chained = fast.session().expect("outlines").forward(&pool, &w, &x);
            let want = unchained(&fast, &w, &x, &pool);
            assert_eq!(
                bits(&chained),
                bits(&want),
                "Fast lens {lens:?}, {workers} workers"
            );
        }
    }
}

/// The ledger's batch shape — 32 MNLI sequences at
/// `EncoderConfig::scaled(8)` — run serially and at 1 and 2 workers is
/// bit-identical to the stages run one by one on the owned-buffer VM,
/// with exactly their per-stage statistics: the independent pin behind
/// the benchmark's "1-thread parallel tier is bit-identical to
/// `forward_serial`" gate, which compares one code path at one width.
#[test]
fn mnli_batch_forwards_match_the_stages_run_alone() {
    let cfg = EncoderConfig::scaled(8);
    let lens = Dataset::Mnli.sample_lengths(32, 42);
    let w = EncoderWeights::random(&cfg, 21);
    let x = RaggedBatch::random(&lens, cfg.hidden, 22);
    let layer = CompiledEncoderLayer::build(&cfg, &lens).expect("legal schedules");
    let want = stage_by_stage(&layer, (&cfg, Attend::Full), &w, &x, false);
    let mut session = layer.session().expect("stages outline");
    assert_same_run(&session.run(None, &w, &x), &want, "serial");
    for workers in [1usize, 2] {
        let run = session.run(Some(&CpuPool::new(workers)), &w, &x);
        assert_same_run(&run, &want, &format!("{workers} workers"));
    }
}
