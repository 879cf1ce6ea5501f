//! `enc_mnli` / `enc_race`: warm offline forwards of one encoder layer
//! on seeded batches, compiled tier against the padded baseline.

use cora_datasets::Dataset;
use cora_transformer::encoder_compiled::CompiledEncoderLayer;
use cora_transformer::{
    encoder_layer_padded, encoder_layer_ragged, EncoderPrep, EncoderWeights, RaggedBatch,
};

use crate::common::{bits_equal, max_abs_diff, timed_setup, Ctx, Deadline, REF_TOL};
use crate::gen::{stratified_lengths, Rng};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::summarize;

/// Sizes of one offline workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub dataset: Dataset,
    pub seqs_per_batch: usize,
    pub batches: usize,
}

/// One batch with everything set-up prepares for it.
struct Batch {
    x: RaggedBatch,
    max_len: usize,
    padded_in: Vec<f32>,
    /// `encoder_layer_ragged`'s output: hand-written kernels, never the
    /// compiler.
    reference: Vec<f32>,
    layer: CompiledEncoderLayer,
    prep: EncoderPrep,
}

fn setup(ctx: &Ctx, spec: &Spec) -> (EncoderWeights, Vec<Batch>) {
    let mut rng = Rng::new(ctx.seed, 0x0ff1);
    let w = ctx.weights(&mut rng);
    let batches = (0..spec.batches)
        .map(|_| {
            let lens = stratified_lengths(spec.dataset, spec.seqs_per_batch, &mut rng);
            let x = RaggedBatch::random(&lens, ctx.cfg.hidden, rng.next_u64());
            let max_len = lens.iter().copied().max().unwrap_or(0);
            let layer =
                CompiledEncoderLayer::build(&ctx.cfg, &lens).expect("built-in schedules are legal");
            Batch {
                max_len,
                padded_in: x.to_padded(max_len),
                reference: encoder_layer_ragged(&ctx.pool, &ctx.cfg, &w, &x).data,
                prep: layer.prepare().expect("built-in schedules outline"),
                layer,
                x,
            }
        })
        .collect();
    (w, batches)
}

/// Per-batch timing series of one measuring loop.
struct Samples {
    compiled_ms: Vec<Vec<f64>>,
    padded_ms: Vec<Vec<f64>>,
}

impl Samples {
    /// Σ over batches of the median time of `series`.
    fn sum_of_medians(series: &[Vec<f64>]) -> f64 {
        series.iter().map(|s| summarize(s).median).sum()
    }
}

/// Interleaves compiled and padded forwards over the batches until the
/// deadline (at least one round); every compiled output is compared,
/// outside the timed call, with the one the gate accepted.
fn measure(
    ctx: &mut Ctx,
    w: &EncoderWeights,
    batches: &mut [Batch],
    accepted: &[Vec<f32>],
    deadline: Deadline,
    out: &mut Outcome,
) -> Samples {
    let (cfg, pool) = (ctx.cfg, ctx.pool);
    let mut s = Samples {
        compiled_ms: vec![Vec::new(); batches.len()],
        padded_ms: vec![Vec::new(); batches.len()],
    };
    loop {
        for (b, batch) in batches.iter_mut().enumerate() {
            let (x, layer, prep) = (&batch.x, &batch.layer, &mut batch.prep);
            let (y, ms) = ctx.rec.span("batch_forward", b as u64, |rec| {
                let mut session = rec
                    .span("session_with", b as u64, move |_| layer.session_with(prep))
                    .0;
                rec.span("forward", b as u64, |_| session.forward(&pool, w, x))
                    .0
            });
            s.compiled_ms[b].push(ms);
            out.check(bits_equal(&y, &accepted[b]), || {
                format!("batch {b}: a timed forward changed its output")
            });
            let (_, ms) = ctx.rec.span("padded_forward", b as u64, |_| {
                std::hint::black_box(encoder_layer_padded(
                    &pool,
                    &cfg,
                    w,
                    &batch.x.lens,
                    batch.max_len,
                    &batch.padded_in,
                ))
            });
            s.padded_ms[b].push(ms);
        }
        if deadline.passed() {
            return s;
        }
    }
}

pub fn run(ctx: &mut Ctx, spec: &Spec) -> Outcome {
    let mut out = Outcome::default();
    let ((w, mut batches), setup_s) = timed_setup(ctx, |ctx| setup(ctx, spec));
    let rows: usize = batches.iter().map(|b| b.x.rows()).sum();

    // Correctness gate before any timing.
    let mut accepted = Vec::with_capacity(batches.len());
    for (b, batch) in batches.iter_mut().enumerate() {
        let mut session = batch.layer.session_with(&mut batch.prep);
        let y = session.forward(&ctx.pool, &w, &batch.x);
        let worst = max_abs_diff(&y, &batch.reference);
        out.check(worst <= REF_TOL, || {
            format!("batch {b}: compiled output is {worst} from the hand-written kernels")
        });
        let serial = session.forward_serial(&w, &batch.x);
        out.check(bits_equal(&y, &serial), || {
            format!("batch {b}: 1-thread parallel tier is not bit-identical to forward_serial")
        });
        accepted.push(y);
    }

    let rows_per_s = |s: &Samples| rows as f64 / Samples::sum_of_medians(&s.compiled_ms) * 1e3;
    if ctx.trace {
        let half = ctx.seconds / 2.0;
        let traced = measure(
            ctx,
            &w,
            &mut batches,
            &accepted,
            Deadline::after(half),
            &mut out,
        );
        ctx.rec.set_enabled(false);
        let plain = measure(
            ctx,
            &w,
            &mut batches,
            &accepted,
            Deadline::after(half),
            &mut out,
        );
        ctx.rec.set_enabled(true);
        out.metrics.put(
            "trace_overhead_share",
            1.0 - rows_per_s(&traced) / rows_per_s(&plain),
        );
        let lens = batches[0].x.lens.clone();
        crate::layers::probe(ctx, &w, &lens, &mut out);
        let sequences: Vec<usize> = batches.iter().flat_map(|b| b.x.lens.clone()).collect();
        crate::serve_layers::probe_derived(ctx, &w, &sequences, &mut out);
        return out;
    }

    let deadline = Deadline::after(ctx.seconds);
    let s = measure(ctx, &w, &mut batches, &accepted, deadline, &mut out);
    for (b, (c, p)) in s.compiled_ms.iter().zip(&s.padded_ms).enumerate() {
        let (c, p) = (summarize(c), summarize(p));
        println!(
            "batch {b}: {} rows; compiled {:.3} ms (q1 {:.3}, q3 {:.3}, n {}); \
             padded {:.3} ms (q1 {:.3}, q3 {:.3}, n {})",
            batches[b].x.rows(),
            c.median,
            c.q1,
            c.q3,
            c.n,
            p.median,
            p.q1,
            p.q3,
            p.n
        );
    }
    let compiled = Samples::sum_of_medians(&s.compiled_ms);
    let m = &mut out.metrics;
    m.put("setup_s", setup_s);
    m.put("rows_per_s", rows_per_s(&s));
    m.put("latency_p50_ms", compiled / batches.len() as f64);
    m.put(
        "speedup_vs_padded",
        Samples::sum_of_medians(&s.padded_ms) / compiled,
    );
    m.put("peak_rss_mb", peak_rss_mb());
    out
}
