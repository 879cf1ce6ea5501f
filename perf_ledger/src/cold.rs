//! `cold_shapes`: unseen batch shapes taken from nothing to their first
//! output — `build` → `prepare` → first `forward`, tuner off.

use cora_datasets::Dataset;
use cora_transformer::encoder_compiled::CompiledEncoderLayer;
use cora_transformer::{encoder_layer_padded, encoder_layer_ragged, EncoderWeights, RaggedBatch};

use crate::common::{bits_equal, max_abs_diff, timed_setup, Ctx, Deadline, REF_TOL};
use crate::gen::{stratified_lengths, Rng};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, summarize};

/// Distinct unquantized shapes per run, cycled until the time is up.
const SHAPES: usize = 32;
const SEQS_PER_SHAPE: usize = 16;
/// Operations that also check the parallel tier against `forward_serial`.
const SERIAL_CHECKS: usize = 4;

struct Shape {
    x: RaggedBatch,
    max_len: usize,
    padded_in: Vec<f32>,
    reference: Vec<f32>,
}

fn setup(ctx: &Ctx) -> (EncoderWeights, Vec<Shape>) {
    let mut rng = Rng::new(ctx.seed, 0xc01d);
    let w = ctx.weights(&mut rng);
    let shapes = (0..SHAPES)
        .map(|_| {
            let lens = stratified_lengths(Dataset::Mnli, SEQS_PER_SHAPE, &mut rng);
            let x = RaggedBatch::random(&lens, ctx.cfg.hidden, rng.next_u64());
            let max_len = lens.iter().copied().max().unwrap_or(0);
            Shape {
                max_len,
                padded_in: x.to_padded(max_len),
                reference: encoder_layer_ragged(&ctx.pool, &ctx.cfg, &w, &x).data,
                x,
            }
        })
        .collect();
    (w, shapes)
}

#[derive(Default)]
struct Samples {
    cold_ms: Vec<f64>,
    padded_ms: Vec<f64>,
    rows: Vec<usize>,
}

impl Samples {
    /// Median over the operations of rows / time: a disturbed operation
    /// does not move it the way it moves Σ rows / Σ time.
    fn rows_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rows
            .iter()
            .zip(&self.cold_ms)
            .map(|(&rows, ms)| rows as f64 / ms * 1e3)
            .collect();
        median(&rates)
    }

    /// Median over the operations of padded time / cold time.
    fn speedup_vs_padded(&self) -> f64 {
        let ratios: Vec<f64> = self
            .padded_ms
            .iter()
            .zip(&self.cold_ms)
            .map(|(p, c)| p / c)
            .collect();
        median(&ratios)
    }
}

/// Cold operations over the shapes, round robin from `*next`, until the
/// deadline (at least one); each is followed by one padded forward of
/// the same shape for the baseline.
fn measure(
    ctx: &mut Ctx,
    w: &EncoderWeights,
    shapes: &[Shape],
    next: &mut usize,
    deadline: Deadline,
    out: &mut Outcome,
) -> Samples {
    let (cfg, pool) = (ctx.cfg, ctx.pool);
    let mut s = Samples::default();
    loop {
        let op = *next as u64;
        let shape = &shapes[*next % shapes.len()];
        *next += 1;
        let lens = &shape.x.lens;
        let ((layer, mut prep, y), ms) = ctx.rec.span("cold_op", op, |rec| {
            let layer = rec
                .span("build", op, |_| {
                    CompiledEncoderLayer::build(&cfg, lens).expect("built-in schedules are legal")
                })
                .0;
            let mut prep = rec
                .span("prepare", op, |_| {
                    layer.prepare().expect("built-in schedules outline")
                })
                .0;
            let y = rec
                .span("first_forward", op, |_| {
                    layer.session_with(&mut prep).forward(&pool, w, &shape.x)
                })
                .0;
            (layer, prep, y)
        });
        s.cold_ms.push(ms);
        s.rows.push(shape.x.rows());
        let worst = max_abs_diff(&y, &shape.reference);
        out.check(worst <= REF_TOL, || {
            format!("shape {lens:?}: first output is {worst} from the hand-written kernels")
        });
        if (op as usize) < SERIAL_CHECKS {
            let serial = layer.session_with(&mut prep).forward_serial(w, &shape.x);
            out.check(bits_equal(&y, &serial), || {
                format!("shape {lens:?}: parallel tier is not bit-identical to forward_serial")
            });
        }
        let (_, ms) = ctx.rec.span("padded_forward", op, |_| {
            std::hint::black_box(encoder_layer_padded(
                &pool,
                &cfg,
                w,
                lens,
                shape.max_len,
                &shape.padded_in,
            ))
        });
        s.padded_ms.push(ms);
        if deadline.passed() {
            return s;
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((w, shapes), setup_s) = timed_setup(ctx, setup);
    let mut next = 0usize;

    if ctx.trace {
        let half = ctx.seconds / 2.0;
        let traced = measure(ctx, &w, &shapes, &mut next, Deadline::after(half), &mut out);
        ctx.rec.set_enabled(false);
        let plain = measure(ctx, &w, &shapes, &mut next, Deadline::after(half), &mut out);
        ctx.rec.set_enabled(true);
        out.metrics.put(
            "trace_overhead_share",
            1.0 - traced.rows_per_s() / plain.rows_per_s(),
        );
        crate::layers::probe(ctx, &w, &shapes[0].x.lens, &mut out);
        let sequences: Vec<usize> = shapes.iter().flat_map(|s| s.x.lens.clone()).collect();
        crate::serve_layers::probe_derived(ctx, &w, &sequences, &mut out);
        return out;
    }

    let deadline = Deadline::after(ctx.seconds);
    let s = measure(ctx, &w, &shapes, &mut next, deadline, &mut out);
    let (c, p) = (summarize(&s.cold_ms), summarize(&s.padded_ms));
    println!(
        "cold op {:.3} ms (q1 {:.3}, q3 {:.3}, n {}); padded forward {:.3} ms (q1 {:.3}, q3 {:.3}, n {})",
        c.median, c.q1, c.q3, c.n, p.median, p.q1, p.q3, p.n
    );
    let m = &mut out.metrics;
    m.put("setup_s", setup_s);
    m.put("rows_per_s", s.rows_per_s());
    m.put("latency_p50_ms", c.median);
    m.put("speedup_vs_padded", s.speedup_vs_padded());
    m.put("peak_rss_mb", peak_rss_mb());
    out
}
