//! `serve_quantized` / `serve_unquantized`: `Server::run_threaded` under
//! a seeded open-loop trace — three drain passes (every request due at
//! t = 0) for throughput, one Poisson-paced pass for latency.

use cora_datasets::Dataset;
use cora_serve::{pack_ragged, Request, Server, ServerConfig};
use cora_transformer::{encoder_layer_padded, EncoderWeights};

use crate::common::{median_ms, timed_setup, Ctx};
use crate::gen::{balanced_lengths, batch_shapes, poisson_arrivals_ns, stratified_lengths, Rng};
use crate::report::{peak_rss_mb, Outcome};
use crate::serve_layers::{server_config, tuner_off, Served, MAX_BATCH_SEQS};
use crate::stats::{median, summarize};

/// The quantized length set: four distinct `length_class`es (32 and 48
/// would share one and stop affinity packing from telling them apart).
const LEN_SET: [usize; 4] = [8, 16, 32, 64];
/// Room for all 69 shapes `LEN_SET` × `MAX_BATCH_SEQS` can form.
const WARM_POOL_CAPACITY: usize = 128;
/// Drain passes; the reported throughput is their median, so one
/// disturbed pass does not move it.
const DRAIN_PASSES: usize = 3;
/// Share of `--seconds` each drain pass is sized for.
const DRAIN_SHARE: f64 = 0.12;
/// Share of `--seconds` the paced pass lasts.
const PACED_SHARE: f64 = 0.6;
/// Batches of each drain pass timed on the padded baseline.
const PADDED_BATCHES: usize = 150;

/// One serving workload. The rates are frozen here: the paced rate is
/// about 30 % of what the drain passes sustained when the baseline was
/// recorded, and must not follow the code under test.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Quantized lengths with every reachable shape warmed, or raw MNLI
    /// lengths against a cold pool of the default capacity.
    pub quantized: bool,
    /// Requests per second of drain pass the passes are sized with.
    pub drain_rps: f64,
    /// Offered rate of the paced pass, requests per second.
    pub paced_rps: f64,
}

struct State {
    w: EncoderWeights,
    config: ServerConfig,
    /// The server every pass of the quantized workload shares, all its
    /// shapes warmed; the unquantized one starts each pass cold.
    warmed: Option<Server>,
    /// `DRAIN_PASSES` drains, then the paced trace.
    traces: Vec<Vec<Request>>,
}

fn new_server(config: &ServerConfig, w: &EncoderWeights) -> Server {
    Server::with_tuner(config.clone(), w.clone(), tuner_off())
}

fn setup(ctx: &Ctx, spec: &Spec) -> State {
    let mut rng = Rng::new(ctx.seed, 0x5e7e);
    let w = ctx.weights(&mut rng);
    let drain_n = (spec.drain_rps * ctx.seconds * DRAIN_SHARE).ceil() as usize;
    let paced_n = (spec.paced_rps * ctx.seconds * PACED_SHARE).ceil() as usize;
    let mut first_id = 0u64;
    let mut trace = |n: usize, rate: Option<f64>, rng: &mut Rng| {
        let lens = if spec.quantized {
            balanced_lengths(&LEN_SET, n.max(LEN_SET.len()), rng)
        } else {
            stratified_lengths(Dataset::Mnli, n, rng)
        };
        let due = match rate {
            Some(rate) => poisson_arrivals_ns(lens.len(), rate, rng),
            None => vec![0; lens.len()],
        };
        let requests = crate::gen::requests(&lens, &due, ctx.cfg.hidden, first_id, rng);
        first_id += requests.len() as u64;
        requests
    };
    let mut traces: Vec<Vec<Request>> = (0..DRAIN_PASSES)
        .map(|_| trace(drain_n, None, &mut rng))
        .collect();
    traces.push(trace(paced_n, Some(spec.paced_rps), &mut rng));
    let capacity = if spec.quantized {
        WARM_POOL_CAPACITY
    } else {
        ServerConfig::new(ctx.cfg).pool_capacity
    };
    let config = server_config(ctx, capacity);
    let warmed = spec.quantized.then(|| {
        let mut server = new_server(&config, &w);
        server
            .warm(&batch_shapes(&LEN_SET, MAX_BATCH_SEQS))
            .expect("built-in schedules compile");
        server
    });
    State {
        w,
        config,
        warmed,
        traces,
    }
}

/// Useful rows per second of the padded hand-written layer on the
/// batches a drain pass formed, same pool: the baseline of
/// `speedup_vs_padded`.
fn padded_rows_per_s(ctx: &Ctx, w: &EncoderWeights, drain: &Served) -> f64 {
    let (mut rows, mut ms) = (0usize, 0.0f64);
    for b in drain.report.batches.iter().take(PADDED_BATCHES) {
        let x = pack_ragged(&drain.batch_requests(b), ctx.cfg.hidden);
        let max_len = x.lens.iter().copied().max().unwrap_or(0);
        let input = x.to_padded(max_len);
        // Sub-millisecond calls: the median of three sheds a preemption.
        ms += median_ms(3, || {
            std::hint::black_box(encoder_layer_padded(
                &ctx.pool, &ctx.cfg, w, &x.lens, max_len, &input,
            ));
        });
        rows += b.rows;
    }
    rows as f64 / ms * 1e3
}

pub fn run(ctx: &mut Ctx, spec: &Spec) -> Outcome {
    let mut out = Outcome::default();
    let (state, setup_s) = timed_setup(ctx, |ctx| setup(ctx, spec));
    let State {
        w,
        config,
        mut warmed,
        traces,
    } = state;

    let mut served = Vec::with_capacity(traces.len());
    // Per drain pass: served rows/s over the padded kernel's rows/s,
    // the baseline timed right after the pass so that a slow spell of
    // the machine weighs on both sides of the ratio.
    let mut speedups = Vec::with_capacity(DRAIN_PASSES);
    for (pass, trace) in traces.into_iter().enumerate() {
        let mut cold;
        let server = match &mut warmed {
            Some(server) => server,
            None => {
                cold = new_server(&config, &w);
                &mut cold
            }
        };
        let run = Served::run(ctx, server, trace);
        // Correctness gate after every serving phase.
        run.validate(ctx, &w, &mut out);
        if spec.quantized {
            out.check(run.misses() == 0, || {
                format!("pass {pass}: {} pool misses after warm-up", run.misses())
            });
        }
        let lat = summarize(&run.latencies_ms());
        println!(
            "pass {pass}: {} requests, {} rows, {} batches, {:.0} rows/s, {} misses; \
             latency {:.3} ms (q1 {:.3}, q3 {:.3}, n {})",
            run.requests.len(),
            run.rows(),
            run.report.batches.len(),
            run.rows_per_s(),
            run.misses(),
            lat.median,
            lat.q1,
            lat.q3,
            lat.n
        );
        if pass < DRAIN_PASSES && !ctx.trace {
            speedups.push(run.rows_per_s() / padded_rows_per_s(ctx, &w, &run));
        }
        served.push(run);
    }
    let (drains, paced) = (&served[..DRAIN_PASSES], &served[DRAIN_PASSES]);
    let drain_rows_per_s: Vec<f64> = drains.iter().map(Served::rows_per_s).collect();

    if ctx.trace {
        paced.record_spans(ctx);
        // Spans come from the finished report, so a traced server run is
        // an untraced one: this is the spread between two equal passes.
        out.metrics.put(
            "trace_overhead_share",
            1.0 - drain_rows_per_s[0] / drain_rows_per_s[1],
        );
        let mut shapes: Vec<&Vec<usize>> = paced.report.batches.iter().map(|b| &b.lens).collect();
        shapes.sort_unstable();
        // The most frequent batch shape stands for the workload.
        let lens = shapes
            .chunk_by(|a, b| a == b)
            .max_by_key(|run| run.len())
            .expect("the paced pass dispatched batches")[0]
            .clone();
        crate::layers::probe(ctx, &w, &lens, &mut out);
        crate::serve_layers::probe(ctx, &w, &config, &drains[1], paced, &mut out);
        return out;
    }

    let rows_per_s = median(&drain_rows_per_s);
    let m = &mut out.metrics;
    m.put("setup_s", setup_s);
    m.put("rows_per_s", rows_per_s);
    m.put("latency_p50_ms", median(&paced.latencies_ms()));
    m.put("speedup_vs_padded", median(&speedups));
    m.put("peak_rss_mb", peak_rss_mb());
    out
}
