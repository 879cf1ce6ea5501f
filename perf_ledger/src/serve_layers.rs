//! Per-layer probes of `cora_serve`: `queue`, `policy`, `request`,
//! `pool` and `server`, measured from a finished run's report and by
//! replaying its recorded batches from outside the crate.
//!
//! `RequestQueue::take` is `pub(crate)`, so the scheduler loop itself
//! cannot be rebuilt here; the inside of a batch comes from replaying
//! each `BatchRecord` through the same public calls the server makes.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cora_core::autotune::TuneBudget;
use cora_exec::MathMode;
use cora_serve::{
    pack_ragged, unpack_rows, BatchPolicy, BatchRecord, PoolStats, Request, RequestQueue, Server,
    ServerConfig, SessionPool, SimReport,
};
use cora_transformer::autotune::EncoderAutotuner;
use cora_transformer::{encoder_layer_ragged, EncoderWeights};

use crate::common::{bits_equal, max_abs_diff, median_ms, Ctx, REF_TOL};
use crate::gen::Rng;
use crate::report::Outcome;
use crate::stats::{median, percentile, tail_percentile};

/// The serving workloads' sequence cap per microbatch; the other
/// `BatchPolicy` fields keep their defaults.
pub const MAX_BATCH_SEQS: usize = 4;
/// Wall-clock budget of one batch replay.
const REPLAY_SECONDS: f64 = 1.5;
/// Requests of an offline workload pushed through a server for the
/// `serve.*` probes.
const DERIVED_REQUESTS: usize = 128;

/// A tuner that never searches: the ledger prices tuning separately
/// (`transformer.autotune.*`) and keeps it off every serving path.
pub fn tuner_off() -> EncoderAutotuner {
    let mut tuner = EncoderAutotuner::new(TuneBudget::default(), 0);
    tuner.disabled = true;
    tuner
}

pub fn server_config(ctx: &Ctx, pool_capacity: usize) -> ServerConfig {
    let mut cfg = ServerConfig::new(ctx.cfg);
    cfg.policy.max_batch_seqs = MAX_BATCH_SEQS;
    cfg.pool_capacity = pool_capacity;
    cfg
}

/// Yielding spinner threads, one per CPU, alive while a server run is
/// measured. A paced pass leaves the CPUs idle most of the time, and how
/// fast an idle virtual CPU comes back (host halt-polling, core sleep
/// states, clock ramp) flips between two states minutes apart on this
/// box: the same trace read a median latency of 15 ms or 20 ms. With no
/// CPU ever idle the run stays in the fast state. The spinners yield on
/// every turn, so a runnable server thread displaces them at once.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; `Drop` must not either.
            let _ = spinner.join();
        }
    }
}

/// One finished `run_threaded` call with the trace it served; request
/// ids are contiguous from `requests[0].id`.
#[derive(Debug)]
pub struct Served {
    pub requests: Vec<Request>,
    pub report: SimReport,
    /// Pool counters when the run started.
    pub stats_before: PoolStats,
    /// Recorder time when the run started (aligns the server's clock).
    pub started_ns: u64,
}

impl Served {
    pub fn run(ctx: &Ctx, server: &mut Server, requests: Vec<Request>) -> Served {
        let stats_before = server.pool_stats();
        let trace = requests.clone();
        let started_ns = ctx.rec.now_ns();
        let awake = KeepAwake::start();
        let report = server.run_threaded(trace, &ctx.pool);
        drop(awake);
        Served {
            requests,
            report,
            stats_before,
            started_ns,
        }
    }

    fn request(&self, id: u64) -> &Request {
        &self.requests[(id - self.requests[0].id) as usize]
    }

    /// The requests of one recorded batch, in batch order.
    pub fn batch_requests(&self, batch: &BatchRecord) -> Vec<Request> {
        batch
            .ids
            .iter()
            .map(|&id| self.request(id).clone())
            .collect()
    }

    pub fn rows(&self) -> usize {
        self.requests.iter().map(|r| r.len).sum()
    }

    /// Useful rows per second of the run's wall time.
    pub fn rows_per_s(&self) -> f64 {
        self.rows() as f64 * 1e9 / self.report.end_ns as f64
    }

    /// Pool misses during this run.
    pub fn misses(&self) -> u64 {
        self.report.pool_stats.misses - self.stats_before.misses
    }

    /// Due-time → completion latency of every successful request, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.report
            .completions
            .iter()
            .filter(|c| c.result.is_ok())
            .map(|c| (c.complete_ns - c.arrival_ns) as f64 / 1e6)
            .collect()
    }

    /// Checks every request completed exactly once with rows matching a
    /// reference computed here, outside the timed run, by the
    /// hand-written kernels; rejections and errors count as failures.
    pub fn validate(&self, ctx: &Ctx, w: &EncoderWeights, out: &mut Outcome) {
        let pool = cora_exec::CpuPool::new(2);
        let mut seen = vec![false; self.requests.len()];
        for chunk in self.report.completions.chunks(64) {
            let inputs: Vec<Request> = chunk.iter().map(|c| self.request(c.id).clone()).collect();
            let x = pack_ragged(&inputs, ctx.cfg.hidden);
            let reference = encoder_layer_ragged(&pool, &ctx.cfg, w, &x);
            let expected = unpack_rows(&reference.data, &x.lens, ctx.cfg.hidden);
            for (c, want) in chunk.iter().zip(&expected) {
                let first =
                    !std::mem::replace(&mut seen[(c.id - self.requests[0].id) as usize], true);
                let worst = c
                    .result
                    .as_ref()
                    .map_or(f32::INFINITY, |rows| max_abs_diff(rows, want));
                out.check(first && worst <= REF_TOL, || {
                    format!(
                        "request {}: completed {} with rows {worst} from the reference ({:?})",
                        c.id,
                        if first { "once" } else { "twice" },
                        c.result.as_ref().err()
                    )
                });
            }
        }
        for (r, _) in self.requests.iter().zip(&seen).filter(|(_, s)| !**s) {
            let why = self.report.rejected.iter().find(|(id, _)| *id == r.id);
            out.check(false, || {
                format!("request {} never completed ({why:?})", r.id)
            });
        }
    }

    /// Request and batch spans straight from the report.
    pub fn record_spans(&self, ctx: &mut Ctx) {
        let at = |ns: u64| self.started_ns + ns;
        for b in &self.report.batches {
            ctx.rec.add(
                "batch",
                (at(b.dispatch_ns), at(b.complete_ns)),
                None,
                b.index as u64,
                0,
            );
        }
        for c in &self.report.completions {
            // Up to 32 requests overlap; give each its own lane.
            let lane = 1 + (c.id % 32) as u32;
            let root = ctx.rec.add(
                "request",
                (at(c.arrival_ns), at(c.complete_ns)),
                None,
                c.id,
                lane,
            );
            ctx.rec.add(
                "queue_wait",
                (at(c.arrival_ns), at(c.dispatch_ns)),
                root,
                c.id,
                lane,
            );
            ctx.rec.add(
                "service",
                (at(c.dispatch_ns), at(c.complete_ns)),
                root,
                c.id,
                lane,
            );
        }
    }
}

/// Admission time minus due time of every admitted request, ms, parsed
/// from the report's `t=<ns> admit id=<id> …` event lines.
fn generator_lag_ms(served: &Served) -> Vec<f64> {
    served
        .report
        .events
        .iter()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let t: u64 = fields.next()?.strip_prefix("t=")?.parse().ok()?;
            if fields.next()? != "admit" {
                return None;
            }
            let id: u64 = fields.next()?.strip_prefix("id=")?.parse().ok()?;
            Some(t.saturating_sub(served.request(id).arrival_ns) as f64 / 1e6)
        })
        .collect()
}

/// Replays recorded batches through pack → checkout → run → check-in →
/// unpack on a pool of the server's capacity, one span each, and
/// reports the `serve.request.*`, `serve.pool.checkout_*` and
/// `serve.server.overhead_share` metrics.
fn replay(
    ctx: &mut Ctx,
    w: &EncoderWeights,
    served: &Served,
    pool_capacity: usize,
    out: &mut Outcome,
) {
    let (cfg, exec) = (ctx.cfg, ctx.pool);
    let mut pool = SessionPool::new(cfg, MathMode::Strict, pool_capacity, tuner_off());
    let (mut pack_us, mut unpack_us, mut hit_us, mut miss_ms) = (vec![], vec![], vec![], vec![]);
    let (mut run_ms, mut service_ms) = (0.0, 0.0);
    let started = Instant::now();
    let mut last_lens = Vec::new();
    for b in &served.report.batches {
        if started.elapsed().as_secs_f64() > REPLAY_SECONDS {
            break;
        }
        let op = b.index as u64;
        let selected = served.batch_requests(b);
        let was_pooled = pool.contains(&b.lens);
        let (rows, _) = ctx.rec.span("replay_batch", op, |rec| {
            let (x, ms) = rec.span("pack_ragged", op, |_| pack_ragged(&selected, cfg.hidden));
            pack_us.push(ms * 1e3);
            let (session, ms) = rec.span("pool_checkout", op, |_| pool.checkout(&b.lens));
            let mut session = session.expect("built-in schedules compile");
            if was_pooled {
                hit_us.push(ms * 1e3);
            } else {
                miss_ms.push(ms);
            }
            let (y, ms) = rec.span("session_run", op, |_| session.run(&exec, w, &x));
            run_ms += ms;
            rec.span("pool_check_in", op, |_| pool.check_in(session));
            let (rows, ms) = rec.span("unpack_rows", op, |_| unpack_rows(&y, &b.lens, cfg.hidden));
            unpack_us.push(ms * 1e3);
            rows
        });
        service_ms += (b.complete_ns - b.dispatch_ns) as f64 / 1e6;
        // The replay must reproduce what the server returned.
        let same = b.ids.iter().zip(&rows).all(|(&id, rows)| {
            served
                .report
                .completions
                .iter()
                .find(|c| c.id == id)
                .and_then(|c| c.result.as_ref().ok())
                .is_some_and(|served_rows| bits_equal(served_rows, rows))
        });
        out.check(same || b.failed, || {
            format!("batch {}: replay differs from the served rows", b.index)
        });
        last_lens.clone_from(&b.lens);
    }
    // Every replay has a miss (the pool starts empty); make sure it
    // also has a hit, on a shape known to be pooled.
    if hit_us.is_empty() {
        let t0 = Instant::now();
        let session = pool.checkout(&last_lens).expect("pooled shape");
        hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        pool.check_in(session);
    }
    let m = &mut out.metrics;
    m.put("serve.request.pack_us", median(&pack_us));
    m.put("serve.request.unpack_us", median(&unpack_us));
    m.put("serve.pool.checkout_hit_us", median(&hit_us));
    m.put("serve.pool.checkout_miss_ms", median(&miss_ms));
    // The share of the recorded service time that is not the run itself.
    m.put("serve.server.overhead_share", 1.0 - run_ms / service_ms);
}

/// `queue` and `policy` in isolation, on a queue rebuilt from the trace.
fn queue_and_policy(served: &Served, policy: &BatchPolicy, hidden: usize, out: &mut Outcome) {
    let sample: Vec<Request> = served.requests.iter().take(256).cloned().collect();
    let admit_ns: Vec<f64> = (0..5)
        .map(|_| {
            let batch = sample.clone();
            let mut queue = RequestQueue::new(hidden);
            let t0 = Instant::now();
            for r in batch {
                queue.admit(r).expect("trace requests are well-formed");
            }
            t0.elapsed().as_nanos() as f64 / sample.len() as f64
        })
        .collect();
    out.metrics.put("serve.queue.admit_ns", median(&admit_ns));

    // A queue as deep as two full batches, none overdue.
    let mut queue = RequestQueue::new(hidden);
    for r in sample.iter().take(2 * MAX_BATCH_SEQS).cloned() {
        queue.admit(r).expect("trace requests are well-formed");
    }
    let calls = 10_000;
    let select_ms = median_ms(5, || {
        for _ in 0..calls {
            std::hint::black_box(policy.select(&queue, 0));
        }
    });
    out.metrics
        .put("serve.policy.select_ns", select_ms * 1e6 / calls as f64);
}

/// Every `serve.*` metric: throughput from `drain`, the rest from
/// `paced` (the same run twice when there is only one).
pub fn probe(
    ctx: &mut Ctx,
    w: &EncoderWeights,
    config: &ServerConfig,
    drain: &Served,
    paced: &Served,
    out: &mut Outcome,
) {
    let report = &paced.report;
    queue_and_policy(paced, &config.policy, ctx.cfg.hidden, out);
    replay(ctx, w, paced, config.pool_capacity, out);

    let batches = report.batches.len() as f64;
    let service: Vec<f64> = report
        .batches
        .iter()
        .map(|b| (b.complete_ns - b.dispatch_ns) as f64 / 1e6)
        .collect();
    let wait: Vec<f64> = report
        .completions
        .iter()
        .map(|c| (c.dispatch_ns - c.arrival_ns) as f64 / 1e6)
        .collect();
    let latency = paced.latencies_ms();
    let tail = tail_percentile(latency.len());
    let shapes: BTreeSet<&[usize]> = report.batches.iter().map(|b| &b.lens[..]).collect();
    let hits = report.batches.iter().filter(|b| b.pool_hit).count() as f64;

    let m = &mut out.metrics;
    m.put(
        "serve.policy.batch_seqs_mean",
        report.completions.len() as f64 / batches,
    );
    m.put(
        "serve.policy.batch_rows_mean",
        report.batches.iter().map(|b| b.rows).sum::<usize>() as f64 / batches,
    );
    m.put("serve.pool.hit_share", hits / batches);
    m.put(
        "serve.pool.evictions",
        (report.pool_stats.evictions - paced.stats_before.evictions) as f64,
    );
    m.put("serve.pool.distinct_shapes", shapes.len() as f64);
    m.put("serve.server.queue_wait_p50_ms", median(&wait));
    m.put("serve.server.service_p50_ms", median(&service));
    m.put(
        "serve.server.engine_busy_share",
        service.iter().sum::<f64>() * 1e6 / report.end_ns as f64,
    );
    m.put("serve.server.latency_p99_ms", percentile(&latency, 99.0));
    m.put("serve.server.latency_tail_ms", percentile(&latency, tail));
    m.put("serve.server.latency_tail_pct", tail);
    m.put(
        "serve.server.generator_lag_p99_ms",
        percentile(&generator_lag_ms(paced), 99.0),
    );
    m.put(
        "serve.server.requests_per_s",
        drain.report.completions.len() as f64 * 1e9 / drain.report.end_ns as f64,
    );
}

/// The `serve.*` probes for an offline workload: its sequences become
/// requests, all due at once, to a cold server with the serving
/// workloads' policy and the default pool capacity.
pub fn probe_derived(ctx: &mut Ctx, w: &EncoderWeights, sequences: &[usize], out: &mut Outcome) {
    let mut rng = Rng::new(ctx.seed, 0xde71);
    let lens = &sequences[..sequences.len().min(DERIVED_REQUESTS)];
    let requests = crate::gen::requests(lens, &vec![0; lens.len()], ctx.cfg.hidden, 0, &mut rng);
    let config = server_config(ctx, ServerConfig::new(ctx.cfg).pool_capacity);
    let mut server = Server::with_tuner(config.clone(), w.clone(), tuner_off());
    let served = Served::run(ctx, &mut server, requests);
    served.validate(ctx, w, out);
    served.record_spans(ctx);
    probe(ctx, w, &config, &served, &served, out);
}
