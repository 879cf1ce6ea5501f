//! The continuous-batching scheduler: one engine, a validated admission
//! queue, a policy-driven packer and a shape-keyed session pool —
//! drivable by a deterministic discrete-event simulator
//! ([`Server::run_sim`]: virtual time, zero real threads, byte-stable
//! event logs) or by real threads against the wall clock
//! ([`Server::run_threaded`], what `perf_ledger` times).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cora_core::autotune::TuneBudget;
use cora_exec::cpu::CpuPool;
use cora_exec::MathMode;
use cora_transformer::autotune::EncoderAutotuner;
use cora_transformer::{CompiledEncoderLayer, EncoderConfig, EncoderPrep, EncoderWeights};

use crate::clock::{ChannelSource, Clock, Source, SystemClock, VirtualClock};
use crate::policy::BatchPolicy;
use crate::pool::{PoolStats, SessionPool};
use crate::queue::RequestQueue;
use crate::request::{pack_ragged, unpack_rows, Request};

/// Server configuration: plain fields the caller sets over
/// [`ServerConfig::new`]'s defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The encoder model the server runs (single layer per request).
    pub encoder: EncoderConfig,
    /// Float semantics of the compiled tier.
    pub math: MathMode,
    /// The batching policy.
    pub policy: BatchPolicy,
    /// Capacity bound on idle pooled sessions.
    pub pool_capacity: usize,
    /// When true (and `math` is Strict), every microbatch's per-request
    /// outputs are differentially verified — bit-for-bit — against a
    /// single-request run of the compiled tier. Catches any batching or
    /// packing bug at the cost of re-running each request alone.
    pub differential_check: bool,
}

impl ServerConfig {
    /// Defaults for `encoder`: Strict math, default policy, capacity 8,
    /// no differential checking.
    pub fn new(encoder: EncoderConfig) -> ServerConfig {
        ServerConfig {
            encoder,
            math: MathMode::Strict,
            policy: BatchPolicy::default(),
            pool_capacity: 8,
            differential_check: false,
        }
    }
}

/// Deterministic analytic service-time model for the simulator: the
/// virtual nanoseconds a microbatch occupies the engine. Integer
/// arithmetic only — identical on every host, which is what keeps the
/// event log byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed per-dispatch overhead.
    pub base_ns: u64,
    /// Cost per row (the linear projection/FFN stages).
    pub row_ns: u64,
    /// Cost per `len²` attention cell (scores/softmax/attnv).
    pub cell_ns: u64,
}

impl Default for ServiceModel {
    fn default() -> ServiceModel {
        ServiceModel {
            base_ns: 50_000,
            row_ns: 10_000,
            cell_ns: 100,
        }
    }
}

impl ServiceModel {
    /// Virtual service duration of a batch with these row lengths
    /// (always ≥ 1 ns so virtual time strictly advances).
    pub fn service_ns(&self, lens: &[usize]) -> u64 {
        let mut t = self.base_ns;
        for &l in lens {
            let l = l as u64;
            t += l * self.row_ns + l * l * self.cell_ns;
        }
        t.max(1)
    }
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Sequence length in rows.
    pub len: usize,
    /// When the request arrived.
    pub arrival_ns: u64,
    /// When its microbatch was dispatched.
    pub dispatch_ns: u64,
    /// When its microbatch completed.
    pub complete_ns: u64,
    /// Index of the microbatch that served it.
    pub batch: usize,
    /// The request's output rows, or the failure message if its
    /// microbatch panicked.
    pub result: Result<Vec<f32>, String>,
}

/// One dispatched microbatch.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Dispatch sequence number.
    pub index: usize,
    /// Dispatch time.
    pub dispatch_ns: u64,
    /// Completion time (the engine is busy in between).
    pub complete_ns: u64,
    /// Request ids in batch (canonical) order.
    pub ids: Vec<u64>,
    /// Row lengths in batch order (sorted longest-first).
    pub lens: Vec<usize>,
    /// Σ lens.
    pub rows: usize,
    /// True when the session pool had an idle entry for the shape.
    pub pool_hit: bool,
    /// True when the microbatch panicked (all its requests failed).
    pub failed: bool,
}

/// Everything one [`Server::run_sim`] / [`Server::run_threaded`] call
/// produced: the event log (byte-stable per seed in sim mode),
/// per-request completions, per-batch records and pool counters.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Human-readable event lines, in event order.
    pub events: Vec<String>,
    /// Per-request completions, in completion order.
    pub completions: Vec<Completion>,
    /// Per-microbatch records, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Requests refused at admission: `(id, reason)`.
    pub rejected: Vec<(u64, String)>,
    /// Clock value when the run finished.
    pub end_ns: u64,
    /// Session-pool counters at the end of the run.
    pub pool_stats: PoolStats,
}

impl SimReport {
    /// The event log as one newline-terminated string — what the CI
    /// determinism gate byte-compares across same-seed runs.
    pub fn event_log(&self) -> String {
        let mut s = self.events.join("\n");
        s.push('\n');
        s
    }

    /// Latency (complete − arrival) percentile over successful
    /// completions, `p` in (0, 100]. Zero when nothing succeeded.
    pub fn latency_percentile_ns(&self, p: f64) -> u64 {
        let mut lat: Vec<u64> = self
            .completions
            .iter()
            .filter(|c| c.result.is_ok())
            .map(|c| c.complete_ns - c.arrival_ns)
            .collect();
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }

    /// Successful completions per second of run time.
    pub fn throughput_rps(&self) -> f64 {
        let ok = self.completions.iter().filter(|c| c.result.is_ok()).count();
        if self.end_ns == 0 {
            return 0.0;
        }
        ok as f64 * 1e9 / self.end_ns as f64
    }

    /// The largest *engine-idle* wait any request experienced: its
    /// queue wait minus the time the engine was busy during that wait.
    /// The policy discipline bounds this by
    /// [`BatchPolicy::max_wait_ns`] — the starvation invariant the
    /// simulation suite asserts (see [`crate::policy`]).
    pub fn max_idle_wait_ns(&self) -> u64 {
        let busy: Vec<(u64, u64)> = self
            .batches
            .iter()
            .map(|b| (b.dispatch_ns, b.complete_ns))
            .collect();
        self.completions
            .iter()
            .map(|c| {
                let wait = c.dispatch_ns - c.arrival_ns;
                let overlap: u64 = busy
                    .iter()
                    .map(|&(s, e)| e.min(c.dispatch_ns).saturating_sub(s.max(c.arrival_ns)))
                    .sum();
                wait.saturating_sub(overlap)
            })
            .max()
            .unwrap_or(0)
    }
}

/// Mutable bookkeeping of one run.
#[derive(Debug, Default)]
struct RunState {
    events: Vec<String>,
    completions: Vec<Completion>,
    batches: Vec<BatchRecord>,
    rejected: Vec<(u64, String)>,
    /// Microbatches dispatched so far (indexes the next one).
    dispatched: usize,
}

impl RunState {
    fn log(&mut self, t: u64, line: String) {
        self.events.push(format!("t={t} {line}"));
    }

    fn finish(self, end_ns: u64, pool_stats: PoolStats) -> SimReport {
        SimReport {
            events: self.events,
            completions: self.completions,
            batches: self.batches,
            rejected: self.rejected,
            end_ns,
            pool_stats,
        }
    }
}

/// A dispatched microbatch in flight: outputs are computed at dispatch
/// (the engine is synchronous); the simulator delivers them when the
/// modelled service time elapses.
#[derive(Debug)]
struct InFlight {
    index: usize,
    dispatch_ns: u64,
    done_ns: u64,
    requests: Vec<Request>,
    results: Vec<Result<Vec<f32>, String>>,
    pool_hit: bool,
    failed: bool,
}

/// The continuous-batching inference server. See the crate docs for
/// the architecture and [`Server::run_sim`] for a worked example.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    weights: EncoderWeights,
    queue: RequestQueue,
    pool: SessionPool,
    /// Batch indices the test hook fails with an injected panic.
    faults: BTreeSet<usize>,
    /// Differential-check reference layers, one per single-request
    /// length actually seen.
    ref_layers: BTreeMap<usize, (CompiledEncoderLayer, EncoderPrep)>,
}

impl Server {
    /// A server over `weights` whose pool misses build the hand-picked
    /// schedules: no schedule search runs (`PoolStats::tune_trials`
    /// stays 0). Searching is opt-in — pass an enabled autotuner
    /// through [`Server::with_tuner`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` do not match `cfg.encoder`.
    pub fn new(cfg: ServerConfig, weights: EncoderWeights) -> Server {
        let mut tuner = EncoderAutotuner::new(TuneBudget::default(), 42);
        tuner.disabled = true;
        Server::with_tuner(cfg, weights, tuner)
    }

    /// [`Server::new`] with an explicit autotuner, e.g. an enabled one
    /// that searches schedules on every pool miss.
    pub fn with_tuner(
        cfg: ServerConfig,
        weights: EncoderWeights,
        tuner: EncoderAutotuner,
    ) -> Server {
        let hidden = cfg.encoder.hidden;
        let pool = SessionPool::new(cfg.encoder, cfg.math, cfg.pool_capacity, tuner);
        Server {
            cfg,
            weights,
            queue: RequestQueue::new(hidden),
            pool,
            faults: BTreeSet::new(),
            ref_layers: BTreeMap::new(),
        }
    }

    /// Pre-builds and pools a session per shape — cold-start avoidance:
    /// deployments warm the expected batch shapes before admitting
    /// load, so steady-state traffic never pays a compile. Shapes
    /// already pooled are skipped. The pool's capacity bound still
    /// applies, so warm at most `pool_capacity` shapes.
    ///
    /// # Errors
    ///
    /// Returns the schedule error if a shape fails to build — a
    /// compiler regression by definition.
    pub fn warm(
        &mut self,
        shapes: &[Vec<usize>],
    ) -> Result<(), cora_core::schedule::ScheduleError> {
        for lens in shapes {
            if !self.pool.contains(lens) {
                let session = self.pool.checkout(lens)?;
                self.pool.check_in(session);
            }
        }
        Ok(())
    }

    /// Test hook: the `batch_index`-th dispatched microbatch panics
    /// mid-run. The fault-injection suite uses this to prove a panic
    /// fails only that microbatch's requests (poisoned-session
    /// eviction) while the queue keeps serving.
    pub fn inject_fault(&mut self, batch_index: usize) {
        self.faults.insert(batch_index);
    }

    /// The session pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Drives the server through a deterministic discrete-event
    /// simulation: virtual time, no threads, no sleeps. Microbatches
    /// execute for real (on the calling thread) but occupy the virtual
    /// engine for `model.service_ns(..)` — so batching decisions,
    /// waits and latencies are reproducible bit-for-bit from the seed
    /// while outputs stay genuine.
    ///
    /// Same trace + same config ⇒ byte-identical
    /// [`SimReport::event_log`] — the CI determinism gate.
    ///
    /// # Example
    ///
    /// ```
    /// use cora_exec::MathMode;
    /// use cora_serve::{
    ///     Arrival, Server, ServerConfig, ServiceModel, TraceConfig, TraceSource,
    /// };
    /// use cora_transformer::{EncoderConfig, EncoderWeights};
    ///
    /// let encoder = EncoderConfig { hidden: 8, heads: 2, head_dim: 4, ff: 16, layers: 1 };
    /// let mut cfg = ServerConfig::new(encoder);
    /// cfg.differential_check = true; // verify every batch per-request
    /// let mut server = Server::new(cfg, EncoderWeights::random(&encoder, 1));
    ///
    /// let trace = cora_serve::trace::generate(&TraceConfig {
    ///     seed: 42,
    ///     requests: 6,
    ///     hidden: encoder.hidden,
    ///     len_range: (0, 5),
    ///     arrival: Arrival::Bursty { burst: 3, gap_ns: 1_000_000 },
    /// });
    /// let report = server.run_sim(TraceSource::new(trace), &ServiceModel::default());
    ///
    /// // Every admitted request completed exactly once, with outputs.
    /// assert_eq!(report.completions.len(), 6);
    /// assert!(report.completions.iter().all(|c| c.result.is_ok()));
    /// // Same seed ⇒ the event log is byte-identical across runs.
    /// assert!(report.event_log().starts_with("t=0 admit id=0"));
    /// ```
    pub fn run_sim<S: Source>(&mut self, mut source: S, model: &ServiceModel) -> SimReport {
        let clock = VirtualClock::new();
        if let Some(t) = source.peek_ns() {
            clock.advance_to(t);
        }
        let mut st = RunState::default();
        let mut in_flight: Option<InFlight> = None;
        loop {
            let now = clock.now_ns();
            for req in source.poll(now) {
                self.admit(req, now, &mut st);
            }
            if in_flight.as_ref().is_some_and(|fl| fl.done_ns <= now) {
                let fl = in_flight.take().expect("checked");
                self.complete_batch(fl, &mut st);
            }
            let draining = source.exhausted();
            if in_flight.is_none() && self.cfg.policy.ready(&self.queue, now, draining) {
                in_flight = Some(self.dispatch(now, model, None, &mut st));
            }

            // Plan the jump to the next event: arrival, batch
            // completion, or the front request's dispatch deadline.
            let mut next = source.peek_ns();
            if let Some(fl) = &in_flight {
                next = Some(next.map_or(fl.done_ns, |n| n.min(fl.done_ns)));
            } else if let Some(oldest) = self.queue.oldest_arrival_ns() {
                debug_assert!(!draining, "draining + free engine implies dispatch");
                let deadline = oldest + self.cfg.policy.max_wait_ns;
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            }
            match next {
                None => break,
                Some(t) => clock.advance_to(t),
            }
        }
        debug_assert!(self.queue.is_empty(), "run_sim drains the queue");
        st.finish(clock.now_ns(), self.pool.stats())
    }

    /// Real-thread open-loop mode (what `perf_ledger` times): a feeder
    /// thread replays the trace against the wall clock while the
    /// scheduler packs and runs microbatches on `exec_pool`. Batching
    /// decisions depend on real timing, so reports are *not*
    /// byte-reproducible — outputs still are.
    ///
    /// # Panics
    ///
    /// Panics if the feeder thread itself panics.
    pub fn run_threaded(&mut self, mut trace: Vec<Request>, exec_pool: &CpuPool) -> SimReport {
        trace.sort_by_key(|r| (r.arrival_ns, r.id));
        let clock = SystemClock::start();
        let (tx, rx) = std::sync::mpsc::channel();
        let feeder = std::thread::spawn(move || {
            let epoch = std::time::Instant::now();
            for r in trace {
                let target = std::time::Duration::from_nanos(r.arrival_ns);
                let elapsed = epoch.elapsed();
                if target > elapsed {
                    std::thread::sleep(target - elapsed);
                }
                if tx.send(r).is_err() {
                    return;
                }
            }
        });
        let mut source = ChannelSource::new(rx);
        let mut st = RunState::default();
        let model = ServiceModel::default();
        loop {
            let now = clock.now_ns();
            for req in source.poll(now) {
                self.admit(req, now, &mut st);
            }
            let draining = source.exhausted();
            if self.cfg.policy.ready(&self.queue, now, draining) {
                // Synchronous engine: completion lands when the real
                // compute returns, not at a modelled instant.
                let mut fl = self.dispatch(now, &model, Some(exec_pool), &mut st);
                fl.done_ns = clock.now_ns();
                self.complete_batch(fl, &mut st);
                continue;
            }
            if self.queue.is_empty() {
                if draining {
                    break;
                }
                for req in source.recv_blocking() {
                    let t = clock.now_ns();
                    self.admit(req, t, &mut st);
                }
                continue;
            }
            // Queue non-empty but the batch is still filling: nap
            // briefly (bounded by the deadline) and re-poll.
            let deadline =
                self.queue.oldest_arrival_ns().expect("non-empty") + self.cfg.policy.max_wait_ns;
            let nap = deadline
                .saturating_sub(clock.now_ns())
                .clamp(10_000, 1_000_000);
            std::thread::sleep(std::time::Duration::from_nanos(nap));
        }
        feeder.join().expect("feeder thread exits cleanly");
        st.finish(clock.now_ns(), self.pool.stats())
    }

    fn admit(&mut self, req: Request, now: u64, st: &mut RunState) {
        let (id, len) = (req.id, req.len);
        match self.queue.admit(req) {
            Ok(()) => st.log(now, format!("admit id={id} len={len}")),
            Err(e) => {
                st.log(now, format!("reject id={id} reason=\"{e}\""));
                st.rejected.push((id, e.to_string()));
            }
        }
    }

    /// Packs and executes the next microbatch. Outputs are computed
    /// here (synchronous engine); the caller decides when they land.
    fn dispatch(
        &mut self,
        now: u64,
        model: &ServiceModel,
        exec_pool: Option<&CpuPool>,
        st: &mut RunState,
    ) -> InFlight {
        let picked = self.cfg.policy.select(&self.queue, now);
        let mut selected = self.queue.take(&picked);
        // Canonical batch order (longest first, ties by id): recurring
        // compositions map to recurring pool shapes.
        selected.sort_by(|a, b| b.len.cmp(&a.len).then(a.id.cmp(&b.id)));
        let lens: Vec<usize> = selected.iter().map(|r| r.len).collect();
        let ids: Vec<u64> = selected.iter().map(|r| r.id).collect();
        let rows: usize = lens.iter().sum();
        let index = st.dispatched;
        st.dispatched += 1;
        let pool_hit = self.pool.contains(&lens);
        st.log(
            now,
            format!(
                "dispatch batch={index} ids={ids:?} lens={lens:?} rows={rows} pool={}",
                if pool_hit { "hit" } else { "build" }
            ),
        );

        let x = pack_ragged(&selected, self.cfg.encoder.hidden);
        let mut session = self
            .pool
            .checkout(&lens)
            .expect("built-in schedules compile");
        let inject = self.faults.remove(&index);
        let weights = &self.weights;
        let run = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected stage panic");
            }
            match exec_pool {
                Some(p) => session.run(p, weights, &x),
                None => session.run_serial(weights, &x),
            }
        }));
        let done_ns = now + model.service_ns(&lens);
        let (results, failed) = match run {
            Ok(out) => {
                self.pool.check_in(session);
                let split = unpack_rows(&out, &lens, self.cfg.encoder.hidden);
                if self.cfg.differential_check && self.cfg.math == MathMode::Strict {
                    self.check_differential(&selected, &split);
                }
                (split.into_iter().map(Ok).collect(), false)
            }
            Err(payload) => {
                self.pool.discard_poisoned(session);
                let msg = panic_text(payload.as_ref());
                st.log(now, format!("fail batch={index} err=\"{msg}\""));
                let err = format!("microbatch {index} failed: {msg}");
                (selected.iter().map(|_| Err(err.clone())).collect(), true)
            }
        };
        InFlight {
            index,
            dispatch_ns: now,
            done_ns,
            requests: selected,
            results,
            pool_hit,
            failed,
        }
    }

    fn complete_batch(&mut self, fl: InFlight, st: &mut RunState) {
        let t = fl.done_ns;
        st.batches.push(BatchRecord {
            index: fl.index,
            dispatch_ns: fl.dispatch_ns,
            complete_ns: fl.done_ns,
            ids: fl.requests.iter().map(|r| r.id).collect(),
            lens: fl.requests.iter().map(|r| r.len).collect(),
            rows: fl.requests.iter().map(|r| r.len).sum(),
            pool_hit: fl.pool_hit,
            failed: fl.failed,
        });
        for (req, result) in fl.requests.into_iter().zip(fl.results) {
            st.log(
                t,
                format!(
                    "complete id={} batch={} wait_ns={} latency_ns={} ok={}",
                    req.id,
                    fl.index,
                    fl.dispatch_ns - req.arrival_ns,
                    t - req.arrival_ns,
                    result.is_ok()
                ),
            );
            st.completions.push(Completion {
                id: req.id,
                len: req.len,
                arrival_ns: req.arrival_ns,
                dispatch_ns: fl.dispatch_ns,
                complete_ns: t,
                batch: fl.index,
                result,
            });
        }
    }

    /// The differential gate: re-runs every request of the batch alone
    /// through a single-request compiled layer and asserts the batched
    /// rows are bit-identical. Per-row float-op order in the compiled
    /// tier is independent of batch composition under Strict math, so
    /// any divergence is a packing/batching bug.
    fn check_differential(&mut self, selected: &[Request], split: &[Vec<f32>]) {
        for (req, rows) in selected.iter().zip(split) {
            let (layer, prep) = self.ref_layers.entry(req.len).or_insert_with(|| {
                let layer = CompiledEncoderLayer::build_with_math(
                    &self.cfg.encoder,
                    &[req.len],
                    self.cfg.math,
                )
                .expect("built-in schedules compile");
                let prep = layer.prepare().expect("built-in schedules outline");
                (layer, prep)
            });
            let x = cora_transformer::RaggedBatch {
                lens: vec![req.len],
                data: req.data.clone(),
                hidden: self.cfg.encoder.hidden,
            };
            let solo = layer.session_with(prep).forward_serial(&self.weights, &x);
            let bitwise_equal = solo.len() == rows.len()
                && solo
                    .iter()
                    .zip(rows)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                bitwise_equal,
                "differential check failed for request {}: batched rows are not \
                 bit-identical to the single-request run",
                req.id
            );
        }
    }
}

/// Best-effort panic payload rendering.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}
