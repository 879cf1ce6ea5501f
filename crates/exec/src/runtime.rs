//! Persistent work-stealing CPU runtime: the execution substrate behind
//! [`crate::cpu::CpuPool`].
//!
//! The CPU experiments (Table 5, Table 9, Fig. 27) are dominated by many
//! *small* parallel regions — one QKV projection, one batch of ragged SDPA
//! rows, one layer norm — so the old per-call `std::thread::scope`
//! executor paid a spawn/join cycle per region and the Fig. 27 thread
//! sweep measured spawn overhead as much as scheduling policy. This module
//! replaces it with a long-lived worker team:
//!
//! * **Parked workers.** `team - 1` OS threads are spawned once (lazily,
//!   process-wide via [`Runtime::global`]) and park on a condvar. Posting a
//!   parallel region bumps an epoch counter and wakes them; no thread is
//!   created or destroyed per call.
//! * **Chunked deques with stealing.** The iteration range is cut into
//!   chunks of `grain` iterations. Each participant owns a deque of
//!   contiguous chunks and pops from the front; an idle participant steals
//!   from the *back* of a victim's deque. This is the load-balanced
//!   policy CoRa's ragged loops rely on (§6, Fig. 27).
//! * **Grain size.** Tiny ragged rows batch into chunks instead of paying
//!   one atomic operation per iteration; the default grain targets ~16
//!   chunks per participant, and [`Runtime::run`] takes an explicit one.
//! * **Panic propagation.** A panicking iteration poisons the region
//!   (remaining chunks are skipped), the payload is captured, and the
//!   caller re-raises it after the region completes; workers survive.
//! * **Nested parallelism.** A parallel region entered from inside another
//!   region runs inline on the calling thread — the team is never
//!   oversubscribed and re-entry cannot deadlock.
//!
//! # Safety
//!
//! The workspace denies `unsafe_code`; this module and the VM's shared
//! output cell (`SharedOut` in [`crate::vm`], which carries its own
//! disjoint-store safety argument) are the two narrowly scoped
//! exceptions. Persistent workers must call
//! a borrowed closure (`&dyn Fn(usize) + Sync`) that is **not** `'static`,
//! which no safe std API permits — `std::thread::scope` exists precisely
//! to tie such borrows to a scope, and re-entering a scope per region is
//! the overhead being removed. The lifetime is erased into a raw pointer
//! (`FuncPtr`) whose dereferences are all completed before
//! [`Runtime::run`] returns: the caller blocks until every chunk has been
//! executed and accounted (`remaining == 0`, `AcqRel`/`Acquire` ordering),
//! and workers reach the closure only through chunks. A worker that wakes
//! late finds empty deques and never touches the pointer.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Locks a mutex, ignoring poisoning: the runtime's own state is always
/// consistent (guards protect plain data, never invariants spanning a
/// panic), and user panics are propagated separately.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lifetime-erased pointer to the loop body of the region in flight.
///
/// Safety contract: dereferenced only while executing a chunk, and every
/// chunk execution happens-before [`Runtime::run`] returns (the caller
/// waits for `remaining == 0`). Late-waking workers see empty deques and
/// never dereference. Dangling *values* of this pointer may survive inside
/// an `Arc<Job>` held by a worker after the region ends — which is why it
/// is a raw pointer and not a `&'static` reference.
struct FuncPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and is only used
// within the region's lifetime as described on `FuncPtr`.
unsafe impl Send for FuncPtr {}
// SAFETY: as above — `&FuncPtr` only exposes a `Sync` pointee.
unsafe impl Sync for FuncPtr {}

/// Erases the lifetime of a borrowed loop body.
fn erase(f: &(dyn Fn(usize) + Sync)) -> FuncPtr {
    // SAFETY: fat-pointer-to-fat-pointer transmute that only erases the
    // lifetime; validity is maintained by the `FuncPtr` contract.
    FuncPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
    })
}

/// One posted parallel region.
struct Job {
    func: FuncPtr,
    /// Number of participants (caller + `width - 1` worker slots).
    width: usize,
    /// Arrival-order slot claims: the first `width - 1` workers to reach
    /// the job take participant slots 1..width; later arrivals skip. This
    /// lets the poster wake only as many workers as the region needs.
    claimed: AtomicUsize,
    /// Per-participant chunk deques; owner pops front, thieves pop back.
    deques: Vec<Mutex<VecDeque<Range<usize>>>>,
    /// Iterations not yet executed-and-accounted. The region is complete
    /// when this reaches zero.
    remaining: AtomicUsize,
    /// Set when any chunk panicked: remaining chunks are skipped (but
    /// still accounted) so the region drains quickly.
    poisoned: AtomicBool,
    /// First captured panic payload, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Pops the next chunk for participant `me`: own deque first (front),
    /// then other deques back-first.
    fn take_chunk(&self, me: usize) -> Option<Range<usize>> {
        if let Some(r) = lock(&self.deques[me]).pop_front() {
            return Some(r);
        }
        for k in 1..self.width {
            let victim = (me + k) % self.width;
            if let Some(r) = lock(&self.deques[victim]).pop_back() {
                return Some(r);
            }
        }
        None
    }

    /// Runs chunks until none are obtainable, then returns. The last
    /// participant to account a chunk signals completion.
    fn run_participant(&self, me: usize) {
        while let Some(chunk) = self.take_chunk(me) {
            let len = chunk.len();
            if !self.poisoned.load(Ordering::Relaxed) {
                // SAFETY: see `FuncPtr` — we hold an unexecuted chunk, so
                // `remaining > 0` and the caller is still blocked in `run`.
                let f = unsafe { &*self.func.0 };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    for i in chunk {
                        f(i);
                    }
                }));
                if let Err(payload) = result {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = lock(&self.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            if self.remaining.fetch_sub(len, Ordering::AcqRel) == len {
                *lock(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every iteration has been accounted.
    fn wait_done(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The post box workers park on.
struct PostBox {
    /// Bumped once per posted region; workers compare against the last
    /// epoch they served to detect fresh work.
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    post: Mutex<PostBox>,
    post_cv: Condvar,
}

thread_local! {
    /// True on runtime worker threads, and on a caller thread while it
    /// participates in a region: nested `run` calls execute inline.
    static IN_RUNTIME: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_main(shared: Arc<Shared>) {
    IN_RUNTIME.with(|c| c.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut post = lock(&shared.post);
            loop {
                if post.shutdown {
                    return;
                }
                if post.epoch != seen {
                    seen = post.epoch;
                    break post.job.clone();
                }
                post = shared.post_cv.wait(post).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(job) = job {
            let slot = job.claimed.fetch_add(1, Ordering::Relaxed);
            if slot + 1 < job.width {
                job.run_participant(slot + 1);
            }
        }
    }
}

/// A persistent team of parked worker threads executing parallel regions.
///
/// One process-wide instance ([`Runtime::global`]) backs every
/// [`crate::cpu::CpuPool`]; tests may build private teams with
/// [`Runtime::new`] (they are joined on drop). Regions on one team are
/// serialized: a second caller blocks until the first region completes
/// (its own work then runs with the full team), and re-entrant calls from
/// inside a region run inline.
pub struct Runtime {
    shared: Arc<Shared>,
    /// Serializes regions on this team (post → completion).
    region: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Builds a team of `threads` participants: the calling thread plus
    /// `threads - 1` parked workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a worker thread cannot be spawned.
    pub fn new(threads: usize) -> Runtime {
        assert!(threads > 0, "thread count must be positive");
        let shared = Arc::new(Shared {
            post: Mutex::new(PostBox {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            post_cv: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cora-worker-{id}"))
                    .spawn(move || worker_main(shared))
                    .expect("failed to spawn runtime worker")
            })
            .collect();
        Runtime {
            shared,
            region: Mutex::new(()),
            handles,
            threads,
        }
    }

    /// The process-wide team, created on first use. Its size is
    /// `CORA_NUM_THREADS` (if set to a positive integer) or the machine's
    /// available parallelism. Benches pin thread counts per call via the
    /// `width` argument of [`Runtime::run`] / `CpuPool::new(t)` — the team
    /// itself is sized once.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("CORA_NUM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            Runtime::new(threads)
        })
    }

    /// Team size (participants, including a region's calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n` on up to `width` participants,
    /// in chunks of `grain` iterations (`None` targets ~16 chunks per
    /// participant) that idle participants steal from each other.
    /// Panics inside `f` are re-raised on the calling thread after the
    /// region drains.
    pub fn run<F>(&self, n: usize, width: usize, grain: Option<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let width = width.clamp(1, self.threads);
        if width == 1 || n == 1 || IN_RUNTIME.with(|c| c.get()) {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let grain = grain.unwrap_or_else(|| n.div_ceil(width * 16)).max(1);
        let count = n.div_ceil(grain);
        let width = width.min(count);
        if width == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        // Deal contiguous blocks of chunks to each participant's deque:
        // owners keep locality, thieves take from the far end.
        let per_deque = count.div_ceil(width);
        let mut deques: Vec<Mutex<VecDeque<Range<usize>>>> =
            (0..width).map(|_| Mutex::new(VecDeque::new())).collect();
        for c in 0..count {
            let lo = c * grain;
            let hi = ((c + 1) * grain).min(n);
            let owner = (c / per_deque).min(width - 1);
            deques[owner]
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(lo..hi);
        }
        let job = Arc::new(Job {
            func: erase(&f),
            width,
            claimed: AtomicUsize::new(0),
            deques,
            remaining: AtomicUsize::new(n),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        let region = lock(&self.region);
        {
            let mut post = lock(&self.shared.post);
            post.epoch = post.epoch.wrapping_add(1);
            post.job = Some(Arc::clone(&job));
            // Wake only as many workers as the region has slots for:
            // participation is claimed in arrival order, so any woken (or
            // already-running) worker can serve any slot, and a narrow
            // region on a wide team avoids a team-wide thundering herd.
            let wanted = width - 1;
            if wanted >= self.handles.len() {
                self.shared.post_cv.notify_all();
            } else {
                for _ in 0..wanted {
                    self.shared.post_cv.notify_one();
                }
            }
        }
        IN_RUNTIME.with(|c| c.set(true));
        job.run_participant(0);
        IN_RUNTIME.with(|c| c.set(false));
        job.wait_done();
        // Drop the region's job from the post box: late-waking workers see
        // a fresh epoch with no job and go straight back to sleep.
        lock(&self.shared.post).job = None;
        drop(region);
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut post = lock(&self.shared.post);
            post.shutdown = true;
            self.shared.post_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dynamic_covers_every_index_once() {
        let rt = Runtime::new(4);
        for &n in &[1usize, 2, 7, 64, 1000] {
            for grain in [None, Some(1), Some(3), Some(64), Some(5000)] {
                let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                rt.run(n, 4, grain, |i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "n={n} grain={grain:?}"
                );
            }
        }
    }

    #[test]
    fn ragged_stress_covers_every_index_once() {
        // Ragged per-iteration costs (quadratic decay, like sorted
        // sequence lengths): every index must execute exactly once even
        // under heavy imbalance and repeated regions.
        let rt = Runtime::new(4);
        let n = 256usize;
        let cost = |i: usize| ((n - i) * (n - i)) / 512 + 1;
        for round in 0..20 {
            let sums: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            rt.run(n, 4, Some(1), |i| {
                let mut acc = 0u64;
                for k in 0..cost(i) {
                    acc = acc.wrapping_add((k as u64).wrapping_mul(0x9e3779b9));
                }
                sums[i].store(acc.max(1), Ordering::Relaxed);
            });
            assert!(
                sums.iter().all(|s| s.load(Ordering::Relaxed) != 0),
                "round={round}"
            );
        }
    }

    #[test]
    fn an_idle_participant_steals_from_a_blocked_owner() {
        // Two participants, four one-iteration chunks: the caller's deque
        // holds 0 and 1, the worker's 2 and 3. Iteration 0 waits for
        // iteration 1, which sits behind it in the caller's own deque, so
        // the region completes only if the worker steals it.
        let rt = Runtime::new(2);
        let one_done = AtomicBool::new(false);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        rt.run(4, 2, Some(1), |i| match i {
            0 => {
                while !one_done.load(Ordering::Acquire) {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "iteration 1 was never stolen"
                    );
                    std::thread::yield_now();
                }
            }
            1 => one_done.store(true, Ordering::Release),
            _ => {}
        });
        assert!(one_done.load(Ordering::Relaxed));
    }

    #[test]
    fn width_capped_to_team() {
        let rt = Runtime::new(2);
        let hits = AtomicU64::new(0);
        rt.run(100, 64, None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_regions_run_inline() {
        let rt = Runtime::new(4);
        let hits = AtomicU64::new(0);
        rt.run(8, 4, Some(1), |_| {
            // Inner region: must run inline on this participant (the
            // global runtime would deadlock re-posting otherwise).
            Runtime::global().run(16, 4, None, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn panic_propagates_and_team_survives() {
        let rt = Runtime::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.run(100, 4, Some(1), |i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 37"), "unexpected payload: {msg}");
        // The team must stay usable after a panicked region.
        let hits = AtomicU64::new(0);
        rt.run(50, 4, None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn drop_joins_workers() {
        let rt = Runtime::new(3);
        let hits = AtomicU64::new(0);
        rt.run(10, 3, None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        drop(rt);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn global_runtime_is_shared_and_respects_min_one_thread() {
        let rt = Runtime::global();
        assert!(rt.threads() >= 1);
        let hits = AtomicU64::new(0);
        rt.run(100, rt.threads(), None, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }
}
