//! The session pool: cached compiled encoder layers plus their owned
//! session prep (preludes, safety proofs, arena), keyed by exact batch
//! shape, with LRU eviction under a capacity bound.
//!
//! # Keying
//!
//! A [`CompiledEncoderLayer`] is exact-shape-keyed, so the pool key is
//! the canonical lens vector of the microbatch (the packer sorts
//! selected requests longest-first, so recurring compositions map to
//! recurring keys). The autotuner's [`BucketKey`] — the coarser
//! length-histogram bucket — is consulted *inside* a miss: building a
//! new entry goes through [`EncoderAutotuner::tuned_layer`], which
//! serves cached schedule choices for the shape's bucket.
//!
//! # Checkout discipline
//!
//! [`SessionPool::checkout`] *removes* the entry from the pool and
//! hands it to the caller; [`SessionPool::check_in`] returns it. LRU
//! eviction runs only at check-in over entries actually *in* the pool —
//! an in-flight session is not in the pool, so eviction can never drop
//! it (the unit test below pins this). A session that panicked mid-run
//! is simply never checked back in: the caller routes it to
//! [`SessionPool::discard_poisoned`] and the next request for that
//! shape rebuilds a fresh entry.

use std::collections::BTreeMap;

use cora_core::autotune::BucketKey;
use cora_core::schedule::ScheduleError;
use cora_exec::cpu::CpuPool;
use cora_exec::MathMode;
use cora_transformer::autotune::{bucket_key, EncoderAutotuner};
use cora_transformer::{
    CompiledEncoderLayer, EncoderConfig, EncoderPrep, EncoderWeights, RaggedBatch,
};

/// Pool observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a cached entry.
    pub hits: u64,
    /// Checkouts that had to build a new entry.
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Sessions discarded after a mid-run panic.
    pub poisoned: u64,
    /// Of the misses, how many found tuned schedule choices in the
    /// autotuner's bucket cache.
    pub tune_cache_hits: u64,
    /// Schedule-search trials the misses ran (the sum of
    /// `TuneOutcome::trials`): zero under a disabled tuner.
    pub tune_trials: u64,
}

/// A checked-out, fully owned serving session: the compiled layer plus
/// its prepared state (preludes, safety proofs, arena). Runs any number
/// of microbatches of its exact shape, reusing the arena each time.
#[derive(Debug)]
pub struct PooledSession {
    lens: Vec<usize>,
    layer: CompiledEncoderLayer,
    prep: EncoderPrep,
    bucket: BucketKey,
}

impl PooledSession {
    /// The exact batch shape this session serves.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// The autotuner shape bucket the layer was tuned under.
    pub fn bucket(&self) -> &BucketKey {
        &self.bucket
    }

    /// Runs one microbatch on the calling thread (the deterministic
    /// simulator path — zero real threads).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match this session's shape.
    pub fn run_serial(&mut self, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.layer.session_with(&mut self.prep).forward_serial(w, x)
    }

    /// Runs one microbatch with every stage's block axis dispatched
    /// across `pool` (the real-thread serving path). Bit-identical to
    /// [`PooledSession::run_serial`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match this session's shape.
    pub fn run(&mut self, pool: &CpuPool, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.layer.session_with(&mut self.prep).forward(pool, w, x)
    }
}

#[derive(Debug)]
struct PoolEntry {
    session: PooledSession,
    /// Logical checkout tick of last use (LRU ordering).
    last_used: u64,
}

/// Shape-keyed cache of [`PooledSession`]s with checkout/check-in
/// semantics and LRU eviction. See the module docs for the discipline.
#[derive(Debug)]
pub struct SessionPool {
    cfg: EncoderConfig,
    math: MathMode,
    capacity: usize,
    tuner: EncoderAutotuner,
    entries: BTreeMap<Vec<usize>, PoolEntry>,
    tick: u64,
    stats: PoolStats,
}

impl SessionPool {
    /// A pool holding at most `capacity` idle sessions (≥ 1). Misses
    /// build through `tuner`, so its schedule cache and budget are
    /// honoured.
    pub fn new(
        cfg: EncoderConfig,
        math: MathMode,
        capacity: usize,
        tuner: EncoderAutotuner,
    ) -> SessionPool {
        SessionPool {
            cfg,
            math,
            capacity: capacity.max(1),
            tuner,
            entries: BTreeMap::new(),
            tick: 0,
            stats: PoolStats::default(),
        }
    }

    /// Checks out a session for the exact shape `lens`, building (and
    /// tuning) one on a miss. The entry leaves the pool until
    /// [`SessionPool::check_in`] — eviction cannot touch it meanwhile.
    ///
    /// # Errors
    ///
    /// Returns the schedule error if the default schedules fail to
    /// build — a compiler regression by definition.
    pub fn checkout(&mut self, lens: &[usize]) -> Result<PooledSession, ScheduleError> {
        if let Some(entry) = self.entries.remove(lens) {
            self.stats.hits += 1;
            return Ok(entry.session);
        }
        self.stats.misses += 1;
        let (layer, outcome) = self.tuner.tuned_layer(&self.cfg, lens, self.math)?;
        if outcome.cache_hit {
            self.stats.tune_cache_hits += 1;
        }
        self.stats.tune_trials += outcome.trials as u64;
        let prep = layer.prepare()?;
        Ok(PooledSession {
            lens: lens.to_vec(),
            layer,
            prep,
            bucket: bucket_key(&self.cfg, self.math, lens),
        })
    }

    /// Returns a session to the pool, evicting least-recently-used
    /// idle entries while over capacity.
    pub fn check_in(&mut self, session: PooledSession) {
        self.tick += 1;
        let entry = PoolEntry {
            session,
            last_used: self.tick,
        };
        self.entries.insert(entry.session.lens.clone(), entry);
        while self.entries.len() > self.capacity {
            // Oldest tick; BTreeMap order breaks (impossible) ties
            // deterministically.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over capacity implies non-empty");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Drops a session whose run panicked instead of returning it: the
    /// shape's next checkout rebuilds from scratch.
    pub fn discard_poisoned(&mut self, session: PooledSession) {
        self.stats.poisoned += 1;
        drop(session);
    }

    /// Idle entries currently in the pool.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no idle entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound on idle entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when an idle entry for the exact shape is cached.
    pub fn contains(&self, lens: &[usize]) -> bool {
        self.entries.contains_key(lens)
    }

    /// Observability counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_core::autotune::TuneBudget;

    fn small_pool(capacity: usize) -> SessionPool {
        let cfg = EncoderConfig {
            hidden: 8,
            heads: 2,
            head_dim: 4,
            ff: 16,
            layers: 1,
        };
        // Disabled tuner: unit tests exercise pool mechanics, not search.
        let mut tuner = EncoderAutotuner::new(TuneBudget::default(), 42);
        tuner.disabled = true;
        SessionPool::new(cfg, MathMode::Strict, capacity, tuner)
    }

    #[test]
    fn checkout_miss_then_hit_and_sessions_run() {
        let mut pool = small_pool(4);
        let w = EncoderWeights::random(&pool.cfg, 3);
        let lens = vec![3usize, 2];
        let x = RaggedBatch::random(&lens, pool.cfg.hidden, 5);

        let mut s = pool.checkout(&lens).unwrap();
        let y1 = s.run_serial(&w, &x);
        let y2 = s.run_serial(&w, &x);
        assert_eq!(y1, y2, "arena reuse must not change results");
        pool.check_in(s);

        let s = pool.checkout(&lens).unwrap();
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        pool.check_in(s);
    }

    #[test]
    fn eviction_never_drops_an_in_flight_session() {
        let mut pool = small_pool(1);
        let a = pool.checkout(&[4]).unwrap(); // in flight
        let b = pool.checkout(&[2]).unwrap();
        let c = pool.checkout(&[1]).unwrap();

        // Two check-ins against capacity 1: b (older tick) is evicted,
        // but a — still checked out — is untouchable by construction.
        pool.check_in(b);
        pool.check_in(c);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.contains(&[1]));
        assert!(!pool.contains(&[2]));

        // The in-flight session is still alive and usable...
        let w = EncoderWeights::random(&pool.cfg, 3);
        let x = RaggedBatch::random(&[4], pool.cfg.hidden, 9);
        let mut a = a;
        let _ = a.run_serial(&w, &x);
        // ...and checking it in now evicts the older idle entry, not a.
        pool.check_in(a);
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&[4]));
        assert_eq!(pool.stats().evictions, 2);
    }

    #[test]
    fn poisoned_sessions_are_dropped_and_rebuilt() {
        let mut pool = small_pool(2);
        let s = pool.checkout(&[3]).unwrap();
        pool.discard_poisoned(s);
        assert_eq!(pool.stats().poisoned, 1);
        assert!(!pool.contains(&[3]));
        let _ = pool.checkout(&[3]).unwrap();
        assert_eq!(pool.stats().misses, 2, "poisoned shape rebuilds");
    }
}
