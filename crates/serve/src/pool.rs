//! The session pool: serving sessions — a compiled encoder layer plus
//! its owned session prep (preludes, safety proofs, arena) — keyed by
//! exact batch shape, with LRU eviction under a capacity bound, over
//! code compiled once per pool.
//!
//! # Keying
//!
//! A session is exact-shape-keyed (its prelude tables, proofs and arena
//! are one shape's), so the pool key is the canonical lens vector of the
//! microbatch (the packer sorts selected requests longest-first, so
//! recurring compositions map to recurring keys). The code is not: the
//! stage programs are shape-generic, so the pool compiles the declared
//! schedules once ([`CompiledEncoderLayer::build_with_math`], at its
//! first miss, empty batch or not), keeps that layer as its code, and
//! every later miss costs [`CompiledEncoderLayer::for_shape`] (lower
//! and rebind) + [`CompiledEncoderLayer::prepare`].
//! [`PoolStats::compiles`] counts the compiles: 1 for the pool's
//! lifetime, however many shapes it serves or evicts.
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
//! shape prepares a fresh entry over the same code.

use std::collections::BTreeMap;

use cora_core::schedule::ScheduleError;
use cora_exec::cpu::CpuPool;
use cora_exec::MathMode;
use cora_transformer::autotune::EncoderAutotuner;
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
    /// Layers compiled: at most 1 — the pool's code, compiled at its
    /// first miss and rebound for every other shape.
    pub compiles: u64,
}

/// A checked-out, fully owned serving session: the compiled layer plus
/// its prepared state (preludes, safety proofs, arena). Runs any number
/// of microbatches of its exact shape, reusing the arena each time.
#[derive(Debug)]
pub struct PooledSession {
    lens: Vec<usize>,
    layer: CompiledEncoderLayer,
    prep: EncoderPrep,
}

impl PooledSession {
    /// The exact batch shape this session serves.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Runs one microbatch with every stage's block axis dispatched
    /// across `pool` (the real-thread serving path); `None` runs on the
    /// calling thread (the deterministic simulator path — zero real
    /// threads), bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match this session's shape.
    pub fn run<'p>(
        &mut self,
        pool: impl Into<Option<&'p CpuPool>>,
        w: &EncoderWeights,
        x: &RaggedBatch,
    ) -> Vec<f32> {
        let mut session = self.layer.session_with(&mut self.prep);
        session.run(pool.into(), w, x).output
    }
}

#[derive(Debug)]
struct PoolEntry {
    session: PooledSession,
    /// Logical checkout tick of last use (LRU ordering).
    last_used: u64,
}

/// Shape-keyed cache of [`PooledSession`]s with checkout/check-in
/// semantics and LRU eviction, over code compiled once. See the module
/// docs for the keying and the discipline.
#[derive(Debug)]
pub struct SessionPool {
    cfg: EncoderConfig,
    math: MathMode,
    capacity: usize,
    entries: BTreeMap<Vec<usize>, PoolEntry>,
    tick: u64,
    stats: PoolStats,
    /// The first layer the pool built: the compiled code every session's
    /// layer shares.
    code: Option<CompiledEncoderLayer>,
}

impl SessionPool {
    /// A pool holding at most `capacity` idle sessions (≥ 1). The
    /// tuner is ignored: misses build the declared schedules.
    pub fn new(
        cfg: EncoderConfig,
        math: MathMode,
        capacity: usize,
        _tuner: EncoderAutotuner,
    ) -> SessionPool {
        SessionPool {
            cfg,
            math,
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            tick: 0,
            stats: PoolStats::default(),
            code: None,
        }
    }

    /// Checks out a session for the exact shape `lens`, preparing one
    /// on a miss (over the pool's code — see the module docs). The entry
    /// leaves the pool until [`SessionPool::check_in`] — eviction cannot
    /// touch it meanwhile.
    ///
    /// # Errors
    ///
    /// Returns the schedule error if the declared schedules fail to
    /// build — a compiler regression by definition.
    pub fn checkout(&mut self, lens: &[usize]) -> Result<PooledSession, ScheduleError> {
        if let Some(entry) = self.entries.remove(lens) {
            self.stats.hits += 1;
            return Ok(entry.session);
        }
        self.stats.misses += 1;
        let layer = self.layer_for(lens)?;
        let prep = layer.prepare()?;
        Ok(PooledSession {
            lens: lens.to_vec(),
            layer,
            prep,
        })
    }

    /// The pool's layer at the shape `lens`: the pool's code rebound to
    /// `lens` ([`CompiledEncoderLayer::for_shape`]). Before the pool has
    /// code, it builds the layer, which becomes the code — the only
    /// compile ([`PoolStats::compiles`]).
    ///
    /// # Errors
    ///
    /// As for [`SessionPool::checkout`].
    pub(crate) fn layer_for(
        &mut self,
        lens: &[usize],
    ) -> Result<CompiledEncoderLayer, ScheduleError> {
        if let Some(code) = &self.code {
            return code.for_shape(lens);
        }
        let layer = CompiledEncoderLayer::build_with_math(&self.cfg, lens, self.math)?;
        self.stats.compiles += 1;
        self.code = Some(layer.clone());
        Ok(layer)
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
    /// shape's next checkout prepares a fresh session (the code stays).
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
        let tuner = EncoderAutotuner::new(TuneBudget, 42);
        SessionPool::new(cfg, MathMode::Strict, capacity, tuner)
    }

    #[test]
    fn checkout_miss_then_hit_and_sessions_run() {
        let mut pool = small_pool(4);
        let w = EncoderWeights::random(&pool.cfg, 3);
        let lens = vec![3usize, 2];
        let x = RaggedBatch::random(&lens, pool.cfg.hidden, 5);

        let mut s = pool.checkout(&lens).unwrap();
        let y1 = s.run(None, &w, &x);
        let y2 = s.run(None, &w, &x);
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
        let _ = a.run(None, &w, &x);
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
        assert_eq!(pool.stats().compiles, 1, "over the code it already has");
    }

    #[test]
    fn the_pool_compiles_once_however_many_shapes_it_serves_or_evicts() {
        let mut pool = small_pool(2);
        let w = EncoderWeights::random(&pool.cfg, 3);
        let shapes: [&[usize]; 6] = [&[3, 2], &[2, 3], &[5], &[4, 1, 1], &[1], &[7, 0, 2]];
        for lens in shapes {
            let mut s = pool.checkout(lens).unwrap();
            let x = RaggedBatch::random(lens, pool.cfg.hidden, 5);
            // Served from the shared code, yet exactly what a layer
            // built for the shape computes.
            let built = CompiledEncoderLayer::build(&pool.cfg, lens).unwrap();
            let want = built.session().unwrap().forward_serial(&w, &x);
            assert_eq!(s.run(None, &w, &x), want, "{lens:?}");
            pool.check_in(s);
        }
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.evictions), (6, 4));
        assert_eq!(stats.compiles, 1, "{stats:?}");
        // Every entry evicted in turn: the code outlives them.
        for lens in [&[6usize][..], &[6, 6], &[6, 6, 6]] {
            let s = pool.checkout(lens).unwrap();
            pool.check_in(s);
        }
        assert!(shapes.iter().all(|lens| !pool.contains(lens)));
        assert_eq!(pool.stats().compiles, 1);
        // A poisoned session's shape is prepared again, not compiled.
        let s = pool.checkout(&[6]).unwrap();
        pool.discard_poisoned(s);
        let _ = pool.checkout(&[6]).unwrap();
        assert_eq!(pool.stats().compiles, 1, "{:?}", pool.stats());
    }

    #[test]
    fn an_empty_first_miss_compiles_the_code_every_later_shape_shares() {
        let mut pool = small_pool(4);
        let w = EncoderWeights::random(&pool.cfg, 3);
        let mut empty = pool.checkout(&[0, 0]).unwrap();
        let x = RaggedBatch::random(&[0, 0], pool.cfg.hidden, 5);
        assert!(empty.run(None, &w, &x).is_empty());
        assert_eq!(pool.stats().compiles, 1, "an empty batch is a batch");
        pool.check_in(empty);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for lens in [&[2usize][..], &[0], &[4, 1]] {
            let mut s = pool.checkout(lens).unwrap();
            let x = RaggedBatch::random(lens, pool.cfg.hidden, 5);
            let built = CompiledEncoderLayer::build_with_math(&pool.cfg, lens, pool.math);
            let want = built.unwrap().session().unwrap().forward_serial(&w, &x);
            assert_eq!(bits(&s.run(None, &w, &x)), bits(&want), "{lens:?}");
        }
        assert_eq!(pool.stats().compiles, 1, "{:?}", pool.stats());
    }

    /// `[3, 2]` and `[2, 3]` plan equal buffer sizes and share the code,
    /// so only the remembered shape tells their preps apart.
    #[test]
    #[should_panic(
        expected = "prep was prepared for lens [2, 3]; this layer is compiled for lens [3, 2]"
    )]
    fn a_rebound_layer_still_rejects_another_shapes_prep() {
        let mut pool = small_pool(4);
        let a = pool.checkout(&[3, 2]).unwrap();
        let mut b = pool.checkout(&[2, 3]).unwrap();
        assert_eq!(pool.stats().compiles, 1);
        let _ = a.layer.session_with(&mut b.prep);
    }
}
