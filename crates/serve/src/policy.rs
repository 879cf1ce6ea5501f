//! The batching policy: when to dispatch and which waiting requests to
//! pack into the next ragged microbatch.
//!
//! The discipline is built around one provable latency invariant: the
//! front (oldest) request is *always* part of the next dispatch, and a
//! dispatch fires no later than the front's `max_wait_ns` deadline
//! whenever the engine is free. Consequently, at any instant when the
//! engine is idle and the queue non-empty, the front has waited less
//! than `max_wait_ns` — so **every** request's accumulated engine-idle
//! wait is bounded by `max_wait_ns` (any idle instant `t` during a
//! request's wait satisfies `t < front.arrival + max_wait ≤
//! request.arrival + max_wait`, since the front is at least as old).
//! The simulation suite asserts exactly this.

use cora_core::autotune::length_class;

use crate::queue::RequestQueue;

/// Knobs of the continuous-batching policy: plain fields the caller
/// sets over [`BatchPolicy::default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Target cap on total rows (Σ len) per microbatch. A single
    /// request longer than the cap still dispatches alone.
    pub max_batch_rows: usize,
    /// Cap on sequences per microbatch.
    pub max_batch_seqs: usize,
    /// Dispatch deadline: the front request never waits longer than
    /// this while the engine is free.
    pub max_wait_ns: u64,
    /// Prefer packing requests whose [`length_class`] matches the front
    /// request's, so batch shapes recur and the session pool hits.
    /// Overdue requests override affinity (deadline beats shape reuse).
    pub bucket_affinity: bool,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch_rows: 256,
            max_batch_seqs: 32,
            max_wait_ns: 2_000_000,
            bucket_affinity: true,
        }
    }
}

impl BatchPolicy {
    /// True when a request that arrived at `arrival_ns` has hit the
    /// deadline at `now`.
    pub fn overdue(&self, arrival_ns: u64, now: u64) -> bool {
        now.saturating_sub(arrival_ns) >= self.max_wait_ns
    }

    /// Should the scheduler dispatch now? Yes when the queue can fill a
    /// batch (row or sequence cap reached), the front request is at its
    /// deadline, or the source is exhausted (`draining` — nothing
    /// better will ever arrive, so waiting is pure added latency).
    pub fn ready(&self, queue: &RequestQueue, now: u64, draining: bool) -> bool {
        let Some(oldest) = queue.oldest_arrival_ns() else {
            return false;
        };
        draining
            || queue.rows() >= self.max_batch_rows
            || queue.len() >= self.max_batch_seqs
            || self.overdue(oldest, now)
    }

    /// Picks the next microbatch as ascending queue indices. The front
    /// request is always included; the rest of the queue is scanned in
    /// FIFO order, adding requests that fit the row/sequence caps and
    /// — when affinity is on — share the front's [`length_class`]
    /// (overdue requests bypass affinity: their deadline beats shape
    /// reuse).
    pub fn select(&self, queue: &RequestQueue, now: u64) -> Vec<usize> {
        let mut picked = Vec::new();
        let mut rows = 0usize;
        let mut front_class = 0u32;
        for (i, r) in queue.iter().enumerate() {
            if i == 0 {
                front_class = length_class(r.len);
                rows = r.len;
                picked.push(0);
                continue;
            }
            if picked.len() >= self.max_batch_seqs || rows + r.len > self.max_batch_rows {
                if picked.len() >= self.max_batch_seqs {
                    break;
                }
                continue; // row cap: a shorter request later may still fit
            }
            let affine = !self.bucket_affinity
                || length_class(r.len) == front_class
                || self.overdue(r.arrival_ns, now);
            if affine {
                rows += r.len;
                picked.push(i);
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn queue_of(lens: &[usize], arrivals: &[u64]) -> RequestQueue {
        let mut q = RequestQueue::new(1);
        for (i, (&len, &at)) in lens.iter().zip(arrivals).enumerate() {
            q.admit(Request::new(i as u64, len, vec![0.0; len], at))
                .unwrap();
        }
        q
    }

    #[test]
    fn ready_triggers_on_fill_deadline_and_drain() {
        let p = BatchPolicy {
            max_batch_rows: 8,
            max_batch_seqs: 4,
            max_wait_ns: 100,
            bucket_affinity: true,
        };
        let empty = RequestQueue::new(1);
        assert!(
            !p.ready(&empty, 1_000, true),
            "empty queue never dispatches"
        );

        let q = queue_of(&[2], &[50]);
        assert!(!p.ready(&q, 60, false), "small + fresh: wait");
        assert!(p.ready(&q, 150, false), "deadline hit");
        assert!(p.ready(&q, 60, true), "draining dispatches immediately");
        assert!(p.ready(&queue_of(&[8], &[50]), 51, false), "row cap");
        assert!(
            p.ready(&queue_of(&[1, 1, 1, 1], &[50, 50, 50, 50]), 51, false),
            "sequence cap"
        );
    }

    #[test]
    fn select_prefers_front_class_but_deadline_overrides() {
        let p = BatchPolicy {
            max_batch_rows: 100,
            max_batch_seqs: 8,
            max_wait_ns: 100,
            bucket_affinity: true,
        };
        // Front len 5 (class 3); len 6 matches, len 17 does not.
        let q = queue_of(&[5, 17, 6], &[0, 1, 2]);
        assert_eq!(
            p.select(&q, 50),
            vec![0, 2],
            "affinity skips class mismatch"
        );
        assert_eq!(
            p.select(&q, 150),
            vec![0, 1, 2],
            "overdue bypasses affinity"
        );

        let no_aff = BatchPolicy {
            bucket_affinity: false,
            ..p.clone()
        };
        assert_eq!(no_aff.select(&q, 50), vec![0, 1, 2]);
    }

    #[test]
    fn select_respects_caps_and_always_takes_front() {
        let p = BatchPolicy {
            max_batch_rows: 10,
            max_batch_seqs: 2,
            max_wait_ns: 0,
            bucket_affinity: false,
        };
        // Oversized front still dispatches (alone).
        assert_eq!(p.select(&queue_of(&[12, 1], &[0, 0]), 0), vec![0]);
        // Row cap skips the 9 but a later 1 fits; seq cap stops at 2.
        let q = queue_of(&[5, 9, 1, 1], &[0, 0, 0, 0]);
        assert_eq!(p.select(&q, 0), vec![0, 2]);
    }

    #[test]
    fn zero_length_requests_pack_normally() {
        let p = BatchPolicy::default();
        let q = queue_of(&[0, 0, 3], &[0, 1, 2]);
        let sel = p.select(&q, 0);
        assert!(
            sel.contains(&0) && sel.contains(&1),
            "zero-len requests batch"
        );
    }
}
