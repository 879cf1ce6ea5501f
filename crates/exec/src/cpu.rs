//! `CpuPool`: the parallel-loop facade for CPU execution.
//!
//! The CPU experiments (Table 5, Table 9, Fig. 27) run for real on the
//! host. A [`CpuPool`] is a cheap, copyable *configuration* — a thread
//! width — over the process-wide persistent [`Runtime`] (see
//! [`crate::runtime`] for the worker model):
//!
//! * [`CpuPool::parallel_for`] distributes iterations dynamically
//!   (chunked work-stealing deques — the load-balanced schedule ragged
//!   loops need);
//! * [`CpuPool::parallel_rows`] hands out disjoint `&mut` rows of a
//!   buffer, pre-packed into cost-balanced batches.

use std::sync::Mutex;

use crate::runtime::Runtime;

/// A batch of `(row index, row slice)` pairs handed to one participant.
type RowBatch<'a> = Vec<(usize, &'a mut [f32])>;

/// A fixed-width thread team for parallel loops.
#[derive(Debug, Clone, Copy)]
pub struct CpuPool {
    threads: usize,
}

impl CpuPool {
    /// Creates a pool that runs loops on `threads` workers: this caps
    /// how many of the global runtime's participants serve each loop
    /// (the Fig. 27 sweep builds one pool per thread count); it does not
    /// spawn threads itself.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        CpuPool { threads }
    }

    /// A pool sized to the full global runtime team — the machine's
    /// available parallelism, or `CORA_NUM_THREADS` if set.
    pub fn host() -> Self {
        CpuPool::new(Runtime::global().threads())
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n`, pulling iterations dynamically
    /// (chunked work-stealing, ~16 chunks per worker).
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        Runtime::global().run(n, self.threads, None, f)
    }

    /// Splits `data` into `n` disjoint mutable rows of given lengths and
    /// runs `f(i, row_i)` in parallel. Rows are consecutive in `data`.
    ///
    /// Rows are pre-packed into cost-balanced batches (cost = row length)
    /// so ragged rows load-balance without per-row locking: each batch is
    /// taken exactly once, with a single uncontended lock per batch.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths overrun `data`.
    pub fn parallel_rows<F>(&self, data: &mut [f32], row_lens: &[usize], f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let total: usize = row_lens.iter().sum();
        assert!(total <= data.len(), "row lengths overrun the buffer");
        if row_lens.is_empty() {
            return;
        }
        // Pre-split into disjoint slices.
        let mut rows: Vec<(usize, &mut [f32])> = Vec::with_capacity(row_lens.len());
        let mut rest = data;
        for (i, &l) in row_lens.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(l);
            rows.push((i, head));
            rest = tail;
        }
        // Pack into batches of roughly equal total cost, preserving order
        // (sorted batches keep heavy rows scheduling first).
        let costs: Vec<f64> = row_lens.iter().map(|&l| l as f64).collect();
        let mut rows_iter = rows.into_iter();
        let batches: Vec<Mutex<RowBatch<'_>>> = cost_balanced_batches(&costs, self.threads)
            .into_iter()
            .map(|range| Mutex::new(rows_iter.by_ref().take(range.len()).collect()))
            .collect();
        let run_batch = |b: usize| {
            let batch = std::mem::take(&mut *batches[b].lock().unwrap_or_else(|e| e.into_inner()));
            for (i, row) in batch {
                f(i, row);
            }
        };
        Runtime::global().run(batches.len(), self.threads, Some(1), run_batch)
    }

    /// Runs `f` over each length-`n` row of `data` in parallel, with rows
    /// pre-batched into O(threads) contiguous chunks so the scheduling
    /// metadata stays tiny on hot paths. A trailing partial row (when
    /// `data.len()` is not a multiple of `n`) is passed to `f` short,
    /// matching `data.chunks_mut(n)` semantics.
    pub fn parallel_uniform_rows<F>(&self, data: &mut [f32], n: usize, f: F)
    where
        F: Fn(&mut [f32]) + Sync,
    {
        if n == 0 || data.is_empty() {
            return;
        }
        let len = data.len();
        let rows = len.div_ceil(n);
        let per = rows.div_ceil(self.threads * 4).max(1);
        let lens: Vec<usize> = (0..rows.div_ceil(per))
            .map(|b| ((b + 1) * per * n).min(len) - b * per * n)
            .collect();
        self.parallel_rows(data, &lens, |_, batch| {
            for row in batch.chunks_mut(n) {
                f(row);
            }
        });
    }
}

/// Cuts a cost sequence (one entry per work item, in dispatch order)
/// into consecutive batches of roughly equal total cost, targeting ~4
/// batches per thread so dynamic stealing can still rebalance. Every
/// batch is non-empty; zero- or negative-cost items count as cost 1 so
/// they batch with their neighbours instead of degenerating.
///
/// Shared by [`CpuPool::parallel_rows`] and the compiled-program
/// parallel tier (which packs thread blocks by their FLOP estimates in
/// remap-policy dispatch order).
pub fn cost_balanced_batches(costs: &[f64], threads: usize) -> Vec<std::ops::Range<usize>> {
    if costs.is_empty() {
        return Vec::new();
    }
    let total: f64 = costs.iter().map(|c| c.max(1.0)).sum();
    let target = (total / (threads.max(1) * 4) as f64).max(1.0);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut acc = 0.0f64;
    for (i, c) in costs.iter().enumerate() {
        acc += c.max(1.0);
        if acc >= target {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0.0;
        }
    }
    if start < costs.len() {
        out.push(start..costs.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn covers_all_iterations_once() {
        let hits = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        CpuPool::new(4).parallel_for(1000, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn zero_iterations_is_noop() {
        let pool = CpuPool::new(4);
        pool.parallel_for(0, |_| panic!("must not run"));
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = CpuPool::new(1);
        let mut seen = 0u64;
        let cell = std::sync::Mutex::new(&mut seen);
        pool.parallel_for(5, |_| {
            **cell.lock().unwrap() += 1;
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn parallel_rows_disjoint_writes() {
        let mut data = vec![0.0f32; 10];
        CpuPool::new(4).parallel_rows(&mut data, &[3, 2, 5], |i, row| {
            for v in row.iter_mut() {
                *v = i as f32 + 1.0;
            }
        });
        assert_eq!(data, vec![1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn cost_batches_cover_everything_in_order() {
        for costs in [
            vec![1.0; 100],
            (0..64).map(|i| (64 - i) as f64 * 10.0).collect::<Vec<_>>(),
            vec![0.0; 7],
            vec![1e9],
        ] {
            let batches = cost_balanced_batches(&costs, 4);
            assert!(!batches.is_empty());
            let mut next = 0usize;
            for r in &batches {
                assert_eq!(r.start, next, "batches must be consecutive");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, costs.len(), "batches must cover every item");
        }
        assert!(cost_balanced_batches(&[], 4).is_empty());
    }

    #[test]
    fn parallel_rows_handles_empty_rows_and_slack() {
        let pool = CpuPool::new(4);
        let mut data = vec![0.0f32; 8]; // 2 elements of slack at the end
        let visited = AtomicU64::new(0);
        pool.parallel_rows(&mut data, &[0, 3, 0, 3], |i, row| {
            visited.fetch_add(1 << i, Ordering::Relaxed);
            for v in row.iter_mut() {
                *v = 1.0;
            }
        });
        assert_eq!(visited.load(Ordering::Relaxed), 0b1111, "every row visited");
        assert_eq!(&data[..6], &[1.0; 6]);
        assert_eq!(&data[6..], &[0.0; 2], "slack untouched");
    }

    #[test]
    fn parallel_uniform_rows_covers_all_rows_and_tail() {
        let pool = CpuPool::new(4);
        let mut data = vec![0.0f32; 10];
        // n=4 → rows 0..4, 4..8, and the short tail 8..10.
        pool.parallel_uniform_rows(&mut data, 4, |row| {
            let len = row.len() as f32;
            for v in row.iter_mut() {
                *v = len;
            }
        });
        assert_eq!(&data[..8], &[4.0; 8]);
        assert_eq!(&data[8..], &[2.0; 2], "partial tail row visited");
    }

    #[test]
    fn pool_panic_propagates() {
        let pool = CpuPool::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(64, |i| {
                if i == 13 {
                    panic!("pool boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must reach the caller");
        // Pool (and the global runtime behind it) stays usable.
        let hits = AtomicU64::new(0);
        pool.parallel_for(64, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        CpuPool::new(0);
    }
}
