//! Property-based tests for the persistent work-stealing CPU runtime:
//! every parallel-for entry point must visit each index in `0..n` exactly
//! once, for any thread width (and, for a direct runtime region, any
//! grain size).

use std::sync::atomic::{AtomicU8, Ordering};

use proptest::prelude::*;

use cora::exec::{CpuPool, Runtime};

fn visit_counts(n: usize, run: impl FnOnce(&(dyn Fn(usize) + Sync))) -> Vec<u8> {
    let counts: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
    run(&|i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    counts.into_iter().map(|c| c.into_inner()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dynamic scheduling visits every index exactly once, for any
    /// (n, threads) combination.
    #[test]
    fn dynamic_visits_each_index_once(n in 0usize..600, threads in 1usize..9) {
        let pool = CpuPool::new(threads);
        let counts = visit_counts(n, |f| pool.parallel_for(n, f));
        prop_assert!(counts.iter().all(|&c| c == 1), "n={} counts={:?}", n, counts);
    }

    /// Direct runtime regions (bypassing the pool facade) hold the same
    /// exactly-once property for explicit grain choices.
    #[test]
    fn runtime_run_visits_each_index_once(
        n in 0usize..600,
        width in 1usize..9,
        grain in prop_oneof![Just(None), (1usize..100).prop_map(Some)],
    ) {
        let counts = visit_counts(n, |f| Runtime::global().run(n, width, grain, f));
        prop_assert!(counts.iter().all(|&c| c == 1), "n={} counts={:?}", n, counts);
    }

    /// `parallel_rows` hands every row out exactly once and the row
    /// slices tile the buffer in order.
    #[test]
    fn parallel_rows_tiles_buffer(
        lens in prop::collection::vec(0usize..9, 0..40),
        threads in 1usize..5,
    ) {
        let total: usize = lens.iter().sum();
        let mut data = vec![0.0f32; total];
        let pool = CpuPool::new(threads);
        pool.parallel_rows(&mut data, &lens, |i, row| {
            for v in row.iter_mut() {
                *v += (i + 1) as f32;
            }
        });
        let mut expect = Vec::with_capacity(total);
        for (i, &l) in lens.iter().enumerate() {
            expect.extend(std::iter::repeat((i + 1) as f32).take(l));
        }
        prop_assert_eq!(data, expect);
    }
}
