//! Fig. 27: MHA latency vs thread count (MNLI, batch 64 in the paper;
//! scaled model and `--batch=16` by default here). Real execution.
//!
//! Besides the paper's TF-padded vs CoRa comparison, this harness times
//! a bare `parallel_for` over a tiny range — the per-region overhead of
//! the persistent runtime. (The per-call spawn/join executor it replaced
//! is gone; its ablation — 121.1 µs vs 19.7 µs per small region — stays
//! recorded in the pr-2 entry of `BENCH_cpu.json`.)
//!
//! `--quick` shrinks sizes/reps for CI smoke runs.

use std::hint::black_box;

use cora_bench::{f2, flag, opt_usize, print_table, seed};
use cora_datasets::Dataset;
use cora_exec::CpuPool;
use cora_transformer::config::EncoderConfig;
use cora_transformer::encoder::RaggedBatch;
use cora_transformer::mha::{mha_padded, mha_ragged, time_best_ms};
use cora_transformer::weights::EncoderWeights;

fn main() {
    let quick = flag("quick");
    let scale = opt_usize("scale", if quick { 8 } else { 4 });
    let bs = opt_usize("batch", if quick { 8 } else { 16 });
    let reps = opt_usize("reps", if quick { 1 } else { 2 });
    let cfg = EncoderConfig::scaled(scale);
    let seed = seed();
    let w = EncoderWeights::random(&cfg, seed);
    let lens = Dataset::Mnli.sample_batch_sorted(bs, seed.wrapping_add(5));
    let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(6));
    let max_len = *lens.first().unwrap();
    let padded_in = x.to_padded(max_len);
    let host = CpuPool::host().threads();

    println!("Fig. 27 — MHA latency (ms) vs thread count, MNLI @ batch {bs}\n");
    let mut rows = Vec::new();
    let mut t = 1usize;
    while t <= host {
        let pool = CpuPool::new(t);
        let tf = time_best_ms(reps, || {
            let _ = mha_padded(&pool, &cfg, &w, &lens, max_len, &padded_in);
        });
        let cora = time_best_ms(reps, || {
            let _ = mha_ragged(&pool, &cfg, &w, &x);
        });
        rows.push(vec![t.to_string(), f2(tf), f2(cora)]);
        t *= 2;
    }
    print_table(&["threads", "TF(padded)", "CoRa"], &rows);

    // Executor overhead on small ops: many short parallel regions, the
    // shape of an encoder forward pass (one region per operator), each
    // waking the runtime's parked workers.
    let calls = if quick { 200 } else { 2000 };
    let n_small = 64usize;
    println!("\nExecutor overhead — {calls} parallel_for calls over n={n_small} tiny iterations\n");
    let pool = CpuPool::host();
    let data: Vec<f32> = (0..n_small).map(|i| i as f32).collect();
    let total_ms = time_best_ms(reps, || {
        for _ in 0..calls {
            pool.parallel_for(n_small, |i| {
                black_box(data[i] * 2.0);
            });
        }
    });
    let ns_per_call = total_ms * 1e6 / calls as f64;
    print_table(
        &["executor", "µs/call"],
        &[vec!["runtime".to_string(), f2(ns_per_call / 1e3)]],
    );

    println!("\nPaper shape: both scale with threads; CoRa stays below the padded");
    println!("implementation at every thread count.");
}
