//! Deterministic serving simulation: replays a seeded open-loop
//! arrival trace against the continuous-batching server
//! ([`cora_serve`]) under `Server::run_sim` — virtual time, analytic
//! service model, zero threads — asserts every request completes, and
//! prints the batching summary.
//!
//! Same seed ⇒ byte-identical event log; `--log=PATH` dumps it, which
//! is what the CI determinism gate byte-compares across two separate
//! processes. Nothing here is timed: wall-clock serving numbers
//! (throughput, latency percentiles, pool behaviour under real
//! threads) are `perf_ledger`'s `serve_quantized` / `serve_unquantized`
//! workloads.
//!
//! `--quick` shrinks the trace for CI.

use cora_bench::{f2, flag, opt};
use cora_serve::{Request, Server, ServerConfig, ServiceModel, TraceSource};
use cora_transformer::{EncoderConfig, EncoderWeights};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Open-loop trace over a small quantized length set: sessions (prelude
/// tables, proofs, arena) are exact-shape-keyed, so steady-state pool
/// reuse needs batch shapes that actually recur — real serving stacks
/// quantize for the same reason. The code is compiled once per pool,
/// whatever the shapes. Same seed ⇒ same lengths and data.
fn make_trace(
    seed: u64,
    requests: usize,
    hidden: usize,
    len_set: &[usize],
    gap_ns: u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|i| {
            let len = len_set[rng.gen_range(0..len_set.len())];
            let data = (0..len * hidden)
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect();
            Request::new(i as u64, len, data, i as u64 * gap_ns)
        })
        .collect()
}

fn main() {
    let quick = flag("quick");
    let log_path = opt("log");
    let seed: u64 = 42;
    let requests = if quick { 32 } else { 128 };
    let gap_us: u64 = if quick { 500 } else { 1_000 };

    let encoder = EncoderConfig::scaled(8);
    let mut cfg = ServerConfig::new(encoder);
    cfg.policy.max_batch_seqs = if quick { 4 } else { 8 };
    // A wide deadline keeps affinity packing in charge (overdue
    // requests override affinity and produce mixed, unwarmed shapes).
    cfg.policy.max_wait_ns = 50_000_000;
    let len_set: &[usize] = if quick { &[4, 8, 16] } else { &[8, 16, 32, 48] };
    // Warm every shape the policy can produce from the quantized length
    // set under affinity packing: uniform-length batches of 1..=seq cap.
    let shapes: Vec<Vec<usize>> = len_set
        .iter()
        .flat_map(|&l| (1..=cfg.policy.max_batch_seqs).map(move |k| vec![l; k]))
        .collect();
    cfg.pool_capacity = cfg.pool_capacity.max(shapes.len());
    let weights = EncoderWeights::random(&encoder, seed.wrapping_add(1));
    let gap_ns = gap_us * 1_000;
    let trace = make_trace(seed, requests, encoder.hidden, len_set, gap_ns);
    let rows: usize = trace.iter().map(|r| r.len).sum();

    println!("serve_trace — open-loop continuous batching (deterministic simulation)");
    println!(
        "{requests} requests, {rows} total rows, gap {gap_us} us, lens {len_set:?}, hidden {}\n",
        encoder.hidden
    );

    // `Server::new` searches no schedules (a wall-clock search would
    // make the run depend on the host): misses build the hand-picked ones.
    let mut server = Server::new(cfg, weights);
    // Warm the pool so the replay is steady-state serving, not the one
    // compile and per-shape prepares (real deployments do exactly this).
    server.warm(&shapes).expect("built-in schedules compile");
    let warm_stats = server.pool_stats();
    println!("warmed {} shapes\n", shapes.len());
    // The compiled tier runs for real; the engine occupies *virtual*
    // time, so the latencies below are virtual too.
    let report = server.run_sim(TraceSource::new(trace), &ServiceModel::default());

    if let Some(path) = log_path {
        std::fs::write(&path, report.event_log()).expect("write event log");
        println!("wrote event log to {path}");
    }

    let ok = report
        .completions
        .iter()
        .filter(|c| c.result.is_ok())
        .count();
    assert_eq!(ok, requests, "every request must complete successfully");
    // The stage programs are shape-generic: warming every shape and
    // replaying the trace compiled one layer.
    assert_eq!(
        report.pool_stats.compiles, 1,
        "the pool compiles once: {:?}",
        report.pool_stats
    );
    // Pool counters are cumulative across the warmup; subtract it so the
    // hit rate below describes the replayed trace only.
    let hits = report.pool_stats.hits - warm_stats.hits;
    let misses = report.pool_stats.misses - warm_stats.misses;

    let latency_ms = |p| f2(report.latency_percentile_ns(p) as f64 / 1e6);
    println!("virtual p50 latency: {} ms", latency_ms(50.0));
    println!("virtual p99 latency: {} ms", latency_ms(99.0));
    println!("microbatches: {}", report.batches.len());
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!("pool hit rate: {}", f2(hit_rate));
}
