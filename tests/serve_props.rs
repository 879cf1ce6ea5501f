//! Property tests for the continuous-batching server (PR 10): for
//! random seeded arrival traces — lengths including 0 and 1, bursty
//! and trickle processes —
//!
//! * every admitted request completes **exactly once**;
//! * every output is **bit-identical** (Strict math) to running that
//!   request alone through the compiled tier (the server's built-in
//!   differential gate, enabled for every trace here), and matches the
//!   reference `encoder_layer_ragged` kernels within the suite's usual
//!   1e-4 tolerance;
//! * no request's engine-idle wait exceeds the policy deadline
//!   (virtual-time p99 is policy-bounded);
//! * re-running the same trace reproduces the event log byte for byte.

use proptest::prelude::*;

use cora::core::autotune::TuneBudget;
use cora::exec::{CpuPool, MathMode};
use cora::serve::{
    generate, Arrival, Request, Server, ServerConfig, ServiceModel, TraceConfig, TraceSource,
};
use cora::transformer::autotune::EncoderAutotuner;
use cora::transformer::{encoder_layer_ragged, EncoderConfig, EncoderWeights, RaggedBatch};

fn small_config() -> EncoderConfig {
    EncoderConfig {
        hidden: 8,
        heads: 2,
        head_dim: 4,
        ff: 16,
        layers: 1,
    }
}

const MAX_WAIT_NS: u64 = 300_000;

fn server() -> Server {
    let encoder = small_config();
    let mut cfg = ServerConfig::new(encoder);
    cfg.math = MathMode::Strict;
    // The per-batch differential gate: every microbatch's rows are
    // asserted bit-identical to single-request compiled runs.
    cfg.differential_check = true;
    cfg.policy.max_batch_rows = 16;
    cfg.policy.max_batch_seqs = 4;
    cfg.policy.max_wait_ns = MAX_WAIT_NS;
    // A wall-clock schedule search has no place in a deterministic
    // simulation: misses build the hand-picked schedules.
    let mut tuner = EncoderAutotuner::new(TuneBudget::default(), 42);
    tuner.disabled = true;
    Server::with_tuner(cfg, EncoderWeights::random(&encoder, 13), tuner)
}

fn arrival_strategy() -> impl Strategy<Value = Arrival> {
    prop_oneof![
        (1u64..=3).prop_map(|g| Arrival::OpenLoop { gap_ns: g * 60_000 }),
        ((2usize..=5), (1u64..=3)).prop_map(|(b, g)| Arrival::Bursty {
            burst: b,
            gap_ns: g * 150_000,
        }),
        (1u64..=3).prop_map(|g| Arrival::Trickle {
            gap_ns: g * 250_000
        }),
    ]
}

fn trace_strategy() -> impl Strategy<Value = TraceConfig> {
    (
        0u64..=u64::MAX,
        1usize..=10,
        0usize..=2,
        0usize..=5,
        arrival_strategy(),
    )
        .prop_map(|(seed, requests, lo, extra, arrival)| TraceConfig {
            seed,
            requests,
            hidden: small_config().hidden,
            len_range: (lo, lo + extra),
            arrival,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_trace_completes_exactly_once_with_verified_outputs(cfg in trace_strategy()) {
        let trace = generate(&cfg);
        let by_id: Vec<Request> = trace.clone();
        let model = ServiceModel::default();

        let mut s = server();
        let report = s.run_sim(TraceSource::new(trace.clone()), &model);

        // Exactly-once completion, nothing rejected, nothing failed.
        prop_assert!(report.rejected.is_empty());
        prop_assert_eq!(report.pool_stats.tune_trials, 0);
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..cfg.requests as u64).collect::<Vec<u64>>());

        // Outputs match the reference kernels per request (the compiled
        // suite's usual tolerance); bit-identity to per-request compiled
        // runs was already enforced inside run_sim by the differential
        // gate (differential_check = true).
        let pool = CpuPool::new(2);
        let enc = small_config();
        let w = EncoderWeights::random(&enc, 13);
        for c in &report.completions {
            let rows = c.result.as_ref().expect("no faults injected");
            let req = &by_id[c.id as usize];
            let x = RaggedBatch {
                lens: vec![req.len],
                data: req.data.clone(),
                hidden: enc.hidden,
            };
            let reference = encoder_layer_ragged(&pool, &enc, &w, &x);
            prop_assert_eq!(rows.len(), reference.data.len());
            let worst = rows
                .iter()
                .zip(&reference.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(worst < 1e-4, "request {} drifts {} from reference", c.id, worst);
        }

        // The policy's latency invariant, in virtual time.
        prop_assert!(report.max_idle_wait_ns() <= MAX_WAIT_NS);

        // Determinism: a fresh server on the same trace reproduces the
        // event log byte for byte.
        let mut s2 = server();
        let report2 = s2.run_sim(TraceSource::new(trace), &model);
        prop_assert_eq!(report.event_log(), report2.event_log());
    }
}
