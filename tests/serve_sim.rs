//! Deterministic-simulation regression suite for the serving layer
//! (PR 10):
//!
//! * **Determinism** — two same-seed simulations produce byte-identical
//!   event logs and identical batch compositions (the CI gate
//!   byte-compares the logs of two separate bench processes too).
//! * **Starvation freedom** — no request's engine-idle wait ever
//!   exceeds the policy's `max_wait_ns` (the invariant proven in
//!   `cora_serve::policy`).
//! * **Fault isolation** — an injected mid-microbatch panic fails only
//!   that batch's requests, poisons only that session, and the queue
//!   keeps serving: no deadlock, no lost completions.
//! * **Ragged edges** — zero- and one-length requests flow through the
//!   whole stack.
//! * **Compile once** — a run compiles one layer however many shapes it
//!   serves, and its seeded log and outputs are the ones recorded when
//!   every miss compiled.
//!
//! Everything here runs in virtual time: zero real-time sleeps, zero
//! threads.

use cora::exec::MathMode;
use cora::serve::{Arrival, Server, ServerConfig, ServiceModel, TraceConfig, TraceSource};
use cora::transformer::{EncoderConfig, EncoderWeights};

fn small_config() -> EncoderConfig {
    EncoderConfig {
        hidden: 8,
        heads: 2,
        head_dim: 4,
        ff: 16,
        layers: 1,
    }
}

fn server(check: bool) -> Server {
    let encoder = small_config();
    let mut cfg = ServerConfig::new(encoder);
    cfg.math = MathMode::Strict;
    cfg.differential_check = check;
    cfg.policy.max_batch_rows = 24;
    cfg.policy.max_batch_seqs = 4;
    cfg.policy.max_wait_ns = 500_000;
    Server::new(cfg, EncoderWeights::random(&encoder, 7))
}

fn bursty_trace(seed: u64, requests: usize) -> Vec<cora::serve::Request> {
    cora::serve::generate(&TraceConfig {
        seed,
        requests,
        hidden: small_config().hidden,
        len_range: (0, 6),
        arrival: Arrival::Bursty {
            burst: 3,
            gap_ns: 200_000,
        },
    })
}

#[test]
fn same_seed_simulations_are_byte_identical() {
    let model = ServiceModel::default();
    let run = |_: u32| {
        let mut s = server(false);
        s.run_sim(TraceSource::new(bursty_trace(42, 20)), &model)
    };
    let (a, b) = (run(0), run(1));
    assert_eq!(
        a.event_log(),
        b.event_log(),
        "event logs must be byte-identical"
    );
    assert_eq!(a.batches.len(), b.batches.len());
    for (x, y) in a.batches.iter().zip(&b.batches) {
        assert_eq!(x.ids, y.ids, "batch compositions must match");
        assert_eq!(x.lens, y.lens);
        assert_eq!(x.dispatch_ns, y.dispatch_ns);
        assert_eq!(x.complete_ns, y.complete_ns);
    }
    // And the outputs themselves are bit-identical across runs.
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.result, y.result);
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compiling once per pool instead of once per shape changes neither
/// what the simulator logs nor what it returns: the seed-42 event log and
/// every completion's output bits hash to the values recorded when each
/// pool miss compiled its own layer. Misses still log `pool=build`, and
/// the whole run — differential gate included — compiles once.
#[test]
fn compiling_once_per_pool_keeps_the_seeded_log_and_outputs() {
    for check in [false, true] {
        let mut s = server(check);
        let report = s.run_sim(
            TraceSource::new(bursty_trace(42, 20)),
            &ServiceModel::default(),
        );
        let outputs = report.completions.iter().flat_map(|c| {
            let rows = c.result.as_ref().expect("no faults injected");
            let bits = rows.iter().flat_map(|v| v.to_bits().to_le_bytes());
            c.id.to_le_bytes()
                .into_iter()
                .chain(bits)
                .collect::<Vec<_>>()
        });
        assert_eq!(
            fnv1a(report.event_log().into_bytes()),
            0x9249_d236_cce1_0255
        );
        assert_eq!(fnv1a(outputs), 0x4d6d_c6dc_0cd4_904e);
        let logged = |mark: &str| report.events.iter().filter(|e| e.ends_with(mark)).count();
        let stats = report.pool_stats;
        assert_eq!((stats.hits, stats.misses), (1, 8));
        assert_eq!(logged(" pool=build") as u64, stats.misses);
        assert_eq!(logged(" pool=hit") as u64, stats.hits);
        assert_eq!(stats.compiles, 1, "{stats:?}");
    }
}

#[test]
fn no_request_waits_past_the_deadline_while_the_engine_is_idle() {
    // A sparse trickle (deadlines, not fill, drive dispatch) and a
    // heavy burst (fill drives dispatch, waits come from busy time).
    for arrival in [
        Arrival::Trickle { gap_ns: 400_000 },
        Arrival::Bursty {
            burst: 8,
            gap_ns: 2_000_000,
        },
    ] {
        let trace = cora::serve::generate(&TraceConfig {
            seed: 11,
            requests: 24,
            hidden: small_config().hidden,
            len_range: (0, 6),
            arrival,
        });
        let mut s = server(false);
        let report = s.run_sim(TraceSource::new(trace), &ServiceModel::default());
        assert_eq!(report.completions.len(), 24);
        assert!(
            report.max_idle_wait_ns() <= 500_000,
            "{arrival:?}: engine-idle wait {} exceeds max_wait_ns",
            report.max_idle_wait_ns()
        );
    }
}

#[test]
fn injected_fault_fails_only_that_microbatch_and_serving_continues() {
    let model = ServiceModel::default();
    let trace = bursty_trace(42, 20);

    // Baseline: which requests does batch 1 serve, and how many batches
    // does a clean run dispatch?
    let mut clean = server(false);
    let clean_report = clean.run_sim(TraceSource::new(trace.clone()), &model);
    assert!(
        clean_report.batches.len() >= 3,
        "trace must span several batches"
    );
    let doomed = clean_report.batches[1].ids.clone();

    let mut faulty = server(false);
    faulty.inject_fault(1);
    let report = faulty.run_sim(TraceSource::new(trace), &model);

    // Exactly once, for every request — failure is a completion too.
    let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..20).collect::<Vec<u64>>(),
        "no lost or duplicated requests"
    );

    // Only batch 1's requests failed; everyone else got real outputs.
    for c in &report.completions {
        if doomed.contains(&c.id) {
            let err = c.result.as_ref().unwrap_err();
            assert!(
                err.contains("microbatch 1 failed"),
                "unexpected error: {err}"
            );
        } else {
            assert!(
                c.result.is_ok(),
                "request {} lost to an unrelated fault",
                c.id
            );
        }
    }
    assert_eq!(report.batches.iter().filter(|b| b.failed).count(), 1);
    assert_eq!(
        report.pool_stats.poisoned, 1,
        "exactly one session poisoned"
    );
    // The engine kept dispatching after the fault.
    assert!(
        report.batches.iter().any(|b| b.index > 1 && !b.failed),
        "serving must continue past the fault"
    );
    // Identical batching decisions as the clean run: the fault changes
    // outputs, not the schedule.
    for (x, y) in clean_report.batches.iter().zip(&report.batches) {
        assert_eq!(x.ids, y.ids);
        assert_eq!(x.dispatch_ns, y.dispatch_ns);
    }
}

#[test]
fn zero_and_one_length_requests_flow_through() {
    let trace = cora::serve::generate(&TraceConfig {
        seed: 3,
        requests: 10,
        hidden: small_config().hidden,
        len_range: (0, 1),
        arrival: Arrival::OpenLoop { gap_ns: 50_000 },
    });
    let lens: Vec<usize> = trace.iter().map(|r| r.len).collect();
    assert!(
        lens.contains(&0) && lens.contains(&1),
        "seed must cover both lengths"
    );

    let mut s = server(true); // differential check on
    let report = s.run_sim(TraceSource::new(trace), &ServiceModel::default());
    assert_eq!(report.completions.len(), 10);
    for c in &report.completions {
        let rows = c.result.as_ref().expect("all requests succeed");
        assert_eq!(rows.len(), c.len * small_config().hidden);
    }
}

#[test]
fn pool_reuse_kicks_in_for_recurring_shapes() {
    // Fixed-length open loop: after the first build, every batch shape
    // recurs, so the pool must serve hits.
    let trace = cora::serve::generate(&TraceConfig {
        seed: 5,
        requests: 16,
        hidden: small_config().hidden,
        len_range: (4, 4),
        arrival: Arrival::Bursty {
            burst: 4,
            gap_ns: 2_000_000,
        },
    });
    let mut s = server(false);
    let report = s.run_sim(TraceSource::new(trace), &ServiceModel::default());
    assert!(
        report.pool_stats.hits > 0,
        "recurring shapes must hit the pool"
    );
    assert!(
        report
            .batches
            .iter()
            .skip(2)
            .all(|b| b.pool_hit || b.lens.len() < 4),
        "steady-state batches reuse pooled sessions: {:?}",
        report.batches
    );
}
