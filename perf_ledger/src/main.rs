//! `perf_ledger` — the repo's benchmark: one seeded workload per
//! process, end-to-end metrics untraced (`--trace 0`) or per-layer
//! metrics with spans (`--trace 1`). See `perf_ledger/README.md`.

mod cold;
mod common;
mod gen;
mod layers;
mod offline;
mod report;
mod serve_layers;
mod serving;
mod spans;
mod stats;

use cora_datasets::Dataset;
use cora_exec::CpuPool;
use cora_transformer::EncoderConfig;

use common::Ctx;
use report::Outcome;

/// The workloads, in `BENCHMARK.json` order. Why each exists is recorded
/// there and in the README.
const WORKLOADS: [&str; 5] = [
    "enc_mnli",
    "enc_race",
    "cold_shapes",
    "serve_quantized",
    "serve_unquantized",
];

fn run_workload(name: &str, ctx: &mut Ctx) -> Outcome {
    match name {
        // ~1.4k rows per batch, max length ≈ 120: GEMM-dominated.
        "enc_mnli" => offline::run(
            ctx,
            &offline::Spec {
                dataset: Dataset::Mnli,
                seqs_per_batch: 32,
                batches: 3,
            },
        ),
        // ~2.9k rows per batch, lengths 80–512: attention-dominated.
        "enc_race" => offline::run(
            ctx,
            &offline::Spec {
                dataset: Dataset::Race,
                seqs_per_batch: 8,
                batches: 2,
            },
        ),
        "cold_shapes" => cold::run(ctx),
        "serve_quantized" => serving::run(
            ctx,
            &serving::Spec {
                quantized: true,
                drain_rps: 1_000.0,
                paced_rps: 330.0,
            },
        ),
        "serve_unquantized" => serving::run(
            ctx,
            &serving::Spec {
                quantized: false,
                drain_rps: 100.0,
                paced_rps: 20.0,
            },
        ),
        other => usage(&format!("unknown workload `{other}`")),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "perf_ledger: {problem}\n\
         usage: perf_ledger --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    // Every `CORA_*` knob changes what is measured; the ledger sets what
    // it needs explicitly (pool width, tuner, policy) and clears the
    // rest before any thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CORA_") {
            std::env::remove_var(key);
        }
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("`{flag}` needs a value")));
        let bad = || -> ! { usage(&format!("bad value `{value}` for `{flag}`")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage("--seconds must be in (0, 60]");
    }

    let mut ctx = Ctx {
        cfg: EncoderConfig::scaled(8),
        pool: CpuPool::new(1),
        seed,
        seconds,
        trace,
        rec: spans::Recorder::new(trace),
    };
    println!(
        "perf_ledger: workload {workload}, seed {seed}, {seconds} s, trace {}, {} CPUs",
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let outcome = run_workload(&workload, &mut ctx);

    let declared: Vec<(String, &'static str)> = if trace {
        report::write_trace(&workload, &ctx.rec).expect("write perf_ledger/out");
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let line = report::render(&outcome, &declared);
    println!("{line}");
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
