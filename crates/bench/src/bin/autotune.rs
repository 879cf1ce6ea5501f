//! The shape-bucketed schedule autotuner end-to-end on the fig02-sized
//! (MNLI-shaped) compiled encoder layer: what it searched, what it
//! chose, and the cache file it wrote.
//!
//! The harness runs [`cora_transformer::autotune::EncoderAutotuner`]
//! against a fresh tuning cache, then exercises the two properties the
//! subsystem promises:
//!
//! * **Never slower than the hand-picked default** — the tuner's
//!   end-to-end fallback rejects any assembled winner that does not
//!   beat the default, so the shipped schedule's score is asserted
//!   `<=` the default's; the Strict tuned output is additionally
//!   asserted bit-identical to the default's.
//! * **Zero-trial cache hits** — a second batch in the same shape
//!   bucket (resampled lengths, same histogram classes) must come back
//!   from the cache without a single search trial.
//!
//! Nothing here is timed beyond the tuner's own `tuning_ms`: what a
//! search costs and what a cache hit costs are `perf_ledger`'s
//! `transformer.autotune.{tune_ms,trials,cache_hit_ms}`.
//!
//! `--quick` shrinks the batch for CI; `--cache=PATH` persists the
//! cache there (default: fresh file under the temp dir). Sampling and
//! the candidate visit order are seeded, so two runs write
//! byte-identical cache files — the `tune-determinism` CI job runs this
//! binary twice and `cmp`s the caches.

use cora_bench::{f2, flag, opt};
use cora_datasets::Dataset;
use cora_exec::MathMode;
use cora_transformer::autotune::{bucket_key, EncoderAutotuner};
use cora_transformer::encoder_compiled::CompiledEncoderLayer;
use cora_transformer::{EncoderConfig, EncoderWeights, RaggedBatch};

use cora_core::autotune::TuneBudget;

fn main() {
    let batch = if flag("quick") { 8 } else { 32 };
    let seed: u64 = 42;
    let cfg = EncoderConfig::scaled(8);

    let cache_path = opt("cache")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cora_autotune_bench_{}.json", std::process::id()))
        });
    let _ = std::fs::remove_file(&cache_path); // fresh-cache tuning run

    let lens = Dataset::Mnli.sample_lengths(batch, seed);
    let rows: usize = lens.iter().sum();
    let w = EncoderWeights::random(&cfg, seed.wrapping_add(1));
    let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(2));

    println!("autotune — shape-bucketed schedule search over the compiled encoder layer");
    println!(
        "batch = {batch} MNLI sequences ({rows} rows), hidden {}, bucket {}\n",
        cfg.hidden,
        bucket_key(&cfg, MathMode::Strict, &lens)
    );

    let mut tuner =
        EncoderAutotuner::new(TuneBudget::trials(64), seed).with_cache_path(&cache_path);

    // First contact: full search against a fresh cache.
    let (tuned, first) = tuner
        .tuned_layer(&cfg, &lens, MathMode::Strict)
        .expect("default schedules are legal");
    assert!(!first.cache_hit, "fresh cache cannot hit");
    assert!(first.trials > 0, "search must measure candidates");
    assert!(
        first.tuned_score <= first.default_score,
        "fallback guarantee violated: tuned {} > default {}",
        first.tuned_score,
        first.default_score
    );
    println!(
        "tuned in {} ms: {} trials, {} stage overrides{}",
        f2(first.tuning_ms),
        first.trials,
        first.chosen.len(),
        if first.fell_back {
            " — fell back to the hand-picked default"
        } else {
            ""
        }
    );
    for (stage, choice) in &first.chosen {
        println!("  {stage}: {}", choice.to_json());
    }

    // Correctness gate: the tuned Strict layer is bit-identical to the
    // hand-picked default.
    let default = CompiledEncoderLayer::build(&cfg, &lens).expect("default builds");
    let mut default_session = default.session().expect("stages outline");
    let mut tuned_session = tuned.session().expect("stages outline");
    let base = default_session.forward_serial(&w, &x);
    let out = tuned_session.forward_serial(&w, &x);
    assert_eq!(
        base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "tuned layer must be bit-identical to the default under Strict"
    );

    // Second contact with the same bucket (lengths resampled within the
    // histogram classes): must be a zero-trial cache hit.
    let lens2 = Dataset::Mnli.sample_lengths(batch, seed); // same histogram by construction
    let (_, second) = tuner
        .tuned_layer(&cfg, &lens2, MathMode::Strict)
        .expect("cache hit");
    assert!(second.cache_hit, "same bucket must hit the cache");
    assert_eq!(second.trials, 0, "cache hits must run zero search trials");
    println!(
        "\ncache hit in {} ms with {} trials (entry: {})",
        f2(second.tuning_ms),
        second.trials,
        cache_path.display()
    );
}
