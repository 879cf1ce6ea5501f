//! Criterion bench: one encoder layer, ragged (CoRa-style) vs fully
//! padded, real CPU execution on an MNLI-like batch (the wall-clock
//! counterpart of Table 4's headline comparison).
//!
//! Besides the criterion output, the bench writes
//! `BENCH_bench_encoder_cpu.json` (ragged vs padded) so the perf
//! trajectory accumulates machine-readably.

use criterion::{criterion_group, criterion_main, Criterion};

use cora_bench::Report;
use cora_datasets::Dataset;
use cora_exec::CpuPool;
use cora_transformer::config::EncoderConfig;
use cora_transformer::encoder::{encoder_layer_padded, encoder_layer_ragged, RaggedBatch};
use cora_transformer::mha::time_best_ms;
use cora_transformer::weights::EncoderWeights;

fn bench_encoder(c: &mut Criterion) {
    let cfg = EncoderConfig::scaled(8);
    let w = EncoderWeights::random(&cfg, 1);
    let pool = CpuPool::host();
    let lens = Dataset::Mnli.sample_batch_sorted(16, 5);
    let x = RaggedBatch::random(&lens, cfg.hidden, 2);
    let max_len = *lens.first().unwrap();
    let padded_in = x.to_padded(max_len);

    let mut g = c.benchmark_group("encoder_layer_mnli16");
    g.sample_size(20);
    g.bench_function("ragged", |b| {
        b.iter(|| encoder_layer_ragged(&pool, &cfg, &w, &x))
    });
    g.bench_function("padded", |b| {
        b.iter(|| encoder_layer_padded(&pool, &cfg, &w, &lens, max_len, &padded_in))
    });
    g.finish();

    // Machine-readable counterpart.
    let reps = 3;
    let padded_ms = time_best_ms(reps, || {
        let _ = encoder_layer_padded(&pool, &cfg, &w, &lens, max_len, &padded_in);
    });
    let ragged_ms = time_best_ms(reps, || {
        let _ = encoder_layer_ragged(&pool, &cfg, &w, &x);
    });
    let mut report = Report::new("bench_encoder_cpu");
    report
        .param("dataset", "mnli")
        .param("batch", lens.len())
        .param("hidden", cfg.hidden)
        .param("threads", pool.threads());
    report
        .measurement("encoder_layer")
        .variant_ms("padded", padded_ms)
        .variant_ms("ragged", ragged_ms);
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write report: {e}"),
    }
}

criterion_group!(benches, bench_encoder);
criterion_main!(benches);
