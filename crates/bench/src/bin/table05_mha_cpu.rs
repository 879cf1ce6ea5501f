//! Table 5: MHA execution latency on a multi-core CPU — TF (fully
//! padded), TF-UB (micro-batched), CoRa (ragged) — real wall-clock
//! execution on the host.
//!
//! By default the model is scaled down by `--scale=4` (hidden 128) and
//! batch sizes {8, 16, 32} so the full table finishes quickly; pass
//! `--scale=1 --paper-batches` for the paper's sizes. The *shape* —
//! CoRa ≤ TF-UB ≤ TF, with gaps widest for skewed datasets — is
//! scale-invariant because it is driven by the length distribution.

use cora_bench::{f2, flag, opt_usize, print_table, seed};
use cora_datasets::ALL_DATASETS;
use cora_exec::CpuPool;
use cora_transformer::config::EncoderConfig;
use cora_transformer::encoder::RaggedBatch;
use cora_transformer::mha::{mha_padded, mha_ragged, search_micro_batch, time_best_ms};
use cora_transformer::weights::EncoderWeights;

fn main() {
    let quick = flag("quick");
    let scale = opt_usize("scale", if quick { 8 } else { 4 });
    let cfg = EncoderConfig::scaled(scale);
    let batch_sizes: Vec<usize> = if flag("paper-batches") {
        vec![32, 64, 128]
    } else if quick {
        vec![4, 8]
    } else {
        vec![8, 16, 32]
    };
    let reps = opt_usize("reps", if quick { 1 } else { 2 });
    let datasets: &[_] = if quick {
        &ALL_DATASETS[..2]
    } else {
        &ALL_DATASETS[..]
    };
    let pool = CpuPool::host();
    let seed = seed();
    let w = EncoderWeights::random(&cfg, seed);

    println!(
        "Table 5 — MHA latency in ms (real CPU, {} threads, hidden {}, batches {:?})\n",
        pool.threads(),
        cfg.hidden,
        batch_sizes
    );
    let mut rows = Vec::new();
    let mut geo_tf = 0.0f64;
    let mut geo_ub = 0.0f64;
    let mut count = 0usize;
    for &ds in datasets {
        for &bs in &batch_sizes {
            let lens = ds.sample_batch_sorted(bs, seed.wrapping_add(5));
            let x = RaggedBatch::random(&lens, cfg.hidden, seed.wrapping_add(6));
            let max_len = *lens.first().unwrap();
            let padded_in = x.to_padded(max_len);
            let tf = time_best_ms(reps, || {
                let _ = mha_padded(&pool, &cfg, &w, &lens, max_len, &padded_in);
            });
            let (tf_ub, ubs) = search_micro_batch(&pool, &cfg, &w, &x, reps);
            let cora = time_best_ms(reps, || {
                let _ = mha_ragged(&pool, &cfg, &w, &x);
            });
            geo_tf += (tf / cora).ln();
            geo_ub += (tf_ub / cora).ln();
            count += 1;
            rows.push(vec![
                ds.name().to_string(),
                bs.to_string(),
                f2(tf),
                format!("{} /{}", f2(tf_ub), ubs),
                f2(cora),
            ]);
        }
    }
    print_table(&["dataset", "batch", "TF", "TF-UB /uBS", "CoRa"], &rows);
    let geomean_tf = (geo_tf / count as f64).exp();
    let geomean_ub = (geo_ub / count as f64).exp();
    println!(
        "\nGeomean: CoRa {geomean_tf:.2}x faster than TF (paper: 1.57x), {geomean_ub:.2}x faster than TF-UB (paper: 1.37x)"
    );
}
