//! CPU multi-head attention baselines: the Table 5 / Table 9 / Fig. 27
//! workloads.
//!
//! CoRa's side of those rows is the compiled MHA block,
//! [`CompiledEncoderLayer::build_mha`] under [`Attend::Full`]. This
//! module holds the padded baselines it is compared against, all
//! computing the same MHA module (Proj1 → SDPA → Proj2) for real on the
//! host:
//!
//! * [`mha_padded`] — TF/PT: every sequence padded to the batch maximum.
//! * [`mha_micro_batched`] — TF-UB/PT-UB: the sorted batch runs as a
//!   series of micro-batches, each padded only to its own maximum
//!   (Fig. 26), trading batch parallelism for less padding.
//!
//! [`search_micro_batch`] reproduces the paper's search over power-of-two
//! micro-batch sizes.
//!
//! [`CompiledEncoderLayer::build_mha`]: crate::encoder_compiled::CompiledEncoderLayer::build_mha
//! [`Attend::Full`]: crate::encoder_compiled::Attend::Full

use std::time::Instant;

use cora_exec::CpuPool;
use cora_kernels::elementwise::bias_add_rows;

use crate::config::EncoderConfig;
use crate::encoder::{parallel_sgemm, sdpa_sequence, RaggedBatch};
use crate::weights::EncoderWeights;

/// MHA forward over fully padded storage (`batch × max_len` rows).
/// Returns the padded output.
pub fn mha_padded(
    pool: &CpuPool,
    cfg: &EncoderConfig,
    w: &EncoderWeights,
    lens: &[usize],
    max_len: usize,
    x_padded: &[f32],
) -> Vec<f32> {
    let h = cfg.hidden;
    let rows = lens.len() * max_len;
    let mut qkv = vec![0.0f32; rows * 3 * h];
    parallel_sgemm(pool, rows, h, 3 * h, x_padded, &w.wqkv, &mut qkv);
    bias_add_rows(&mut qkv, 3 * h, &w.bqkv);

    let mut attn = vec![0.0f32; rows * h];
    let row_lens: Vec<usize> = vec![max_len * h; lens.len()];
    pool.parallel_rows(&mut attn, &row_lens, |s, out| {
        let mut scores = Vec::new();
        sdpa_sequence(cfg, max_len, lens[s], &qkv, s * max_len, out, &mut scores);
    });

    let mut out = vec![0.0f32; rows * h];
    parallel_sgemm(pool, rows, h, h, &attn, &w.wo, &mut out);
    bias_add_rows(&mut out, h, &w.bo);
    out
}

/// MHA in micro-batches: the (sorted) batch is chunked; each chunk pads
/// only to its own longest sequence. Returns per-chunk padded outputs.
pub fn mha_micro_batched(
    pool: &CpuPool,
    cfg: &EncoderConfig,
    w: &EncoderWeights,
    x: &RaggedBatch,
    micro: usize,
) -> Vec<Vec<f32>> {
    let h = cfg.hidden;
    let mut outs = Vec::new();
    let mut start_seq = 0usize;
    while start_seq < x.lens.len() {
        let end_seq = (start_seq + micro).min(x.lens.len());
        let chunk_lens = &x.lens[start_seq..end_seq];
        let chunk_max = chunk_lens.iter().copied().max().unwrap_or(0);
        // Pad just this chunk.
        let mut padded = vec![0.0f32; chunk_lens.len() * chunk_max * h];
        for (s, &l) in chunk_lens.iter().enumerate() {
            let src0 = x.row_offset(start_seq + s) * h;
            for i in 0..l {
                let dst = (s * chunk_max + i) * h;
                padded[dst..dst + h].copy_from_slice(&x.data[src0 + i * h..src0 + (i + 1) * h]);
            }
        }
        outs.push(mha_padded(pool, cfg, w, chunk_lens, chunk_max, &padded));
        start_seq = end_seq;
    }
    outs
}

/// Wall-clock timing of one callable, best of `reps` runs, milliseconds.
pub fn time_best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Searches power-of-two micro-batch sizes (from 2 up to the batch size)
/// for the fastest execution; returns `(best_ms, best_micro_batch)`.
pub fn search_micro_batch(
    pool: &CpuPool,
    cfg: &EncoderConfig,
    w: &EncoderWeights,
    x: &RaggedBatch,
    reps: usize,
) -> (f64, usize) {
    let mut best = (f64::INFINITY, x.lens.len());
    let mut micro = 2usize;
    while micro <= x.lens.len() {
        let ms = time_best_ms(reps, || {
            let _ = mha_micro_batched(pool, cfg, w, x, micro);
        });
        if ms < best.0 {
            best = (ms, micro);
        }
        micro *= 2;
    }
    // Also consider the full batch (micro == batch).
    let full_max = x.lens.iter().copied().max().unwrap_or(0);
    let padded = x.to_padded(full_max);
    let ms = time_best_ms(reps, || {
        let _ = mha_padded(pool, cfg, w, &x.lens, full_max, &padded);
    });
    if ms < best.0 {
        best = (ms, x.lens.len());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder_compiled::{Attend, CompiledEncoderLayer};

    /// The compiled full-attention MHA block (CoRa's side of the rows).
    fn mha_compiled(
        pool: &CpuPool,
        cfg: &EncoderConfig,
        w: &EncoderWeights,
        x: &RaggedBatch,
    ) -> Vec<f32> {
        let layer = CompiledEncoderLayer::build_mha(cfg, &x.lens, Attend::Full).unwrap();
        layer.forward(pool, w, x)
    }

    fn unpad(out: &[f32], lens: &[usize], max_len: usize, h: usize) -> Vec<f32> {
        let mut v = Vec::new();
        for (s, &l) in lens.iter().enumerate() {
            let base = s * max_len * h;
            v.extend_from_slice(&out[base..base + l * h]);
        }
        v
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn ragged_and_padded_agree() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 7);
        let lens = vec![9usize, 6, 4, 2];
        let x = RaggedBatch::random(&lens, cfg.hidden, 8);
        let pool = CpuPool::new(2);
        let r = mha_compiled(&pool, &cfg, &w, &x);
        let max_len = 9;
        let p = mha_padded(&pool, &cfg, &w, &lens, max_len, &x.to_padded(max_len));
        let p_valid = unpad(&p, &lens, max_len, cfg.hidden);
        assert!(max_abs_diff(&r, &p_valid) < 1e-4);
    }

    #[test]
    fn micro_batched_agrees_with_compiled() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 9);
        let lens = vec![12usize, 9, 5, 3, 2]; // sorted descending
        let x = RaggedBatch::random(&lens, cfg.hidden, 10);
        let pool = CpuPool::new(2);
        let r = mha_compiled(&pool, &cfg, &w, &x);
        let chunks = mha_micro_batched(&pool, &cfg, &w, &x, 2);
        let mut collected = Vec::new();
        let mut s = 0usize;
        for c in &chunks {
            let chunk_lens = &lens[s..(s + 2).min(lens.len())];
            let cmax = chunk_lens.iter().copied().max().unwrap();
            collected.extend(unpad(c, chunk_lens, cmax, cfg.hidden));
            s += 2;
        }
        assert!(max_abs_diff(&r, &collected) < 1e-4);
    }

    #[test]
    fn micro_batch_search_returns_power_of_two_or_batch() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 1);
        let lens = vec![8usize, 8, 4, 4, 2, 2, 2, 2];
        let x = RaggedBatch::random(&lens, cfg.hidden, 2);
        let pool = CpuPool::new(2);
        let (ms, micro) = search_micro_batch(&pool, &cfg, &w, &x, 1);
        assert!(ms.is_finite());
        assert!(micro == lens.len() || micro.is_power_of_two());
    }
}
