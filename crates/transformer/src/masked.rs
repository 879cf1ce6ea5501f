//! Masked scaled dot-product attention (§D.3, Fig. 17/18).
//!
//! The decoder masks the upper triangle of every attention matrix, so
//! masked SDPA is a batch of *lower-triangular* ragged operations: row
//! `i` of a length-`l` sequence attends to `i+1` keys. Three
//! implementations:
//!
//! * **PyTorch** — both vloops fully padded: every sequence computes
//!   `max_len × max_len` scores, masking afterwards.
//! * **CoRa-Pad** — outer vloop partially padded, inner loop (the
//!   triangle) fully padded to the sequence length.
//! * **CoRa-NoPad** — both vloops partially padded: row `i` computes only
//!   `pad(i+1)` scores.

use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::{GpuSim, SimKernel};

use crate::config::EncoderConfig;

/// The three masked-SDPA implementations of Fig. 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskedImpl {
    /// Fully padded (both vloops).
    PyTorch,
    /// Outer vloop partially padded, triangle fully padded.
    CoraPad,
    /// Both vloops partially padded.
    CoraNoPad,
}

impl MaskedImpl {
    /// Display name matching the figure.
    pub fn name(self) -> &'static str {
        match self {
            MaskedImpl::PyTorch => "PyTorch",
            MaskedImpl::CoraPad => "CoRa-Pad",
            MaskedImpl::CoraNoPad => "CoRa-NoPad",
        }
    }
}

/// Simulated latency (ms) of masked SDPA (QKT + softmax + AttnV) for a
/// batch of sequence lengths.
pub fn masked_sdpa_latency_ms(
    cfg: &EncoderConfig,
    model: &GpuModel,
    imp: MaskedImpl,
    lens: &[usize],
    seq_pad: usize,
) -> f64 {
    let heads = cfg.heads;
    let hd = cfg.head_dim;
    let maxlen = lens.iter().copied().max().unwrap_or(0);
    let traits = match imp {
        MaskedImpl::PyTorch => KernelTraits::vendor(),
        _ => KernelTraits::generated(),
    };
    let pad = |l: usize| l.div_ceil(seq_pad) * seq_pad;
    let mut qkt = Vec::new();
    let mut attnv = Vec::new();
    let mut softmax_elems = 0usize;
    for &l in lens {
        let rows = match imp {
            MaskedImpl::PyTorch => maxlen,
            _ => pad(l),
        };
        for _ in 0..heads {
            // Row-tile granularity of 32 rows per block.
            for bi in 0..rows.div_ceil(32).max(1) {
                let r = (rows - bi * 32).min(32);
                let row_end = (bi * 32 + r).min(rows);
                let cols = match imp {
                    MaskedImpl::PyTorch => maxlen,
                    MaskedImpl::CoraPad => pad(l),
                    // Triangular: this row block needs only the first
                    // pad(row_end) columns.
                    MaskedImpl::CoraNoPad => pad(row_end),
                };
                qkt.push(model.block_time_us(2.0 * r as f64 * hd as f64 * cols as f64, traits));
                attnv.push(model.block_time_us(2.0 * r as f64 * cols as f64 * hd as f64, traits));
                softmax_elems += r * cols;
            }
        }
    }
    let softmax = cora_kernels::vendor::elementwise_kernel(
        "softmax",
        model,
        traits,
        softmax_elems * heads / heads, // elems already include head loop
        4.0 + 12.0 * model.flops_per_sm_per_us * model.sm_count as f64 / 900_000.0,
        32 * 1024,
    );
    let sim = GpuSim::with_model(*model);
    sim.run(
        &[
            SimKernel::new("qkt", qkt).remap_longest_first(),
            softmax,
            SimKernel::new("attnv", attnv).remap_longest_first(),
        ],
        0,
    )
    .total_us
        / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_datasets::Dataset;

    #[test]
    fn nopad_fastest_pytorch_slowest() {
        let cfg = EncoderConfig::base();
        let model = GpuModel::default();
        let lens = Dataset::Race.sample_batch_sorted(128, 1);
        let pt = masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::PyTorch, &lens, 32);
        let pad = masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraPad, &lens, 32);
        let nopad = masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraNoPad, &lens, 32);
        assert!(nopad < pad, "NoPad {nopad:.2} vs Pad {pad:.2}");
        assert!(pad < pt, "Pad {pad:.2} vs PyTorch {pt:.2}");
    }

    #[test]
    fn masking_benefit_smaller_for_short_sequences() {
        // §D.3: MNLI (short sequences) gains less from exploiting the
        // triangle than RACE because padding to 32 dominates.
        let cfg = EncoderConfig::base();
        let model = GpuModel::default();
        let race = Dataset::Race.sample_batch_sorted(128, 2);
        let mnli = Dataset::Mnli.sample_batch_sorted(128, 2);
        let gain = |lens: &[usize]| {
            masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraPad, lens, 32)
                / masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraNoPad, lens, 32)
        };
        assert!(gain(&race) > gain(&mnli));
    }
}
