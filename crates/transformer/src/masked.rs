//! Masked scaled dot-product attention (§D.3, Fig. 17/18).
//!
//! The decoder masks the upper triangle of every attention matrix, so
//! masked SDPA is a batch of *lower-triangular* ragged operations: row
//! `i` of a length-`l` sequence attends to `i+1` keys. Three
//! implementations:
//!
//! * **PyTorch** — vendor batched gemms with both vloops fully padded:
//!   every sequence computes `max_len × max_len` scores, masking
//!   afterwards.
//! * **CoRa-Pad** — outer vloop partially padded, inner loop (the
//!   triangle) fully padded to the sequence length.
//! * **CoRa-NoPad** — both vloops partially padded: row `i` computes only
//!   `pad(i+1)` scores.
//!
//! CoRa's QKT and AttnV are lowered programs priced from their blocks
//! ([`Program::sim_kernel`]). Their row loop runs over every sequence's
//! rows, each sequence padded to 32, and the key loop is a vloop over a
//! per-row key count, padded to 32 — the compiled causal block's
//! `(head, row)` form, since a layout's vdim cannot depend on a vdim.
//! CoRa-Pad and CoRa-NoPad differ only in that table. A block is one
//! head's 32-row tile and reduces over its longest row's keys. Softmax
//! is a memory-bound elementwise kernel priced by element count.

use std::rc::Rc;

use cora_core::prelude::*;
use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::GpuSim;
use cora_kernels::vendor::{elementwise_kernel, vgemm_kernel, GemmTiling};
use cora_ragged::{Dim, RaggedLayout};

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

/// CoRa's padding multiple of both vloops, and its row-tile height.
const SEQ_PAD: usize = 32;

/// The keys each row attends to, over every sequence's `SEQ_PAD`-padded
/// rows, and each row's first key row.
fn row_keys(imp: MaskedImpl, lens: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let (mut keys, mut starts) = (Vec::new(), Vec::new());
    for &l in lens {
        let (rows, start) = (l.div_ceil(SEQ_PAD) * SEQ_PAD, keys.len());
        let pad = imp == MaskedImpl::CoraPad;
        keys.extend((0..rows).map(|pos| if pad { l } else { pos + 1 }));
        starts.resize(keys.len(), start);
    }
    (keys, starts)
}

/// CoRa's QKT (`S[h, r, j] = Σ_c Q[r, h, c] · K[start[r] + j, h, c]`) or
/// AttnV (`O[h, r, c] = Σ_j S[h, r, j] · V[start[r] + j, h, c]`), the key
/// loop `j` over `keys[r]` padded to `SEQ_PAD`; one block per head and
/// 32-row tile, heaviest first.
fn cora_program(cfg: &EncoderConfig, keys: &[usize], starts: &[usize], attnv: bool) -> Program {
    let (rows, heads, hd) = (keys.len(), cfg.heads, cfg.head_dim);
    let (h, r) = (Dim::new("head"), Dim::new("row"));
    let scores = RaggedLayout::builder()
        .cdim(h.clone(), heads)
        .cdim(r.clone(), rows)
        .vdim(Dim::new("key"), &r, keys.to_vec())
        .pad(SEQ_PAD)
        .build()
        .expect("a per-row ragged layout");
    let dense = || RaggedLayout::dense(&[rows, heads, hd]);
    let s = TensorRef::new("S", scores);
    let (q, kv) = (TensorRef::new("Q", dense()), TensorRef::new("KV", dense()));
    let out = TensorRef::new("O", RaggedLayout::dense(&[heads, rows, hd]));
    let (st, qt, kvt) = (s.clone(), q.clone(), kv.clone());
    // The loops are `h, r, j` + `c` for QKT and `h, r, c` + `j` for AttnV.
    let body: BodyFn = Rc::new(move |x| {
        let (h, r) = (x[0].clone(), x[1].clone());
        let [j, c] = if attnv { [3, 2] } else { [2, 3] }.map(|i| x[i].clone());
        let key = Expr::load("row_start", r.clone()) + j.clone();
        let lhs = if attnv {
            st.at(&[h.clone(), r, j])
        } else {
            qt.at(&[r, h.clone(), c.clone()])
        };
        lhs * kvt.at(&[key, h, c])
    });
    let (h, r) = (LoopSpec::fixed("h", heads), LoopSpec::fixed("r", rows));
    let (j, c) = (
        LoopSpec::variable("j", 1, keys.to_vec()),
        LoopSpec::fixed("c", hd),
    );
    let mut op = if attnv {
        Operator::new("attn_v", vec![h, r, c], vec![j], out, vec![s, kv], body)
    } else {
        Operator::new("qkt", vec![h, r, j], vec![c], s, vec![q, kv], body)
    };
    op.add_aux_table("row_start", starts.to_vec());
    op.schedule_mut().pad_loop("j", SEQ_PAD);
    op.tile_blocks(1, &["r"], SEQ_PAD)
        .thread_remap(RemapPolicy::LongestFirst);
    lower(&op).expect("built-in schedules are legal")
}

/// Simulated latency (ms) of masked SDPA (QKT + softmax + AttnV) for a
/// batch of sequence lengths.
pub fn masked_sdpa_latency_ms(
    cfg: &EncoderConfig,
    model: &GpuModel,
    imp: MaskedImpl,
    lens: &[usize],
) -> f64 {
    let (heads, hd) = (cfg.heads, cfg.head_dim);
    let (qkt, attnv, softmax_elems, traits) = if imp == MaskedImpl::PyTorch {
        let maxlen = lens.iter().copied().max().unwrap_or(0);
        let traits = KernelTraits::vendor();
        // One block per 32 whole rows of a (sequence, head) problem.
        let tiling = GemmTiling {
            tile_m: SEQ_PAD,
            tile_n: usize::MAX,
        };
        let mm = |name, k, n| {
            let problems = vec![(maxlen, k, n); lens.len() * heads];
            vgemm_kernel(name, model, traits, tiling, &problems)
        };
        let qkt = mm("qkt", hd, maxlen).remap_longest_first();
        let attnv = mm("attn_v", maxlen, hd).remap_longest_first();
        let elems = lens.len() * heads * maxlen * maxlen;
        (qkt, attnv, elems, traits)
    } else {
        let traits = KernelTraits::generated();
        let (keys, starts) = row_keys(imp, lens);
        let price = |attnv| cora_program(cfg, &keys, &starts, attnv).sim_kernel(model, traits);
        let padded = keys.iter().map(|k| k.div_ceil(SEQ_PAD) * SEQ_PAD);
        (
            price(false),
            price(true),
            heads * padded.sum::<usize>(),
            traits,
        )
    };
    let ops_per_elem = 4.0 + model.membound_flops(12.0);
    let softmax = elementwise_kernel(
        "softmax",
        model,
        traits,
        softmax_elems,
        ops_per_elem,
        32 * 1024,
    );
    let sim = GpuSim::with_model(*model);
    sim.run(&[qkt, softmax, attnv], 0).total_us / 1e3
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
        let pt = masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::PyTorch, &lens);
        let pad = masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraPad, &lens);
        let nopad = masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraNoPad, &lens);
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
            masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraPad, lens)
                / masked_sdpa_latency_ms(&cfg, &model, MaskedImpl::CoraNoPad, lens)
        };
        assert!(gain(&race) > gain(&mnli));
    }
}
