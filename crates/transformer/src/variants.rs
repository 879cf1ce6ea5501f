//! Operation-splitting and horizontal-fusion ablations on the AttnV and
//! QKT operators (§7.3, §D.6; Figs. 14, 20, 21).
//!
//! Every variant is the operator lowered under its schedule, priced from
//! the lowered program's blocks ([`Program::sim_kernel`]): the split
//! variants are [`split_operation`]'s halves, each scheduled on its own,
//! and a fused variant is one launch of all of them ([`hfuse_sim`]). All
//! variants compute the same useful work; they differ in padding, launch
//! count and code complexity:
//!
//! * **NoSplit** — the non-reduction vloop is padded up to the tile size
//!   (64) and tiled, wasting FLOPs but using one launch.
//! * **Split** — operation splitting at each sequence's last full tile:
//!   the head runs full tiles guard-free, the tail the ragged rest, one
//!   block per (sequence, head) — two launches, halving the work
//!   available per launch.
//! * **Split-HFused** — the two programs share one launch; the tail
//!   blocks fill the scheduling bubbles of the head's.
//! * **Split2-HFused** (QKT only) — both vloops split, four programs in
//!   one launch; the extra index arithmetic shows up as an
//!   indirect-access penalty the CUDA compiler cannot hoist (§D.6's
//!   observed instruction growth).
//!
//! The device only sets the prices: a kernel's traits are chosen here,
//! per operator and variant, not derived from the program.

use std::rc::Rc;

use cora_core::prelude::*;
use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::{GpuSim, SimKernel};
use cora_ragged::{Dim, RaggedLayout};

use crate::config::EncoderConfig;

/// Ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitVariant {
    /// Pad the vloop to the tile size; single kernel.
    NoSplit,
    /// Operation splitting; two kernels.
    Split,
    /// Operation splitting + horizontal fusion; one kernel.
    SplitHFused,
    /// Both vloops split + hfused (QKT only).
    Split2HFused,
}

impl SplitVariant {
    /// Display name matching the figures.
    pub fn name(self) -> &'static str {
        match self {
            SplitVariant::NoSplit => "NoSplit",
            SplitVariant::Split => "Split",
            SplitVariant::SplitHFused => "Split-HFused",
            SplitVariant::Split2HFused => "Split2-HFused",
        }
    }
}

const TILE: usize = 64;

/// `[batch, head, row, col]` storage of one attention operand: rows
/// ragged per sequence and storage-padded to `pad`; columns dense of
/// `width`, or (for `None`) ragged keys padded to `pad` too.
fn per_head(lens: &[usize], heads: usize, pad: usize, width: Option<usize>) -> RaggedLayout {
    let (b, col) = (Dim::new("batch"), Dim::new("col"));
    let layout = RaggedLayout::builder()
        .cdim(b.clone(), lens.len())
        .cdim(Dim::new("head"), heads)
        .vdim(Dim::new("row"), &b, lens.to_vec())
        .pad(pad);
    let layout = match width {
        Some(width) => layout.cdim(col, width),
        None => layout.vdim(col, &b, lens.to_vec()).pad(pad),
    };
    layout.build().expect("a per-head ragged layout")
}

/// The `b, h, i` loops every attention operator starts with: sequence,
/// head, and the sequence's rows.
fn rows(cfg: &EncoderConfig, lens: &[usize]) -> Vec<LoopSpec> {
    vec![
        LoopSpec::fixed("b", lens.len()),
        LoopSpec::fixed("h", cfg.heads),
        LoopSpec::variable("i", 0, lens.to_vec()),
    ]
}

/// QKT, `S[b, h, i, j] = Σ_c Q[b, h, i, c] · K[b, h, j, c]`: vloops over
/// each sequence's rows and keys, scores storage-padded to `pad`.
fn qkt_op(cfg: &EncoderConfig, lens: &[usize], pad: usize) -> Operator {
    let qk = || per_head(lens, cfg.heads, 1, Some(cfg.head_dim));
    let (q, k) = (TensorRef::new("Q", qk()), TensorRef::new("K", qk()));
    let s = TensorRef::new("S", per_head(lens, cfg.heads, pad, None));
    let (qt, kt) = (q.clone(), k.clone());
    let body: BodyFn = Rc::new(move |x| {
        let at = |t: &TensorRef, row: &Expr| {
            t.at(&[x[0].clone(), x[1].clone(), row.clone(), x[4].clone()])
        };
        at(&qt, &x[2]) * at(&kt, &x[3])
    });
    let mut loops = rows(cfg, lens);
    loops.push(LoopSpec::variable("j", 0, lens.to_vec()));
    let reduce = vec![LoopSpec::fixed("c", cfg.head_dim)];
    Operator::new("qkt", loops, reduce, s, vec![q, k], body)
}

/// AttnV, `O[b, h, i, c] = Σ_k P[b, h, i, k] · V[b, h, k, c]` over the
/// softmax output `P` (unpadded, unlike QKT's scores `S`): the row vloop
/// `i` is the transform target, its output rows storage-padded to the
/// tile.
fn attnv_op(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let p = TensorRef::new("P", per_head(lens, cfg.heads, 1, None));
    let v = TensorRef::new("V", per_head(lens, cfg.heads, 1, Some(cfg.head_dim)));
    let out = TensorRef::new("O", per_head(lens, cfg.heads, TILE, Some(cfg.head_dim)));
    let (pt, vt) = (p.clone(), v.clone());
    let body: BodyFn = Rc::new(move |x| {
        let (b, h, i, c, k) = (&x[0], &x[1], &x[2], &x[3], &x[4]);
        pt.at(&[b.clone(), h.clone(), i.clone(), k.clone()])
            * vt.at(&[b.clone(), h.clone(), k.clone(), c.clone()])
    });
    let mut loops = rows(cfg, lens);
    loops.push(LoopSpec::fixed("c", cfg.head_dim));
    let reduce = vec![LoopSpec::variable("k", 0, lens.to_vec())];
    Operator::new("attn_v", loops, reduce, out, vec![p, v], body)
}

/// Splits `op`'s vloop `l` at each sequence's last full tile.
fn split_at_tiles(op: &Operator, l: &str, lens: &[usize]) -> (Operator, Operator) {
    split_operation(op, l, &|b| lens[b] / TILE * TILE).expect("a vloop of the operator")
}

/// Lowers every piece after padding the vloops in `padded` to `tile`
/// and tiling the piece's `tiled` loops — one block per (sequence, head,
/// tile…) — with its auxiliary loads hoisted (§D.7).
fn lower_tiled(pieces: Vec<(Operator, &[&str])>, padded: &[&str], tile: usize) -> Vec<Program> {
    let lower_one = |(mut op, tiled): (Operator, &[&str])| {
        for l in padded {
            op.schedule_mut().pad_loop(*l, tile);
        }
        op.tile_blocks(2, tiled, tile).hoist_loads();
        lower(&op).expect("built-in schedules are legal")
    };
    pieces.into_iter().map(lower_one).collect()
}

/// The lowered AttnV programs of a variant (one, or a split's two).
pub(crate) fn attnv_programs(
    cfg: &EncoderConfig,
    variant: SplitVariant,
    lens: &[usize],
) -> Vec<Program> {
    let op = attnv_op(cfg, lens);
    if variant == SplitVariant::NoSplit {
        return lower_tiled(vec![(op, &["i"])], &["i"], TILE);
    }
    let (head, tail) = split_at_tiles(&op, "i", lens);
    lower_tiled(vec![(head, &["i"]), (tail, &[])], &[], TILE)
}

/// The lowered QKT programs of a variant in `tile`-square tiles: one,
/// a split's two, or a double split's four.
pub(crate) fn qkt_programs(
    cfg: &EncoderConfig,
    variant: SplitVariant,
    lens: &[usize],
    tile: usize,
) -> Vec<Program> {
    let op = qkt_op(cfg, lens, tile);
    match variant {
        SplitVariant::NoSplit => lower_tiled(vec![(op, &["i", "j"])], &["i", "j"], tile),
        SplitVariant::Split | SplitVariant::SplitHFused => {
            let (head, tail) = split_at_tiles(&op, "i", lens);
            lower_tiled(vec![(head, &["i", "j"]), (tail, &["j"])], &["j"], tile)
        }
        SplitVariant::Split2HFused => {
            let (head, tail) = split_at_tiles(&op, "i", lens);
            let (hh, ht) = split_at_tiles(&head, "j", lens);
            let (th, tt) = split_at_tiles(&tail, "j", lens);
            let pieces = vec![(hh, &["i", "j"][..]), (ht, &["i"]), (th, &["j"]), (tt, &[])];
            lower_tiled(pieces, &[], tile)
        }
    }
}

/// A variant's launches: one per program for Split, else one launch of
/// them all.
fn launches(
    variant: SplitVariant,
    programs: &[Program],
    model: &GpuModel,
    traits: KernelTraits,
) -> Vec<SimKernel> {
    if variant == SplitVariant::Split {
        return programs
            .iter()
            .map(|p| p.sim_kernel(model, traits))
            .collect();
    }
    let programs: Vec<&Program> = programs.iter().collect();
    vec![hfuse_sim(&programs, model, traits)]
}

/// AttnV kernels for one variant: per (sequence, head), `out[l, hd] =
/// scores[l, l] · V[l, hd]` where the non-reduction row vloop is the
/// transform target.
pub fn attnv_kernels(
    cfg: &EncoderConfig,
    model: &GpuModel,
    variant: SplitVariant,
    lens: &[usize],
) -> Vec<SimKernel> {
    let programs = attnv_programs(cfg, variant, lens);
    launches(variant, &programs, model, KernelTraits::generated())
}

/// QKT kernels for one variant: per (sequence, head), `scores[l, l] =
/// Q[l, hd] · K[l, hd]ᵀ` — two non-reduction vloops.
pub fn qkt_kernels(
    cfg: &EncoderConfig,
    model: &GpuModel,
    variant: SplitVariant,
    lens: &[usize],
) -> Vec<SimKernel> {
    // QKT fuses vloops with the batch loop, so its accesses go through
    // the fusion maps: hoisted-indirect traits for the 1-vloop cases.
    // §D.6: splitting both vloops grows the executed instruction count —
    // the fused offset chains stop being hoistable and the tile tails
    // need guards, so the double-split variant pays both penalties.
    let traits = match variant {
        SplitVariant::Split2HFused => KernelTraits::generated().with_indirect().with_guards(),
        _ => KernelTraits::generated().with_hoisted_indirect(),
    };
    let programs = qkt_programs(cfg, variant, lens, TILE);
    launches(variant, &programs, model, traits)
}

/// Simulated latency (ms) of a variant on a device model.
pub fn variant_latency_ms(kernels: &[SimKernel], model: &GpuModel) -> f64 {
    GpuSim::with_model(*model).run(kernels, 0).total_us / 1e3
}

/// A CPU-like device model for the 64-core ARM comparison: few execution
/// units, cheap "launches" (fork/join).
pub fn cpu_device_model(cores: usize) -> GpuModel {
    GpuModel {
        sm_count: cores,
        flops_per_sm_per_us: 16_000.0,
        kernel_launch_us: 8.0,
        h2d_bytes_per_us: f64::INFINITY,
        h2d_latency_us: 0.0,
        min_block_us: 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_datasets::Dataset;

    #[test]
    fn gpu_shapes_match_fig14() {
        // MNLI (lengths comparable to the tile size) at moderate batch:
        // split alone hurts (parallelism), hfusion restores it and beats
        // NoSplit.
        let cfg = EncoderConfig::base();
        let model = GpuModel::default();
        let lens = Dataset::Mnli.sample_batch_sorted(64, 1);
        let t = |v| variant_latency_ms(&attnv_kernels(&cfg, &model, v, &lens), &model);
        let nosplit = t(SplitVariant::NoSplit);
        let split = t(SplitVariant::Split);
        let hfused = t(SplitVariant::SplitHFused);
        assert!(
            hfused < nosplit,
            "hfused {hfused:.3} vs nosplit {nosplit:.3}"
        );
        assert!(hfused <= split, "hfused {hfused:.3} vs split {split:.3}");
    }

    #[test]
    fn cpu_shapes_match_fig14() {
        // On the CPU, splitting helps (less waste) and hfusion adds
        // nothing significant (low parallelism).
        let cfg = EncoderConfig::base();
        let model = cpu_device_model(64);
        let lens = Dataset::Mnli.sample_batch_sorted(512, 2);
        let t = |v| variant_latency_ms(&attnv_kernels(&cfg, &model, v, &lens), &model);
        let nosplit = t(SplitVariant::NoSplit);
        let split = t(SplitVariant::Split);
        let hfused = t(SplitVariant::SplitHFused);
        assert!(split < nosplit, "split {split:.3} vs nosplit {nosplit:.3}");
        let gain = (split - hfused) / split;
        assert!(gain < 0.05, "hfusion gain on CPU should be small: {gain}");
    }

    #[test]
    fn qkt_double_split_not_better() {
        // §D.6: splitting both vloops is never better than one.
        let cfg = EncoderConfig::base();
        let model = GpuModel::default();
        let lens = Dataset::Mnli.sample_batch_sorted(256, 3);
        let one = variant_latency_ms(
            &qkt_kernels(&cfg, &model, SplitVariant::SplitHFused, &lens),
            &model,
        );
        let two = variant_latency_ms(
            &qkt_kernels(&cfg, &model, SplitVariant::Split2HFused, &lens),
            &model,
        );
        assert!(two >= one, "two-vloop split {two:.3} vs one {one:.3}");
    }

    #[test]
    fn split_hfused_attnv_prices_the_split_schedule_block_for_block() {
        // The list this module once wrote by hand, every head's full
        // 64-row tiles before the tails: ⌊l/64⌋ tiles of 64 rows, then
        // one block of l mod 64 rows per (sequence, head) — a zero-row
        // tail (l = 64) costs the block floor.
        let (cfg, model) = (EncoderConfig::base(), GpuModel::default());
        let traits = KernelTraits::generated();
        let lens = [100usize, 64, 65, 3];
        let block = |rows: usize, l: usize| {
            let flops = 2.0 * rows as f64 * l as f64 * cfg.head_dim as f64;
            model.block_time_us(flops, traits)
        };
        let mut want = Vec::new();
        for &l in &lens {
            for _ in 0..cfg.heads {
                want.extend(vec![block(64, l); l / 64]);
            }
        }
        for &l in &lens {
            want.extend(vec![block(l % 64, l); cfg.heads]);
        }
        let fused = attnv_kernels(&cfg, &model, SplitVariant::SplitHFused, &lens);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].block_costs_us, want);
    }

    #[test]
    fn split_conserves_useful_blocks() {
        let cfg = EncoderConfig::base();
        let model = GpuModel::default();
        let lens = vec![100usize, 64, 65];
        let split = attnv_kernels(&cfg, &model, SplitVariant::Split, &lens);
        let fused = attnv_kernels(&cfg, &model, SplitVariant::SplitHFused, &lens);
        let split_blocks: usize = split.iter().map(|k| k.block_costs_us.len()).sum();
        let fused_blocks: usize = fused.iter().map(|k| k.block_costs_us.len()).sum();
        assert_eq!(split_blocks, fused_blocks);
        // Work conserved between split and hfused forms.
        let w1: f64 = split.iter().map(|k| k.total_work_us()).sum();
        let w2: f64 = fused.iter().map(|k| k.total_work_us()).sum();
        assert!((w1 - w2).abs() < 1e-9);
    }
}
