//! Simulated-GPU implementations of the encoder layer (Fig. 3) and its
//! ablations.
//!
//! Each implementation is expressed as the kernel list it launches, with
//! per-thread-block costs from the shared cost model:
//!
//! * **PyTorch** — fully padded, eager: vendor MMs plus many unfused
//!   elementwise kernels (each a full memory pass).
//! * **FT** — FasterTransformer: fully padded, vendor MMs + fused
//!   hand-written kernels (12 launches, Fig. 3 left).
//! * **FT-Eff** — FT with the EffectiveTransformer optimisation: linear
//!   operators run on the packed `Σ lens` rows; SDPA stays fully padded;
//!   explicit AddPad/RemovePad kernels convert between the two.
//! * **CoRa** — 9 compiler-generated kernels: fused-row linear operators
//!   (bulk-padded to 64), QKT partially padded to 32 with hoisted loads,
//!   AttnV split and hfused (§7.3), padding-change operators fused away,
//!   sequences sorted so heavy blocks schedule first.
//!
//! The baselines' kernels are the vendor model's
//! ([`cora_kernels::vendor`]). CoRa's six GEMM-like kernels are lowered
//! programs priced from their blocks ([`Program::sim_kernel`]), so the
//! schedule directives above are what the simulator prices. Memory-bound
//! kernels (softmax, layer norm, pad changes) are priced by bytes moved,
//! converted to FLOP-equivalents ([`GpuModel::membound_flops`]).

use std::rc::Rc;

use cora_core::prelude::*;
use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::{GpuSim, SimKernel};
use cora_kernels::vendor::{elementwise_kernel, gemm_kernel, vgemm_kernel, GemmTiling};
use cora_ragged::{Dim, RaggedLayout};

use crate::config::EncoderConfig;
use crate::variants::{attnv_programs, qkt_programs, SplitVariant};

/// Bytes-per-element conventions for the memory-bound kernels.
mod bytes {
    /// Plain copy (read + write).
    pub const COPY: f64 = 8.0;
    /// Bias add / residual / activation (read ×1.5 + write).
    pub const BIAS: f64 = 12.0;
    /// Layer norm (two passes + write).
    pub const LAYERNORM: f64 = 12.0;
    /// CoRa's softmax: warp-level reductions, no bound checks (§D.8).
    pub const SOFTMAX_CORA: f64 = 12.0;
    /// FT's softmax: block-level reductions with barriers and masking
    /// checks (§D.8 explains why it is slower).
    pub const SOFTMAX_FT: f64 = 14.0;
    /// Eager-mode softmax with separate max/exp/sum/div passes.
    pub const SOFTMAX_EAGER: f64 = 18.0;
}

/// The four encoder implementations of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderImpl {
    /// Fully padded eager framework.
    PyTorch,
    /// FasterTransformer, fully padded.
    Ft,
    /// FasterTransformer with packed linear operators.
    FtEff,
    /// CoRa compiler-generated.
    Cora,
}

impl EncoderImpl {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EncoderImpl::PyTorch => "PyTorch",
            EncoderImpl::Ft => "FT",
            EncoderImpl::FtEff => "FT-Eff",
            EncoderImpl::Cora => "CoRa",
        }
    }
}

/// CoRa's SDPA padding multiple and QKT tile (Fig. 3: 32).
const SEQ_PAD: usize = 32;

/// CoRa's bulk padding multiple and tile of the fused linear rows (Fig.
/// 3: 64).
const BULK_PAD: usize = 64;

/// Simulated encoder-layer builder.
#[derive(Debug, Clone)]
pub struct EncoderSim {
    /// Model hyperparameters.
    pub cfg: EncoderConfig,
    /// Device model.
    pub model: GpuModel,
    /// Whether CoRa fuses the padding-change operators (Fig. 12 ablation).
    pub fuse_pad_change: bool,
}

/// CoRa's fused-row linear operator `Y[b, i, c] = Σ_d X[b, i, d] · W[d,
/// c]`: the batch loop fused with the ragged row loop, bulk-padded to
/// 64, and 64×64 output tiles, one block each.
fn linear_program(name: &str, lens: &[usize], k: usize, n: usize) -> Program {
    let b = Dim::new("batch");
    let rows = |width| {
        let layout = RaggedLayout::builder().cdim(b.clone(), lens.len());
        let layout = layout.vdim(Dim::new("row"), &b, lens.to_vec());
        layout.cdim(Dim::new("col"), width).build()
    };
    let x = TensorRef::new("X", rows(k).expect("a ragged row layout"));
    let y = TensorRef::new("Y", rows(n).expect("a ragged row layout"));
    let w = TensorRef::new("W", RaggedLayout::dense(&[k, n]));
    let (xt, wt) = (x.clone(), w.clone());
    let body: BodyFn = Rc::new(move |a| {
        xt.at(&[a[0].clone(), a[1].clone(), a[3].clone()]) * wt.at(&[a[3].clone(), a[2].clone()])
    });
    let loops = vec![
        LoopSpec::fixed("b", lens.len()),
        LoopSpec::variable("i", 0, lens.to_vec()),
        LoopSpec::fixed("c", n),
    ];
    let reduce = vec![LoopSpec::fixed("d", k)];
    let mut op = Operator::new(name, loops, reduce, y, vec![x, w], body);
    op.schedule_mut()
        .fuse_loops("b", "i")
        .bulk_pad("b_i_f", BULK_PAD)
        .split("b_i_f", BULK_PAD)
        .split("c", BULK_PAD)
        .reorder(&["b_i_f_o", "c_o", "b_i_f_i", "c_i", "d"])
        .bind("c_o", ForKind::GpuBlockX);
    lower(&op).expect("built-in schedules are legal")
}

/// The lowered programs of CoRa's compute kernels for one batch, its
/// sequences sorted longest first (the block schedule of §D.2): the
/// fused-row linear operators in launch order (QKV, output projection,
/// FF1, FF2), QKT partially padded to 32, and AttnV's split head and
/// tail.
struct CoraPrograms {
    linear: [Program; 4],
    qkt: Program,
    attnv: Vec<Program>,
}

impl CoraPrograms {
    fn lower(cfg: &EncoderConfig, lens: &[usize]) -> CoraPrograms {
        let (h, ff) = (cfg.hidden, cfg.ff);
        let mut sorted: Vec<usize> = lens.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let linear = |name, k, n| linear_program(name, &sorted, k, n);
        let mut qkt = qkt_programs(cfg, SplitVariant::NoSplit, &sorted, SEQ_PAD);
        CoraPrograms {
            linear: [
                linear("qkv_proj_bias", h, 3 * h),
                linear("proj2_bias_residual", h, h),
                linear("ff1_bias_act", h, ff),
                linear("ff2_bias_residual", ff, h),
            ],
            qkt: qkt.remove(0),
            attnv: attnv_programs(cfg, SplitVariant::SplitHFused, &sorted),
        }
    }

    /// Every program's prelude spec.
    fn preludes(&self) -> impl Iterator<Item = &PreludeSpec> {
        let programs = self.linear.iter().chain([&self.qkt]).chain(&self.attnv);
        programs.map(Program::prelude_spec)
    }
}

impl EncoderSim {
    /// Default simulator for a config.
    pub fn new(cfg: EncoderConfig) -> EncoderSim {
        EncoderSim {
            cfg,
            model: GpuModel::default(),
            fuse_pad_change: true,
        }
    }

    fn elementwise(&self, name: &str, traits: KernelTraits, elems: usize, bpe: f64) -> SimKernel {
        let ops = self.model.membound_flops(bpe);
        elementwise_kernel(name, &self.model, traits, elems, ops, 32 * 1024)
    }

    fn mm(&self, name: &str, traits: KernelTraits, m: usize, k: usize, n: usize) -> SimKernel {
        gemm_kernel(name, &self.model, traits, GemmTiling::default(), m, k, n)
    }

    /// A vendor SDPA gemm: one `m×k×n` problem per (sequence, head) of a
    /// `b`-sequence batch, in 32×32 tiles.
    fn sdpa_mm(&self, name: &str, b: usize, m: usize, k: usize, n: usize) -> SimKernel {
        let tiling = GemmTiling {
            tile_m: 32,
            tile_n: 32,
        };
        let problems = vec![(m, k, n); b * self.cfg.heads];
        vgemm_kernel(name, &self.model, KernelTraits::vendor(), tiling, &problems)
    }

    /// The kernel list one layer launches under `imp` for batch `lens`.
    pub fn kernels(&self, imp: EncoderImpl, lens: &[usize]) -> Vec<SimKernel> {
        let (h, ff, hd) = (self.cfg.hidden, self.cfg.ff, self.cfg.head_dim);
        let (b, maxlen) = (lens.len(), lens.iter().copied().max().unwrap_or(0));
        let (s_rows, rows_full) = (lens.iter().sum::<usize>(), b * maxlen);
        let (vendor, gener) = (KernelTraits::vendor(), KernelTraits::generated());
        // Fully padded SDPA: every (sequence, head) at the longest length.
        let attn_elems = b * self.cfg.heads * maxlen * maxlen;
        let qkt = || self.sdpa_mm("qkt", b, maxlen, hd, maxlen);
        let attnv = || self.sdpa_mm("attn_v", b, maxlen, maxlen, hd);
        match imp {
            // Eager fully padded: vendor MMs, every elementwise its own
            // kernel (and an explicit mask-apply in SDPA).
            EncoderImpl::PyTorch => vec![
                self.mm("qkv_mm", vendor, rows_full, h, 3 * h),
                self.elementwise("qkv_bias", gener, rows_full * 3 * h, bytes::BIAS),
                qkt(),
                self.elementwise("mask_add", gener, attn_elems, bytes::BIAS),
                self.elementwise("softmax", gener, attn_elems, bytes::SOFTMAX_EAGER),
                attnv(),
                self.elementwise("transpose", gener, rows_full * h, bytes::COPY),
                self.mm("proj2_mm", vendor, rows_full, h, h),
                self.elementwise("proj2_bias", gener, rows_full * h, bytes::BIAS),
                self.elementwise("residual1", gener, rows_full * h, bytes::BIAS),
                self.elementwise("layernorm1", gener, rows_full * h, bytes::LAYERNORM),
                self.mm("ff1_mm", vendor, rows_full, h, ff),
                self.elementwise("ff1_bias_act", gener, rows_full * ff, bytes::BIAS),
                self.mm("ff2_mm", vendor, rows_full, ff, h),
                self.elementwise("ff2_bias", gener, rows_full * h, bytes::BIAS),
                self.elementwise("residual2", gener, rows_full * h, bytes::BIAS),
                self.elementwise("layernorm2", gener, rows_full * h, bytes::LAYERNORM),
            ],
            EncoderImpl::Ft | EncoderImpl::FtEff => {
                // Fig. 3 left, 12 kernels. FT pads everywhere; FT-Eff runs
                // the linear ops on packed rows, and its AddPad/RemovePad
                // kernels convert for the fully padded SDPA.
                let rows = if imp == EncoderImpl::Ft {
                    rows_full
                } else {
                    s_rows
                };
                let norm = bytes::BIAS + bytes::LAYERNORM;
                vec![
                    self.mm("qkv_proj_mm", vendor, rows, h, 3 * h),
                    self.elementwise("qkv_bias_addpad", vendor, rows_full * 3 * h, bytes::BIAS),
                    qkt(),
                    self.elementwise("softmax", vendor, attn_elems, bytes::SOFTMAX_FT),
                    attnv(),
                    self.elementwise("transpose_removepad", vendor, rows_full * h, bytes::COPY),
                    self.mm("linproj_mm", vendor, rows, h, h),
                    self.elementwise("bias_residual_layernorm1", vendor, rows * h, norm),
                    self.mm("ff1_mm", vendor, rows, h, ff),
                    self.elementwise("ff1_bias_act", vendor, rows * ff, bytes::BIAS),
                    self.mm("ff2_mm", vendor, rows, ff, h),
                    self.elementwise("ff2_bias_residual_layernorm2", vendor, rows * h, norm),
                ]
            }
            EncoderImpl::Cora => self.cora_kernels(&CoraPrograms::lower(&self.cfg, lens), lens),
        }
    }

    fn cora_kernels(&self, programs: &CoraPrograms, lens: &[usize]) -> Vec<SimKernel> {
        let (cfg, model) = (&self.cfg, &self.model);
        let (h, s_rows) = (cfg.hidden, lens.iter().sum::<usize>());
        let gener = KernelTraits::generated();
        let CoraPrograms { linear, qkt, attnv } = programs;
        let [qkv, proj2, ff1, ff2] = linear.each_ref().map(|p| p.sim_kernel(model, gener));
        // QKT on the partially padded lp×lp matrices, loads hoisted.
        let qkt = qkt.sim_kernel(model, gener.with_hoisted_indirect());
        // AttnV via op-split + hfusion: exact rows, tile 64 plus ragged
        // tail in the same launch (§7.3).
        let attnv = hfuse_sim(&attnv.iter().collect::<Vec<_>>(), model, gener);
        let padded = |l: usize| l.div_ceil(SEQ_PAD) * SEQ_PAD;
        let attn_elems: usize = lens
            .iter()
            .map(|&l| cfg.heads * padded(l) * padded(l))
            .sum();
        let mut ks = vec![
            // 1: fused QKV projection + bias over bulk-padded rows.
            qkv,
            // 2-4: SDPA.
            qkt,
            self.elementwise("softmax", gener, attn_elems, bytes::SOFTMAX_CORA),
            attnv,
            // 5: output projection + bias + residual (+ fused pad change).
            proj2,
            // 6: layer norm.
            self.elementwise("layernorm1", gener, s_rows * h, bytes::LAYERNORM),
            // 7-8: feed-forward.
            ff1,
            ff2,
            // 9: layer norm.
            self.elementwise("layernorm2", gener, s_rows * h, bytes::LAYERNORM),
        ];
        if !self.fuse_pad_change {
            // Fig. 12 ablation: unfused padding-change operators become
            // standalone memory passes around the SDPA ops.
            ks.insert(
                1,
                self.elementwise("change_pad_q", gener, s_rows * h, bytes::COPY),
            );
            ks.insert(
                3,
                self.elementwise("change_pad_s", gener, attn_elems, bytes::COPY),
            );
            ks.insert(
                6,
                self.elementwise("remove_pad", gener, s_rows * h, bytes::COPY),
            );
        }
        ks
    }

    /// The prelude specs of the lowered programs CoRa's layer launches
    /// for batch `lens`; [`PreludeSpec::build_union`] builds them as the
    /// layer's prelude.
    pub fn cora_preludes(&self, lens: &[usize]) -> Vec<PreludeSpec> {
        let programs = CoraPrograms::lower(&self.cfg, lens);
        programs.preludes().cloned().collect()
    }

    /// End-to-end per-layer latency in milliseconds, charging CoRa its
    /// per-layer share of the prelude: the union of its programs'
    /// preludes ([`PreludeSpec::build_union`]), built and copied to the
    /// device once per mini-batch and shared across
    /// [`EncoderConfig::layers`] layers, as in Table 4.
    ///
    /// CoRa's figure is not exact: the prelude's build time is measured
    /// on the host, so it varies from run to run in the last digits
    /// (RACE / 128 has read 28.993 and 29.019 ms). The other
    /// implementations' figures are exact.
    pub fn layer_latency_ms(&self, imp: EncoderImpl, lens: &[usize]) -> f64 {
        let sim = GpuSim::with_model(self.model);
        if imp != EncoderImpl::Cora {
            return sim.run(&self.kernels(imp, lens), 0).total_us / 1e3;
        }
        let programs = CoraPrograms::lower(&self.cfg, lens);
        let ks = self.cora_kernels(&programs, lens);
        let prelude = PreludeSpec::build_union(programs.preludes());
        let build_us = (prelude.storage_time + prelude.fusion_time).as_secs_f64() * 1e6;
        let copy_us = self.model.copy_time_us(prelude.total_bytes());
        let prelude_us = (build_us + copy_us) / self.cfg.layers as f64;
        (sim.run(&ks, 0).total_us + prelude_us) / 1e3
    }

    /// Per-kernel breakdown (name, milliseconds) including launch
    /// overheads — the Fig. 13 view.
    pub fn breakdown_ms(&self, imp: EncoderImpl, lens: &[usize]) -> Vec<(String, f64)> {
        let sim = GpuSim::with_model(self.model);
        self.kernels(imp, lens)
            .iter()
            .map(|k| {
                let r = sim.run_kernel(k);
                (k.name.clone(), (r.makespan_us + r.launch_us) / 1e3)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_datasets::Dataset;

    fn sim() -> EncoderSim {
        EncoderSim::new(EncoderConfig::base())
    }

    #[test]
    fn cora_launches_nine_kernels_ft_twelve() {
        let s = sim();
        let lens = Dataset::Race.sample_batch_sorted(32, 1);
        assert_eq!(s.kernels(EncoderImpl::Cora, &lens).len(), 9);
        assert_eq!(s.kernels(EncoderImpl::Ft, &lens).len(), 12);
        assert_eq!(s.kernels(EncoderImpl::FtEff, &lens).len(), 12);
        assert!(s.kernels(EncoderImpl::PyTorch, &lens).len() > 12);
    }

    #[test]
    fn cora_beats_fully_padded_on_skewed_batches() {
        let s = sim();
        for ds in [Dataset::Mnli, Dataset::Squad, Dataset::Race] {
            let lens = ds.sample_batch_sorted(128, 2);
            let cora = s.layer_latency_ms(EncoderImpl::Cora, &lens);
            let pt = s.layer_latency_ms(EncoderImpl::PyTorch, &lens);
            let ft = s.layer_latency_ms(EncoderImpl::Ft, &lens);
            assert!(cora < pt, "{ds:?}: CoRa {cora:.2} vs PyTorch {pt:.2}");
            assert!(cora < ft, "{ds:?}: CoRa {cora:.2} vs FT {ft:.2}");
        }
    }

    #[test]
    fn ft_eff_between_ft_and_cora_for_long_sequences() {
        let s = sim();
        let lens = Dataset::Race.sample_batch_sorted(128, 3);
        let ft = s.layer_latency_ms(EncoderImpl::Ft, &lens);
        let eff = s.layer_latency_ms(EncoderImpl::FtEff, &lens);
        assert!(eff < ft, "FT-Eff {eff:.2} should beat FT {ft:.2}");
    }

    #[test]
    fn pad_change_fusion_helps() {
        let mut s = sim();
        let lens = Dataset::Race.sample_batch_sorted(64, 4);
        let fused = s.layer_latency_ms(EncoderImpl::Cora, &lens);
        s.fuse_pad_change = false;
        let unfused = s.layer_latency_ms(EncoderImpl::Cora, &lens);
        assert!(fused < unfused, "fused {fused:.3} vs unfused {unfused:.3}");
    }

    #[test]
    fn prelude_cost_is_small_fraction() {
        let s = sim();
        let lens = Dataset::Race.sample_batch_sorted(128, 5);
        let prelude = PreludeSpec::build_union(&s.cora_preludes(&lens));
        let copy_ms = s.model.copy_time_us(prelude.total_bytes()) / 1e3;
        let layer_ms = s.layer_latency_ms(EncoderImpl::Cora, &lens);
        assert!(
            copy_ms / s.cfg.layers as f64 / layer_ms < 0.1,
            "prelude share too large: {copy_ms} vs {layer_ms}"
        );
    }

    #[test]
    fn the_layer_prelude_is_the_union_of_its_programs_preludes() {
        let s = sim();
        let lens = Dataset::Race.sample_batch_sorted(32, 6);
        let specs = s.cora_preludes(&lens);
        assert_eq!(
            specs.len(),
            7,
            "four linear operators, QKT, AttnV's head and tail"
        );
        let union = PreludeSpec::build_union(&specs);
        // Every table a program binds, under its name, equal contents.
        for spec in &specs {
            for (name, table) in spec.build().int_buffers {
                let found = union.int_buffers.iter().find(|(n, _)| *n == name);
                assert_eq!(found.map(|(_, t)| t), Some(&table), "{name}");
            }
        }
        // Each distinct table counted once.
        let mut distinct: Vec<&[i64]> = union.int_buffers.iter().map(|(_, t)| &t[..]).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let bytes: usize = distinct.iter().map(|t| t.len() * 8).sum();
        assert_eq!(union.total_bytes(), bytes);
        // Sharing is real: the per-sequence prefix sums are one table.
        let table = |name: &str| {
            union
                .int_buffers
                .iter()
                .find(|(n, _)| n == name)
                .map(|b| &b.1)
        };
        let (q, k) = (table("Q__A0").unwrap(), table("K__A0").unwrap());
        assert!(std::sync::Arc::ptr_eq(q, k));
    }
}
