//! The ragged encoder layer on the compiled tier, described **once**:
//! every stage of Fig. 3's pipeline is a row of [`STAGES`], a CoRa
//! operator lowered, compiled to the bytecode VM and wired through a
//! buffer-planned [`CompiledPipeline`], which runs consecutive row-local
//! stages as one chain — the paper's end-to-end artifact (§7, Figs.
//! 17–20) rather than a per-operator demonstration.
//!
//! # The stage table
//!
//! A [`Stage`] row holds everything the rest of the system needs to know
//! about one stage: its label, an operator constructor over the shared
//! [`Geometry`], the wires from pipeline buffers to the operator's
//! inputs and its output buffer. `EXTERNALS` does the same for the
//! pipeline's external inputs (name, size, where the data comes from).
//! Everything else is a loop over or a lookup in those two tables:
//! [`CompiledEncoderLayer::build_with_math`] wires them,
//! [`crate::autotune::stage_operator`] projects them, the `vm_disasm`
//! tool walks them, and sessions bind the externals from them. No other
//! module spells a stage label.
//!
//! The stages, in order:
//!
//! 1. ragged projection GEMMs (QKV, attention output, FF1, FF2) with the
//!    reduction loop **reordered** between the row and column loops
//!    (`r, d, c`) — the i-k-j order the hand-written `sgemm` uses, which
//!    both matches its float-add order bit-for-bit and gives the VM's
//!    fused multiply-accumulate instruction a unit-stride (vectorizable)
//!    inner loop;
//! 2. bias / bias+residual adds and the tanh-GELU activation;
//! 3. attention over the flattened `(head, row)` axis: score GEMM,
//!    `1/√d` scaling, and a four-operator row softmax (max-reduction —
//!    [`Operator::reduce_max`] — stored exponentials, row sums,
//!    normalise) matching the reference `softmax_row`
//!    operation-for-operation, each exponential computed exactly once;
//! 4. three-pass row layernorm (sum, variance, normalise) matching the
//!    reference `layernorm_row`.
//!
//! # One attention, two extent functions
//!
//! Attention flattens `(head, row)` into one `hr` axis: prelude-built
//! tables map `hr` to the packed QKV offsets of its head's Q/K/V panels,
//! so heads need no host-side extraction — the only data movement
//! between operators is through the pipeline's arena. How many keys an
//! `hr` row attends is the vloop extent function [`Attend`]:
//! `seq_len` ([`Attend::Full`], the bidirectional encoder) or `pos + 1`
//! ([`Attend::Causal`], masked attention, §D.3 / Fig. 18). That is the
//! *only* difference between the two — the operators, schedules and
//! tables are the same — so multi-head attention
//! ([`CompiledEncoderLayer::build_mha`]) is the table's attention prefix
//! (`qkv_proj … out_proj`) plus a plain output bias under either extent
//! function, run through the same pipeline session: `Full` is the CPU
//! MHA module of Fig. 27 and Tables 5 and 9, `Causal` the masked block.
//!
//! # Compiled once, prepared per shape
//!
//! A batch's shape reaches the stages only as prelude data: the row
//! loops run to the `rows` parameter, the attention loops to
//! `head_rows`, `out_proj` reads its head-major stride as `rows`, and
//! the ragged extents and offsets are tables. Every stage therefore
//! lowers to the same statement at every shape, and one compiled program
//! per `(cfg, MathMode, Attend)` serves them all:
//! [`CompiledEncoderLayer::for_shape`] lowers the stages at a new shape
//! and rebinds them to a layer's code; only the preludes, proofs and
//! arena ([`CompiledEncoderLayer::prepare`]) are per shape. An empty
//! batch is one more shape: its loops run zero times, and it runs
//! through the same pipeline as one chain of zero tiles.
//!
//! # Adding or fusing a stage
//!
//! Add a row to [`STAGES`] at its execution position (and a row to
//! `EXTERNALS` if it reads a new weight): the builder, the verifier
//! goldens' stage order and the tools pick it up. Consecutive rows that
//! run over the same block axis and read only their own block's share
//! of each other's outputs fuse by themselves: the pipeline's chain pass
//! ([`cora_core::pipeline`]) runs them as one dispatch, tile by tile,
//! and their intermediates leave the arena for per-worker windows. So
//! there is no need to hand-fuse rows — keep one operator per row, and
//! the layer runs as three chains (`qkv_proj … qkv_bias`,
//! `scores … attnv`, `out_proj … ln2_norm`); `vm_disasm` prints them and
//! why each ends. A row's schedule is the one its constructor declares;
//! `tests/common/schedule_variants.rs` holds the value-preserving
//! alternatives the test suites check against it.
//!
//! Because every operator replays the reference kernels' loop orders and
//! float operations, [`CompiledEncoderLayer::forward`] tracks
//! [`encoder_layer_ragged`](crate::encoder::encoder_layer_ragged) to
//! within a few ULPs (the causal block tracks
//! [`masked_mha_ragged`](crate::masked_mha::masked_mha_ragged), the full
//! one the un-padded rows of [`mha_padded`](crate::mha::mha_padded)); the
//! differential proptest suite (`tests/encoder_compiled_props.rs`) locks
//! the layer at every pool width, its stages run alone and the reference
//! kernels together.

use std::borrow::BorrowMut;
use std::rc::Rc;

use cora_core::pipeline::{CompiledPipeline, PipelineBuilder, PipelinePrep, PipelineRun};
use cora_core::prelude::*;
use cora_exec::CpuPool;
use cora_ragged::{Dim, LengthFn, RaggedLayout};

use crate::config::EncoderConfig;
use crate::encoder::RaggedBatch;
use crate::weights::EncoderWeights;

/// Layer-norm stabiliser, matching [`crate::encoder`]'s calls.
const LN_EPS: f32 = 1e-5;

/// The prelude parameter holding a batch's total rows (`Σ lens`): the
/// row loop `r` of every row operator runs to it, and `out_proj` reads
/// its head-major stride from it. A shape parameter, not a constant, so
/// one compiled program serves every batch shape.
const ROWS: &str = "rows";

/// The prelude parameter holding the flattened `(head, row)` count
/// (`heads · Σ lens`) the attention stages' `hr` loop runs to.
const HEAD_ROWS: &str = "head_rows";

// ---------------------------------------------------------------------
// Dense row operators
// ---------------------------------------------------------------------

/// Dense projection GEMM `Out[r, c] = Σ_d In[r, d] · W[d, c]`, with the
/// loop nest reordered to `r, d, c` (i-k-j) and the row loop bound to
/// `blockIdx.x`. The innermost `c` loop is the VM's fused saxpy shape,
/// and the float-add order equals the hand-written `sgemm`'s.
pub fn proj_operator(name: &str, rows: usize, k: usize, n: usize) -> Operator {
    let input = TensorRef::new("In", RaggedLayout::dense(&[rows, k]));
    let w = TensorRef::new("W", RaggedLayout::dense(&[k, n]));
    let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, n]));
    let (it, wt) = (input.clone(), w.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (r, c, d) = (args[0].clone(), args[1].clone(), args[2].clone());
        it.at(&[r, d.clone()]) * wt.at(&[d, c])
    });
    let mut op = Operator::new(
        name,
        vec![LoopSpec::param("r", ROWS, rows), LoopSpec::fixed("c", n)],
        vec![LoopSpec::fixed("d", k)],
        out,
        vec![input, w],
        body,
    );
    op.schedule_mut()
        .reorder(&["r", "d", "c"])
        .bind("r", ForKind::GpuBlockX);
    op
}

/// Row-wise bias add, optionally with a residual:
/// `Out[r, c] = In[r, c] + B[c] (+ R[r, c])`.
pub fn bias_operator(name: &str, rows: usize, n: usize, residual: bool) -> Operator {
    let input = TensorRef::new("In", RaggedLayout::dense(&[rows, n]));
    let b = TensorRef::new("B", RaggedLayout::dense(&[n]));
    let r_in = TensorRef::new("R", RaggedLayout::dense(&[rows, n]));
    let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, n]));
    let (it, bt, rt) = (input.clone(), b.clone(), r_in.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (r, c) = (args[0].clone(), args[1].clone());
        let v = it.at(&[r.clone(), c.clone()]) + bt.at(std::slice::from_ref(&c));
        if residual {
            v + rt.at(&[r, c])
        } else {
            v
        }
    });
    let mut inputs = vec![input, b];
    if residual {
        inputs.push(r_in);
    }
    let mut op = Operator::new(
        name,
        vec![LoopSpec::param("r", ROWS, rows), LoopSpec::fixed("c", n)],
        vec![],
        out,
        inputs,
        body,
    );
    op.schedule_mut().bind("r", ForKind::GpuBlockX);
    op
}

/// Fused bias + tanh-GELU: `Out[r, c] = gelu(In[r, c] + B[c])`, with the
/// activation replicating [`cora_kernels::elementwise::gelu`]'s exact
/// operation order.
pub fn bias_gelu_operator(name: &str, rows: usize, n: usize) -> Operator {
    const C: f32 = 0.797_884_6; // sqrt(2/pi), as in the kernel
    let input = TensorRef::new("In", RaggedLayout::dense(&[rows, n]));
    let b = TensorRef::new("B", RaggedLayout::dense(&[n]));
    let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, n]));
    let (it, bt) = (input.clone(), b.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (r, c) = (args[0].clone(), args[1].clone());
        let x = it.at(&[r, c.clone()]) + bt.at(&[c]);
        let cube = FExpr::constant(0.044715) * x.clone() * x.clone() * x.clone();
        let t = (FExpr::constant(C) * (x.clone() + cube)).unary(FUnaryOp::Tanh);
        FExpr::constant(0.5) * x * (FExpr::constant(1.0) + t)
    });
    let mut op = Operator::new(
        name,
        vec![LoopSpec::param("r", ROWS, rows), LoopSpec::fixed("c", n)],
        vec![],
        out,
        vec![input, b],
        body,
    );
    op.schedule_mut().bind("r", ForKind::GpuBlockX);
    op
}

/// Layer-norm pass 1: `S[r] = Σ_d In[r, d]` (the row sum the reference
/// divides once).
pub fn ln_sum_operator(name: &str, rows: usize, n: usize) -> Operator {
    let input = TensorRef::new("In", RaggedLayout::dense(&[rows, n]));
    let out = TensorRef::new("S", RaggedLayout::dense(&[rows]));
    let it = input.clone();
    let body: BodyFn = Rc::new(move |args| it.at(&[args[0].clone(), args[1].clone()]));
    let mut op = Operator::new(
        name,
        vec![LoopSpec::param("r", ROWS, rows)],
        vec![LoopSpec::fixed("d", n)],
        out,
        vec![input],
        body,
    );
    op.schedule_mut().bind("r", ForKind::GpuBlockX);
    op
}

/// Layer-norm pass 2: `V[r] = Σ_d (In[r, d] − S[r]/n)²` — the
/// reference's centred squared deviations (divided by `n` in pass 3).
pub fn ln_var_operator(name: &str, rows: usize, n: usize) -> Operator {
    let input = TensorRef::new("In", RaggedLayout::dense(&[rows, n]));
    let sum = TensorRef::new("S", RaggedLayout::dense(&[rows]));
    let out = TensorRef::new("V", RaggedLayout::dense(&[rows]));
    let (it, st) = (input.clone(), sum.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (r, d) = (args[0].clone(), args[1].clone());
        let mean = st.at(std::slice::from_ref(&r)) / n as f32;
        let dv = it.at(&[r, d]) - mean;
        dv.clone() * dv
    });
    let mut op = Operator::new(
        name,
        vec![LoopSpec::param("r", ROWS, rows)],
        vec![LoopSpec::fixed("d", n)],
        out,
        vec![input, sum],
        body,
    );
    op.schedule_mut().bind("r", ForKind::GpuBlockX);
    op
}

/// Layer-norm pass 3:
/// `Out[r, d] = (In[r, d] − S[r]/n) · rsqrt(V[r]/n + ε) · G[d] + B[d]`,
/// operation-for-operation the reference `layernorm_row`.
pub fn ln_norm_operator(name: &str, rows: usize, n: usize) -> Operator {
    let input = TensorRef::new("In", RaggedLayout::dense(&[rows, n]));
    let sum = TensorRef::new("S", RaggedLayout::dense(&[rows]));
    let var = TensorRef::new("V", RaggedLayout::dense(&[rows]));
    let g = TensorRef::new("G", RaggedLayout::dense(&[n]));
    let beta = TensorRef::new("Bt", RaggedLayout::dense(&[n]));
    let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, n]));
    let (it, st, vt, gt, bt) = (
        input.clone(),
        sum.clone(),
        var.clone(),
        g.clone(),
        beta.clone(),
    );
    let body: BodyFn = Rc::new(move |args| {
        let (r, d) = (args[0].clone(), args[1].clone());
        let mean = st.at(std::slice::from_ref(&r)) / n as f32;
        let inv = (vt.at(std::slice::from_ref(&r)) / n as f32 + LN_EPS)
            .sqrt()
            .unary(FUnaryOp::Recip);
        (it.at(&[r, d.clone()]) - mean) * inv * gt.at(std::slice::from_ref(&d)) + bt.at(&[d])
    });
    let mut op = Operator::new(
        name,
        vec![LoopSpec::param("r", ROWS, rows), LoopSpec::fixed("d", n)],
        vec![],
        out,
        vec![input, sum, var, g, beta],
        body,
    );
    op.schedule_mut().bind("r", ForKind::GpuBlockX);
    op
}

// ---------------------------------------------------------------------
// Attention geometry and operators
// ---------------------------------------------------------------------

/// The vloop extent function of the attention stages: how many keys the
/// query at position `pos` of a `len`-token sequence attends (§7.2,
/// §D.3). The masked and the unmasked SDPA are the same operators; this
/// is their only difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attend {
    /// Every key of the sequence (`len`): bidirectional encoder
    /// attention, rectangular per sequence.
    Full,
    /// The causal prefix `0..=pos` (`pos + 1`): masked attention,
    /// triangular per sequence — the raggedness Fig. 18 measures.
    Causal,
}

impl Attend {
    /// Keys attended by the query at `pos` of a `len`-token sequence.
    pub fn extent(self, pos: usize, len: usize) -> usize {
        match self {
            Attend::Full => len,
            Attend::Causal => pos + 1,
        }
    }
}

/// The row and attention geometry of one batch shape — what every stage
/// constructor of the table reads. Attention runs over the flattened
/// `hr = (head, row)` axis (`heads · Σ lens` entries); the per-`hr`
/// tables become prelude aux tables of the operators that index them.
#[derive(Debug, Clone)]
pub struct Geometry {
    cfg: EncoderConfig,
    rows: usize,
    /// Keys attended by each `hr` ([`Attend::extent`]).
    attend: LengthFn,
    /// Packed-QKV offset of `hr`'s Q panel: `r·3h + head·hd`.
    q0: LengthFn,
    /// Packed-QKV offset of `hr`'s K panel: `row0(r)·3h + h + head·hd`.
    k0: LengthFn,
    /// Packed-QKV offset of `hr`'s V panel: `row0(r)·3h + 2h + head·hd`.
    v0: LengthFn,
}

impl Geometry {
    /// The geometry of a batch of `lens`-token sequences under `attend`.
    pub fn new(cfg: &EncoderConfig, lens: &[usize], attend: Attend) -> Geometry {
        let rows: usize = lens.iter().sum();
        let (h, hd) = (cfg.hidden, cfg.head_dim);
        let table = || Vec::with_capacity(cfg.heads * rows);
        let (mut attended, mut q0, mut k0, mut v0) = (table(), table(), table(), table());
        for head in 0..cfg.heads {
            let mut row0 = 0;
            for &len in lens {
                for pos in 0..len {
                    attended.push(attend.extent(pos, len));
                    q0.push((row0 + pos) * 3 * h + head * hd);
                    k0.push(row0 * 3 * h + h + head * hd);
                    v0.push(row0 * 3 * h + 2 * h + head * hd);
                }
                row0 += len;
            }
        }
        Geometry {
            cfg: *cfg,
            rows,
            attend: LengthFn::new(attended),
            q0: LengthFn::new(q0),
            k0: LengthFn::new(k0),
            v0: LengthFn::new(v0),
        }
    }

    /// Total flattened rows (`Σ lens`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Entries of the flattened `(head, row)` axis.
    fn hr(&self) -> usize {
        self.attend.domain()
    }

    /// A score-shaped tensor: `hr` rows of `attend[hr]` entries each.
    fn scores(&self, name: &str) -> TensorRef {
        let (r, j) = (Dim::new("row"), Dim::new("key"));
        let layout = RaggedLayout::builder()
            .cdim(r.clone(), self.hr())
            .vdim(j, &r, self.attend.clone())
            .build()
            .expect("per-row ragged layout validates");
        TensorRef::new(name, layout)
    }

    /// One value per `hr` (row maxima, row sums).
    fn per_hr(&self, name: &str) -> TensorRef {
        TensorRef::new(name, RaggedLayout::dense(&[self.hr()]))
    }

    /// The packed `rows × 3·hidden` QKV buffer, addressed flat.
    fn qkv(&self) -> TensorRef {
        TensorRef::new(
            "QKV",
            RaggedLayout::dense(&[self.rows * 3 * self.cfg.hidden]),
        )
    }

    fn hr_loop(&self) -> LoopSpec {
        LoopSpec::param("hr", HEAD_ROWS, self.hr())
    }

    /// The ragged key loop: `attend[hr]` iterations under `hr`.
    fn key_loop(&self) -> LoopSpec {
        LoopSpec::variable("j", 0, self.attend.clone())
    }
}

/// The attention stages' shared schedule tail: one block per `hr`,
/// dispatched longest-first (§4.1).
fn block_per_hr(mut op: Operator) -> Operator {
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// A row sweep over score-shaped data: elementwise over `[hr, j]`, or —
/// with `reduce` — a reduction over `j` into one value per `hr`.
fn hr_sweep(
    g: &Geometry,
    name: &str,
    reduce: bool,
    out: TensorRef,
    inputs: Vec<TensorRef>,
    body: BodyFn,
) -> Operator {
    let (loops, red) = if reduce {
        (vec![g.hr_loop()], vec![g.key_loop()])
    } else {
        (vec![g.hr_loop(), g.key_loop()], vec![])
    };
    block_per_hr(Operator::new(name, loops, red, out, inputs, body))
}

/// Score GEMM over the flattened `(head, row)` axis:
/// `S[hr, j] = Σ_d QKV[q0[hr] + d] · QKV[k0[hr] + j·3h + d]`, `j` over
/// the keys `hr` attends. Unscaled — the `1/√d` factor is a separate
/// stage, as in the reference (GEMM, then row scaling, then softmax).
fn scores_operator(g: &Geometry) -> Operator {
    let ld = 3 * g.cfg.hidden as i64;
    let qkv = g.qkv();
    let qt = qkv.clone();
    let body: BodyFn = Rc::new(move |args| {
        let (hr, j, d) = (args[0].clone(), args[1].clone(), args[2].clone());
        let q_idx = Expr::load("hr_q0", hr.clone()) + d.clone();
        let k_idx = Expr::load("hr_k0", hr) + j * ld + d;
        FExpr::load(qt.name().to_string(), q_idx) * FExpr::load(qt.name().to_string(), k_idx)
    });
    let mut op = Operator::new(
        "enc_scores",
        vec![g.hr_loop(), g.key_loop()],
        vec![LoopSpec::fixed("d", g.cfg.head_dim)],
        g.scores("S"),
        vec![qkv],
        body,
    );
    op.add_aux_table("hr_q0", g.q0.clone());
    op.add_aux_table("hr_k0", g.k0.clone());
    block_per_hr(op)
}

/// Score scaling: `Out[hr, j] = S[hr, j] · 1/√d` (the reference scales
/// score rows after the GEMM, before softmax).
fn score_scale_operator(g: &Geometry) -> Operator {
    let scale = 1.0 / (g.cfg.head_dim as f32).sqrt();
    let s = g.scores("S");
    let st = s.clone();
    let body: BodyFn = Rc::new(move |args| st.at(args) * scale);
    hr_sweep(g, "score_scale", false, g.scores("Out"), vec![s], body)
}

/// Softmax pass 1, a max-reduction: `M[hr] = max_j S[hr, j]` (init
/// `-∞`, combined with `max=` — [`Operator::reduce_max`]).
fn row_max_operator(g: &Geometry) -> Operator {
    let s = g.scores("S");
    let st = s.clone();
    let body: BodyFn = Rc::new(move |args| st.at(args));
    let mut op = hr_sweep(g, "row_max", true, g.per_hr("M"), vec![s], body);
    op.reduce_max();
    op
}

/// Softmax pass 2, the stored exponentials:
/// `Ex[hr, j] = exp(S[hr, j] − M[hr])` — materialised once (the
/// reference also computes each exponential exactly once).
fn row_exp_operator(g: &Geometry) -> Operator {
    let (s, m) = (g.scores("S"), g.per_hr("M"));
    let (st, mt) = (s.clone(), m.clone());
    let body: BodyFn = Rc::new(move |args| {
        let hr = args[0].clone();
        (st.at(args) - mt.at(std::slice::from_ref(&hr))).exp()
    });
    hr_sweep(g, "row_exp", false, g.scores("Ex"), vec![s, m], body)
}

/// Softmax pass 3, the row sums of the stored exponentials:
/// `E[hr] = Σ_j Ex[hr, j]` — summed in ascending `j`, like the
/// reference's accumulation.
fn row_sum_operator(g: &Geometry) -> Operator {
    let ex = g.scores("Ex");
    let xt = ex.clone();
    let body: BodyFn = Rc::new(move |args| xt.at(args));
    hr_sweep(g, "row_sum", true, g.per_hr("E"), vec![ex], body)
}

/// Softmax pass 4: `P[hr, j] = Ex[hr, j] · (1/E[hr])` — the reference
/// multiplies the stored exponentials by the reciprocal sum.
fn row_softmax_operator(g: &Geometry) -> Operator {
    let (ex, e) = (g.scores("Ex"), g.per_hr("E"));
    let (xt, et) = (ex.clone(), e.clone());
    let body: BodyFn = Rc::new(move |args| {
        let hr = args[0].clone();
        xt.at(args) * et.at(std::slice::from_ref(&hr)).unary(FUnaryOp::Recip)
    });
    hr_sweep(g, "row_softmax", false, g.scores("P"), vec![ex, e], body)
}

/// Attention-times-values over the flattened `(head, row)` axis:
/// `O[hr, e] = Σ_j P[hr, j] · QKV[v0[hr] + j·3h + e]`, reordered to
/// `hr, j, e` so the innermost loop is the fused saxpy shape (the
/// reference `sgemm_ld`'s i-k-j order).
fn attnv_operator(g: &Geometry) -> Operator {
    let ld = 3 * g.cfg.hidden as i64;
    let (p, qkv) = (g.scores("P"), g.qkv());
    let (pt, vt) = (p.clone(), qkv.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (hr, e, j) = (args[0].clone(), args[1].clone(), args[2].clone());
        let v_idx = Expr::load("hr_v0", hr.clone()) + j.clone() * ld + e;
        pt.at(&[hr, j]) * FExpr::load(vt.name().to_string(), v_idx)
    });
    let mut op = Operator::new(
        "enc_attnv",
        vec![g.hr_loop(), LoopSpec::fixed("e", g.cfg.head_dim)],
        vec![g.key_loop()],
        TensorRef::new("O", RaggedLayout::dense(&[g.hr(), g.cfg.head_dim])),
        vec![p, qkv],
        body,
    );
    op.add_aux_table("hr_v0", g.v0.clone());
    op.schedule_mut().reorder(&["hr", "j", "e"]);
    block_per_hr(op)
}

/// Head-merging output projection: reads the per-`(head, row)` attention
/// output `O` directly —
/// `Out[r, c] = Σ_head Σ_e O[(head·rows + r)·hd + e] · W[(head·hd + e)·h + c]`
/// — so no separate concat/merge stage exists. Reordered to
/// `r, head, e, c`: the reduction enumerates `k = head·hd + e` in
/// exactly the i-k-j order the reference `attn · Wo` GEMM uses. The
/// head-major stride `rows` is the [`ROWS`] parameter.
fn merge_proj_operator(g: &Geometry) -> Operator {
    let (h, hd, heads, rows) = (g.cfg.hidden, g.cfg.head_dim, g.cfg.heads, g.rows);
    let o_in = TensorRef::new("O", RaggedLayout::dense(&[heads * rows * hd]));
    let w = TensorRef::new("W", RaggedLayout::dense(&[h * h]));
    let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, h]));
    let (ot, wt) = (o_in.clone(), w.clone());
    let (hd_i, h_i) = (hd as i64, h as i64);
    let body: BodyFn = Rc::new(move |args| {
        let (r, c, head, e) = (
            args[0].clone(),
            args[1].clone(),
            args[2].clone(),
            args[3].clone(),
        );
        let o_idx = (head.clone() * Expr::var(ROWS) + r) * hd_i + e.clone();
        let w_idx = (head * hd_i + e) * h_i + c;
        FExpr::load(ot.name().to_string(), o_idx) * FExpr::load(wt.name().to_string(), w_idx)
    });
    let mut op = Operator::new(
        "merge_proj",
        vec![LoopSpec::param("r", ROWS, rows), LoopSpec::fixed("c", h)],
        vec![LoopSpec::fixed("head", heads), LoopSpec::fixed("e", hd)],
        out,
        vec![o_in, w],
        body,
    );
    op.schedule_mut()
        .reorder(&["r", "head", "e", "c"])
        .bind("r", ForKind::GpuBlockX);
    op
}

// ---------------------------------------------------------------------
// The stage table
// ---------------------------------------------------------------------

/// One row of the stage table: everything the builder and the tools
/// know about one pipeline stage.
#[derive(Debug)]
pub struct Stage {
    /// The stage label (pipeline stage name).
    pub label: &'static str,
    /// Operator constructor, given the stage's label and the batch
    /// geometry.
    op: fn(&'static str, &Geometry) -> Operator,
    /// `(operator input, pipeline buffer)` per float input.
    pub wires: &'static [(&'static str, &'static str)],
    /// Pipeline buffer the stage produces.
    pub out: &'static str,
}

impl Stage {
    /// The stage's standalone operator at a batch geometry, under its
    /// hand-picked schedule.
    pub fn operator(&self, g: &Geometry) -> Operator {
        (self.op)(self.label, g)
    }
}

/// Label of the attention-score stage — the one stage a bench addresses
/// by name (the `paper` binary's `tiers` row times its causal form).
pub const SCORES: &str = "scores";

/// The encoder layer, stage by stage, in execution order.
pub static STAGES: [Stage; 21] = [
    // Attention block.
    Stage {
        label: "qkv_proj",
        op: |l, g| proj_operator(l, g.rows, g.cfg.hidden, 3 * g.cfg.hidden),
        wires: &[("In", "X"), ("W", "Wqkv")],
        out: "QKV0",
    },
    Stage {
        label: "qkv_bias",
        op: |l, g| bias_operator(l, g.rows, 3 * g.cfg.hidden, false),
        wires: &[("In", "QKV0"), ("B", "Bqkv")],
        out: "QKV",
    },
    Stage {
        label: SCORES,
        op: |_, g| scores_operator(g),
        wires: &[("QKV", "QKV")],
        out: "S0",
    },
    Stage {
        label: "scale",
        op: |_, g| score_scale_operator(g),
        wires: &[("S", "S0")],
        out: "S",
    },
    Stage {
        label: "row_max",
        op: |_, g| row_max_operator(g),
        wires: &[("S", "S")],
        out: "M",
    },
    Stage {
        label: "row_exp",
        op: |_, g| row_exp_operator(g),
        wires: &[("S", "S"), ("M", "M")],
        out: "EX",
    },
    Stage {
        label: "row_sum",
        op: |_, g| row_sum_operator(g),
        wires: &[("Ex", "EX")],
        out: "E",
    },
    Stage {
        label: "row_softmax",
        op: |_, g| row_softmax_operator(g),
        wires: &[("Ex", "EX"), ("E", "E")],
        out: "P",
    },
    Stage {
        label: "attnv",
        op: |_, g| attnv_operator(g),
        wires: &[("P", "P"), ("QKV", "QKV")],
        out: "O",
    },
    Stage {
        label: "out_proj",
        op: |_, g| merge_proj_operator(g),
        wires: &[("O", "O"), ("W", "Wo")],
        out: "AO",
    },
    Stage {
        label: "attn_bias_residual",
        op: |l, g| bias_operator(l, g.rows, g.cfg.hidden, true),
        wires: &[("In", "AO"), ("B", "Bo"), ("R", "X")],
        out: "Y1",
    },
    // First layer norm.
    Stage {
        label: "ln1_sum",
        op: |l, g| ln_sum_operator(l, g.rows, g.cfg.hidden),
        wires: &[("In", "Y1")],
        out: "S1",
    },
    Stage {
        label: "ln1_var",
        op: |l, g| ln_var_operator(l, g.rows, g.cfg.hidden),
        wires: &[("In", "Y1"), ("S", "S1")],
        out: "V1",
    },
    Stage {
        label: "ln1_norm",
        op: |l, g| ln_norm_operator(l, g.rows, g.cfg.hidden),
        wires: &[
            ("In", "Y1"),
            ("S", "S1"),
            ("V", "V1"),
            ("G", "Ln1G"),
            ("Bt", "Ln1B"),
        ],
        out: "Z1",
    },
    // Feed-forward block.
    Stage {
        label: "ff1",
        op: |l, g| proj_operator(l, g.rows, g.cfg.hidden, g.cfg.ff),
        wires: &[("In", "Z1"), ("W", "W1")],
        out: "F0",
    },
    Stage {
        label: "ff1_bias_gelu",
        op: |l, g| bias_gelu_operator(l, g.rows, g.cfg.ff),
        wires: &[("In", "F0"), ("B", "B1")],
        out: "F",
    },
    Stage {
        label: "ff2",
        op: |l, g| proj_operator(l, g.rows, g.cfg.ff, g.cfg.hidden),
        wires: &[("In", "F"), ("W", "W2")],
        out: "G0",
    },
    Stage {
        label: "ff_bias_residual",
        op: |l, g| bias_operator(l, g.rows, g.cfg.hidden, true),
        wires: &[("In", "G0"), ("B", "B2"), ("R", "Z1")],
        out: "Y2",
    },
    // Second layer norm.
    Stage {
        label: "ln2_sum",
        op: |l, g| ln_sum_operator(l, g.rows, g.cfg.hidden),
        wires: &[("In", "Y2")],
        out: "S2",
    },
    Stage {
        label: "ln2_var",
        op: |l, g| ln_var_operator(l, g.rows, g.cfg.hidden),
        wires: &[("In", "Y2"), ("S", "S2")],
        out: "V2",
    },
    Stage {
        label: "ln2_norm",
        op: |l, g| ln_norm_operator(l, g.rows, g.cfg.hidden),
        wires: &[
            ("In", "Y2"),
            ("S", "S2"),
            ("V", "V2"),
            ("G", "Ln2G"),
            ("Bt", "Ln2B"),
        ],
        out: "OUT",
    },
];

/// How many leading rows of [`STAGES`] form the attention block
/// (`qkv_proj … out_proj`) that multi-head attention shares.
const ATTENTION_STAGES: usize = 10;

/// MHA's last stage: the output projection's bias alone. (The
/// encoder's row at this position also adds the layer's residual, which
/// a bare attention block does not have.)
static MHA_OUT_BIAS: Stage = Stage {
    label: "attn_bias",
    op: |l, g| bias_operator(l, g.rows, g.cfg.hidden, false),
    wires: &[("In", "AO"), ("B", "Bo")],
    out: "Y",
};

/// The table row of a stage label, if any.
pub fn stage(label: &str) -> Option<&'static Stage> {
    STAGES
        .iter()
        .chain([&MHA_OUT_BIAS])
        .find(|s| s.label == label)
}

/// One external input of the pipeline: its buffer name, its size at a
/// geometry, and where a call's data for it comes from.
#[derive(Debug)]
struct External {
    name: &'static str,
    size: fn(&Geometry) -> usize,
    data: for<'a> fn(&'a EncoderWeights, &'a RaggedBatch) -> &'a [f32],
}

/// Every external input a stage may wire, in declaration order. A
/// pipeline declares (and a session binds) exactly those its stages
/// read.
static EXTERNALS: [External; 13] = {
    const fn ext(
        name: &'static str,
        size: fn(&Geometry) -> usize,
        data: for<'a> fn(&'a EncoderWeights, &'a RaggedBatch) -> &'a [f32],
    ) -> External {
        External { name, size, data }
    }
    [
        ext("X", |g| g.rows * g.cfg.hidden, |_, x| &x.data),
        ext("Wqkv", |g| g.cfg.hidden * 3 * g.cfg.hidden, |w, _| &w.wqkv),
        ext("Bqkv", |g| 3 * g.cfg.hidden, |w, _| &w.bqkv),
        ext("Wo", |g| g.cfg.hidden * g.cfg.hidden, |w, _| &w.wo),
        ext("Bo", |g| g.cfg.hidden, |w, _| &w.bo),
        ext("W1", |g| g.cfg.hidden * g.cfg.ff, |w, _| &w.w1),
        ext("B1", |g| g.cfg.ff, |w, _| &w.b1),
        ext("W2", |g| g.cfg.ff * g.cfg.hidden, |w, _| &w.w2),
        ext("B2", |g| g.cfg.hidden, |w, _| &w.b2),
        ext("Ln1G", |g| g.cfg.hidden, |w, _| &w.ln1_g),
        ext("Ln1B", |g| g.cfg.hidden, |w, _| &w.ln1_b),
        ext("Ln2G", |g| g.cfg.hidden, |w, _| &w.ln2_g),
        ext("Ln2B", |g| g.cfg.hidden, |w, _| &w.ln2_b),
    ]
};

// ---------------------------------------------------------------------
// The layer
// ---------------------------------------------------------------------

/// A run of table stages at one batch shape, wired through a
/// buffer-planned [`CompiledPipeline`]: the full 21-stage encoder layer
/// ([`CompiledEncoderLayer::build`]) or the multi-head-attention block
/// ([`CompiledEncoderLayer::build_mha`]).
///
/// The compiled code is shape-generic — batch shape reaches it only
/// through prelude parameters and tables — so it is compiled once per
/// `(cfg, MathMode, Attend)`: [`CompiledEncoderLayer::for_shape`] moves
/// a layer to another batch shape by lowering and rebinding, sharing
/// this layer's code. The layer itself (its preludes, buffer plan and
/// the sessions it admits) is shape-keyed: prepare a session per
/// `lens` and run any number of layers/batches of that shape through
/// it (weights and activations are per-call inputs; nothing is
/// re-compiled or re-planned).
#[derive(Debug, Clone)]
pub struct CompiledEncoderLayer {
    pipeline: CompiledPipeline,
    /// The table rows the pipeline runs, in order.
    stages: Vec<&'static Stage>,
    /// The externals the pipeline's stages read, in declaration order.
    externals: Vec<&'static External>,
    cfg: EncoderConfig,
    attend: Attend,
    lens: Vec<usize>,
    rows: usize,
    math: MathMode,
}

impl CompiledEncoderLayer {
    /// Lowers, compiles and wires every stage for the batch shape under
    /// [`MathMode::Strict`] semantics (bit-identical to the interpreter
    /// and, to within a few ULPs, the reference kernels).
    ///
    /// # Errors
    ///
    /// Returns the schedule error if lowering rejects a built-in
    /// schedule — a compiler regression by definition.
    pub fn build(
        cfg: &EncoderConfig,
        lens: &[usize],
    ) -> Result<CompiledEncoderLayer, ScheduleError> {
        Self::build_with_math(cfg, lens, MathMode::Strict)
    }

    /// [`CompiledEncoderLayer::build`] with an explicit [`MathMode`].
    ///
    /// Every stage compiles under the requested mode. [`MathMode::Fast`]
    /// changes only `exp`/`tanh` and the reducing stores and
    /// multiply-accumulate nests (projection/score/attention GEMMs,
    /// softmax max/exp/sum, GELU, layer-norm sums and variances); the
    /// purely elementwise stages have none of these and compute the same
    /// bits in both modes. Under `Fast` the layer output drifts from the
    /// Strict run by at most the per-op tolerances documented in
    /// `cora_exec::microkernel`, compounded across stages; the
    /// differential suite bounds the end-to-end error.
    ///
    /// # Errors
    ///
    /// Returns the schedule error if lowering rejects a built-in
    /// schedule — a compiler regression by definition.
    pub fn build_with_math(
        cfg: &EncoderConfig,
        lens: &[usize],
        math: MathMode,
    ) -> Result<CompiledEncoderLayer, ScheduleError> {
        Self::wire(cfg, lens, Attend::Full, STAGES.iter().collect(), math, None)
    }

    /// The multi-head-attention block at a batch shape: the table's
    /// attention prefix (`qkv_proj … out_proj`) under `attend`, then the
    /// output bias. [`Attend::Full`] is the CPU MHA module (Fig. 27,
    /// Tables 5 and 9); [`Attend::Causal`] the masked block (§D.3). Runs
    /// through the same sessions as the encoder layer (only
    /// `wqkv`/`bqkv`/`wo`/`bo` of the weights are read);
    /// [`EncoderSession::forward`] returns the `Σ lens × hidden` block
    /// output — under `Causal` numerically equivalent to
    /// [`crate::masked_mha::masked_mha_ragged`], under `Full` to the
    /// un-padded rows of [`crate::mha::mha_padded`].
    ///
    /// # Errors
    ///
    /// As for [`CompiledEncoderLayer::build`].
    pub fn build_mha(
        cfg: &EncoderConfig,
        lens: &[usize],
        attend: Attend,
    ) -> Result<CompiledEncoderLayer, ScheduleError> {
        let stages = STAGES[..ATTENTION_STAGES]
            .iter()
            .chain([&MHA_OUT_BIAS])
            .collect();
        Self::wire(cfg, lens, attend, stages, MathMode::Strict, None)
    }

    /// This layer's stages at the batch shape `lens`, over this layer's
    /// compiled code: each stage is lowered at `lens` and rebound
    /// ([`Program::rebind`]) to the program this layer compiled, under
    /// the same [`MathMode`] and [`Attend`]. Nothing is compiled; the
    /// result owns `lens`' preludes and buffer plan and shares the code.
    ///
    /// # Errors
    ///
    /// As for [`CompiledEncoderLayer::build`].
    ///
    /// # Panics
    ///
    /// Panics if a stage lowers at `lens` to a program other than the one
    /// this layer compiled — a compiler bug.
    pub fn for_shape(&self, lens: &[usize]) -> Result<CompiledEncoderLayer, ScheduleError> {
        Self::wire(
            &self.cfg,
            lens,
            self.attend,
            self.stages.clone(),
            self.math,
            Some(self),
        )
    }

    /// The one builder: lowers `stages` in order at the batch geometry,
    /// compiles them — or, given `code`, rebinds them to its pipeline's
    /// programs — and wires them into a pipeline whose output is the
    /// last stage's buffer.
    fn wire(
        cfg: &EncoderConfig,
        lens: &[usize],
        attend: Attend,
        stages: Vec<&'static Stage>,
        math: MathMode,
        code: Option<&CompiledEncoderLayer>,
    ) -> Result<CompiledEncoderLayer, ScheduleError> {
        cfg.validate().expect("consistent encoder config");
        let geometry = Geometry::new(cfg, lens, attend);
        let mut code = code.map(|layer| layer.pipeline.stage_programs());
        let mut b = PipelineBuilder::new(if stages.len() == STAGES.len() {
            "encoder_layer"
        } else {
            "mha"
        });
        let wired = stages.iter().flat_map(|s| s.wires).map(|(_, buf)| *buf);
        let read = |e: &&External| wired.clone().any(|buf| buf == e.name);
        let externals: Vec<&External> = EXTERNALS.iter().filter(read).collect();
        for e in &externals {
            b.input(e.name, (e.size)(&geometry))
                .expect("unique external names");
        }
        for stage in &stages {
            let lowered = lower(&stage.operator(&geometry))?;
            let program = match code.as_mut() {
                Some(programs) => {
                    let (label, compiled) = programs.next().expect("code of the same stage rows");
                    debug_assert_eq!(label, stage.label, "code of the same stage rows");
                    lowered.rebind(compiled)
                }
                None => lowered.compile().with_math_mode(math),
            };
            b.stage(stage.label, program, stage.wires, stage.out)
                .expect("encoder pipeline wiring is static");
        }
        let out = stages.last().expect("at least one stage").out;
        Ok(CompiledEncoderLayer {
            pipeline: b.build(out).expect("the last stage produces the output"),
            stages,
            externals,
            cfg: *cfg,
            attend,
            lens: lens.to_vec(),
            rows: geometry.rows,
            math,
        })
    }

    /// The wired pipeline (buffer plan, stage labels); always `Some`.
    pub fn pipeline(&self) -> Option<&CompiledPipeline> {
        Some(&self.pipeline)
    }

    /// The [`MathMode`] every stage was compiled under.
    pub fn math_mode(&self) -> MathMode {
        self.math
    }

    /// Total flattened rows of the batch shape.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Prepares a reusable session that owns its [`EncoderPrep`]:
    /// [`CompiledEncoderLayer::prepare`] +
    /// [`CompiledEncoderLayer::session_with`] in one call. Reuse the
    /// session across layers and repeated calls.
    ///
    /// # Errors
    ///
    /// Returns the outline error if a stage's block axis cannot be
    /// hoisted — a compiler regression by definition.
    pub fn session(&self) -> Result<EncoderSession<'_, EncoderPrep>, ScheduleError> {
        Ok(self.session_with(self.prepare()?))
    }

    /// Computes everything shape-dependent about a session — per-stage
    /// preludes and bound tables, safety proofs, dispatch orders and the
    /// arena — without borrowing the layer. Store the [`EncoderPrep`]
    /// beside the layer (e.g. in a serving session pool) and run each
    /// request through [`CompiledEncoderLayer::session_with`]: the
    /// session is only a view, so arena, tables and dispatch batches are
    /// literally reused across requests and nothing is recomputed.
    ///
    /// # Errors
    ///
    /// As for [`CompiledEncoderLayer::session`].
    pub fn prepare(&self) -> Result<EncoderPrep, ScheduleError> {
        Ok(EncoderPrep {
            inner: self.pipeline.prepare()?,
            lens: self.lens.clone(),
        })
    }

    /// The one way to make an [`EncoderSession`]: a view over this
    /// layer and an [`EncoderPrep`] (which **must** come from this
    /// layer's own [`CompiledEncoderLayer::prepare`]), held as `&mut` or
    /// by value. Nothing is computed or allocated here.
    ///
    /// # Panics
    ///
    /// Panics if the prep was prepared for a different batch shape: two
    /// shapes can plan equal buffer sizes (`[3, 2]` and `[2, 3]`) and
    /// share one compiled code ([`CompiledEncoderLayer::for_shape`]),
    /// so running one shape's tables under the other's layer would
    /// return wrong values rather than fail.
    pub fn session_with<P: BorrowMut<EncoderPrep>>(&self, prep: P) -> EncoderSession<'_, P> {
        let prepared = &prep.borrow().lens;
        assert!(
            *prepared == self.lens,
            "prep was prepared for lens {prepared:?}; this layer is compiled for lens {:?}",
            self.lens
        );
        EncoderSession { layer: self, prep }
    }

    /// One-shot convenience: build a session and run once on `pool`.
    /// Multi-layer callers should hold a session instead.
    ///
    /// # Panics
    ///
    /// Panics if the built-in schedules fail to lower or outline, or if
    /// `x` does not match the layer's batch shape.
    pub fn forward(&self, pool: &CpuPool, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.session()
            .expect("built-in schedules outline")
            .forward(pool, w, x)
    }
}

/// Everything shape-dependent about one [`CompiledEncoderLayer`]: what
/// [`CompiledEncoderLayer::prepare`] resolves, borrowing nothing from
/// the layer — storable beside it in caches and pools.
#[derive(Debug, Clone)]
pub struct EncoderPrep {
    inner: PipelinePrep,
    /// The batch shape the tables, proofs and arena were resolved at.
    lens: Vec<usize>,
}

/// An execution of one [`CompiledEncoderLayer`] at its shape: a view
/// over the layer and its [`EncoderPrep`] (borrowed by default, owned
/// when created by [`CompiledEncoderLayer::session`]); each call binds
/// only the weights and activations. One prep serves every layer of a
/// model (same shape, different weights) with zero per-call compilation
/// and zero per-op intermediate allocation.
#[derive(Debug)]
pub struct EncoderSession<'p, P = &'p mut EncoderPrep> {
    layer: &'p CompiledEncoderLayer,
    prep: P,
}

impl<P: BorrowMut<EncoderPrep>> EncoderSession<'_, P> {
    /// Runs the layer with each chain of stages dispatched once across
    /// `pool`; returns the `Σ lens × hidden` output rows. Bit-identical
    /// at every pool width, and to [`EncoderSession::forward_serial`].
    ///
    /// # Panics
    ///
    /// Panics if `w`/`x` do not match the compiled shape.
    pub fn forward(&mut self, pool: &CpuPool, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.run(Some(pool), w, x).output
    }

    /// Runs the layer serially on the calling thread —
    /// [`EncoderSession::forward`] on `CpuPool::new(1)`, through the
    /// same chains and arena — and returns the output rows.
    ///
    /// # Panics
    ///
    /// Panics if `w`/`x` do not match the compiled shape.
    pub fn forward_serial(&mut self, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.run(None, w, x).output
    }

    /// Full run with per-stage statistics. `pool = None` runs on
    /// `CpuPool::new(1)`: every tile inline on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `w`/`x` do not match the compiled shape.
    pub fn run(
        &mut self,
        pool: Option<&CpuPool>,
        w: &EncoderWeights,
        x: &RaggedBatch,
    ) -> PipelineRun {
        let layer = self.layer;
        assert_eq!(
            x.lens, layer.lens,
            "batch shape differs from the compiled shape"
        );
        assert_eq!(x.hidden, layer.cfg.hidden, "hidden size mismatch");
        let inputs: Vec<(&str, &[f32])> = layer
            .externals
            .iter()
            .map(|e| (e.name, (e.data)(w, x)))
            .collect();
        let mut session = layer
            .pipeline
            .session_with(&mut self.prep.borrow_mut().inner);
        session.run(pool.unwrap_or(&CpuPool::new(1)), &inputs)
    }

    /// Per-stage safety proofs, in stage order: each stage's
    /// [`cora_core::verify::VerifyOutcome`] (in-bounds and
    /// disjoint-store, verified at this layer's shape).
    pub fn verify_outcomes(&self) -> Vec<(&str, &cora_core::verify::VerifyOutcome)> {
        self.layer
            .pipeline
            .verify_outcomes(&self.prep.borrow().inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::stage_operator;
    use crate::encoder::encoder_layer_ragged;

    #[test]
    fn compiled_layer_matches_reference_kernels() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 7);
        let lens = vec![5usize, 0, 3, 1];
        let x = RaggedBatch::random(&lens, cfg.hidden, 8);
        let pool = CpuPool::new(4);
        let reference = encoder_layer_ragged(&pool, &cfg, &w, &x);
        let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
        let mut session = layer.session().unwrap();
        let compiled = session.forward(&pool, &w, &x);
        assert_eq!(reference.data.len(), compiled.len());
        let worst = reference
            .data
            .iter()
            .zip(&compiled)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 1e-4, "compiled encoder layer diverges by {worst}");
        // Session reuse across "layers": same shape, same result.
        let again = session.forward(&pool, &w, &x);
        assert_eq!(again, compiled);
        // The serial run is the same run on the calling thread.
        let serial = session.forward_serial(&w, &x);
        assert_eq!(serial, compiled);
    }

    #[test]
    fn empty_batch_returns_empty_output() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 1);
        for lens in [&[][..], &[0, 0]] {
            let x = RaggedBatch::random(lens, cfg.hidden, 2);
            let layer = CompiledEncoderLayer::build(&cfg, lens).unwrap();
            let mut session = layer.session().unwrap();
            assert!(session.forward(&CpuPool::new(2), &w, &x).is_empty());
            assert!(session.forward_serial(&w, &x).is_empty());
            for attend in [Attend::Full, Attend::Causal] {
                let mha = CompiledEncoderLayer::build_mha(&cfg, lens, attend).unwrap();
                assert!(mha.forward(&CpuPool::new(2), &w, &x).is_empty());
            }
        }
    }

    #[test]
    fn buffer_plan_reuses_slots() {
        let cfg = EncoderConfig::scaled(8);
        let lens = vec![4usize, 2];
        let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
        let plan = layer.pipeline().unwrap().plan();
        assert!(
            plan.slot_count() < plan.arena().len(),
            "{} chain outputs must share fewer arena slots ({} slots)",
            plan.arena().len(),
            plan.slot_count()
        );
        assert!(plan.arena_elems() < plan.unshared_elems());
    }

    /// The table is the single source: the built pipeline and the
    /// operator lookup read the same rows.
    #[test]
    fn the_table_is_the_single_source_of_stages() {
        let cfg = EncoderConfig::scaled(8);
        let lens = [3usize, 1];
        let labels: Vec<&str> = STAGES.iter().map(|s| s.label).collect();
        let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
        assert_eq!(layer.pipeline().unwrap().stage_labels(), labels);
        for label in &labels {
            assert!(stage_operator(label, &cfg, &lens).is_some(), "{label}");
        }
        // MHA is the attention prefix plus its own bias stage.
        let mut want = labels[..ATTENTION_STAGES].to_vec();
        want.push(MHA_OUT_BIAS.label);
        for attend in [Attend::Full, Attend::Causal] {
            let mha = CompiledEncoderLayer::build_mha(&cfg, &lens, attend).unwrap();
            assert_eq!(mha.pipeline().unwrap().stage_labels(), want);
            assert_eq!(mha.externals.len(), 5, "X and the attention weights");
        }
    }

    /// `[3, 2]` and `[2, 3]` plan equal buffer sizes, so only the
    /// remembered shape can tell their preps apart — before the check,
    /// this ran and returned values off by 2e-2.
    #[test]
    #[should_panic(
        expected = "prep was prepared for lens [3, 2]; this layer is compiled for lens [2, 3]"
    )]
    fn session_with_rejects_a_prep_of_another_shape() {
        let cfg = EncoderConfig::scaled(8);
        let layer_a = CompiledEncoderLayer::build(&cfg, &[3, 2]).unwrap();
        let layer_b = CompiledEncoderLayer::build(&cfg, &[2, 3]).unwrap();
        let mut prep_a = layer_a.prepare().unwrap();
        let _ = layer_b.session_with(&mut prep_a);
    }

    /// `text` with every `#[cfg(test)]` item (attribute through the
    /// item's closing brace or semicolon) cut out.
    fn without_test_items(text: &str) -> String {
        let mut out = String::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if !line.trim_start().starts_with("#[cfg(test)]") {
                out.push_str(line);
                out.push('\n');
                continue;
            }
            let (mut depth, mut opened) = (0i32, false);
            for item_line in lines.by_ref() {
                for ch in item_line.chars() {
                    match ch {
                        '{' => (depth, opened) = (depth + 1, true),
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if (opened && depth <= 0) || (!opened && item_line.trim_end().ends_with(';')) {
                    break;
                }
            }
        }
        out
    }

    /// No code path outside this module may key on a stage label: a
    /// label spelled as a string literal anywhere else in `crates/*/src`
    /// (outside `#[cfg(test)]` items) is a second copy of the table in
    /// the making.
    #[test]
    fn stage_labels_are_spelled_only_in_the_table() {
        // Older names that happen to collide with a label and mean
        // something else: the benches' `--scale=` model-size flag and
        // the GPU simulator's kernel names.
        const HOMONYMS: [&str; 2] = ["opt_usize(\"scale\"", "elementwise(\"qkv_bias\""];
        fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
            for entry in std::fs::read_dir(dir).expect("readable source tree") {
                let path = entry.expect("readable entry").path();
                if path.is_dir() {
                    walk(&path, files);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates/");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(crates).expect("crates/ is readable") {
            let src = krate.expect("readable entry").path().join("src");
            if src.is_dir() {
                walk(&src, &mut files);
            }
        }
        assert!(files.len() > 50, "walked {} files", files.len());
        let mut offenders = Vec::new();
        for path in files.iter().filter(|p| !p.ends_with(file!())) {
            let mut text = without_test_items(&std::fs::read_to_string(path).unwrap());
            for homonym in HOMONYMS {
                text = text.replace(homonym, "");
            }
            for stage in STAGES.iter().chain([&MHA_OUT_BIAS]) {
                if text.contains(&format!("\"{}\"", stage.label)) {
                    offenders.push(format!("{}: \"{}\"", path.display(), stage.label));
                }
            }
        }
        assert!(
            offenders.is_empty(),
            "stage labels spelled outside the stage table:\n{}",
            offenders.join("\n")
        );
    }
}
