//! The full ragged encoder layer on the compiled tier: every stage of
//! Fig. 3's pipeline expressed as a CoRa operator, lowered, compiled to
//! the bytecode VM, and chained through a buffer-planned
//! [`CompiledPipeline`] — the paper's end-to-end artifact (§7, Figs.
//! 17–20) rather than a per-operator demonstration.
//!
//! After PR 4 only the two masked-SDPA kernels ran on the compiled
//! tier; here the *whole* layer does:
//!
//! 1. ragged projection GEMMs (QKV, attention output, FF1, FF2) with the
//!    reduction loop **reordered** between the row and column loops
//!    (`r, d, c`) — the i-k-j order the hand-written `sgemm` uses, which
//!    both matches its float-add order bit-for-bit and gives the VM's
//!    fused multiply-accumulate instruction a unit-stride (vectorizable)
//!    inner loop;
//! 2. bias / bias+residual adds and the tanh-GELU activation;
//! 3. bidirectional attention over the flattened `(head, row)` axis:
//!    score GEMM, `1/√d` scaling, and a four-operator row softmax
//!    (max-reduction — [`Operator::reduce_max`] — stored exponentials,
//!    row sums, normalise) matching the reference `softmax_row`
//!    operation-for-operation, each exponential computed exactly once;
//! 4. three-pass row layernorm (sum, variance, normalise) matching the
//!    reference `layernorm_row`.
//!
//! Attention flattens `(head, row)` into one `hr` axis, the same trick
//! the PR 4 kernels use for `(sequence, position)` ([`crate::compiled`]):
//! prelude-built tables map `hr` to the packed QKV offsets of its head's
//! Q/K/V panels, so heads need no host-side extraction at all — the only
//! data movement between operators is through the pipeline's arena.
//!
//! Because every operator replays the reference kernels' loop orders and
//! float operations, [`CompiledEncoderLayer::forward`] tracks
//! [`encoder_layer_ragged`](crate::encoder::encoder_layer_ragged) to within a few ULPs; the differential
//! proptest suite (`tests/encoder_compiled_props.rs`) locks serial,
//! parallel and reference paths together.

use std::borrow::BorrowMut;

use cora_core::pipeline::{CompiledPipeline, PipelineBuilder, PipelinePrep, PipelineRun};
use cora_core::prelude::*;
use cora_exec::CpuPool;
use cora_ragged::RaggedLayout;

use crate::compiled::{row_ragged_layout, seq_row0_table};
use crate::config::EncoderConfig;
use crate::encoder::RaggedBatch;
use crate::weights::EncoderWeights;

use std::rc::Rc;

/// Layer-norm stabiliser, matching [`crate::encoder`]'s calls.
const LN_EPS: f32 = 1e-5;

// ---------------------------------------------------------------------
// Operators
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
        vec![LoopSpec::fixed("r", rows), LoopSpec::fixed("c", n)],
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
        vec![LoopSpec::fixed("r", rows), LoopSpec::fixed("c", n)],
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
        vec![LoopSpec::fixed("r", rows), LoopSpec::fixed("c", n)],
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
        vec![LoopSpec::fixed("r", rows)],
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
        vec![LoopSpec::fixed("r", rows)],
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
        vec![LoopSpec::fixed("r", rows), LoopSpec::fixed("d", n)],
        vec![],
        out,
        vec![input, sum, var, g, beta],
        body,
    );
    op.schedule_mut().bind("r", ForKind::GpuBlockX);
    op
}

/// Per-`(head, row)` attention geometry over the flattened `hr` axis.
struct HeadRows {
    /// `hr` count: `heads · Σ lens`.
    total: usize,
    /// Keys attended by each `hr` (the row's sequence length).
    attend: Vec<usize>,
    /// Packed-QKV offset of `hr`'s Q panel: `r·3h + head·hd`.
    q0: Vec<usize>,
    /// Packed-QKV offset of `hr`'s K panel: `row0(r)·3h + h + head·hd`.
    k0: Vec<usize>,
    /// Packed-QKV offset of `hr`'s V panel: `row0(r)·3h + 2h + head·hd`.
    v0: Vec<usize>,
}

fn head_rows(cfg: &EncoderConfig, lens: &[usize]) -> HeadRows {
    let rows: usize = lens.iter().sum();
    let (h, hd) = (cfg.hidden, cfg.head_dim);
    let row0 = seq_row0_table(lens);
    let seq_len: Vec<usize> = lens
        .iter()
        .flat_map(|&l| std::iter::repeat(l).take(l))
        .collect();
    let mut g = HeadRows {
        total: cfg.heads * rows,
        attend: Vec::with_capacity(cfg.heads * rows),
        q0: Vec::with_capacity(cfg.heads * rows),
        k0: Vec::with_capacity(cfg.heads * rows),
        v0: Vec::with_capacity(cfg.heads * rows),
    };
    for head in 0..cfg.heads {
        for r in 0..rows {
            g.attend.push(seq_len[r]);
            g.q0.push(r * 3 * h + head * hd);
            g.k0.push(row0[r] * 3 * h + h + head * hd);
            g.v0.push(row0[r] * 3 * h + 2 * h + head * hd);
        }
    }
    g
}

/// Bidirectional score GEMM over the flattened `(head, row)` axis:
/// `S[hr, j] = Σ_d QKV[q0[hr] + d] · QKV[k0[hr] + j·3h + d]`, `j` over
/// the row's whole sequence. Unscaled — the `1/√d` factor is a separate
/// stage, as in the reference (GEMM, then row scaling, then softmax).
pub fn enc_scores_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let rows: usize = lens.iter().sum();
    let ld = 3 * cfg.hidden as i64;
    let qkv = TensorRef::new("QKV", RaggedLayout::dense(&[rows * 3 * cfg.hidden]));
    let s = TensorRef::new("S", row_ragged_layout(&g.attend, g.total));
    let qt = qkv.clone();
    let body: BodyFn = Rc::new(move |args| {
        let (hr, j, d) = (args[0].clone(), args[1].clone(), args[2].clone());
        let q_idx = Expr::load("hr_q0", hr.clone()) + d.clone();
        let k_idx = Expr::load("hr_k0", hr) + j * ld + d;
        FExpr::load(qt.name().to_string(), q_idx) * FExpr::load(qt.name().to_string(), k_idx)
    });
    let mut op = Operator::new(
        "enc_scores",
        vec![
            LoopSpec::fixed("hr", g.total),
            LoopSpec::variable("j", 0, g.attend.clone()),
        ],
        vec![LoopSpec::fixed("d", cfg.head_dim)],
        s,
        vec![qkv],
        body,
    );
    op.add_aux_table("hr_q0", g.q0);
    op.add_aux_table("hr_k0", g.k0);
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Score scaling: `Out[hr, j] = S[hr, j] · 1/√d` (the reference scales
/// score rows after the GEMM, before softmax).
pub fn score_scale_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let scale = 1.0 / (cfg.head_dim as f32).sqrt();
    let s = TensorRef::new("S", row_ragged_layout(&g.attend, g.total));
    let out = TensorRef::new("Out", row_ragged_layout(&g.attend, g.total));
    let st = s.clone();
    let body: BodyFn = Rc::new(move |args| st.at(args) * scale);
    let mut op = Operator::new(
        "score_scale",
        vec![
            LoopSpec::fixed("hr", g.total),
            LoopSpec::variable("j", 0, g.attend.clone()),
        ],
        vec![],
        out,
        vec![s],
        body,
    );
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Softmax pass 1, a max-reduction: `M[hr] = max_j S[hr, j]` (init
/// `-∞`, combined with `max=` — [`Operator::reduce_max`]).
pub fn row_max_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let s = TensorRef::new("S", row_ragged_layout(&g.attend, g.total));
    let out = TensorRef::new("M", RaggedLayout::dense(&[g.total]));
    let st = s.clone();
    let body: BodyFn = Rc::new(move |args| st.at(args));
    let mut op = Operator::new(
        "row_max",
        vec![LoopSpec::fixed("hr", g.total)],
        vec![LoopSpec::variable("j", 0, g.attend.clone())],
        out,
        vec![s],
        body,
    );
    op.reduce_max();
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Softmax pass 2, the stored exponentials:
/// `Ex[hr, j] = exp(S[hr, j] − M[hr])` — materialised once (the
/// reference also computes each exponential exactly once).
pub fn row_exp_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let s = TensorRef::new("S", row_ragged_layout(&g.attend, g.total));
    let m = TensorRef::new("M", RaggedLayout::dense(&[g.total]));
    let out = TensorRef::new("Ex", row_ragged_layout(&g.attend, g.total));
    let (st, mt) = (s.clone(), m.clone());
    let body: BodyFn = Rc::new(move |args| {
        let hr = args[0].clone();
        (st.at(args) - mt.at(std::slice::from_ref(&hr))).exp()
    });
    let mut op = Operator::new(
        "row_exp",
        vec![
            LoopSpec::fixed("hr", g.total),
            LoopSpec::variable("j", 0, g.attend.clone()),
        ],
        vec![],
        out,
        vec![s, m],
        body,
    );
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Softmax pass 3, the row sums of the stored exponentials:
/// `E[hr] = Σ_j Ex[hr, j]` — summed in ascending `j`, like the
/// reference's accumulation.
pub fn row_sum_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let ex = TensorRef::new("Ex", row_ragged_layout(&g.attend, g.total));
    let out = TensorRef::new("E", RaggedLayout::dense(&[g.total]));
    let xt = ex.clone();
    let body: BodyFn = Rc::new(move |args| xt.at(args));
    let mut op = Operator::new(
        "row_sum",
        vec![LoopSpec::fixed("hr", g.total)],
        vec![LoopSpec::variable("j", 0, g.attend.clone())],
        out,
        vec![ex],
        body,
    );
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Softmax pass 4: `P[hr, j] = Ex[hr, j] · (1/E[hr])` — the reference
/// multiplies the stored exponentials by the reciprocal sum.
pub fn row_softmax_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let ex = TensorRef::new("Ex", row_ragged_layout(&g.attend, g.total));
    let e = TensorRef::new("E", RaggedLayout::dense(&[g.total]));
    let out = TensorRef::new("P", row_ragged_layout(&g.attend, g.total));
    let (xt, et) = (ex.clone(), e.clone());
    let body: BodyFn = Rc::new(move |args| {
        let hr = args[0].clone();
        xt.at(args) * et.at(std::slice::from_ref(&hr)).unary(FUnaryOp::Recip)
    });
    let mut op = Operator::new(
        "row_softmax",
        vec![
            LoopSpec::fixed("hr", g.total),
            LoopSpec::variable("j", 0, g.attend.clone()),
        ],
        vec![],
        out,
        vec![ex, e],
        body,
    );
    op.schedule_mut()
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Attention-times-values over the flattened `(head, row)` axis:
/// `O[hr, e] = Σ_j P[hr, j] · QKV[v0[hr] + j·3h + e]`, reordered to
/// `hr, j, e` so the innermost loop is the fused saxpy shape (the
/// reference `sgemm_ld`'s i-k-j order).
pub fn enc_attnv_operator(cfg: &EncoderConfig, lens: &[usize]) -> Operator {
    let g = head_rows(cfg, lens);
    let rows: usize = lens.iter().sum();
    let ld = 3 * cfg.hidden as i64;
    let p = TensorRef::new("P", row_ragged_layout(&g.attend, g.total));
    let qkv = TensorRef::new("QKV", RaggedLayout::dense(&[rows * 3 * cfg.hidden]));
    let o = TensorRef::new("O", RaggedLayout::dense(&[g.total, cfg.head_dim]));
    let (pt, vt) = (p.clone(), qkv.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (hr, e, j) = (args[0].clone(), args[1].clone(), args[2].clone());
        let v_idx = Expr::load("hr_v0", hr.clone()) + j.clone() * ld + e;
        pt.at(&[hr, j]) * FExpr::load(vt.name().to_string(), v_idx)
    });
    let mut op = Operator::new(
        "enc_attnv",
        vec![
            LoopSpec::fixed("hr", g.total),
            LoopSpec::fixed("e", cfg.head_dim),
        ],
        vec![LoopSpec::variable("j", 0, g.attend.clone())],
        o,
        vec![p, qkv],
        body,
    );
    op.add_aux_table("hr_v0", g.v0);
    op.schedule_mut()
        .reorder(&["hr", "j", "e"])
        .bind("hr", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Head-merging output projection: reads the per-`(head, row)` attention
/// output `O` directly —
/// `Out[r, c] = Σ_head Σ_e O[(head·rows + r)·hd + e] · W[(head·hd + e)·h + c]`
/// — so no separate concat/merge stage exists. Reordered to
/// `r, head, e, c`: the reduction enumerates `k = head·hd + e` in
/// exactly the i-k-j order the reference `attn · Wo` GEMM uses.
pub fn merge_proj_operator(cfg: &EncoderConfig, rows: usize) -> Operator {
    let (h, hd, heads) = (cfg.hidden, cfg.head_dim, cfg.heads);
    let o_in = TensorRef::new("O", RaggedLayout::dense(&[heads * rows * hd]));
    let w = TensorRef::new("W", RaggedLayout::dense(&[h * h]));
    let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, h]));
    let (ot, wt) = (o_in.clone(), w.clone());
    let (rows_i, hd_i, h_i) = (rows as i64, hd as i64, h as i64);
    let body: BodyFn = Rc::new(move |args| {
        let (r, c, head, e) = (
            args[0].clone(),
            args[1].clone(),
            args[2].clone(),
            args[3].clone(),
        );
        let o_idx = (head.clone() * rows_i + r) * hd_i + e.clone();
        let w_idx = (head * hd_i + e) * h_i + c;
        FExpr::load(ot.name().to_string(), o_idx) * FExpr::load(wt.name().to_string(), w_idx)
    });
    let mut op = Operator::new(
        "merge_proj",
        vec![LoopSpec::fixed("r", rows), LoopSpec::fixed("c", h)],
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
// The layer
// ---------------------------------------------------------------------

/// The full encoder layer compiled for one batch shape: 21 stages wired
/// through a buffer-planned [`CompiledPipeline`]. Shape-keyed — build
/// once per `(cfg, lens)`, then create a session and run any number of
/// layers/batches of that shape through it (weights and activations are
/// per-call inputs; nothing is re-compiled or re-planned).
#[derive(Debug)]
pub struct CompiledEncoderLayer {
    /// `None` for an empty batch (zero total rows): forward returns an
    /// empty output without executing anything.
    pipeline: Option<CompiledPipeline>,
    cfg: EncoderConfig,
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
    /// The mode is threaded per stage: the reduction- and
    /// transcendental-heavy stages (projection/score/attention GEMMs,
    /// softmax max/exp/sum, GELU, layer-norm sums and variances) opt
    /// into the requested mode, while purely elementwise stages (bias
    /// adds, scaling, softmax normalise, layer-norm apply) always run
    /// Strict — Fast semantics change nothing for per-element maps, so
    /// opting them in would only blur the contract. Under
    /// [`MathMode::Fast`] the layer output drifts from the Strict run by
    /// at most the per-op tolerances documented in
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
        Self::build_with_choices(cfg, lens, math, &Default::default())
    }

    /// [`CompiledEncoderLayer::build_with_math`] with per-stage schedule
    /// overrides from the autotuner: each stage label present in
    /// `choices` has its [`StageChoice`] applied on top of the
    /// hand-picked schedule (a choice's `reorder` *replaces* the
    /// default order; its `split`/`remap` are layered after it). An
    /// empty map reproduces the default build exactly. Every choice the
    /// stage spaces in [`crate::autotune`] emit is value-preserving, so
    /// tuned layers stay bit-identical to default ones under
    /// [`MathMode::Strict`].
    ///
    /// # Errors
    ///
    /// Returns the schedule error if lowering rejects a directive — for
    /// cached choices this means the cache is stale and the caller
    /// should re-tune.
    pub fn build_with_choices(
        cfg: &EncoderConfig,
        lens: &[usize],
        math: MathMode,
        choices: &std::collections::BTreeMap<String, cora_core::autotune::StageChoice>,
    ) -> Result<CompiledEncoderLayer, ScheduleError> {
        cfg.validate().expect("consistent encoder config");
        let rows: usize = lens.iter().sum();
        if rows == 0 {
            return Ok(CompiledEncoderLayer {
                pipeline: None,
                cfg: *cfg,
                lens: lens.to_vec(),
                rows,
                math,
            });
        }
        let (h, ff) = (cfg.hidden, cfg.ff);
        // `c` compiles a stage that always runs Strict (elementwise
        // maps); `cf` compiles one that opts into the requested mode.
        // `tune` layers the autotuner's per-stage choice (if any) on the
        // hand-picked schedule before lowering.
        let tune = |mut op: Operator, label: &str| -> Operator {
            if let Some(choice) = choices.get(label) {
                crate::autotune::apply_choice(&mut op, choice);
            }
            op
        };
        let c = |label: &str, op: Operator| -> Result<CompiledProgram, ScheduleError> {
            Ok(lower(&tune(op, label))?.compile())
        };
        let cf = |label: &str, op: Operator| -> Result<CompiledProgram, ScheduleError> {
            Ok(lower(&tune(op, label))?.compile().with_math_mode(math))
        };
        let mut b = PipelineBuilder::new("encoder_layer");
        let ext = [
            ("X", rows * h),
            ("Wqkv", h * 3 * h),
            ("Bqkv", 3 * h),
            ("Wo", h * h),
            ("Bo", h),
            ("W1", h * ff),
            ("B1", ff),
            ("W2", ff * h),
            ("B2", h),
            ("Ln1G", h),
            ("Ln1B", h),
            ("Ln2G", h),
            ("Ln2B", h),
        ];
        for (name, size) in ext {
            b.input(name, size).expect("unique external names");
        }
        let wire = |b: &mut PipelineBuilder,
                    label: &str,
                    prog: CompiledProgram,
                    wires: &[(&str, &str)],
                    out: &str| {
            b.stage(label, prog, wires, out)
                .expect("encoder pipeline wiring is static");
        };
        // Attention block.
        wire(
            &mut b,
            "qkv_proj",
            cf("qkv_proj", proj_operator("qkv_proj", rows, h, 3 * h))?,
            &[("In", "X"), ("W", "Wqkv")],
            "QKV0",
        );
        wire(
            &mut b,
            "qkv_bias",
            c("qkv_bias", bias_operator("qkv_bias", rows, 3 * h, false))?,
            &[("In", "QKV0"), ("B", "Bqkv")],
            "QKV",
        );
        wire(
            &mut b,
            "scores",
            cf("scores", enc_scores_operator(cfg, lens))?,
            &[("QKV", "QKV")],
            "S0",
        );
        wire(
            &mut b,
            "scale",
            c("scale", score_scale_operator(cfg, lens))?,
            &[("S", "S0")],
            "S",
        );
        wire(
            &mut b,
            "row_max",
            cf("row_max", row_max_operator(cfg, lens))?,
            &[("S", "S")],
            "M",
        );
        wire(
            &mut b,
            "row_exp",
            cf("row_exp", row_exp_operator(cfg, lens))?,
            &[("S", "S"), ("M", "M")],
            "EX",
        );
        wire(
            &mut b,
            "row_sum",
            cf("row_sum", row_sum_operator(cfg, lens))?,
            &[("Ex", "EX")],
            "E",
        );
        wire(
            &mut b,
            "row_softmax",
            c("row_softmax", row_softmax_operator(cfg, lens))?,
            &[("Ex", "EX"), ("E", "E")],
            "P",
        );
        wire(
            &mut b,
            "attnv",
            cf("attnv", enc_attnv_operator(cfg, lens))?,
            &[("P", "P"), ("QKV", "QKV")],
            "O",
        );
        wire(
            &mut b,
            "out_proj",
            cf("out_proj", merge_proj_operator(cfg, rows))?,
            &[("O", "O"), ("W", "Wo")],
            "AO",
        );
        wire(
            &mut b,
            "attn_bias_residual",
            c(
                "attn_bias_residual",
                bias_operator("attn_bias_residual", rows, h, true),
            )?,
            &[("In", "AO"), ("B", "Bo"), ("R", "X")],
            "Y1",
        );
        // First layer norm.
        wire(
            &mut b,
            "ln1_sum",
            cf("ln1_sum", ln_sum_operator("ln1_sum", rows, h))?,
            &[("In", "Y1")],
            "S1",
        );
        wire(
            &mut b,
            "ln1_var",
            cf("ln1_var", ln_var_operator("ln1_var", rows, h))?,
            &[("In", "Y1"), ("S", "S1")],
            "V1",
        );
        wire(
            &mut b,
            "ln1_norm",
            c("ln1_norm", ln_norm_operator("ln1_norm", rows, h))?,
            &[
                ("In", "Y1"),
                ("S", "S1"),
                ("V", "V1"),
                ("G", "Ln1G"),
                ("Bt", "Ln1B"),
            ],
            "Z1",
        );
        // Feed-forward block.
        wire(
            &mut b,
            "ff1",
            cf("ff1", proj_operator("ff1", rows, h, ff))?,
            &[("In", "Z1"), ("W", "W1")],
            "F0",
        );
        wire(
            &mut b,
            "ff1_bias_gelu",
            cf(
                "ff1_bias_gelu",
                bias_gelu_operator("ff1_bias_gelu", rows, ff),
            )?,
            &[("In", "F0"), ("B", "B1")],
            "F",
        );
        wire(
            &mut b,
            "ff2",
            cf("ff2", proj_operator("ff2", rows, ff, h))?,
            &[("In", "F"), ("W", "W2")],
            "G0",
        );
        wire(
            &mut b,
            "ff_bias_residual",
            c(
                "ff_bias_residual",
                bias_operator("ff_bias_residual", rows, h, true),
            )?,
            &[("In", "G0"), ("B", "B2"), ("R", "Z1")],
            "Y2",
        );
        // Second layer norm.
        wire(
            &mut b,
            "ln2_sum",
            cf("ln2_sum", ln_sum_operator("ln2_sum", rows, h))?,
            &[("In", "Y2")],
            "S2",
        );
        wire(
            &mut b,
            "ln2_var",
            cf("ln2_var", ln_var_operator("ln2_var", rows, h))?,
            &[("In", "Y2"), ("S", "S2")],
            "V2",
        );
        wire(
            &mut b,
            "ln2_norm",
            c("ln2_norm", ln_norm_operator("ln2_norm", rows, h))?,
            &[
                ("In", "Y2"),
                ("S", "S2"),
                ("V", "V2"),
                ("G", "Ln2G"),
                ("Bt", "Ln2B"),
            ],
            "OUT",
        );
        let pipeline = b.build("OUT").expect("OUT is produced by ln2_norm");
        Ok(CompiledEncoderLayer {
            pipeline: Some(pipeline),
            cfg: *cfg,
            lens: lens.to_vec(),
            rows,
            math,
        })
    }

    /// The wired pipeline (buffer plan, stage labels), when the batch is
    /// non-empty.
    pub fn pipeline(&self) -> Option<&CompiledPipeline> {
        self.pipeline.as_ref()
    }

    /// The [`MathMode`] the compute-heavy stages were compiled under.
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
            inner: match &self.pipeline {
                Some(p) => Some(p.prepare()?),
                None => None,
            },
        })
    }

    /// The one way to make an [`EncoderSession`]: a view over this
    /// layer and an [`EncoderPrep`] (which **must** come from this
    /// layer's own [`CompiledEncoderLayer::prepare`]), held as `&mut` or
    /// by value. Nothing is computed or allocated here.
    ///
    /// # Panics
    ///
    /// Panics if the prep was built for an empty batch and the layer
    /// was not.
    pub fn session_with<P: BorrowMut<EncoderPrep>>(&self, prep: P) -> EncoderSession<'_, P> {
        assert!(
            self.pipeline.is_none() || prep.borrow().inner.is_some(),
            "prep was built for an empty batch; layer is not"
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
/// the layer — storable beside it in caches and pools. `None` inner
/// prep corresponds to an empty batch (no pipeline).
#[derive(Debug, Clone)]
pub struct EncoderPrep {
    inner: Option<PipelinePrep>,
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
    fn inputs<'a>(
        &self,
        w: &'a EncoderWeights,
        x: &'a RaggedBatch,
    ) -> Vec<(&'static str, &'a [f32])> {
        assert_eq!(
            x.lens, self.layer.lens,
            "batch shape differs from the compiled shape"
        );
        assert_eq!(x.hidden, self.layer.cfg.hidden, "hidden size mismatch");
        vec![
            ("X", &x.data[..]),
            ("Wqkv", &w.wqkv[..]),
            ("Bqkv", &w.bqkv[..]),
            ("Wo", &w.wo[..]),
            ("Bo", &w.bo[..]),
            ("W1", &w.w1[..]),
            ("B1", &w.b1[..]),
            ("W2", &w.w2[..]),
            ("B2", &w.b2[..]),
            ("Ln1G", &w.ln1_g[..]),
            ("Ln1B", &w.ln1_b[..]),
            ("Ln2G", &w.ln2_g[..]),
            ("Ln2B", &w.ln2_b[..]),
        ]
    }

    /// Runs the layer with every stage's block axis dispatched across
    /// `pool`; returns the `Σ lens × hidden` output rows. Bit-identical
    /// to [`EncoderSession::forward_serial`].
    ///
    /// # Panics
    ///
    /// Panics if `w`/`x` do not match the compiled shape.
    pub fn forward(&mut self, pool: &CpuPool, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.run(Some(pool), w, x).output
    }

    /// Runs the layer on the calling thread; returns the output rows.
    ///
    /// # Panics
    ///
    /// Panics if `w`/`x` do not match the compiled shape.
    pub fn forward_serial(&mut self, w: &EncoderWeights, x: &RaggedBatch) -> Vec<f32> {
        self.run(None, w, x).output
    }

    /// Full run with per-stage statistics (`pool = None` runs serially).
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
        let inputs = self.inputs(w, x);
        let Some(pipeline) = &self.layer.pipeline else {
            return PipelineRun {
                output: Vec::new(),
                stages: Vec::new(),
            };
        };
        let prep = self.prep.borrow_mut().inner.as_mut();
        let mut session = pipeline.session_with(prep.expect("checked by session_with"));
        match pool {
            Some(pool) => session.run(pool, &inputs),
            None => session.run_serial(&inputs),
        }
    }

    /// Per-stage safety proofs, in stage order: each parallel stage's
    /// [`cora_core::verify::VerifyOutcome`] (in-bounds and
    /// disjoint-store, verified at this layer's shape), `None` for
    /// serial stages. Empty for an empty batch (no pipeline is built).
    pub fn verify_outcomes(&self) -> Vec<(&str, Option<&cora_core::verify::VerifyOutcome>)> {
        match (&self.layer.pipeline, &self.prep.borrow().inner) {
            (Some(pipeline), Some(prep)) => pipeline.verify_outcomes(prep),
            _ => Vec::new(),
        }
    }
}

/// One-shot convenience mirroring [`crate::encoder::encoder_layer_ragged`]:
/// compiles the layer for `x`'s shape and runs it once on `pool`.
/// Repeated / multi-layer callers should [`CompiledEncoderLayer::build`]
/// once per shape and reuse a session.
///
/// # Panics
///
/// Panics if lowering or outlining rejects a built-in schedule — a
/// compiler regression by definition.
pub fn encoder_layer_compiled(
    pool: &CpuPool,
    cfg: &EncoderConfig,
    w: &EncoderWeights,
    x: &RaggedBatch,
) -> RaggedBatch {
    let layer = CompiledEncoderLayer::build(cfg, &x.lens).expect("built-in schedules are legal");
    RaggedBatch {
        lens: x.lens.clone(),
        data: layer.forward(pool, w, x),
        hidden: cfg.hidden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Serial pipeline is bit-identical to the parallel one.
        let serial = session.forward_serial(&w, &x);
        assert_eq!(serial, compiled);
    }

    #[test]
    fn empty_batch_returns_empty_output() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 1);
        let lens = vec![0usize, 0];
        let x = RaggedBatch::random(&lens, cfg.hidden, 2);
        let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
        assert!(layer.pipeline().is_none());
        let out = layer.forward(&CpuPool::new(2), &w, &x);
        assert!(out.is_empty());
    }

    #[test]
    fn buffer_plan_reuses_slots() {
        let cfg = EncoderConfig::scaled(8);
        let lens = vec![4usize, 2];
        let layer = CompiledEncoderLayer::build(&cfg, &lens).unwrap();
        let plan = layer.pipeline().unwrap().plan();
        assert!(
            plan.slot_count() < plan.entries().len(),
            "21 stages must share fewer arena slots ({} slots for {} buffers)",
            plan.slot_count(),
            plan.entries().len()
        );
        assert!(plan.arena_elems() < plan.unshared_elems());
    }
}
