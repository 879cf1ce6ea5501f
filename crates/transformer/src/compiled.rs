//! Masked multi-head attention through the *compiler*: the ragged
//! triangular kernels of §D.3 expressed as CoRa operators, lowered, and
//! executed on the parallel compiled tier.
//!
//! The hand-written path ([`crate::masked_mha`]) is the library
//! baseline; this module routes the two ragged stages of masked SDPA —
//! the triangular score computation `S[r, j] = Σ_d Q[r, d]·K[r0(r)+j, d]`
//! and the triangular value reduction `O[r, e] = Σ_j P[r, j]·V[r0(r)+j, e]`
//! — through [`cora_core::lower()`], binds each kernel's flattened row
//! loop to `blockIdx.x` with longest-first thread remapping (§4.1), and
//! dispatches the blocks across the work-stealing CPU runtime via
//! [`CompiledProgram::run_parallel`]. Row `r` of a causally masked
//! sequence attends to keys `0..=pos(r)`, so both kernels are vloops
//! whose extents grow linearly within each sequence — exactly the
//! minimal-padding raggedness the paper's Fig. 18 measures.
//!
//! Both operators flatten `(sequence, position)` pairs into one row
//! axis; a prelude-built `seq_row0` table ([`Operator::aux_tables`])
//! maps each row back to its sequence's first row so key/value accesses
//! stay O(1) (Algorithm 1 handles the triangular score offsets through
//! the output layout itself).

use cora_core::prelude::*;
use cora_exec::CpuPool;
use cora_kernels::elementwise::bias_add_rows;
use cora_kernels::softmax::softmax_row;
use cora_ragged::{Dim, RaggedLayout};

use crate::config::EncoderConfig;
use crate::encoder::{parallel_sgemm, RaggedBatch};
use crate::weights::EncoderWeights;

use std::rc::Rc;

/// Per-row triangular extents: row `r` at position `p` of its sequence
/// attends to `p + 1` keys.
fn triangular_lens(lens: &[usize]) -> Vec<usize> {
    lens.iter().flat_map(|&l| 1..=l).collect()
}

/// Per-row sequence-start table: `seq_row0[r]` is the flattened index of
/// the first row of `r`'s sequence. Shared with the fully compiled
/// encoder layer ([`crate::encoder_compiled`]).
pub(crate) fn seq_row0_table(lens: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(lens.iter().sum());
    let mut start = 0usize;
    for &l in lens {
        out.extend(std::iter::repeat(start).take(l));
        start += l;
    }
    out
}

/// The ragged layout of a flattened score/probability tensor: row `r`
/// stores `per_row[r]` entries. Triangular (`pos + 1`) for the causal
/// kernels here; rectangular-per-sequence for the fully compiled
/// encoder's bidirectional attention ([`crate::encoder_compiled`]).
pub(crate) fn row_ragged_layout(per_row: &[usize], total_rows: usize) -> RaggedLayout {
    let r = Dim::new("row");
    let j = Dim::new("key");
    RaggedLayout::builder()
        .cdim(r.clone(), total_rows)
        .vdim(j, &r, per_row.to_vec())
        .build()
        .expect("per-row ragged layout validates")
}

/// The masked score operator for one head:
/// `S[r, j] = Σ_d Q[r, d] · K[seq_row0[r] + j, d]` with `j` ranging over
/// the causal prefix. `Q` is expected pre-scaled by `1/sqrt(head_dim)`.
///
/// Schedule: the flattened row loop binds to `blockIdx.x` (one block per
/// query row, cost `(pos+1)·head_dim`), dispatched longest-first.
pub fn masked_scores_operator(lens: &[usize], head_dim: usize) -> Operator {
    let total_rows: usize = lens.iter().sum();
    let tri = triangular_lens(lens);
    let q = TensorRef::new("Q", RaggedLayout::dense(&[total_rows, head_dim]));
    let k = TensorRef::new("K", RaggedLayout::dense(&[total_rows, head_dim]));
    let s = TensorRef::new("S", row_ragged_layout(&tri, total_rows));
    let (qt, kt) = (q.clone(), k.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (r, j, d) = (args[0].clone(), args[1].clone(), args[2].clone());
        let row0 = Expr::load("seq_row0", r.clone());
        qt.at(&[r, d.clone()]) * kt.at(&[row0 + j, d])
    });
    let mut op = Operator::new(
        "masked_scores",
        vec![
            LoopSpec::fixed("r", total_rows),
            LoopSpec::variable("j", 0, tri),
        ],
        vec![LoopSpec::fixed("d", head_dim)],
        s,
        vec![q, k],
        body,
    );
    op.add_aux_table("seq_row0", seq_row0_table(lens));
    op.schedule_mut()
        .bind("r", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// The masked attention-times-values operator for one head:
/// `O[r, e] = Σ_j P[r, j] · V[seq_row0[r] + j, e]`, `j` over the causal
/// prefix (`P` is the softmaxed triangular score tensor).
pub fn masked_attnv_operator(lens: &[usize], head_dim: usize) -> Operator {
    let total_rows: usize = lens.iter().sum();
    let tri = triangular_lens(lens);
    let p = TensorRef::new("P", row_ragged_layout(&tri, total_rows));
    let v = TensorRef::new("V", RaggedLayout::dense(&[total_rows, head_dim]));
    let o = TensorRef::new("O", RaggedLayout::dense(&[total_rows, head_dim]));
    let (pt, vt) = (p.clone(), v.clone());
    let body: BodyFn = Rc::new(move |args| {
        let (r, e, j) = (args[0].clone(), args[1].clone(), args[2].clone());
        let row0 = Expr::load("seq_row0", r.clone());
        pt.at(&[r, j.clone()]) * vt.at(&[row0 + j, e])
    });
    let mut op = Operator::new(
        "masked_attnv",
        vec![
            LoopSpec::fixed("r", total_rows),
            LoopSpec::fixed("e", head_dim),
        ],
        vec![LoopSpec::variable("j", 0, tri)],
        o,
        vec![p, v],
        body,
    );
    op.add_aux_table("seq_row0", seq_row0_table(lens));
    op.schedule_mut()
        .bind("r", ForKind::GpuBlockX)
        .thread_remap(RemapPolicy::LongestFirst);
    op
}

/// Both masked-SDPA stages compiled for one batch shape — compile once,
/// run once per head per layer. The kernels are shape-dependent only
/// (lens + head_dim), so a batch shares them across heads and layers.
#[derive(Debug)]
pub struct CompiledMaskedSdpa {
    scores: CompiledProgram,
    attnv: CompiledProgram,
    tri: Vec<usize>,
    total_rows: usize,
    head_dim: usize,
}

impl CompiledMaskedSdpa {
    /// Lowers and compiles both stages for a batch shape.
    ///
    /// # Errors
    ///
    /// Returns the lowering error if a schedule is rejected (the
    /// built-in schedules are always legal; this surfaces regressions).
    pub fn build(lens: &[usize], head_dim: usize) -> Result<CompiledMaskedSdpa, ScheduleError> {
        let scores = lower(&masked_scores_operator(lens, head_dim))?.compile();
        let attnv = lower(&masked_attnv_operator(lens, head_dim))?.compile();
        debug_assert!(scores.has_parallel_tier() && attnv.has_parallel_tier());
        Ok(CompiledMaskedSdpa {
            scores,
            attnv,
            tri: triangular_lens(lens),
            total_rows: lens.iter().sum(),
            head_dim,
        })
    }

    /// The compiled triangular score program (`Q`, `K` → `S`).
    pub fn scores_program(&self) -> &CompiledProgram {
        &self.scores
    }

    /// The compiled triangular value-reduction program (`P`, `V` → `O`).
    pub fn attnv_program(&self) -> &CompiledProgram {
        &self.attnv
    }

    /// Number of flattened query rows.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Per-head dimension the kernels were compiled for.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Prepares reusable parallel sessions for both stages (prelude,
    /// aux tables and dispatch order resolved once); the returned
    /// session serves any number of heads/layers of this batch shape.
    ///
    /// # Panics
    ///
    /// Panics if the built-in schedules fail to outline — a compiler
    /// regression by definition.
    pub fn session(&self) -> MaskedSdpaSession<'_> {
        let scores = self
            .scores
            .parallel_session()
            .expect("built-in schedules outline")
            .expect("score kernel has a block axis");
        let attnv = self
            .attnv
            .parallel_session()
            .expect("built-in schedules outline")
            .expect("attnv kernel has a block axis");
        MaskedSdpaSession {
            scores,
            attnv,
            tri: &self.tri,
        }
    }

    /// Masked SDPA for one head over the parallel compiled tier —
    /// one-shot convenience over [`CompiledMaskedSdpa::session`] (which
    /// amortizes the prelude/bindings across heads and layers).
    /// Triangular scores, per-row softmax, triangular AttnV. `q` must be
    /// pre-scaled; returns the `total_rows × head_dim` head output.
    ///
    /// # Panics
    ///
    /// Panics if the built-in schedules fail to outline or an input has
    /// the wrong size — compiler regressions by definition.
    pub fn forward_head(&self, pool: &CpuPool, q: Vec<f32>, k: Vec<f32>, v: Vec<f32>) -> Vec<f32> {
        self.session().forward_head(pool, q, k, v)
    }

    /// Serial-VM reference for [`CompiledMaskedSdpa::forward_head`]
    /// (identical math on one thread; used by benches and differential
    /// tests).
    pub fn forward_head_serial(&self, q: Vec<f32>, k: Vec<f32>, v: Vec<f32>) -> Vec<f32> {
        let mut probs = self.scores.run(&[("Q", q), ("K", k)]).output;
        let mut at = 0usize;
        for &l in &self.tri {
            softmax_row(&mut probs[at..at + l], l);
            at += l;
        }
        self.attnv.run(&[("P", probs), ("V", v)]).output
    }
}

/// Prepared parallel sessions for both masked-SDPA stages: create once
/// per batch ([`CompiledMaskedSdpa::session`]), run once per head per
/// layer — only the head's float inputs are bound per call.
#[derive(Debug)]
pub struct MaskedSdpaSession<'p> {
    scores: ParallelSession<'p, ParallelPrep>,
    attnv: ParallelSession<'p, ParallelPrep>,
    tri: &'p [usize],
}

impl MaskedSdpaSession<'_> {
    /// Masked SDPA for one head: triangular scores on the parallel
    /// tier, per-row softmax, triangular AttnV on the parallel tier.
    /// `q` must be pre-scaled by `1/sqrt(head_dim)`.
    ///
    /// # Panics
    ///
    /// Panics if an input has the wrong size for the session's batch
    /// shape.
    pub fn forward_head(
        &mut self,
        pool: &CpuPool,
        q: Vec<f32>,
        k: Vec<f32>,
        v: Vec<f32>,
    ) -> Vec<f32> {
        let mut probs = self.scores.run(pool, vec![("Q", q), ("K", k)]).output;
        pool.parallel_rows(&mut probs, self.tri, |_, row| {
            let n = row.len();
            softmax_row(row, n);
        });
        self.attnv.run(pool, vec![("P", probs), ("V", v)]).output
    }
}

/// Extracts one head's `Q` (scaled), `K` and `V` from the packed
/// `rows × 3·hidden` QKV buffer.
fn extract_head(
    cfg: &EncoderConfig,
    qkv: &[f32],
    rows: usize,
    head: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let h = cfg.hidden;
    let hd = cfg.head_dim;
    let ld = 3 * h;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut q = Vec::with_capacity(rows * hd);
    let mut k = Vec::with_capacity(rows * hd);
    let mut v = Vec::with_capacity(rows * hd);
    for r in 0..rows {
        let base = r * ld + head * hd;
        q.extend(qkv[base..base + hd].iter().map(|x| x * scale));
        k.extend_from_slice(&qkv[base + h..base + h + hd]);
        v.extend_from_slice(&qkv[base + 2 * h..base + 2 * h + hd]);
    }
    (q, k, v)
}

/// Masked MHA forward over ragged storage with the attention core
/// executed by the *compiler's* parallel tier — one-shot convenience
/// that lowers and compiles the SDPA kernels for this batch shape and
/// delegates to [`masked_mha_compiled_with`]. Multi-layer (or repeated)
/// callers should [`CompiledMaskedSdpa::build`] + `.session()` once per
/// batch shape and call [`masked_mha_compiled_with`] per layer, so
/// neither compilation nor the prelude is re-done on the hot path.
///
/// # Panics
///
/// Panics if lowering or the parallel tier rejects the built-in
/// schedules — a compiler regression by definition.
pub fn masked_mha_compiled(
    pool: &CpuPool,
    cfg: &EncoderConfig,
    w: &EncoderWeights,
    x: &RaggedBatch,
) -> Vec<f32> {
    let sdpa =
        CompiledMaskedSdpa::build(&x.lens, cfg.head_dim).expect("built-in schedules are legal");
    let mut session = sdpa.session();
    masked_mha_compiled_with(pool, cfg, w, x, &mut session)
}

/// Masked MHA forward with prebuilt compiled SDPA kernels (compile and
/// prepare once — [`CompiledMaskedSdpa::session`] — then run per
/// layer): QKV/output projections use the dense library kernels (as
/// every variant does), while the ragged triangular scores and AttnV
/// run as compiled programs with their row loops dispatched across
/// `pool`. Returns `Σ lens × hidden` rows, numerically equivalent to
/// [`crate::masked_mha::masked_mha_ragged`].
///
/// # Panics
///
/// Panics if `session` was built for a different batch shape / head
/// dimension than `cfg`/`x` describe.
pub fn masked_mha_compiled_with(
    pool: &CpuPool,
    cfg: &EncoderConfig,
    w: &EncoderWeights,
    x: &RaggedBatch,
    session: &mut MaskedSdpaSession<'_>,
) -> Vec<f32> {
    let h = cfg.hidden;
    let hd = cfg.head_dim;
    let rows = x.rows();
    let mut qkv = vec![0.0f32; rows * 3 * h];
    parallel_sgemm(pool, rows, h, 3 * h, &x.data, &w.wqkv, &mut qkv);
    bias_add_rows(&mut qkv, 3 * h, &w.bqkv);

    let mut attn = vec![0.0f32; rows * h];
    for head in 0..cfg.heads {
        let (q, k, v) = extract_head(cfg, &qkv, rows, head);
        let head_out = session.forward_head(pool, q, k, v);
        for r in 0..rows {
            attn[r * h + head * hd..r * h + (head + 1) * hd]
                .copy_from_slice(&head_out[r * hd..(r + 1) * hd]);
        }
    }

    let mut out = vec![0.0f32; rows * h];
    parallel_sgemm(pool, rows, h, h, &attn, &w.wo, &mut out);
    bias_add_rows(&mut out, h, &w.bo);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masked_mha::masked_mha_ragged;

    #[test]
    fn compiled_masked_mha_matches_handwritten() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 23);
        let lens = vec![9usize, 5, 0, 2];
        let x = RaggedBatch::random(&lens, cfg.hidden, 24);
        let pool = CpuPool::new(4);
        let reference = masked_mha_ragged(&pool, &cfg, &w, &x);
        let compiled = masked_mha_compiled(&pool, &cfg, &w, &x);
        assert_eq!(reference.len(), compiled.len());
        let worst = reference
            .iter()
            .zip(&compiled)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 1e-3, "compiled masked MHA diverges by {worst}");
        // Prebuilt-kernel path (the multi-layer hot path): same result,
        // kernels compiled and prepared once, session reused per layer.
        let sdpa = CompiledMaskedSdpa::build(&x.lens, cfg.head_dim).unwrap();
        let mut session = sdpa.session();
        for _layer in 0..2 {
            let again = masked_mha_compiled_with(&pool, &cfg, &w, &x, &mut session);
            assert_eq!(again, compiled, "prebuilt kernels must match");
        }
    }

    #[test]
    fn parallel_head_matches_serial_head_bitwise() {
        let lens = vec![6usize, 3, 1];
        let hd = 8usize;
        let rows: usize = lens.iter().sum();
        let sdpa = CompiledMaskedSdpa::build(&lens, hd).unwrap();
        let q: Vec<f32> = (0..rows * hd).map(|i| (i as f32 * 0.37).sin()).collect();
        let k: Vec<f32> = (0..rows * hd).map(|i| (i as f32 * 0.11).cos()).collect();
        let v: Vec<f32> = (0..rows * hd).map(|i| i as f32 * 0.01 - 1.0).collect();
        let serial = sdpa.forward_head_serial(q.clone(), k.clone(), v.clone());
        // A single session reused across pools and repeats, like the
        // multi-head hot path does.
        let mut session = sdpa.session();
        for pool in [CpuPool::new(1), CpuPool::new(8)] {
            let par = session.forward_head(&pool, q.clone(), k.clone(), v.clone());
            let sb: Vec<u32> = serial.iter().map(|x| x.to_bits()).collect();
            let pb: Vec<u32> = par.iter().map(|x| x.to_bits()).collect();
            assert_eq!(sb, pb, "parallel head output must be bit-identical");
        }
        // The one-shot convenience agrees too.
        let one_shot = sdpa.forward_head(&CpuPool::new(2), q, k, v);
        assert_eq!(one_shot, serial);
    }

    #[test]
    fn score_operator_is_triangular_and_block_bound() {
        let lens = vec![3usize, 2];
        let p = lower(&masked_scores_operator(&lens, 4)).unwrap();
        // Triangular output: 1+2+3 + 1+2 = 9 scores.
        assert_eq!(p.output_size(), 9);
        // One block per flattened row, ragged costs.
        assert_eq!(p.block_costs().len(), 5);
        let compiled = p.compile();
        assert!(compiled.has_parallel_tier());
        // CUDA rendering binds the row loop to the grid.
        assert!(p.cuda_source().contains("blockIdx.x"));
    }

    #[test]
    fn causality_holds_through_the_compiled_path() {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, 31);
        let lens = vec![5usize];
        let pool = CpuPool::new(2);
        let x1 = RaggedBatch::random(&lens, cfg.hidden, 32);
        let mut x2 = x1.clone();
        let h = cfg.hidden;
        for d in 0..h {
            x2.data[4 * h + d] += 1.0;
        }
        let y1 = masked_mha_compiled(&pool, &cfg, &w, &x1);
        let y2 = masked_mha_compiled(&pool, &cfg, &w, &x2);
        assert_eq!(&y1[..4 * h], &y2[..4 * h], "future tokens must not leak");
        assert_ne!(&y1[4 * h..], &y2[4 * h..], "last row must change");
    }
}
