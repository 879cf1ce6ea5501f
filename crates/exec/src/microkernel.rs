//! The vectorized microkernels behind the VM's fused superinstruction.
//!
//! A fused loop nest (`vm::isa::FusedNest`; it disassembles as
//! `fmulacc`, `fmulacc2` or `fmap`) stops interpreting bytecode per
//! element; this module is what it runs instead: explicit SIMD
//! microkernels built from portable `[f32; LANES]` register blocks — the
//! compiler auto-vectorizes the fixed-width chunk loops on every
//! architecture, with a scalar tail for the ragged remainders that are
//! this codebase's whole point. Arch-gated intrinsics can slot in behind
//! the same functions later without touching the VM.
//!
//! A kernel runs once per row of a fused nest's row level, so both
//! halves of a row's cost matter. Inside the row, [`saxpy_panel`] keeps a
//! 32-column register block — four `[f32; LANES]` accumulators whose add
//! chains are independent — before its [`LANES`]-column blocks: one
//! vector's adds depend on each other, so a lone block waits on the add
//! latency. Around the row, the executor resolves the operand views and
//! claims the output run once per execution (`vm::dispatch`), so a row
//! starts at its first element.
//!
//! # The kernel table
//!
//! Rather than hard-coding stride peepholes inside the VM's dispatch,
//! the nests a native kernel can run whole are described by one table,
//! `NEST_KERNELS`: each row names a nest class (tape pattern + store
//! kind, classified at compile time), the runtime stride pattern it
//! requires, and the kernel. The executor reads a nest's bases and
//! strides once, asks `select_kernel` for a row, and otherwise runs the
//! chunked tape sweep (whose per-op building blocks — [`exp_chunk`],
//! [`tanh_chunk`], [`sum_fast`], [`max_fast`] — also live here). The
//! match logic is data, not control flow (the ACT-style mini-ISA
//! framing).
//!
//! **Adding a microkernel** is one function and one row: write the
//! kernel beside [`saxpy_panel`]/[`dot_panel`] (bit-identical to the
//! serial nest under `Strict`), then add a `NestKernel` row with its
//! class, its `[inner, outer]` stride pattern per index (pin both output
//! strides: the kernel receives the dense output run the nest covers)
//! and a closure adapting the operands to the function's signature. A
//! kernel that wants state across the nests of one execution — a packed
//! operand, like the panel row below — sets `packs_b` and keeps that
//! state in the per-execution scratch its closure receives (`PanelCache`
//! today; it lives in the dispatch loop's register state, beside the
//! chunk sweep's buffers, and is handed over only where reuse is sound),
//! computing the same bits without it otherwise. The
//! table test (`vm::dispatch::tests::every_kernel_row_matches_the_sweep`)
//! iterates the rows, so the new one is checked against the chunked
//! sweep and the interpreter on the ragged extent grid without a new
//! test. A kernel for a tape that is not a multiply-accumulate
//! additionally needs a `NestClass` variant, its arm in
//! `FusedNest::classify`, and the nest that test builds for the class.
//!
//! # The packed-panel row
//!
//! The attention-score nest dots one query row with `n_o` key rows:
//! `out[t] += Σ_k q[k] · K[b0 + t·sb_o + k]`, whose `a` operand has outer
//! stride 0. [`dot_panel`] runs it one short reduction at a time. The
//! panel row instead copies the key rows into blocks of [`LANES`] rows
//! laid out `[t / LANES][k][t % LANES]` (`pack_panel`, the packing a
//! BLIS-style GEMM uses) and runs the saxpy shape over them
//! (`packed_dot_panel`): `acc[t..t + LANES] += q[k] · panel[k][..]` for
//! ascending `k`. Each output still receives its adds in exactly the
//! serial nest's order, so the row is bit-identical under `Strict` (and
//! runs in both modes: it reassociates nothing).
//!
//! Packing costs more than one dot pass; the gain is reuse. Every query
//! row of one (head, sequence) reads the same key panel, so the packed
//! copy lives in the execution's `PanelCache`, keyed by the `b`
//! operand's slot, base, outer stride and row length: a later nest with
//! the same key reuses it, one that needs more rows (causal attention's
//! growing prefix) extends it, and any other key repacks it. **Why reuse
//! is sound:** the cache is handed to the row only when `b` is bound
//! read-only (`vm::bufs`' `Slot::In`, a shared borrow held for the whole
//! execution), so nothing can change the rows between the pack and a
//! later hit; and a cache is created with, and dropped beside, the buffer
//! view of one execution (a serial run, or one parallel worker's batch of
//! tiles), so it never sees another execution's buffers. A `b` that is
//! written or `Alloc` scratch is never packed: the row runs per-row dots
//! in the serial order instead, in both modes, so a result never depends
//! on how `b` is bound (the owned machine, which binds every buffer as
//! written, agrees with the borrowed and parallel tiers under `Fast` too).
//!
//! # Strict vs fast math
//!
//! Every kernel takes a [`MathMode`]:
//!
//! * [`MathMode::Strict`] — results are **bit-identical to the
//!   interpreter**. Vector lanes are used only where the per-element
//!   float-op sequence is provably unchanged: independent output
//!   elements may be computed in any order, so the register-blocked
//!   saxpy panel is legal, but reductions keep their serial
//!   accumulation order and transcendentals stay on `libm`.
//! * [`MathMode::Fast`] — reductions may reassociate into `LANES`
//!   parallel accumulators (combined in a fixed tree, so results stay
//!   deterministic run-to-run), and `exp`/`tanh` use polynomial
//!   approximations. The error bounds are part of this module's
//!   contract — [`EXP_REL_TOL`], [`TANH_ABS_TOL`] — and the unit tests
//!   here plus the differential harnesses assert them.

use std::cell::Cell;
use std::ops::Range;

/// Floating-point semantics knob for compiled execution, threaded from
/// `CompiledProgram`/`CompiledPipeline` down to the VM's fused kernels.
///
/// `Strict` (the default) preserves the bit-identical-to-interpreter
/// contract every differential suite locks. `Fast` trades that for
/// speed under the documented tolerances above; it is still
/// deterministic (serial and parallel runs of the same program agree
/// bit-for-bit with each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MathMode {
    /// Bit-identical to the tree-walking interpreter.
    #[default]
    Strict,
    /// Reassociated reductions and approximate `exp`/`tanh`, within
    /// [`EXP_REL_TOL`] / [`TANH_ABS_TOL`] per operation.
    Fast,
}

/// Vector width of the portable register blocks. Eight `f32` lanes is
/// one AVX2 register / two NEON registers; the chunk loops below compile
/// to full-width vector ops on either.
pub const LANES: usize = 8;

/// Maximum relative error of [`exp_fast`] against `f32::exp` over the
/// non-flushing input range (|x| ≤ 87). Asserted by this module's tests.
pub const EXP_REL_TOL: f32 = 4e-6;

/// Maximum absolute error of [`tanh_fast`] against `f32::tanh` anywhere
/// on the real line. Asserted by this module's tests.
pub const TANH_ABS_TOL: f32 = 4e-7;

// ---------------------------------------------------------------------
// The kernel table
// ---------------------------------------------------------------------

/// What a fused nest computes per element, as the kernel table keys it:
/// the tape pattern together with the store kind. The VM's compiler
/// classifies each nest once, so the executor never inspects a tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NestClass {
    /// `out[..] += a[..] · b[..]`: the tape `ld a; ld b; fmul` under
    /// `+=` — the nests of GEMM-, score- and AttnV-style operators.
    MulAcc,
    /// Any other tape or store kind. No row implements it; the VM's
    /// chunked tape sweep runs it.
    Map,
}

/// One loaded operand of a whole-nest kernel: its buffer slot and
/// contents, its index at the nest's first iteration, and its stride
/// along the outer loop (a row's pattern pins the inner one).
pub(crate) struct Operand<'a> {
    pub(crate) slot: u32,
    pub(crate) data: &'a [f32],
    pub(crate) base: usize,
    pub(crate) outer: usize,
}

/// What a whole-nest kernel runs over, besides its output: the operands
/// in tape order, the trip counts and the float semantics. Passed by
/// reference so a row's adapter marshals the kernel's arguments once.
pub(crate) struct KernelArgs<'a> {
    pub(crate) a: Operand<'a>,
    pub(crate) b: Operand<'a>,
    pub(crate) n_inner: usize,
    pub(crate) n_outer: usize,
    pub(crate) mode: MathMode,
}

/// One row of the microkernel table: a whole-nest kernel and the nests
/// it may run in place of the chunked tape sweep.
pub(crate) struct NestKernel {
    /// The nest class the kernel implements.
    pub(crate) class: NestClass,
    /// Stride predicate per index — the output, then the tape's sites in
    /// order — as `[inner, outer]`: `Some(_)` = must equal, `None` = any
    /// non-negative stride.
    pub(crate) strides: [[Option<i64>; 2]; 3],
    /// Whether the kernel may keep a packed copy of `b` in the
    /// execution's [`PanelCache`] for later nests to reuse. Such a row is
    /// selected only for two-deep nests (a one-deep nest has one row of
    /// `b`, nothing to reuse).
    pub(crate) packs_b: bool,
    /// The kernel, bit-identical to the serial nest under
    /// [`MathMode::Strict`]. `out` is the exclusive run of the output
    /// the nest's stores cover, starting at the first iteration's index
    /// — a row must therefore pin both output strides, to a pattern
    /// whose stores are dense. `panels` is the execution's panel cache,
    /// passed only when `b` is bound read-only (module docs); a `packs_b`
    /// row must compute the same bits without it, so how `b` is bound
    /// never changes a result.
    pub(crate) run: fn(out: &mut [f32], k: &KernelArgs<'_>, panels: Option<&mut PanelCache>),
}

/// The microkernel table, in match-priority order.
pub(crate) static NEST_KERNELS: &[NestKernel] = &[
    // i-k-j GEMM row: output and `b` stream the inner axis, `a` is the
    // outer-axis scalar.
    NestKernel {
        class: NestClass::MulAcc,
        strides: [[Some(1), Some(0)], [Some(0), None], [Some(1), None]],
        packs_b: false,
        run: |out, k, _| {
            let (a, b) = (&k.a, &k.b);
            saxpy_panel(
                out, a.data, a.base, a.outer, b.data, b.base, b.outer, k.n_outer,
            );
        },
    },
    // One row of `a` dotted with `n_outer` rows of `b` (attention
    // scores): the rows of `b`, packed once and reused, in the saxpy
    // shape. When `b` may change between nests, per-row dots in the
    // serial order instead — in both modes, like the packed kernel.
    NestKernel {
        class: NestClass::MulAcc,
        strides: [[Some(0), Some(1)], [Some(1), Some(0)], [Some(1), None]],
        packs_b: true,
        run: |out, k, panels| {
            let (a, b, n) = (&k.a, &k.b, [k.n_inner, k.n_outer]);
            match panels {
                Some(panels) => {
                    packed_dot_panel(out, a.data, a.base, panels.rows(b, n[0], n[1]), n[0]);
                }
                None => dot_panel(
                    out,
                    0,
                    a.data,
                    a.base,
                    0,
                    b.data,
                    b.base,
                    b.outer,
                    n[0],
                    n[1],
                    MathMode::Strict,
                ),
            }
        },
    },
    // Per-row dots: output indexes the outer axis, both operands stream
    // the inner axis.
    NestKernel {
        class: NestClass::MulAcc,
        strides: [[Some(0), Some(1)], [Some(1), None], [Some(1), None]],
        packs_b: false,
        run: |out, k, _| {
            let (a, b, n) = (&k.a, &k.b, [k.n_inner, k.n_outer]);
            dot_panel(
                out, 0, a.data, a.base, a.outer, b.data, b.base, b.outer, n[0], n[1], k.mode,
            );
        },
    },
];

/// Looks a nest up in [`NEST_KERNELS`]: the first row of its class whose
/// stride pattern matches. `strides` holds `[inner, outer]` per index in
/// row order. A one-deep nest (`two_deep == false`) has no outer
/// strides and is matched on the inner pattern alone — it is the
/// two-deep nest at `n_outer = 1`, which never steps them — and never
/// selects a `packs_b` row. Negative outer strides never select (the
/// kernels address `usize` ranges).
#[inline]
pub(crate) fn select_kernel(
    class: NestClass,
    strides: &[[i64; 2]; 3],
    two_deep: bool,
) -> Option<&'static NestKernel> {
    if two_deep && strides.iter().any(|s| s[1] < 0) {
        return None;
    }
    let agrees = |want: Option<i64>, got: i64| want.map_or(true, |w| w == got);
    NEST_KERNELS.iter().find(|k| {
        k.class == class
            && (two_deep || !k.packs_b)
            && k.strides.iter().zip(strides).all(|(want, got)| {
                agrees(want[0], got[0]) && (!two_deep || agrees(want[1], got[1]))
            })
    })
}

// ---------------------------------------------------------------------
// GEMM-shaped panels
// ---------------------------------------------------------------------

/// Columns of [`saxpy_panel`]'s wide register block: four [`LANES`]
/// vectors, whose add chains are independent and so overlap.
const SAXPY_WIDE: usize = 4 * LANES;

/// Register-blocked i-k-j saxpy panel:
/// `out[0..n_i] += a[a0 + t·sa_o] · b[b0 + t·sb_o ..][..n_i]` for
/// `t in 0..n_o`.
///
/// The output row is processed in register blocks held across the
/// *entire* outer loop, so each output element is loaded and stored once
/// instead of once per `t` — the classic GEMM register tile. Blocks of
/// `4 · LANES` columns run first: one vector's adds form a dependent
/// chain, so one block alone waits on the add latency, while four
/// independent chains keep the adder busy. Then [`LANES`]-column blocks,
/// then a scalar tail. Per element the adds still happen in
/// ascending-`t` order, one `mul` + one `add` each, so results are
/// **bit-identical to the scalar nest in both math modes** (independent
/// outputs reassociate nothing).
#[allow(clippy::too_many_arguments)]
pub fn saxpy_panel(
    out: &mut [f32],
    a: &[f32],
    a0: usize,
    sa_o: usize,
    b: &[f32],
    b0: usize,
    sb_o: usize,
    n_o: usize,
) {
    let n_i = out.len();
    let mut i = 0;
    while i + SAXPY_WIDE <= n_i {
        saxpy_block::<SAXPY_WIDE>(&mut out[i..], a, a0, sa_o, b, b0 + i, sb_o, n_o);
        i += SAXPY_WIDE;
    }
    while i + LANES <= n_i {
        saxpy_block::<LANES>(&mut out[i..], a, a0, sa_o, b, b0 + i, sb_o, n_o);
        i += LANES;
    }
    if i < n_i {
        // Scalar tail: same per-element op sequence, just unblocked.
        for t in 0..n_o {
            let s = a[a0 + t * sa_o];
            let br = &b[b0 + t * sb_o..b0 + t * sb_o + n_i];
            for (o, x) in out[i..].iter_mut().zip(&br[i..]) {
                *o += s * *x;
            }
        }
    }
}

/// One `W`-column register block of [`saxpy_panel`]: `out[..W] +=
/// a[a0 + t·sa_o] · b[b0 + t·sb_o ..][..W]` for ascending `t`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn saxpy_block<const W: usize>(
    out: &mut [f32],
    a: &[f32],
    a0: usize,
    sa_o: usize,
    b: &[f32],
    b0: usize,
    sb_o: usize,
    n_o: usize,
) {
    let out: &mut [f32; W] = (&mut out[..W]).try_into().expect("W columns");
    let mut acc = *out;
    for t in 0..n_o {
        let s = a[a0 + t * sa_o];
        let row: &[f32; W] = b[b0 + t * sb_o..][..W].try_into().expect("W columns");
        for l in 0..W {
            acc[l] += s * row[l];
        }
    }
    *out = acc;
}

/// Dot panel: `out[t] += a_row(t) · b_row(t)` for `t in 0..n_o`, rows of
/// length `n_i`.
///
/// `Strict` accumulates each row serially in element order (bit-identical
/// to the interpreter) but interleaves `DOT_BLOCK` *independent* rows
/// so their FMA chains overlap — short reductions (e.g. head_dim-length
/// attention dots) are latency-bound one at a time, and independent
/// outputs reassociate nothing. `Fast` splits each row across [`LANES`]
/// accumulators combined by a fixed horizontal-sum tree — reassociated
/// but deterministic.
#[allow(clippy::too_many_arguments)]
pub fn dot_panel(
    out: &mut [f32],
    o0: usize,
    a: &[f32],
    a0: usize,
    sa_o: usize,
    b: &[f32],
    b0: usize,
    sb_o: usize,
    n_i: usize,
    n_o: usize,
    mode: MathMode,
) {
    const DOT_BLOCK: usize = 4;
    let mut t = 0;
    if matches!(mode, MathMode::Strict) {
        while t + DOT_BLOCK <= n_o {
            let ab = a0 + t * sa_o;
            let bb = b0 + t * sb_o;
            let ar: [&[f32]; DOT_BLOCK] =
                std::array::from_fn(|u| &a[ab + u * sa_o..ab + u * sa_o + n_i]);
            let br: [&[f32]; DOT_BLOCK] =
                std::array::from_fn(|u| &b[bb + u * sb_o..bb + u * sb_o + n_i]);
            let mut acc = [0.0f32; DOT_BLOCK];
            acc.copy_from_slice(&out[o0 + t..o0 + t + DOT_BLOCK]);
            for k in 0..n_i {
                for u in 0..DOT_BLOCK {
                    acc[u] += ar[u][k] * br[u][k];
                }
            }
            out[o0 + t..o0 + t + DOT_BLOCK].copy_from_slice(&acc);
            t += DOT_BLOCK;
        }
    }
    for t in t..n_o {
        let ar = &a[a0 + t * sa_o..a0 + t * sa_o + n_i];
        let br = &b[b0 + t * sb_o..b0 + t * sb_o + n_i];
        let acc = out[o0 + t];
        out[o0 + t] = match mode {
            MathMode::Strict => {
                let mut acc = acc;
                for (x, y) in ar.iter().zip(br) {
                    acc += *x * *y;
                }
                acc
            }
            MathMode::Fast => acc + dot_fast(ar, br),
        };
    }
}

/// Packs rows `rows` of the panel `b[b0 + t·sb_o ..][..n_i]` into `panel`,
/// laid out in blocks of [`LANES`] rows as `[t / LANES][k][t % LANES]` —
/// the layout [`packed_dot_panel`] reads. `panel` grows to hold the
/// blocks up to `rows.end`; rows before `rows.start` are left as they
/// are (extending a packed panel), and the lanes of the last block past
/// `rows.end` are zeroed.
pub(crate) fn pack_panel(
    panel: &mut Vec<f32>,
    b: &[f32],
    b0: usize,
    sb_o: usize,
    n_i: usize,
    rows: Range<usize>,
) {
    if n_i == 0 {
        return;
    }
    let block = n_i * LANES;
    let len = rows.end.div_ceil(LANES) * block;
    if panel.len() < len {
        panel.resize(len, 0.0);
    }
    // Element `k` of row `t` sits at `lane(t) + k·LANES`.
    let lane = |t: usize| t / LANES * block + t % LANES;
    for t in rows.clone() {
        let row = &b[b0 + t * sb_o..][..n_i];
        let at = &mut panel[lane(t)..len];
        for (k, x) in row.iter().enumerate() {
            at[k * LANES] = *x;
        }
    }
    for t in rows.end..rows.end.next_multiple_of(LANES) {
        let at = &mut panel[lane(t)..len];
        for k in 0..n_i {
            at[k * LANES] = 0.0;
        }
    }
}

/// Packed-panel dot: `out[t] += Σ_k a[a0 + k] · row_t[k]` for
/// `t in 0..out.len()`, rows of length `n_i` read from `panel` as
/// [`pack_panel`] laid them out.
///
/// The saxpy shape over [`LANES`]-row blocks: a block's outputs are held
/// in one register block while `acc += a[a0 + k] · panel[k][..]` runs for
/// ascending `k`, two blocks at a time so two independent add chains
/// overlap. Every output receives its `n_i` adds in the serial fold's
/// order, one `mul` + one `add` each, so results are **bit-identical to
/// the scalar nest in both math modes**; lanes past `out.len()` are
/// computed and discarded.
///
/// # Panics
///
/// Panics if `panel` holds fewer blocks than `out` needs.
pub(crate) fn packed_dot_panel(out: &mut [f32], a: &[f32], a0: usize, panel: &[f32], n_i: usize) {
    if n_i == 0 {
        return;
    }
    let (n_o, block) = (out.len(), n_i * LANES);
    assert!(
        panel.len() >= n_o.div_ceil(LANES) * block,
        "packed panel too short"
    );
    let q = &a[a0..a0 + n_i];
    // Output `t`'s block starts at `t / LANES · block = t · n_i`.
    let mut t = 0;
    while t + 2 * LANES <= n_o {
        let mut acc = [[0.0f32; LANES]; 2];
        for (g, r) in acc.iter_mut().enumerate() {
            r.copy_from_slice(&out[t + g * LANES..][..LANES]);
        }
        let (b0, b1) = panel[t * n_i..][..2 * block].split_at(block);
        dot_block_pair(&mut acc, q, b0, b1);
        for (g, r) in acc.iter().enumerate() {
            out[t + g * LANES..][..LANES].copy_from_slice(r);
        }
        t += 2 * LANES;
    }
    while t < n_o {
        let m = (n_o - t).min(LANES);
        let mut acc = [0.0f32; LANES];
        acc[..m].copy_from_slice(&out[t..t + m]);
        dot_block(&mut acc, q, &panel[t * n_i..][..block]);
        out[t..t + m].copy_from_slice(&acc[..m]);
        t += LANES;
    }
}

/// `acc[l] += Σ_k q[k] · block[k·LANES + l]` for ascending `k`: one
/// block of a packed panel. The accumulators are copied into a local
/// first, so they stay in registers even when the caller filled `acc`
/// through a variable-length copy.
#[inline(always)]
fn dot_block(acc: &mut [f32; LANES], q: &[f32], block: &[f32]) {
    let mut r = *acc;
    for (s, p) in q.iter().zip(block.chunks_exact(LANES)) {
        for l in 0..LANES {
            r[l] += *s * p[l];
        }
    }
    *acc = r;
}

/// [`dot_block`] over two blocks at once: two independent add chains.
#[inline(always)]
fn dot_block_pair(acc: &mut [[f32; LANES]; 2], q: &[f32], b0: &[f32], b1: &[f32]) {
    let mut r = *acc;
    let rows = b0.chunks_exact(LANES).zip(b1.chunks_exact(LANES));
    for (s, (p0, p1)) in q.iter().zip(rows) {
        for l in 0..LANES {
            r[0][l] += *s * p0[l];
            r[1][l] += *s * p1[l];
        }
    }
    *acc = r;
}

thread_local! {
    static PANEL_PACKS: Cell<u64> = const { Cell::new(0) };
}

/// Panels the packed-panel row has packed on the calling thread so far —
/// fresh packs only; extending a packed panel does not count. How a test
/// observes that a nest ran through the row and how often its panel was
/// reused. A serial execution counts on the calling thread; parallel
/// workers count on theirs.
pub fn panels_packed() -> u64 {
    PANEL_PACKS.with(Cell::get)
}

/// The packed `b` panel of one execution: the last one the packed-panel
/// row built, reused by every later nest that reads the same rows (see
/// the module docs for the reuse rule and why it is sound). Created
/// empty with the execution's register state; the first pack allocates.
#[derive(Default)]
pub(crate) struct PanelCache {
    /// `(slot, base, outer stride, row length)` of the packed operand.
    key: Option<(u32, usize, usize, usize)>,
    /// Rows of that operand packed so far.
    rows: usize,
    data: Vec<f32>,
}

impl PanelCache {
    /// The first `n_o` rows (of `n_i` elements) of operand `b`, packed:
    /// reused when the key matches and enough rows are packed, extended
    /// when the key matches and more are needed, repacked otherwise.
    pub(crate) fn rows(&mut self, b: &Operand<'_>, n_i: usize, n_o: usize) -> &[f32] {
        let key = (b.slot, b.base, b.outer, n_i);
        if self.key != Some(key) {
            self.key = Some(key);
            self.rows = 0;
            PANEL_PACKS.with(|c| c.set(c.get() + 1));
        }
        if self.rows < n_o {
            pack_panel(&mut self.data, b.data, b.base, b.outer, n_i, self.rows..n_o);
            self.rows = n_o;
        }
        &self.data[..n_o.div_ceil(LANES) * n_i * LANES]
    }
}

/// Lane-parallel dot product of two equal-length slices (reassociated;
/// `Fast`-mode only). Deterministic: lanes combine in a fixed tree.
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let (ac, at) = a.split_at(a.len() - a.len() % LANES);
    let (bc, bt) = b.split_at(ac.len());
    for (ar, br) in ac.chunks_exact(LANES).zip(bc.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ar[l] * br[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in at.iter().zip(bt) {
        tail += *x * *y;
    }
    hsum(&acc) + tail
}

/// Fixed-tree horizontal sum of a lane block (deterministic).
#[inline]
fn hsum(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

// ---------------------------------------------------------------------
// Reductions (Fast mode)
// ---------------------------------------------------------------------

/// Lane-parallel sum of a slice (reassociated; `Fast`-mode only).
pub fn sum_fast(v: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let (chunks, tail) = v.split_at(v.len() - v.len() % LANES);
    for c in chunks.chunks_exact(LANES) {
        for l in 0..LANES {
            acc[l] += c[l];
        }
    }
    let mut t = 0.0f32;
    for x in tail {
        t += *x;
    }
    hsum(&acc) + t
}

/// Lane-parallel maximum of a non-empty slice, seeded with `init`
/// (reassociated; `Fast`-mode only). Uses `f32::max` lane-wise, so NaN
/// inputs are absorbed exactly as in the serial fold.
pub fn max_fast(init: f32, v: &[f32]) -> f32 {
    let mut acc = [init; LANES];
    let (chunks, tail) = v.split_at(v.len() - v.len() % LANES);
    for c in chunks.chunks_exact(LANES) {
        for l in 0..LANES {
            acc[l] = acc[l].max(c[l]);
        }
    }
    let mut m = ((acc[0].max(acc[4])).max(acc[2].max(acc[6])))
        .max((acc[1].max(acc[5])).max(acc[3].max(acc[7])));
    for x in tail {
        m = m.max(*x);
    }
    m
}

// ---------------------------------------------------------------------
// Transcendental approximations (Fast mode)
// ---------------------------------------------------------------------

const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split for Cody–Waite range reduction: `LN2_HI + LN2_LO = ln 2`
/// with `LN2_HI` exact in 12 bits, so `x − n·LN2_HI` is exact for the
/// relevant `n` range.
#[allow(clippy::excessive_precision)] // the digits are the exact f32 value
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Inputs beyond ±87.3 overflow/underflow `f32::exp` anyway; clamping
/// keeps the bit games below in range.
const EXP_CLAMP: f32 = 87.0;
/// `1.5 · 2²³`: adding and subtracting it rounds an `f32` in ±2²² to the
/// nearest integer using the FPU's round-to-nearest mode — unlike
/// `f32::round`, it is a plain add/sub pair, so the chunk sweeps stay
/// branch-free and vectorizable (no `roundf` libm call in the loop).
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Polynomial `exp` approximation (`Fast` mode): relative error ≤
/// [`EXP_REL_TOL`] on |x| ≤ 87, monotone clamp outside.
///
/// Classic `2^n · p(r)` construction: `n = round(x·log2 e)`, Cody–Waite
/// reduction `r = x − n·ln 2 ∈ [−ln2/2, ln2/2]`, a degree-5 Taylor-like
/// minimax polynomial for `e^r`, and an exponent-field bit add for the
/// `2^n` scale. Branch-free, so the chunk sweep vectorizes.
#[inline]
pub fn exp_fast(x: f32) -> f32 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    // Magic-rounded `y` keeps `n` in its low mantissa bits (offset by
    // 2²²), so both the float `n` and the 2^n exponent scale fall out
    // without any float→int conversion — `f32 as i32` is a saturating
    // cast in Rust, and its NaN/overflow fixups are what kept this loop
    // from vectorizing.
    let y = x * LOG2_E + ROUND_MAGIC;
    let n = y - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    // e^r for r in [-0.3466, 0.3466]; Horner, coefficients from the
    // Cephes expf minimax fit.
    let p = 1.987_569_1e-4f32;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_5e-2;
    let p = p * r + 1.666_666_6e-1;
    let p = p * r + 0.5;
    let p = p * r * r + r + 1.0;
    // 2^n via the exponent field: `y`'s mantissa is `0x40_0000 + n` and
    // |n| ≤ 126 after the clamp, so `(n + 127) << 23` is the biased
    // exponent; the mantissa offset and `y`'s own exponent bits vanish
    // in the shift.
    let scale = f32::from_bits(y.to_bits().wrapping_add(127u32.wrapping_sub(0x40_0000)) << 23);
    p * scale
}

/// Polynomial `tanh` approximation (`Fast` mode): absolute error ≤
/// [`TANH_ABS_TOL`] everywhere.
///
/// `tanh x = 1 − 2/(e^{2x} + 1)` on the negative half-line (where
/// `e^{2x} ≤ 1` is well-conditioned), reflected by sign; saturates to
/// ±1 past |x| ≥ 9 like `f32::tanh`.
#[inline]
pub fn tanh_fast(x: f32) -> f32 {
    let ax = -x.abs();
    // `exp_fast(0) == 1` exactly, so `t(0) == 1 − 2/2 == 0` without a
    // special case — the whole body stays branch-free and vectorizes.
    let e = exp_fast(2.0 * ax);
    let t = 1.0 - 2.0 * e / (1.0 + e);
    t.copysign(x)
}

/// Applies [`exp_fast`] across a chunk (the `fmap` tape's vector sweep).
pub fn exp_chunk(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = exp_fast(*s);
    }
}

/// Applies [`tanh_fast`] across a chunk.
pub fn tanh_chunk(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = tanh_fast(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, k: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 7 + 3) % 23) as f32 * k - 5.0)
            .collect()
    }

    /// Scalar reference of the saxpy panel nest, in interpreter order.
    #[allow(clippy::too_many_arguments)]
    fn saxpy_ref(
        out: &mut [f32],
        a: &[f32],
        a0: usize,
        sa_o: usize,
        b: &[f32],
        b0: usize,
        sb_o: usize,
        n_o: usize,
    ) {
        for t in 0..n_o {
            let s = a[a0 + t * sa_o];
            for (i, o) in out.iter_mut().enumerate() {
                *o += s * b[b0 + t * sb_o + i];
            }
        }
    }

    #[test]
    fn saxpy_panel_is_bit_identical_to_scalar_nest() {
        // All tail lengths mod LANES, including 0 and a multi-block row,
        // every boundary of the wide / LANES / scalar cascade, and the
        // encoder's GEMM widths.
        for n_i in [
            0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 39, 40, 41, 63, 64, 67, 96, 97, 192, 256,
        ] {
            for n_o in [0usize, 1, 2, 5, 31] {
                let a = seq(n_o.max(1) * 3, 0.25);
                let b = seq(n_o.max(1) * (n_i + 2) + 4, 0.5);
                let mut out = seq(n_i, 1.0);
                let mut want = out.clone();
                saxpy_ref(&mut want, &a, 1, 2, &b, 3, n_i + 1, n_o);
                saxpy_panel(&mut out, &a, 1, 2, &b, 3, n_i + 1, n_o);
                let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ob, wb, "n_i={n_i} n_o={n_o}");
            }
        }
    }

    #[test]
    fn strict_dot_panel_is_bit_identical_to_serial_fold() {
        for n_i in [0usize, 1, 7, 8, 9, 33] {
            let n_o = 5;
            let a = seq(n_o * (n_i + 1) + 2, 0.3);
            let b = seq(n_o * (n_i + 1) + 2, 0.7);
            let mut out = seq(n_o + 1, 1.0);
            let mut want = out.clone();
            for t in 0..n_o {
                let mut acc = want[1 + t];
                for u in 0..n_i {
                    acc += a[t * (n_i + 1) + u] * b[2 + t * (n_i + 1) + u];
                }
                want[1 + t] = acc;
            }
            dot_panel(
                &mut out,
                1,
                &a,
                0,
                n_i + 1,
                &b,
                2,
                n_i + 1,
                n_i,
                n_o,
                MathMode::Strict,
            );
            assert_eq!(out, want, "n_i={n_i}");
        }
    }

    /// Scalar reference of the score nest, in interpreter order:
    /// `out[t] += a[a0..][..n_i] · b[b0 + t·sb_o..][..n_i]`.
    fn dots_ref(
        out: &mut [f32],
        a: &[f32],
        a0: usize,
        b: &[f32],
        b0: usize,
        sb_o: usize,
        n_i: usize,
    ) {
        for (t, o) in out.iter_mut().enumerate() {
            for k in 0..n_i {
                *o += a[a0 + k] * b[b0 + t * sb_o + k];
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_dot_panel_is_bit_identical_to_serial_nest() {
        for n_i in [0usize, 1, 7, 8, 9, 64, 65] {
            for n_o in [1usize, 7, 8, 9, 17, 37, 512] {
                let (a0, b0, sb_o) = (2, 5, n_i + 3);
                let a = seq(a0 + n_i, 0.3);
                let b = seq(b0 + n_o * sb_o, 0.7);
                let mut want = seq(n_o, 1.0);
                let mut out = want.clone();
                dots_ref(&mut want, &a, a0, &b, b0, sb_o, n_i);
                let mut panel = Vec::new();
                pack_panel(&mut panel, &b, b0, sb_o, n_i, 0..n_o);
                packed_dot_panel(&mut out, &a, a0, &panel, n_i);
                assert_eq!(bits(&out), bits(&want), "n_i={n_i} n_o={n_o}");
            }
        }
    }

    /// The reuse rule, call by call: a matching key with enough rows
    /// hits, one with more rows extends, any other key (base, slot,
    /// outer stride or row length) repacks — and every call equals the
    /// serial nest over the operand it names.
    #[test]
    fn the_panel_cache_reuses_extends_and_repacks() {
        let (k1, k2) = (seq(700, 0.7), seq(700, 0.45));
        let a = seq(70, 0.3);
        let mut cache = PanelCache::default();
        // `(slot, keys, base, outer stride, n_i, n_o, packs)`.
        let same = |n_o: usize| (1, &k1, 3usize, 11usize, 8usize, n_o, false);
        let mut calls = vec![(1, &k1, 3usize, 11usize, 8usize, 20usize, true)];
        calls.extend([20, 20, 9, 1].map(same)); // repeated, shrinking
        calls.extend((21..=40).map(same)); // growing row by row
        calls.extend([
            (1, &k1, 50, 11, 8, 9, true),   // another base
            (1, &k1, 3, 11, 8, 9, true),    // alternating back
            (1, &k1, 50, 11, 8, 9, true),   // and again
            (2, &k2, 50, 11, 8, 9, true),   // same base, another slot
            (2, &k2, 50, 13, 8, 9, true),   // same base, another stride
            (2, &k2, 50, 13, 9, 9, true),   // another row length
            (2, &k2, 50, 13, 9, 30, false), // extended
            (2, &k2, 50, 13, 9, 3, false),  // hit
        ]);
        for (i, (slot, keys, base, outer, n_i, n_o, packs)) in calls.into_iter().enumerate() {
            let b = Operand {
                slot,
                data: keys,
                base,
                outer,
            };
            let before = panels_packed();
            let mut out = seq(n_o, 1.0);
            let mut want = out.clone();
            dots_ref(&mut want, &a, 7, keys, base, outer, n_i);
            packed_dot_panel(&mut out, &a, 7, cache.rows(&b, n_i, n_o), n_i);
            assert_eq!(bits(&out), bits(&want), "call {i}");
            assert_eq!(panels_packed() - before, u64::from(packs), "call {i}");
        }
    }

    #[test]
    fn fast_reductions_match_serial_within_tolerance() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let v = seq(n, 0.37);
            let serial_sum: f32 = v.iter().sum();
            let fs = sum_fast(&v);
            assert!(
                (fs - serial_sum).abs() <= 1e-4 * (1.0 + serial_sum.abs()),
                "sum n={n}: {fs} vs {serial_sum}"
            );
            let serial_max = v.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            assert_eq!(max_fast(f32::NEG_INFINITY, &v), serial_max, "max n={n}");

            let w = seq(n, 0.11);
            let serial_dot: f32 = v.iter().zip(&w).map(|(x, y)| x * y).sum();
            let fd = dot_fast(&v, &w);
            assert!(
                (fd - serial_dot).abs() <= 1e-3 * (1.0 + serial_dot.abs()),
                "dot n={n}: {fd} vs {serial_dot}"
            );
        }
    }

    #[test]
    fn exp_fast_meets_documented_tolerance() {
        let mut worst = 0.0f32;
        let mut x = -87.0f32;
        while x <= 87.0 {
            let got = exp_fast(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.0137;
        }
        assert!(worst <= EXP_REL_TOL, "worst exp relative error {worst}");
        // Extremes stay finite/ordered.
        assert!(exp_fast(1000.0).is_finite());
        assert_eq!(exp_fast(-1000.0), exp_fast(-87.0));
        assert_eq!(exp_fast(0.0), 1.0);
    }

    #[test]
    fn tanh_fast_meets_documented_tolerance() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let err = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 0.0113;
        }
        assert!(worst <= TANH_ABS_TOL, "worst tanh absolute error {worst}");
        assert_eq!(tanh_fast(0.0), 0.0);
        assert_eq!(tanh_fast(50.0), 1.0);
        assert_eq!(tanh_fast(-50.0), -1.0);
        assert_eq!(tanh_fast(-3.0), -tanh_fast(3.0));
    }

    #[test]
    fn the_table_selects_the_canonical_shapes() {
        let row = |strides: [[i64; 2]; 3], two_deep: bool| {
            select_kernel(NestClass::MulAcc, &strides, two_deep).map(|k| {
                NEST_KERNELS
                    .iter()
                    .position(|r| std::ptr::eq(r, k))
                    .unwrap()
            })
        };
        // The proj-GEMM shape: out/b stream columns, a is per-k scalar.
        assert_eq!(row([[1, 0], [0, 1], [1, 64]], true), Some(0));
        // The QKᵀ shape: out indexes the key rows, one query row (outer
        // stride 0) against key rows that stream the head dim.
        assert_eq!(row([[0, 1], [1, 0], [1, 192]], true), Some(1));
        // A query row that moves with the key row: per-row dots.
        assert_eq!(row([[0, 1], [1, 8], [1, 8]], true), Some(2));
        // Negative outer strides never match (usize addressing).
        assert_eq!(row([[1, 0], [0, -1], [1, 4]], true), None);
        // A generic strided nest matches nothing.
        assert_eq!(row([[2, 1], [1, 3], [5, 0]], true), None);
        // A one-deep nest is matched on its inner strides alone, and the
        // panel row is two-deep only: a one-deep dot is per-row dots.
        assert_eq!(row([[1, 9], [0, -9], [1, 9]], false), Some(0));
        assert_eq!(row([[0, 9], [1, -9], [1, 9]], false), Some(2));
        assert_eq!(row([[0, 0], [1, 0], [1, 0]], false), Some(2));
        assert_eq!(row([[1, 0], [1, 0], [1, 0]], false), None);
        // No row implements a general map.
        assert!(select_kernel(NestClass::Map, &[[1, 0], [0, 1], [1, 64]], true).is_none());
    }

    #[test]
    fn max_fast_absorbs_nan_like_serial_fold() {
        let mut v = seq(20, 0.5);
        v[3] = f32::NAN;
        v[17] = f32::NAN;
        let serial = v.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        assert_eq!(max_fast(f32::NEG_INFINITY, &v), serial);
    }
}
