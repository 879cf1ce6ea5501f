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
//! and a closure adapting the operands to the function's signature. The
//! table test (`vm::dispatch::tests::every_kernel_row_matches_the_sweep`)
//! iterates the rows, so the new one is checked against the chunked
//! sweep and the interpreter on the ragged extent grid without a new
//! test. A kernel for a tape that is not a multiply-accumulate
//! additionally needs a `NestClass` variant, its arm in
//! `FusedNest::classify`, and the nest that test builds for the class.
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

/// One loaded operand of a whole-nest kernel: its buffer, its index at
/// the nest's first iteration, and its stride along the outer loop (a
/// row's pattern pins the inner one).
pub(crate) struct Operand<'a> {
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
    /// The kernel, bit-identical to the serial nest under
    /// [`MathMode::Strict`]. `out` is the exclusive run of the output
    /// the nest's stores cover, starting at the first iteration's index
    /// — a row must therefore pin both output strides, to a pattern
    /// whose stores are dense.
    pub(crate) run: fn(out: &mut [f32], k: &KernelArgs<'_>),
}

/// The microkernel table, in match-priority order.
pub(crate) static NEST_KERNELS: &[NestKernel] = &[
    // i-k-j GEMM row: output and `b` stream the inner axis, `a` is the
    // outer-axis scalar.
    NestKernel {
        class: NestClass::MulAcc,
        strides: [[Some(1), Some(0)], [Some(0), None], [Some(1), None]],
        run: |out, k| {
            let (a, b) = (&k.a, &k.b);
            saxpy_panel(
                out, a.data, a.base, a.outer, b.data, b.base, b.outer, k.n_outer,
            );
        },
    },
    // Per-row dots: output indexes the outer axis, both operands stream
    // the inner axis.
    NestKernel {
        class: NestClass::MulAcc,
        strides: [[Some(0), Some(1)], [Some(1), None], [Some(1), None]],
        run: |out, k| {
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
/// two-deep nest at `n_outer = 1`, which never steps them. Negative
/// outer strides never select (the kernels address `usize` ranges).
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
            && k.strides.iter().zip(strides).all(|(want, got)| {
                agrees(want[0], got[0]) && (!two_deep || agrees(want[1], got[1]))
            })
    })
}

// ---------------------------------------------------------------------
// GEMM-shaped panels
// ---------------------------------------------------------------------

/// Register-blocked i-k-j saxpy panel:
/// `out[0..n_i] += a[a0 + t·sa_o] · b[b0 + t·sb_o ..][..n_i]` for
/// `t in 0..n_o`.
///
/// The output row is processed in `[f32; LANES]` register blocks held
/// across the *entire* outer loop, so each output element is loaded and
/// stored once instead of once per `t` — the classic GEMM register
/// tile. Per element the adds still happen in ascending-`t` order, one
/// `mul` + one `add` each, so results are **bit-identical to the scalar
/// nest in both math modes** (independent outputs reassociate nothing).
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
    while i + LANES <= n_i {
        let mut acc = [0.0f32; LANES];
        acc.copy_from_slice(&out[i..i + LANES]);
        for t in 0..n_o {
            let s = a[a0 + t * sa_o];
            let br = &b[b0 + t * sb_o + i..b0 + t * sb_o + i + LANES];
            for l in 0..LANES {
                acc[l] += s * br[l];
            }
        }
        out[i..i + LANES].copy_from_slice(&acc);
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
        // All tail lengths mod LANES, including 0 and a multi-block row.
        for n_i in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 67] {
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
        // The QKᵀ shape: out indexes rows, operands stream the head dim.
        assert_eq!(row([[0, 1], [1, 0], [1, 8]], true), Some(1));
        // Negative outer strides never match (usize addressing).
        assert_eq!(row([[1, 0], [0, -1], [1, 4]], true), None);
        // A generic strided nest matches nothing.
        assert_eq!(row([[2, 1], [1, 3], [5, 0]], true), None);
        // A one-deep nest is matched on its inner strides alone.
        assert_eq!(row([[1, 9], [0, -9], [1, 9]], false), Some(0));
        assert_eq!(row([[0, 9], [1, -9], [1, 9]], false), Some(1));
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
