//! Strided-interval (value-range) analysis over index expressions: the
//! one abstract domain of the compiler.
//!
//! [`SInt`] carries every transfer function — arithmetic, floor
//! division/modulo, min/max, union, the three-valued comparisons and
//! range clamping — and two consumers go through it:
//!
//! * **guard elision** in lowering asks [`decide`] whether a bound check
//!   always holds under the enclosing loops' ranges, so padded loop
//!   bodies can drop it (§4.1);
//! * **the safety verifier** (`cora_core::verify`) evaluates outlined
//!   block bodies over the same methods, grounding auxiliary-table
//!   `Load`s in the built prelude tables.
//!
//! All arithmetic is overflow-aware: a sum, product or negation that
//! leaves `i64` degrades to [`SInt::Top`], and differences of endpoints
//! (which can span the whole `i64` range) are taken as unsigned
//! distances, which always fit.

use std::collections::HashMap;

use crate::expr::{Cond, CondKind, Expr, ExprKind};

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `gcd(s, t)` of two strides (both `≥ 1`, so the result fits).
fn stride_gcd(s: i64, t: i64) -> i64 {
    gcd(s.unsigned_abs(), t.unsigned_abs()) as i64
}

/// Stride of the coarsest lattice holding both `{a + k·s}` and
/// `{c + k·t}`: `gcd(s, t, |a − c|)`, which divides `s ≥ 1` and so fits.
fn common_stride(s: i64, t: i64, a: i64, c: i64) -> i64 {
    gcd(gcd(s.unsigned_abs(), t.unsigned_abs()), a.abs_diff(c)) as i64
}

/// A *strided interval*: `Set { lo, hi, stride }` denotes
/// `{ x : lo ≤ x ≤ hi, x ≡ lo (mod stride) }`; `Top` is "any integer"
/// (unknown), `Empty` the empty set. The stride is what lets two blocks'
/// interleaved store sets (`b + j·N` for distinct `b`) be proven disjoint
/// even though their interval hulls overlap — the congruence half of the
/// disjoint-store theorem.
///
/// Invariants of `Set`: `stride ≥ 1`, `lo ≤ hi`, `hi ≡ lo (mod stride)`,
/// and a singleton (`lo == hi`) always has `stride == 1` so equal sets
/// compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SInt {
    /// The empty set (e.g. the index set of a zero-trip loop body).
    Empty,
    /// Any integer: nothing is known.
    Top,
    /// `{ lo + k·stride : k ≥ 0 } ∩ [lo, hi]`.
    Set {
        /// Least element.
        lo: i64,
        /// Greatest element (congruent to `lo` modulo `stride`).
        hi: i64,
        /// Common difference of consecutive elements.
        stride: i64,
    },
}

impl std::fmt::Display for SInt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SInt::Empty => write!(f, "∅"),
            SInt::Top => write!(f, "⊤"),
            SInt::Set { lo, hi, stride: _ } if lo == hi => write!(f, "{{{lo}}}"),
            SInt::Set { lo, hi, stride: 1 } => write!(f, "[{lo}, {hi}]"),
            SInt::Set { lo, hi, stride } => write!(f, "[{lo}, {hi}] step {stride}"),
        }
    }
}

impl SInt {
    /// The singleton `{ v }`.
    pub fn point(v: i64) -> SInt {
        SInt::Set {
            lo: v,
            hi: v,
            stride: 1,
        }
    }

    /// The dense range `[lo, hi]` (empty when `lo > hi`).
    pub fn range(lo: i64, hi: i64) -> SInt {
        SInt::make(lo, hi, 1)
    }

    /// Normalizing constructor: clamps `hi` down to the greatest element
    /// congruent to `lo`, canonicalizes singleton strides.
    pub fn make(lo: i64, hi: i64, stride: i64) -> SInt {
        debug_assert!(stride >= 1);
        if lo > hi {
            return SInt::Empty;
        }
        // Dense sets (the common case) skip the division. The remainder
        // is below `stride`, so it fits and `hi − rem ≥ lo`.
        let hi = if stride == 1 {
            hi
        } else {
            hi - (hi.abs_diff(lo) % stride.unsigned_abs()) as i64
        };
        if lo == hi {
            SInt::point(lo)
        } else {
            SInt::Set { lo, hi, stride }
        }
    }

    /// The single value, if this is a singleton.
    pub fn as_point(&self) -> Option<i64> {
        match *self {
            SInt::Set { lo, hi, .. } if lo == hi => Some(lo),
            _ => None,
        }
    }

    /// Interval hull `[lo, hi]`, when bounded and non-empty.
    pub fn hull(&self) -> Option<(i64, i64)> {
        match *self {
            SInt::Set { lo, hi, .. } => Some((lo, hi)),
            _ => None,
        }
    }

    /// True if `v` is a member.
    pub fn contains(&self, v: i64) -> bool {
        match *self {
            SInt::Empty => false,
            SInt::Top => true,
            SInt::Set { lo, hi, stride } => {
                lo <= v && v <= hi && v.abs_diff(lo) % stride.unsigned_abs() == 0
            }
        }
    }

    /// True if the whole dense run `[lo, lo + n)` is a subset. Used to
    /// admit contiguous chunk stores with one check instead of `n`.
    pub fn contains_run(&self, run_lo: i64, n: i64) -> bool {
        if n <= 0 {
            return true;
        }
        if n == 1 {
            return self.contains(run_lo);
        }
        match *self {
            SInt::Empty => false,
            SInt::Top => true,
            SInt::Set { lo, hi, stride } => {
                let last = run_lo.checked_add(n - 1);
                stride == 1 && lo <= run_lo && last.is_some_and(|last| last <= hi)
            }
        }
    }

    fn bin(self, o: SInt, f: impl FnOnce(i64, i64, i64, i64, i64, i64) -> SInt) -> SInt {
        match (self, o) {
            (SInt::Empty, _) | (_, SInt::Empty) => SInt::Empty,
            (SInt::Top, _) | (_, SInt::Top) => SInt::Top,
            (
                SInt::Set {
                    lo: a,
                    hi: b,
                    stride: s,
                },
                SInt::Set {
                    lo: c,
                    hi: d,
                    stride: t,
                },
            ) => f(a, b, s, c, d, t),
        }
    }

    /// Element-wise sum. Overflow degrades to [`SInt::Top`].
    #[allow(clippy::should_implement_trait)] // abstract-domain op, not std::ops
    pub fn add(self, o: SInt) -> SInt {
        self.bin(o, |a, b, s, c, d, t| {
            match (a.checked_add(c), b.checked_add(d)) {
                (Some(lo), Some(hi)) => {
                    // A point shifts the other set exactly; otherwise the
                    // sum lands on gcd-of-strides lattice points.
                    let stride = if a == b {
                        t
                    } else if c == d {
                        s
                    } else {
                        stride_gcd(s, t)
                    };
                    SInt::make(lo, hi, stride)
                }
                _ => SInt::Top,
            }
        })
    }

    /// Element-wise difference.
    #[allow(clippy::should_implement_trait)] // abstract-domain op, not std::ops
    pub fn sub(self, o: SInt) -> SInt {
        self.add(o.neg())
    }

    /// Element-wise negation.
    #[allow(clippy::should_implement_trait)] // abstract-domain op, not std::ops
    pub fn neg(self) -> SInt {
        match self {
            SInt::Set { lo, hi, stride } => match (lo.checked_neg(), hi.checked_neg()) {
                (Some(nl), Some(nh)) => SInt::make(nh, nl, stride),
                _ => SInt::Top,
            },
            other => other,
        }
    }

    /// Scale by a constant.
    pub fn mul_const(self, c: i64) -> SInt {
        if c == 0 {
            return match self {
                SInt::Empty => SInt::Empty,
                _ => SInt::point(0),
            };
        }
        match self {
            SInt::Set { lo, hi, stride } => {
                let (a, b) = (lo.checked_mul(c), hi.checked_mul(c));
                let s = c.checked_abs().and_then(|c| stride.checked_mul(c));
                match (a, b, s) {
                    (Some(a), Some(b), Some(s)) => SInt::make(a.min(b), a.max(b), s),
                    _ => SInt::Top,
                }
            }
            other => other,
        }
    }

    /// Element-wise product (precise when either side is a point).
    #[allow(clippy::should_implement_trait)] // abstract-domain op, not std::ops
    pub fn mul(self, o: SInt) -> SInt {
        if let Some(c) = o.as_point() {
            return self.mul_const(c);
        }
        if let Some(c) = self.as_point() {
            return o.mul_const(c);
        }
        self.bin(o, |a, b, _, c, d, _| {
            let corners = (a.checked_mul(c).zip(a.checked_mul(d)))
                .zip(b.checked_mul(c).zip(b.checked_mul(d)));
            match corners {
                Some(((p, q), (r, s))) => {
                    SInt::make(p.min(q).min(r).min(s), p.max(q).max(r).max(s), 1)
                }
                None => SInt::Top,
            }
        })
    }

    /// Floor division by a positive constant. Exact stride transfer when
    /// the divisor divides the stride (then every element maps by
    /// `x ↦ ⌊x/c⌋` onto the lattice `stride/c`).
    pub fn floor_div_const(self, c: i64) -> SInt {
        if c <= 0 {
            return SInt::Top;
        }
        match self {
            SInt::Set { lo, hi, stride } => {
                let (dl, dh) = (lo.div_euclid(c), hi.div_euclid(c));
                if stride % c == 0 {
                    SInt::make(dl, dh, (stride / c).max(1))
                } else {
                    SInt::make(dl, dh, 1)
                }
            }
            other => other,
        }
    }

    /// Floor modulo by a positive constant.
    pub fn floor_mod_const(self, c: i64) -> SInt {
        if c <= 0 {
            return SInt::Top;
        }
        match self {
            SInt::Set { lo, hi, stride } => {
                // Whole set in one congruence class of c?
                if stride % c == 0 {
                    return SInt::point(lo.rem_euclid(c));
                }
                // Span fits inside one period without wrapping?
                let base = lo.rem_euclid(c);
                let span = hi.abs_diff(lo);
                if span < (c - base).unsigned_abs() {
                    return SInt::make(base, base + span as i64, stride);
                }
                // General: residues lie on the gcd lattice within [0, c).
                let g = stride_gcd(stride, c);
                SInt::make(lo.rem_euclid(g), c - 1, g)
            }
            other => other,
        }
    }

    /// `f(self, c)` for a provably positive constant divisor `o = {c}`;
    /// [`SInt::Top`] for any other divisor.
    fn by_const(self, o: SInt, f: fn(SInt, i64) -> SInt) -> SInt {
        let divisor = o.as_point().filter(|&c| c >= 1);
        divisor.map_or(SInt::Top, |c| f(self, c))
    }

    /// Element-wise floor division (known only for a positive constant
    /// divisor).
    pub fn floor_div(self, o: SInt) -> SInt {
        self.by_const(o, SInt::floor_div_const)
    }

    /// Element-wise floor modulo (known only for a positive constant
    /// divisor).
    pub fn floor_mod(self, o: SInt) -> SInt {
        self.by_const(o, SInt::floor_mod_const)
    }

    /// Element-wise binary minimum.
    pub fn min_s(self, o: SInt) -> SInt {
        self.bin(o, |a, b, s, c, d, t| {
            SInt::make(a.min(c), b.min(d), common_stride(s, t, a, c))
        })
    }

    /// Element-wise binary maximum.
    pub fn max_s(self, o: SInt) -> SInt {
        self.bin(o, |a, b, s, c, d, t| {
            SInt::make(a.max(c), b.max(d), common_stride(s, t, a, c))
        })
    }

    /// Set union (over-approximated on the stride lattice).
    pub fn union(self, o: SInt) -> SInt {
        match (self, o) {
            (SInt::Empty, x) | (x, SInt::Empty) => x,
            (SInt::Top, _) | (_, SInt::Top) => SInt::Top,
            (
                SInt::Set {
                    lo: a,
                    hi: b,
                    stride: s,
                },
                SInt::Set {
                    lo: c,
                    hi: d,
                    stride: t,
                },
            ) => SInt::make(a.min(c), b.max(d), common_stride(s, t, a, c)),
        }
    }

    /// True if the two sets are *provably* disjoint: separated interval
    /// hulls, or incompatible congruence classes (`lo₁ ≢ lo₂` modulo the
    /// gcd of the strides). Returns `false` whenever disjointness cannot
    /// be established — the caller must treat that as a potential overlap.
    pub fn disjoint(self, o: SInt) -> bool {
        match (self, o) {
            (SInt::Empty, _) | (_, SInt::Empty) => true,
            (SInt::Top, _) | (_, SInt::Top) => false,
            (
                SInt::Set {
                    lo: a,
                    hi: b,
                    stride: s,
                },
                SInt::Set {
                    lo: c,
                    hi: d,
                    stride: t,
                },
            ) => {
                if b < c || d < a {
                    return true;
                }
                a.abs_diff(c) % stride_gcd(s, t).unsigned_abs() != 0
            }
        }
    }

    /// True if every member of `self` is *provably* a member of `o`: a
    /// hull inside `o`'s hull on `o`'s congruence class, at a stride `o`
    /// divides. `false` whenever containment cannot be established —
    /// also for [`SInt::Top`] inside anything but `Top`.
    pub fn subset_of(self, o: SInt) -> bool {
        match (self, o) {
            (SInt::Empty, _) | (_, SInt::Top) => true,
            (_, SInt::Empty) | (SInt::Top, _) => false,
            (
                SInt::Set {
                    lo: a,
                    hi: b,
                    stride: s,
                },
                SInt::Set {
                    lo: c,
                    hi: d,
                    stride: t,
                },
            ) => {
                let t = t.unsigned_abs();
                c <= a && b <= d && a.abs_diff(c) % t == 0 && (a == b || s.unsigned_abs() % t == 0)
            }
        }
    }

    /// `self < o` (strict) or `self ≤ o` over interval hulls: `Some`
    /// when the hulls decide it for every pair of members.
    fn cmp_hulls(self, o: SInt, strict: bool) -> Option<bool> {
        let ((alo, ahi), (blo, bhi)) = (self.hull()?, o.hull()?);
        if (strict && ahi < blo) || (!strict && ahi <= blo) {
            Some(true)
        } else if (strict && alo >= bhi) || (!strict && alo > bhi) {
            Some(false)
        } else {
            None
        }
    }

    /// Three-valued `self < o`: `Some(b)` when it holds (or fails) for
    /// every pair of members, `None` when undecided.
    pub fn lt_s(self, o: SInt) -> Option<bool> {
        self.cmp_hulls(o, true)
    }

    /// Three-valued `self ≤ o`.
    pub fn le_s(self, o: SInt) -> Option<bool> {
        self.cmp_hulls(o, false)
    }

    /// Three-valued `self == o`: decided by two points, or refuted by
    /// provable disjointness.
    pub fn eq_s(self, o: SInt) -> Option<bool> {
        match (self.as_point(), o.as_point()) {
            (Some(x), Some(y)) => Some(x == y),
            _ if self.disjoint(o) => Some(false),
            _ => None,
        }
    }

    /// Three-valued `self != o`.
    pub fn ne_s(self, o: SInt) -> Option<bool> {
        self.eq_s(o).map(|eq| !eq)
    }

    /// The members within `[min, max]` (either bound optional), keeping
    /// the congruence class; `Top` is returned unchanged (it has no
    /// half-bounded form). `None` if the first member at or above `min`
    /// is not computable in `i64` — the caller keeps the wider set.
    pub fn clamp(self, min: Option<i64>, max: Option<i64>) -> Option<SInt> {
        let SInt::Set { lo, hi, stride } = self else {
            return Some(self);
        };
        let new_lo = match min {
            Some(m) if m > lo => {
                let gap = m.checked_sub(lo)?;
                let steps = gap.div_euclid(stride) + i64::from(gap.rem_euclid(stride) != 0);
                lo.checked_add(steps.checked_mul(stride)?)?
            }
            _ => lo,
        };
        let new_hi = match max {
            Some(m) if m < hi => m,
            _ => hi,
        };
        Some(SInt::make(new_lo, new_hi, stride))
    }
}

/// A sound strided interval for `e`: variables take their set from
/// `ranges` (absent means unknown), auxiliary-table loads are unknown
/// (only the verifier, which holds the built tables, can ground them).
pub fn range_of(e: &Expr, ranges: &HashMap<String, SInt>) -> SInt {
    let r = |x: &Expr| range_of(x, ranges);
    match e.kind() {
        ExprKind::Int(v) => SInt::point(*v),
        ExprKind::Var(n) => ranges.get(n).copied().unwrap_or(SInt::Top),
        ExprKind::Bin(op, a, b) => op.apply_sint(r(a), r(b)),
        ExprKind::Select(c, a, b) => match decide(c, ranges) {
            Some(true) => r(a),
            Some(false) => r(b),
            None => r(a).union(r(b)),
        },
        ExprKind::Load(_, _) => SInt::Top,
    }
}

/// Tries to prove `c` always true (`Some(true)`), always false
/// (`Some(false)`), or gives up (`None`), for variables ranging over
/// `ranges`.
///
/// This is the query lowering issues to elide a guard that loop padding
/// makes redundant (§4.1): a guard is dropped only on `Some(true)`.
pub fn decide(c: &Cond, ranges: &HashMap<String, SInt>) -> Option<bool> {
    let r = |x: &Expr| range_of(x, ranges);
    match c.kind() {
        CondKind::Const(b) => Some(*b),
        CondKind::Cmp(op, a, b) => op.apply_sint(r(a), r(b)),
        CondKind::And(a, b) => match (decide(a, ranges), decide(b, ranges)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        CondKind::Or(a, b) => match (decide(a, ranges), decide(b, ranges)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        CondKind::Not(a) => decide(a, ranges).map(|v| !v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(vars: &[(&str, SInt)]) -> HashMap<String, SInt> {
        vars.iter().map(|&(n, r)| (n.to_string(), r)).collect()
    }

    #[test]
    fn arithmetic_ranges() {
        let rm = ranges(&[("i", SInt::range(0, 7))]);
        let e = Expr::var("i") * 4 + 3;
        assert_eq!(range_of(&e, &rm), SInt::make(3, 31, 4));
    }

    #[test]
    fn division_and_modulo_ranges() {
        let rm = ranges(&[("i", SInt::range(0, 9))]);
        let div = Expr::var("i").floor_div(Expr::int(3));
        assert_eq!(range_of(&div, &rm), SInt::range(0, 3));
        let modulo = Expr::var("i").floor_mod(Expr::int(4));
        assert_eq!(range_of(&modulo, &rm), SInt::range(0, 3));
        // A non-constant or non-positive divisor is unknown, not wrong.
        let by_var = Expr::var("i").floor_div(Expr::var("i") + 1);
        assert_eq!(range_of(&by_var, &rm), SInt::Top);
        assert_eq!(SInt::range(0, 9).floor_mod(SInt::point(0)), SInt::Top);
    }

    #[test]
    fn loads_and_undeclared_variables_are_unknown() {
        let rm = ranges(&[("i", SInt::range(0, 3))]);
        let e = Expr::load("ext", Expr::var("i")) + Expr::var("ghost");
        assert_eq!(range_of(&e, &rm), SInt::Top);
        assert_eq!(decide(&Expr::var("i").lt(e), &rm), None);
    }

    #[test]
    fn proves_redundant_bound_check() {
        // i in [0, 32), tile j in [0, 4): i*4 + j < 128 always holds...
        let rm = ranges(&[("i", SInt::range(0, 31)), ("j", SInt::range(0, 3))]);
        let c = (Expr::var("i") * 4 + Expr::var("j")).lt(Expr::int(128));
        assert_eq!(decide(&c, &rm), Some(true));
        // ...but i*4 + j < 100 does not.
        let c2 = (Expr::var("i") * 4 + Expr::var("j")).lt(Expr::int(100));
        assert_eq!(decide(&c2, &rm), None);
    }

    #[test]
    fn elides_guard_proved_by_padding() {
        // Loop padded to a multiple of 4 with storage padded to a multiple
        // of 4: access index i < padded_extent always holds.
        let rm = ranges(&[("i", SInt::range(0, 127))]);
        assert_eq!(decide(&Expr::var("i").lt(Expr::int(128)), &rm), Some(true));
        assert_eq!(decide(&Expr::var("i").lt(Expr::int(100)), &rm), None);
        assert_eq!(decide(&Expr::var("i").le(Expr::int(127)), &rm), Some(true));
    }

    #[test]
    fn proves_false_and_disjoint_eq() {
        let rm = ranges(&[("x", SInt::range(10, 20)), ("y", SInt::range(0, 5))]);
        let (x, y) = (Expr::var("x"), Expr::var("y"));
        assert_eq!(decide(&x.clone().lt(y.clone()), &rm), Some(false));
        assert_eq!(decide(&x.clone().eq_expr(y.clone()), &rm), Some(false));
        let ne = Cond::cmp(crate::CmpOp::Ne, x.clone(), y.clone());
        assert_eq!(decide(&ne, &rm), Some(true));
        // Congruence refutes equality where the hulls overlap.
        let odd = (y.clone() * 2 + 11).eq_expr(x.clone() * 2);
        assert_eq!(decide(&odd, &rm), Some(false));
        // Three-valued connectives.
        let unknown = x.clone().lt(Expr::int(15));
        assert_eq!(decide(&unknown, &rm), None);
        let never = x.lt(y);
        assert_eq!(
            decide(&unknown.clone().and(never.clone()), &rm),
            Some(false)
        );
        assert_eq!(decide(&unknown.clone().or(!never), &rm), Some(true));
        assert_eq!(decide(&!unknown, &rm), None);
    }

    #[test]
    fn select_follows_a_decided_condition() {
        let rm = ranges(&[("i", SInt::range(0, 3))]);
        let pick = |bound| {
            Expr::select(
                Expr::var("i").lt(Expr::int(bound)),
                Expr::int(10),
                Expr::int(20),
            )
        };
        assert_eq!(range_of(&pick(4), &rm), SInt::point(10));
        assert_eq!(range_of(&pick(0), &rm), SInt::point(20));
        assert_eq!(range_of(&pick(2), &rm), SInt::range(10, 20));
    }

    #[test]
    fn strided_interval_arithmetic() {
        // i in [0, 4): 8*i + 3 = {3, 11, 19, 27}.
        let i = SInt::range(0, 3);
        let e = i.mul_const(8).add(SInt::point(3));
        assert_eq!(
            e,
            SInt::Set {
                lo: 3,
                hi: 27,
                stride: 8
            }
        );
        assert!(e.contains(11) && !e.contains(12));
        assert!(!e.contains_run(3, 2) && e.contains_run(19, 1));
        // Dividing by the stride's divisor collapses it exactly.
        assert_eq!(e.floor_div_const(8), SInt::range(0, 3));
        assert_eq!(e.floor_mod_const(8), SInt::point(3));
        assert_eq!(SInt::range(0, 7).floor_mod_const(4), SInt::range(0, 3));
    }

    #[test]
    fn strided_disjointness_by_interval_and_congruence() {
        // Interval separation.
        assert!(SInt::range(0, 9).disjoint(SInt::range(10, 19)));
        // Congruence separation: {0,4,8,...} vs {1,5,9,...} overlap as
        // intervals but never as sets.
        let even4 = SInt::make(0, 100, 4);
        let odd4 = SInt::make(1, 101, 4);
        assert!(even4.disjoint(odd4));
        assert!(!even4.disjoint(SInt::make(2, 102, 2)));
        // Top is never provably disjoint from anything non-empty.
        assert!(!SInt::Top.disjoint(SInt::point(0)));
        assert!(SInt::Empty.disjoint(SInt::Top));
    }

    #[test]
    fn strided_union_and_minmax_keep_congruence() {
        let a = SInt::make(0, 8, 4);
        let b = SInt::make(2, 10, 4);
        // Union: both lie on the even lattice.
        assert_eq!(
            a.union(b),
            SInt::Set {
                lo: 0,
                hi: 10,
                stride: 2
            }
        );
        assert_eq!(a.min_s(b).hull(), Some((0, 8)));
        assert_eq!(a.max_s(b).hull(), Some((2, 10)));
        assert_eq!(SInt::point(5).sub(SInt::point(2)), SInt::point(3));
    }

    #[test]
    fn clamp_keeps_the_congruence_class() {
        let s = SInt::make(1, 21, 4); // {1, 5, 9, 13, 17, 21}
        assert_eq!(s.clamp(Some(6), Some(18)), Some(SInt::make(9, 17, 4)));
        assert_eq!(s.clamp(None, Some(0)), Some(SInt::Empty));
        assert_eq!(SInt::Top.clamp(Some(0), Some(9)), Some(SInt::Top));
        // A first member at or above `min` that is not representable
        // yields `None` (the caller keeps the wider set), never a wrap.
        assert_eq!(SInt::range(-4, 4).clamp(Some(i64::MAX), None), None);
        let thirds = SInt::make(0, i64::MAX - 1, 3);
        assert_eq!(thirds.clamp(Some(i64::MAX), None), None);
        assert_eq!(
            SInt::make(i64::MIN, i64::MIN + 9, 3).clamp(Some(i64::MIN + 4), Some(i64::MIN + 7)),
            Some(SInt::point(i64::MIN + 6))
        );
    }

    // The sets below span (almost) the whole i64 range, so `hi − lo` and
    // `lo₁ − lo₂` do not fit in i64. Each test panicked in debug builds
    // ("attempt to subtract with overflow") and computed a wrapped, wrong
    // answer in release builds before these distances became unsigned.
    const LOW: SInt = SInt::Set {
        lo: i64::MIN,
        hi: i64::MIN + 6,
        stride: 3,
    };
    const HIGH: SInt = SInt::Set {
        lo: i64::MAX - 6,
        hi: i64::MAX,
        stride: 3,
    };

    /// `{MIN, MIN + 3, …, MAX}`: 2⁶⁴ − 1 is a multiple of 3.
    const WIDE: SInt = SInt::Set {
        lo: i64::MIN,
        hi: i64::MAX,
        stride: 3,
    };

    /// Members of both `LOW` and `HIGH`, which every join must keep.
    fn assert_covers_low_and_high(joined: SInt) {
        for v in [i64::MIN, i64::MIN + 3, i64::MAX - 6, i64::MAX] {
            assert!(joined.contains(v), "{joined} lost {v}");
        }
    }

    #[test]
    fn make_does_not_overflow_on_a_full_width_span() {
        assert_eq!(SInt::make(i64::MIN, i64::MAX, 3), WIDE);
        // 2⁶⁴ − 1 ≡ 1 (mod 2): the top member is MAX − 1.
        let even = SInt::make(i64::MIN, i64::MAX, 2);
        assert_eq!(even.hull(), Some((i64::MIN, i64::MAX - 1)));
    }

    #[test]
    fn union_does_not_overflow_on_distant_sets() {
        // |MIN − (MAX − 6)| = 2⁶⁴ − 7 ≡ 0 (mod 3): the stride survives.
        let u = LOW.union(HIGH);
        assert_eq!(u, WIDE);
        assert_covers_low_and_high(u);
        // Shifted by one the classes differ and the stride must drop to 1.
        let shifted = SInt::make(i64::MAX - 5, i64::MAX - 2, 3);
        assert_eq!(
            LOW.union(shifted),
            SInt::range(i64::MIN, i64::MAX - 2),
            "incongruent sets join densely"
        );
    }

    #[test]
    fn min_s_does_not_overflow_on_distant_sets() {
        assert_eq!(LOW.min_s(HIGH), LOW);
        assert_eq!(HIGH.min_s(LOW), LOW);
    }

    #[test]
    fn max_s_does_not_overflow_on_distant_sets() {
        assert_eq!(LOW.max_s(HIGH), HIGH);
        assert_eq!(HIGH.max_s(LOW), HIGH);
    }

    #[test]
    fn disjoint_does_not_overflow_on_distant_sets() {
        // Overlapping hulls whose low ends are 2⁶⁴ − 7 apart.
        assert!(!WIDE.disjoint(HIGH), "MAX − 6 is in both");
        let off = SInt::make(i64::MAX - 5, i64::MAX - 2, 3);
        assert!(WIDE.disjoint(off), "classes differ modulo 3");
    }

    #[test]
    fn floor_mod_const_does_not_overflow_on_a_full_width_span() {
        // Unsound before: the wrapped span made this `Empty`.
        let m = SInt::range(i64::MIN, i64::MAX).floor_mod_const(7);
        assert_eq!(m, SInt::range(0, 6));
        // A divisor near i64::MAX: `base + span` must not overflow either.
        let c = i64::MAX;
        let near = SInt::range(c - 3, c - 1).floor_mod_const(c);
        assert_eq!(near, SInt::range(c - 3, c - 1));
        // {−1, 0, …, 5} mod MAX = {MAX − 1, 0, …, 5}: wraps, so general.
        assert_eq!(SInt::range(-1, 5).floor_mod_const(c), SInt::range(0, c - 1));
    }

    #[test]
    fn subset_holds_only_on_the_containing_class() {
        let rows = SInt::range(10, 40);
        assert!(SInt::range(10, 40).subset_of(rows) && SInt::point(25).subset_of(rows));
        assert!(SInt::make(12, 36, 4).subset_of(rows) && SInt::Empty.subset_of(rows));
        // One element past either end, or unknown, is not contained.
        assert!(!SInt::range(9, 20).subset_of(rows) && !SInt::range(30, 41).subset_of(rows));
        assert!(!SInt::Top.subset_of(rows) && SInt::Top.subset_of(SInt::Top));
        assert!(!rows.subset_of(SInt::Empty));
        // Strided: the class and the stride must both fit.
        let even = SInt::make(0, 20, 2);
        assert!(SInt::make(4, 16, 4).subset_of(even) && SInt::point(8).subset_of(even));
        assert!(!SInt::make(1, 9, 2).subset_of(even) && !SInt::range(4, 6).subset_of(even));
        assert!(!SInt::make(4, 16, 6).subset_of(SInt::make(0, 20, 4)));
        // Full-width hulls neither overflow nor lie.
        assert!(WIDE.subset_of(WIDE) && !WIDE.subset_of(HIGH));
        assert!(SInt::point(i64::MAX).subset_of(WIDE));
    }

    #[test]
    fn membership_does_not_overflow_on_a_full_width_span() {
        assert!(WIDE.contains(i64::MAX) && !WIDE.contains(i64::MAX - 1));
        let dense = SInt::range(i64::MAX - 9, i64::MAX);
        assert!(dense.contains_run(i64::MAX - 3, 4));
        assert!(!dense.contains_run(i64::MAX - 3, 5));
        // Scaling by i64::MIN has no representable stride.
        assert_eq!(SInt::range(0, 1).mul_const(i64::MIN), SInt::Top);
    }
}
