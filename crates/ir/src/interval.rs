//! Interval (value-range) analysis over index expressions.
//!
//! Used for bounds inference and for proving conditional checks redundant
//! (so padded loop bodies can elide them, §4.1). Ranges of uninterpreted
//! functions come from their registered [`UfProperties`]; variables get
//! ranges from the loop nest enclosing the expression.
//!
//! [`UfProperties`]: crate::ufunc::UfProperties

use std::collections::HashMap;

use crate::expr::{floor_div_i64, Cond, CondKind, Expr, ExprKind};
use crate::ufunc::UfRegistry;

/// A (possibly half-open) inclusive integer interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interval {
    /// Greatest known lower bound.
    pub min: Option<i64>,
    /// Least known upper bound.
    pub max: Option<i64>,
}

impl Interval {
    /// The unbounded interval.
    pub fn unknown() -> Self {
        Interval::default()
    }

    /// A single point.
    pub fn point(v: i64) -> Self {
        Interval {
            min: Some(v),
            max: Some(v),
        }
    }

    /// A fully known interval `[lo, hi]`.
    pub fn bounded(lo: i64, hi: i64) -> Self {
        Interval {
            min: Some(lo),
            max: Some(hi),
        }
    }

    /// True if both endpoints are known.
    pub fn is_bounded(&self) -> bool {
        self.min.is_some() && self.max.is_some()
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            min: opt2(self.min, o.min, i64::checked_add),
            max: opt2(self.max, o.max, i64::checked_add),
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            min: opt2(self.min, o.max, i64::checked_sub),
            max: opt2(self.max, o.min, i64::checked_sub),
        }
    }

    fn mul(self, o: Interval) -> Interval {
        // Sound only with all four corner products; any unknown endpoint
        // poisons the result.
        match (self.min, self.max, o.min, o.max) {
            (Some(a), Some(b), Some(c), Some(d)) => {
                let cands = [
                    a.checked_mul(c),
                    a.checked_mul(d),
                    b.checked_mul(c),
                    b.checked_mul(d),
                ];
                if cands.iter().any(|c| c.is_none()) {
                    Interval::unknown()
                } else {
                    let vals: Vec<i64> = cands.into_iter().map(Option::unwrap).collect();
                    Interval::bounded(*vals.iter().min().unwrap(), *vals.iter().max().unwrap())
                }
            }
            _ => Interval::unknown(),
        }
    }

    fn floor_div(self, o: Interval) -> Interval {
        match (self.min, self.max, o.min, o.max) {
            // Only the common, well-behaved case: positive constant-range divisor.
            (Some(a), Some(b), Some(c), Some(d)) if c > 0 => {
                let vals = [
                    floor_div_i64(a, c),
                    floor_div_i64(a, d),
                    floor_div_i64(b, c),
                    floor_div_i64(b, d),
                ];
                Interval::bounded(*vals.iter().min().unwrap(), *vals.iter().max().unwrap())
            }
            _ => Interval::unknown(),
        }
    }

    fn floor_mod(self, o: Interval) -> Interval {
        match (o.min, o.max) {
            (Some(c), Some(d)) if c > 0 => Interval::bounded(0, d - 1),
            _ => Interval::unknown(),
        }
    }

    fn min_i(self, o: Interval) -> Interval {
        Interval {
            min: opt2(self.min, o.min, |a, b| Some(a.min(b))),
            max: match (self.max, o.max) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            },
        }
    }

    fn max_i(self, o: Interval) -> Interval {
        Interval {
            min: match (self.min, o.min) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            },
            max: opt2(self.max, o.max, |a, b| Some(a.max(b))),
        }
    }

    fn union(self, o: Interval) -> Interval {
        Interval {
            min: opt2(self.min, o.min, |a, b| Some(a.min(b))),
            max: opt2(self.max, o.max, |a, b| Some(a.max(b))),
        }
    }
}

fn opt2(a: Option<i64>, b: Option<i64>, f: impl Fn(i64, i64) -> Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => f(a, b),
        _ => None,
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A *strided interval*: the abstract value used by the safety verifier's
/// concrete (per-block) pass. `Set { lo, hi, stride }` denotes
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
        // Dense sets (the common case) skip the division.
        let hi = if stride == 1 {
            hi
        } else {
            let span = hi - lo;
            lo + span - span.rem_euclid(stride)
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
            SInt::Set { lo, hi, stride } => lo <= v && v <= hi && (v - lo).rem_euclid(stride) == 0,
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
            SInt::Set { lo, hi, stride } => stride == 1 && lo <= run_lo && run_lo + n - 1 <= hi,
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
                        gcd(s, t)
                    };
                    SInt::make(lo, hi, stride.max(1))
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
                let s = stride.checked_mul(c.abs());
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
    /// the divisor divides the stride *and* the phase (then every element
    /// maps by `x ↦ x/c` bijectively onto the lattice `stride/c`).
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
                if hi - lo < c && base + (hi - lo) < c {
                    return SInt::make(base, base + (hi - lo), stride);
                }
                // General: residues lie on the gcd lattice within [0, c).
                let g = gcd(stride, c);
                let first = lo.rem_euclid(g);
                SInt::make(first, c - 1, g.max(1))
            }
            other => other,
        }
    }

    /// Element-wise binary minimum.
    pub fn min_s(self, o: SInt) -> SInt {
        self.bin(o, |a, b, s, c, d, t| {
            SInt::make(a.min(c), b.min(d), gcd(gcd(s, t), (a - c).abs()).max(1))
        })
    }

    /// Element-wise binary maximum.
    pub fn max_s(self, o: SInt) -> SInt {
        self.bin(o, |a, b, s, c, d, t| {
            SInt::make(a.max(c), b.max(d), gcd(gcd(s, t), (a - c).abs()).max(1))
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
            ) => SInt::make(a.min(c), b.max(d), gcd(gcd(s, t), (a - c).abs()).max(1)),
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
                (a - c).rem_euclid(gcd(s, t).max(1)) != 0
            }
        }
    }
}

/// Variable-range context for interval analysis.
#[derive(Debug, Default, Clone)]
pub struct RangeMap {
    ranges: HashMap<String, Interval>,
}

impl RangeMap {
    /// Creates an empty range map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares that `var` ranges over `interval`.
    pub fn set(&mut self, var: impl Into<String>, interval: Interval) {
        self.ranges.insert(var.into(), interval);
    }

    /// Declares the half-open loop range `var in [0, extent)`.
    pub fn set_loop(&mut self, var: impl Into<String>, extent_hi: i64) {
        self.set(var, Interval::bounded(0, extent_hi - 1));
    }

    /// Range of `var`, unbounded if undeclared.
    pub fn get(&self, var: &str) -> Interval {
        self.ranges.get(var).copied().unwrap_or_default()
    }
}

/// Computes a sound interval for `e`.
pub fn infer(e: &Expr, ranges: &RangeMap, reg: &UfRegistry) -> Interval {
    match e.kind() {
        ExprKind::Int(v) => Interval::point(*v),
        ExprKind::Var(n) => ranges.get(n),
        ExprKind::Add(a, b) => infer(a, ranges, reg).add(infer(b, ranges, reg)),
        ExprKind::Sub(a, b) => infer(a, ranges, reg).sub(infer(b, ranges, reg)),
        ExprKind::Mul(a, b) => infer(a, ranges, reg).mul(infer(b, ranges, reg)),
        ExprKind::FloorDiv(a, b) => infer(a, ranges, reg).floor_div(infer(b, ranges, reg)),
        ExprKind::FloorMod(a, b) => infer(a, ranges, reg).floor_mod(infer(b, ranges, reg)),
        ExprKind::Min(a, b) => infer(a, ranges, reg).min_i(infer(b, ranges, reg)),
        ExprKind::Max(a, b) => infer(a, ranges, reg).max_i(infer(b, ranges, reg)),
        ExprKind::Select(_, a, b) => infer(a, ranges, reg).union(infer(b, ranges, reg)),
        ExprKind::Uf(f, _) => match reg.properties(f.name()) {
            Some(p) => Interval {
                min: p.min_value,
                max: p.max_value,
            },
            None => Interval::unknown(),
        },
        ExprKind::Load(_, _) => Interval::unknown(),
    }
}

/// Tries to prove `c` always true (`Some(true)`), always false
/// (`Some(false)`), or gives up (`None`).
pub fn prove(c: &Cond, ranges: &RangeMap, reg: &UfRegistry) -> Option<bool> {
    match c.kind() {
        CondKind::Const(b) => Some(*b),
        CondKind::Lt(a, b) => prove_lt(a, b, ranges, reg),
        CondKind::Le(a, b) => {
            // a <= b  <=>  a < b + 1
            prove_lt(&(a.clone() + 1), &(b.clone() + 1 - 0), ranges, reg)
                .or_else(|| prove_lt(a, &(b.clone() + 1), ranges, reg))
        }
        CondKind::Eq(a, b) => {
            let ia = infer(a, ranges, reg);
            let ib = infer(b, ranges, reg);
            if let (Some(x), Some(y)) = (ia.min, ia.max) {
                if x == y {
                    if let (Some(u), Some(v)) = (ib.min, ib.max) {
                        if u == v {
                            return Some(x == u);
                        }
                    }
                }
            }
            // Disjoint ranges prove inequality.
            if disjoint(ia, ib) {
                return Some(false);
            }
            None
        }
        CondKind::Ne(a, b) => prove(&a.clone().eq_expr(b.clone()), ranges, reg).map(|v| !v),
        CondKind::And(a, b) => match (prove(a, ranges, reg), prove(b, ranges, reg)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        CondKind::Or(a, b) => match (prove(a, ranges, reg), prove(b, ranges, reg)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        CondKind::Not(a) => prove(a, ranges, reg).map(|v| !v),
    }
}

fn prove_lt(a: &Expr, b: &Expr, ranges: &RangeMap, reg: &UfRegistry) -> Option<bool> {
    let ia = infer(a, ranges, reg);
    let ib = infer(b, ranges, reg);
    if let (Some(amax), Some(bmin)) = (ia.max, ib.min) {
        if amax < bmin {
            return Some(true);
        }
    }
    if let (Some(amin), Some(bmax)) = (ia.min, ib.max) {
        if amin >= bmax {
            return Some(false);
        }
    }
    None
}

fn disjoint(a: Interval, b: Interval) -> bool {
    matches!((a.max, b.min), (Some(x), Some(y)) if x < y)
        || matches!((b.max, a.min), (Some(x), Some(y)) if x < y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ufunc::{UfProperties, UfRef, UfRegistry};

    #[test]
    fn arithmetic_ranges() {
        let mut rm = RangeMap::new();
        rm.set_loop("i", 8);
        let reg = UfRegistry::new();
        let e = Expr::var("i") * 4 + 3;
        assert_eq!(infer(&e, &rm, &reg), Interval::bounded(3, 31));
    }

    #[test]
    fn division_and_modulo_ranges() {
        let mut rm = RangeMap::new();
        rm.set_loop("i", 10);
        let reg = UfRegistry::new();
        assert_eq!(
            infer(&Expr::var("i").floor_div(Expr::int(3)), &rm, &reg),
            Interval::bounded(0, 3)
        );
        assert_eq!(
            infer(&Expr::var("i").floor_mod(Expr::int(4)), &rm, &reg),
            Interval::bounded(0, 3)
        );
    }

    #[test]
    fn uf_ranges_from_registry() {
        let mut reg = UfRegistry::new();
        let s = UfRef::new("s", 1);
        reg.register(
            &s,
            UfProperties {
                min_value: Some(1),
                max_value: Some(128),
                ..Default::default()
            },
        );
        let rm = RangeMap::new();
        let e = Expr::uf(s, vec![Expr::var("o")]);
        assert_eq!(infer(&e, &rm, &reg), Interval::bounded(1, 128));
    }

    #[test]
    fn proves_redundant_bound_check() {
        // i in [0, 32), tile j in [0, 4): i*4 + j < 128 always holds...
        let mut rm = RangeMap::new();
        rm.set_loop("i", 32);
        rm.set_loop("j", 4);
        let reg = UfRegistry::new();
        let c = (Expr::var("i") * 4 + Expr::var("j")).lt(Expr::int(128));
        assert_eq!(prove(&c, &rm, &reg), Some(true));
        // ...but i*4 + j < 100 does not.
        let c2 = (Expr::var("i") * 4 + Expr::var("j")).lt(Expr::int(100));
        assert_eq!(prove(&c2, &rm, &reg), None);
    }

    #[test]
    fn proves_false_and_disjoint_eq() {
        let mut rm = RangeMap::new();
        rm.set("x", Interval::bounded(10, 20));
        rm.set("y", Interval::bounded(0, 5));
        let reg = UfRegistry::new();
        assert_eq!(
            prove(&Expr::var("x").lt(Expr::var("y")), &rm, &reg),
            Some(false)
        );
        assert_eq!(
            prove(&Expr::var("x").eq_expr(Expr::var("y")), &rm, &reg),
            Some(false)
        );
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
    fn le_via_lt_rewrite() {
        let mut rm = RangeMap::new();
        rm.set_loop("i", 4);
        let reg = UfRegistry::new();
        assert_eq!(
            prove(&Expr::var("i").le(Expr::int(3)), &rm, &reg),
            Some(true)
        );
    }
}
