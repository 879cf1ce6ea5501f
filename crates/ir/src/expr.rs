//! Integer scalar expressions.
//!
//! CoRa's lowering manipulates *index expressions*: loop variables, extents,
//! memory offsets. Ragged tensors add one construct absent from dense
//! tensor compilers: [`ExprKind::Load`], a read from a named integer
//! auxiliary buffer. Everything the paper models as an uninterpreted
//! function (§5.1) — the variable loop bound `s(o)`, a row-offset array,
//! the fused-loop maps `ffo`/`ffi` — is such a table, built by the prelude
//! before the kernel runs.
//!
//! Expressions are immutable trees shared through [`std::rc::Rc`]; cloning
//! is O(1).

use std::fmt;
use std::rc::Rc;

use crate::ops::{CmpOp, IBinOp};

/// An integer-valued expression (cheaply cloneable handle).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Expr(pub(crate) Rc<ExprKind>);

/// The operator at the root of an [`Expr`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Named integer variable (loop iteration variable or parameter).
    Var(String),
    /// `op(lhs, rhs)`.
    Bin(IBinOp, Expr, Expr),
    /// `if cond { then_ } else { else_ }`.
    Select(Cond, Expr, Expr),
    /// Read of element `index` from a named integer auxiliary buffer.
    Load(String, Expr),
}

/// A boolean condition over integer expressions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cond(pub(crate) Rc<CondKind>);

/// The operator at the root of a [`Cond`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum CondKind {
    /// Boolean literal.
    Const(bool),
    /// `op(lhs, rhs)`.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Cond, Cond),
    /// Disjunction.
    Or(Cond, Cond),
    /// Negation.
    Not(Cond),
}

impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Self {
        Expr(Rc::new(ExprKind::Int(v)))
    }

    /// Named variable.
    pub fn var(name: impl Into<String>) -> Self {
        Expr(Rc::new(ExprKind::Var(name.into())))
    }

    /// Read from a named integer auxiliary buffer.
    pub fn load(buffer: impl Into<String>, index: Expr) -> Self {
        Expr(Rc::new(ExprKind::Load(buffer.into(), index)))
    }

    /// Conditional select.
    pub fn select(cond: Cond, then_: Expr, else_: Expr) -> Self {
        Expr(Rc::new(ExprKind::Select(cond, then_, else_)))
    }

    /// `op(lhs, rhs)`.
    pub fn bin(op: IBinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr(Rc::new(ExprKind::Bin(op, lhs, rhs)))
    }

    /// Binary minimum.
    pub fn min(self, other: Expr) -> Self {
        Expr::bin(IBinOp::Min, self, other)
    }

    /// Binary maximum.
    pub fn max(self, other: Expr) -> Self {
        Expr::bin(IBinOp::Max, self, other)
    }

    /// Floor division by `other`.
    pub fn floor_div(self, other: Expr) -> Self {
        Expr::bin(IBinOp::FloorDiv, self, other)
    }

    /// Floor modulo by `other`.
    pub fn floor_mod(self, other: Expr) -> Self {
        Expr::bin(IBinOp::FloorMod, self, other)
    }

    /// Ceiling division `ceil(self / other)` expressed with floor division.
    ///
    /// Used pervasively for padded extents: `pad_loop(l, k)` turns extent
    /// `e` into `ceil_div(e, k) * k`.
    pub fn ceil_div(self, other: Expr) -> Self {
        (self + other.clone() - Expr::int(1)).floor_div(other)
    }

    /// Rounds `self` up to the nearest multiple of `multiple`.
    pub fn round_up(self, multiple: Expr) -> Self {
        self.ceil_div(multiple.clone()) * multiple
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Cond {
        Cond::cmp(CmpOp::Lt, self, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Cond {
        Cond::cmp(CmpOp::Le, self, other)
    }

    /// `self == other`.
    pub fn eq_expr(self, other: Expr) -> Cond {
        Cond::cmp(CmpOp::Eq, self, other)
    }

    /// `self != other`.
    pub fn ne_expr(self, other: Expr) -> Cond {
        Cond::cmp(CmpOp::Ne, self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Cond {
        other.lt(self)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Cond {
        other.le(self)
    }

    /// The root operator.
    pub fn kind(&self) -> &ExprKind {
        &self.0
    }

    /// Returns the literal value if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self.kind() {
            ExprKind::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the variable name if this is a variable reference.
    pub fn as_var(&self) -> Option<&str> {
        match self.kind() {
            ExprKind::Var(n) => Some(n),
            _ => None,
        }
    }

    /// True if the expression is the literal `0`.
    pub fn is_zero(&self) -> bool {
        self.as_int() == Some(0)
    }

    /// True if the expression is the literal `1`.
    pub fn is_one(&self) -> bool {
        self.as_int() == Some(1)
    }
}

impl Cond {
    /// Boolean literal.
    pub fn const_bool(v: bool) -> Self {
        Cond(Rc::new(CondKind::Const(v)))
    }

    /// `op(lhs, rhs)`.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Self {
        Cond(Rc::new(CondKind::Cmp(op, lhs, rhs)))
    }

    /// Conjunction.
    pub fn and(self, other: Cond) -> Self {
        Cond(Rc::new(CondKind::And(self, other)))
    }

    /// Disjunction.
    pub fn or(self, other: Cond) -> Self {
        Cond(Rc::new(CondKind::Or(self, other)))
    }

    /// The root operator.
    pub fn kind(&self) -> &CondKind {
        &self.0
    }

    /// Returns the literal value if this is a boolean constant.
    pub fn as_bool(&self) -> Option<bool> {
        match self.kind() {
            CondKind::Const(b) => Some(*b),
            _ => None,
        }
    }
}

/// Negation.
impl std::ops::Not for Cond {
    type Output = Cond;

    fn not(self) -> Cond {
        Cond(Rc::new(CondKind::Not(self)))
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::int(v)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Self {
        Expr::int(v as i64)
    }
}

macro_rules! impl_binop {
    ($trait_:ident, $method:ident) => {
        impl std::ops::$trait_ for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::bin(IBinOp::$trait_, self, rhs)
            }
        }
        impl std::ops::$trait_<i64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: i64) -> Expr {
                Expr::bin(IBinOp::$trait_, self, Expr::int(rhs))
            }
        }
    };
}

impl_binop!(Add, add);
impl_binop!(Sub, sub);
impl_binop!(Mul, mul);

/// Floor division for `i64`: the semantics of [`IBinOp::FloorDiv`].
pub fn floor_div_i64(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0, "division by zero in index arithmetic");
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Floor modulo for `i64`: the semantics of [`IBinOp::FloorMod`]
/// (result has the divisor's sign).
///
/// Computed without the `a - floor_div(a, b) * b` intermediates, which
/// overflow for dividends near `i64::MIN` even though the result always
/// fits.
pub fn floor_mod_i64(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0, "modulo by zero in index arithmetic");
    if b == -1 {
        // Also avoids `i64::MIN.rem_euclid(-1)` overflowing.
        return 0;
    }
    let r = a.rem_euclid(b);
    if r != 0 && b < 0 {
        r + b
    } else {
        r
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExprKind::Int(v) => write!(f, "{v}"),
            ExprKind::Var(n) => write!(f, "{n}"),
            ExprKind::Bin(op, a, b) => op.symbol().write(f, a, b),
            ExprKind::Select(c, a, b) => write!(f, "({c} ? {a} : {b})"),
            ExprKind::Load(buf, idx) => write!(f, "{buf}[{idx}]"),
        }
    }
}

impl fmt::Debug for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            CondKind::Const(b) => write!(f, "{b}"),
            CondKind::Cmp(op, a, b) => op.symbol().write(f, a, b),
            CondKind::And(a, b) => write!(f, "({a} && {b})"),
            CondKind::Or(a, b) => write!(f, "({a} || {b})"),
            CondKind::Not(a) => write!(f, "!{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_structure() {
        let e = (Expr::var("i") * 4 + Expr::var("j")).floor_div(Expr::int(2));
        assert_eq!(format!("{e}"), "(((i*4) + j)/2)");
    }

    #[test]
    fn ceil_div_formula() {
        let e = Expr::var("n").ceil_div(Expr::int(4));
        assert_eq!(format!("{e}"), "(((n + 4) - 1)/4)");
    }

    #[test]
    fn floor_div_matches_mathematical_floor() {
        assert_eq!(floor_div_i64(7, 2), 3);
        assert_eq!(floor_div_i64(-7, 2), -4);
        assert_eq!(floor_div_i64(7, -2), -4);
        assert_eq!(floor_mod_i64(-7, 2), 1);
        assert_eq!(floor_mod_i64(7, 2), 1);
    }

    #[test]
    fn as_int_and_predicates() {
        assert_eq!(Expr::int(3).as_int(), Some(3));
        assert!(Expr::int(0).is_zero());
        assert!(Expr::int(1).is_one());
        assert_eq!(Expr::var("x").as_int(), None);
        assert_eq!(Expr::var("x").as_var(), Some("x"));
    }
}
