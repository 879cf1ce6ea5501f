//! Floating-point value expressions for kernel bodies.
//!
//! Index arithmetic lives in [`crate::expr::Expr`]; the *values* flowing
//! through a kernel body (loads, arithmetic, transcendentals used by
//! softmax/layernorm/GELU) live here. The split mirrors tensor-compiler IRs
//! where address computation and payload computation are distinct types.

use std::fmt;
use std::rc::Rc;

use crate::expr::{Cond, Expr};
use crate::ops::{FBinOp, FUnaryOp};

/// A `f32`-valued expression (cheaply cloneable handle).
#[derive(Clone, PartialEq)]
pub struct FExpr(pub(crate) Rc<FExprKind>);

/// The operator at the root of an [`FExpr`].
#[derive(Clone, PartialEq)]
pub enum FExprKind {
    /// Floating literal.
    Const(f32),
    /// Read of element `index` (an integer [`Expr`]) from a float buffer.
    Load(String, Expr),
    /// Cast of an integer index expression to `f32`.
    Cast(Expr),
    /// `op(lhs, rhs)`.
    Bin(FBinOp, FExpr, FExpr),
    /// Unary intrinsic call.
    Unary(FUnaryOp, FExpr),
    /// `if cond { then_ } else { else_ }` on an index condition.
    Select(Cond, FExpr, FExpr),
}

impl FExpr {
    /// Floating literal.
    pub fn constant(v: f32) -> Self {
        FExpr(Rc::new(FExprKind::Const(v)))
    }

    /// Load `buffer[index]`.
    pub fn load(buffer: impl Into<String>, index: Expr) -> Self {
        FExpr(Rc::new(FExprKind::Load(buffer.into(), index)))
    }

    /// Cast an index expression to `f32`.
    pub fn cast(index: Expr) -> Self {
        FExpr(Rc::new(FExprKind::Cast(index)))
    }

    /// `op(lhs, rhs)`.
    pub fn bin(op: FBinOp, lhs: FExpr, rhs: FExpr) -> Self {
        FExpr(Rc::new(FExprKind::Bin(op, lhs, rhs)))
    }

    /// Binary maximum.
    pub fn max(self, other: FExpr) -> Self {
        FExpr::bin(FBinOp::Max, self, other)
    }

    /// Applies a unary intrinsic.
    pub fn unary(self, op: FUnaryOp) -> Self {
        FExpr(Rc::new(FExprKind::Unary(op, self)))
    }

    /// `e^self`.
    pub fn exp(self) -> Self {
        self.unary(FUnaryOp::Exp)
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Self {
        self.unary(FUnaryOp::Sqrt)
    }

    /// Conditional select on an index condition.
    pub fn select(cond: Cond, then_: FExpr, else_: FExpr) -> Self {
        FExpr(Rc::new(FExprKind::Select(cond, then_, else_)))
    }

    /// The root operator.
    pub fn kind(&self) -> &FExprKind {
        &self.0
    }
}

impl From<f32> for FExpr {
    fn from(v: f32) -> Self {
        FExpr::constant(v)
    }
}

macro_rules! impl_fbinop {
    ($trait_:ident, $method:ident) => {
        impl std::ops::$trait_ for FExpr {
            type Output = FExpr;
            fn $method(self, rhs: FExpr) -> FExpr {
                FExpr::bin(FBinOp::$trait_, self, rhs)
            }
        }
        impl std::ops::$trait_<f32> for FExpr {
            type Output = FExpr;
            fn $method(self, rhs: f32) -> FExpr {
                FExpr::bin(FBinOp::$trait_, self, FExpr::constant(rhs))
            }
        }
    };
}

impl_fbinop!(Add, add);
impl_fbinop!(Sub, sub);
impl_fbinop!(Mul, mul);
impl_fbinop!(Div, div);

impl fmt::Debug for FExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for FExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            FExprKind::Const(v) => write!(f, "{v:?}f"),
            FExprKind::Load(buf, idx) => write!(f, "{buf}[{idx}]"),
            FExprKind::Cast(e) => write!(f, "(float){e}"),
            FExprKind::Bin(op, a, b) => op.symbol().write(f, a, b),
            FExprKind::Unary(op, a) => {
                let (before, after) = op.symbol();
                write!(f, "{before}{a}{after}")
            }
            FExprKind::Select(c, a, b) => write!(f, "({c} ? {a} : {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = FExpr::load("A", Expr::var("i")) * 2.0 + 1.0;
        assert_eq!(format!("{e}"), "((A[i]*2.0f) + 1.0f)");
        let s = FExpr::load("x", Expr::int(0)).exp();
        assert_eq!(format!("{s}"), "expf(x[0])");
    }

    #[test]
    fn unary_display_forms() {
        let x = FExpr::load("x", Expr::int(0));
        let forms: Vec<String> = FUnaryOp::ALL
            .iter()
            .map(|&op| x.clone().unary(op).to_string())
            .collect();
        let want = [
            "(-x[0])",
            "expf(x[0])",
            "sqrtf(x[0])",
            "(1.0f/x[0])",
            "tanhf(x[0])",
            "fmaxf(x[0], 0.0f)",
        ];
        assert_eq!(forms, want);
        assert_eq!(format!("{}", x.clone().max(x)), "fmaxf(x[0], x[0])");
    }
}
