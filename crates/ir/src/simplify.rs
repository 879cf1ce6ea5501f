//! Algebraic simplification of index expressions and conditions.
//!
//! Where the paper hands expressions to Z3 (§B.2), we apply a terminating
//! bottom-up rewriter. It covers the query shapes CoRa's lowering produces:
//! constant folding, neutral/absorbing elements, floor-division
//! cancellation and min/max collapsing. (The paper's fused-loop axioms
//! need no rewrite rule here: lowering reads `ffo`/`ffi` as prelude-built
//! tables, so `ffo(foif(o, i))` never appears as a term.)
//!
//! Every rule is semantics-preserving; `proptest` checks random expressions
//! evaluate identically before and after simplification.

use std::ops::Not;

use crate::expr::{floor_div_i64, floor_mod_i64, Cond, CondKind, Expr, ExprKind};
use crate::ops::{CmpOp, IBinOp};
use crate::visit::map_expr;

/// Simplifies `e` bottom-up.
pub fn simplify(e: &Expr) -> Expr {
    match e.kind() {
        ExprKind::Bin(op, a, b) => {
            let (a, b) = (simplify(a), simplify(b));
            match op {
                IBinOp::Add => simplify_add(a, b),
                IBinOp::Sub => simplify_sub(a, b),
                IBinOp::Mul => simplify_mul(a, b),
                IBinOp::FloorDiv => simplify_div(a, b),
                IBinOp::FloorMod => simplify_mod(a, b),
                IBinOp::Min | IBinOp::Max => match (a.as_int(), b.as_int()) {
                    (Some(x), Some(y)) => Expr::int(op.apply(x, y)),
                    _ if a == b => a,
                    _ => Expr::bin(*op, a, b),
                },
            }
        }
        ExprKind::Select(c, a, b) => {
            let c = simplify_cond(c);
            let (a, b) = (simplify(a), simplify(b));
            match c.as_bool() {
                Some(true) => a,
                Some(false) => b,
                None if a == b => a,
                None => Expr::select(c, a, b),
            }
        }
        ExprKind::Int(_) | ExprKind::Var(_) | ExprKind::Load(..) => map_expr(e, &mut simplify),
    }
}

/// Simplifies a condition bottom-up.
pub fn simplify_cond(c: &Cond) -> Cond {
    match c.kind() {
        CondKind::Const(_) => c.clone(),
        CondKind::Cmp(op, a, b) => {
            let (a, b) = (simplify(a), simplify(b));
            match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => Cond::const_bool(op.apply(x, y)),
                _ if a == b && *op == CmpOp::Eq => Cond::const_bool(true),
                _ if a == b && *op == CmpOp::Ne => Cond::const_bool(false),
                _ => Cond::cmp(*op, a, b),
            }
        }
        CondKind::And(a, b) => {
            let (a, b) = (simplify_cond(a), simplify_cond(b));
            match (a.as_bool(), b.as_bool()) {
                (Some(false), _) | (_, Some(false)) => Cond::const_bool(false),
                (Some(true), _) => b,
                (_, Some(true)) => a,
                _ => a.and(b),
            }
        }
        CondKind::Or(a, b) => {
            let (a, b) = (simplify_cond(a), simplify_cond(b));
            match (a.as_bool(), b.as_bool()) {
                (Some(true), _) | (_, Some(true)) => Cond::const_bool(true),
                (Some(false), _) => b,
                (_, Some(false)) => a,
                _ => a.or(b),
            }
        }
        CondKind::Not(a) => {
            let a = simplify_cond(a);
            match a.as_bool() {
                Some(v) => Cond::const_bool(!v),
                None => a.not(),
            }
        }
    }
}

// Constant folding uses checked arithmetic throughout: adversarial
// constants near `i64::MAX`/`i64::MIN` must leave the node unsimplified
// instead of panicking in debug builds (or silently wrapping in release).

fn simplify_add(a: Expr, b: Expr) -> Expr {
    match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => {
            if let Some(v) = x.checked_add(y) {
                return Expr::int(v);
            }
        }
        (Some(0), _) => return b,
        (_, Some(0)) => return a,
        _ => {}
    }
    // (x + c1) + c2 -> x + (c1+c2): keeps offset chains shallow.
    if let (ExprKind::Bin(IBinOp::Add, x, c1), Some(c2)) = (a.kind(), b.as_int()) {
        if let Some(c) = c1.as_int().and_then(|c1v| c1v.checked_add(c2)) {
            return simplify_add(x.clone(), Expr::int(c));
        }
    }
    a + b
}

fn simplify_sub(a: Expr, b: Expr) -> Expr {
    if a == b {
        return Expr::int(0);
    }
    match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => match x.checked_sub(y) {
            Some(v) => Expr::int(v),
            None => a - b,
        },
        (_, Some(0)) => a,
        _ => a - b,
    }
}

fn simplify_mul(a: Expr, b: Expr) -> Expr {
    match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => {
            if let Some(v) = x.checked_mul(y) {
                return Expr::int(v);
            }
        }
        (Some(0), _) | (_, Some(0)) => return Expr::int(0),
        (Some(1), _) => return b,
        (_, Some(1)) => return a,
        _ => {}
    }
    a * b
}

fn simplify_div(a: Expr, b: Expr) -> Expr {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        // `i64::MIN / -1` is the one overflowing division.
        if y != 0 && !(x == i64::MIN && y == -1) {
            return Expr::int(floor_div_i64(x, y));
        }
    }
    if b.is_one() {
        return a;
    }
    if a.is_zero() {
        return Expr::int(0);
    }
    // (x * c) / c -> x for positive constant c.
    if let (ExprKind::Bin(IBinOp::Mul, x, c1), Some(c)) = (a.kind(), b.as_int()) {
        if c > 0 && c1.as_int() == Some(c) {
            return x.clone();
        }
    }
    // (x*c1 + r) / c2 where c2 | c1 and 0 <= r < c2 cannot be proven
    // without ranges; `interval::range_of` bounds it instead.
    a.floor_div(b)
}

fn simplify_mod(a: Expr, b: Expr) -> Expr {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        // floor_mod_i64 is overflow-free for every non-zero divisor.
        if y != 0 {
            return Expr::int(floor_mod_i64(x, y));
        }
    }
    if b.is_one() {
        return Expr::int(0);
    }
    if a.is_zero() {
        return Expr::int(0);
    }
    // (x * c) % c -> 0 for positive constant c.
    if let (ExprKind::Bin(IBinOp::Mul, _, c1), Some(c)) = (a.kind(), b.as_int()) {
        if c > 0 && c1.as_int() == Some(c) {
            return Expr::int(0);
        }
    }
    a.floor_mod(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_constants() {
        let e = (Expr::int(3) + 4) * 2 - 1;
        assert_eq!(simplify(&e).as_int(), Some(13));
    }

    #[test]
    // `x * 0` is the point of the test: the simplifier must erase it.
    #[allow(clippy::erasing_op)]
    fn neutral_elements() {
        let x = Expr::var("x");
        assert_eq!(simplify(&(x.clone() + 0)), x);
        assert_eq!(simplify(&(x.clone() * 1)), x);
        assert_eq!(simplify(&(x.clone() * 0)).as_int(), Some(0));
        assert_eq!(simplify(&(x.clone() - x.clone())).as_int(), Some(0));
    }

    #[test]
    fn mul_div_cancellation() {
        let x = Expr::var("x");
        let e = (x.clone() * 8).floor_div(Expr::int(8));
        assert_eq!(simplify(&e), x);
        let m = (Expr::var("x") * 8).floor_mod(Expr::int(8));
        assert_eq!(simplify(&m).as_int(), Some(0));
    }

    #[test]
    fn overflowing_constants_stay_unfolded() {
        assert_eq!(simplify(&(Expr::int(i64::MAX) + 1)).as_int(), None);
        assert_eq!(simplify(&(Expr::int(i64::MIN) - 1)).as_int(), None);
        assert_eq!(simplify(&(Expr::int(i64::MAX) * 2)).as_int(), None);
        let d = Expr::int(i64::MIN).floor_div(Expr::int(-1));
        assert_eq!(simplify(&d).as_int(), None);
        // Modulo is total for non-zero divisors: MIN % -1 folds to 0.
        let m = Expr::int(i64::MIN).floor_mod(Expr::int(-1));
        assert_eq!(simplify(&m).as_int(), Some(0));
        let m2 = Expr::int(i64::MIN).floor_mod(Expr::int(3));
        assert_eq!(simplify(&m2).as_int(), Some(floor_mod_i64(i64::MIN, 3)));
        // The (x + c1) + c2 reassociation must also refuse to overflow.
        let r = simplify(&((Expr::var("x") + i64::MAX) + 1));
        assert_eq!(format!("{r}"), "((x + 9223372036854775807) + 1)");
    }

    #[test]
    fn add_chain_reassociation() {
        let e = (Expr::var("x") + 3) + 4;
        assert_eq!(format!("{}", simplify(&e)), "(x + 7)");
    }

    #[test]
    fn select_with_constant_condition() {
        let e = Expr::select(
            Expr::int(1).lt(Expr::int(2)),
            Expr::var("a"),
            Expr::var("b"),
        );
        assert_eq!(simplify(&e), Expr::var("a"));
    }

    #[test]
    fn cond_simplification() {
        let t = Expr::int(1).lt(Expr::int(2));
        let u = Expr::var("x").lt(Expr::var("y"));
        assert_eq!(simplify_cond(&t.clone().and(u.clone())), simplify_cond(&u));
        assert_eq!(simplify_cond(&t.or(u)).as_bool(), Some(true));
        let same = Expr::var("x").eq_expr(Expr::var("x"));
        assert_eq!(simplify_cond(&same).as_bool(), Some(true));
    }
}
