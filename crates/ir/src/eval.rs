//! Concrete evaluation of expressions and conditions.
//!
//! Evaluation resolves variables and auxiliary-buffer loads. It is the
//! semantic ground truth the simplifier and the interval analysis are
//! property-tested against.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{Cond, CondKind, Expr, ExprKind};

/// A concrete environment binding everything an [`Expr`] can reference.
#[derive(Debug, Default, Clone)]
pub struct Env {
    vars: HashMap<String, i64>,
    /// Shared handles, so binding a built prelude table copies nothing.
    bufs: HashMap<String, Arc<[i64]>>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds variable `name` to `value`, returning the previous binding.
    pub fn bind(&mut self, name: impl Into<String>, value: i64) -> Option<i64> {
        self.vars.insert(name.into(), value)
    }

    /// Removes the binding for `name`.
    pub fn unbind(&mut self, name: &str) {
        self.vars.remove(name);
    }

    /// Current value of variable `name`, if bound.
    pub fn lookup(&self, name: &str) -> Option<i64> {
        self.vars.get(name).copied()
    }

    /// Installs an integer auxiliary buffer (an owned `Vec<i64>`, or a
    /// shared `Arc<[i64]>` handle, which is bound without copying).
    pub fn set_buffer(&mut self, name: impl Into<String>, data: impl Into<Arc<[i64]>>) {
        self.bufs.insert(name.into(), data.into());
    }

    /// Reads an auxiliary buffer.
    pub fn buffer(&self, name: &str) -> Option<&[i64]> {
        self.bufs.get(name).map(|v| &**v)
    }

    /// Iterates over every bound variable.
    pub fn vars(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.vars.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// Iterates over every installed auxiliary buffer.
    pub fn buffers(&self) -> impl Iterator<Item = (&str, &[i64])> + '_ {
        self.bufs.iter().map(|(n, v)| (n.as_str(), &**v))
    }

    /// Evaluates `e` in this environment.
    ///
    /// # Panics
    ///
    /// Panics on unbound variables, missing buffers, out-of-bounds
    /// loads, or division by zero — all of which indicate a lowering bug,
    /// not a user error.
    pub fn eval(&self, e: &Expr) -> i64 {
        match e.kind() {
            ExprKind::Int(v) => *v,
            ExprKind::Var(n) => self
                .lookup(n)
                .unwrap_or_else(|| panic!("unbound variable `{n}` during evaluation")),
            ExprKind::Bin(op, a, b) => op.apply(self.eval(a), self.eval(b)),
            ExprKind::Select(c, a, b) => {
                if self.eval_cond(c) {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            ExprKind::Load(buf, idx) => {
                let i = self.eval(idx);
                let data = self
                    .buffer(buf)
                    .unwrap_or_else(|| panic!("missing auxiliary buffer `{buf}`"));
                let iu = usize::try_from(i)
                    .unwrap_or_else(|_| panic!("negative index {i} into buffer `{buf}`"));
                data[iu]
            }
        }
    }

    /// Evaluates condition `c` in this environment.
    pub fn eval_cond(&self, c: &Cond) -> bool {
        match c.kind() {
            CondKind::Const(b) => *b,
            CondKind::Cmp(op, a, b) => op.apply(self.eval(a), self.eval(b)),
            CondKind::And(a, b) => self.eval_cond(a) && self.eval_cond(b),
            CondKind::Or(a, b) => self.eval_cond(a) || self.eval_cond(b),
            CondKind::Not(a) => !self.eval_cond(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_vars() {
        let mut env = Env::new();
        env.bind("i", 5);
        let e = (Expr::var("i") * 3 + 1).floor_div(Expr::int(2));
        assert_eq!(env.eval(&e), 8);
    }

    #[test]
    fn select_and_conditions() {
        let mut env = Env::new();
        env.bind("x", 2);
        let c = Expr::var("x").lt(Expr::int(3));
        let e = Expr::select(c, Expr::int(10), Expr::int(20));
        assert_eq!(env.eval(&e), 10);
    }

    #[test]
    fn extent_and_offset_loads() {
        let mut env = Env::new();
        env.set_buffer("s", vec![4, 1, 7]);
        env.set_buffer("row_idx", vec![0, 4, 5]);
        env.bind("o", 2);
        let e = Expr::load("s", Expr::var("o")) + Expr::load("row_idx", Expr::var("o") - 1);
        assert_eq!(env.eval(&e), 7 + 4);
    }

    #[test]
    fn ceil_div_semantics() {
        let env = Env::new();
        for n in 0..30i64 {
            for k in 1..6i64 {
                let e = Expr::int(n).ceil_div(Expr::int(k));
                assert_eq!(env.eval(&e), (n + k - 1).div_euclid(k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        Env::new().eval(&Expr::var("ghost"));
    }
}
