//! Symbolic affine forms over index expressions — the verifier's
//! symbolic domain.
//!
//! A [`LinForm`] is `c₀ + Σ cᵢ·tᵢ` where each term `tᵢ` is either a
//! variable or an *opaque* non-affine subexpression (an auxiliary-table
//! load such as a ragged extent, a flooring division, a select, …)
//! kept as-is and identified by its canonical print. Linearization is
//! total: anything that is not affine folds into an opaque term, so the
//! form is always a sound *equality* — the precision question is only
//! how much structure stays visible.
//!
//! The disjoint-store prover (`cora_core::verify`) uses linear forms
//! two ways:
//!
//! * **block-coefficient analysis** — a store index whose linearization
//!   has block-variable coefficient 0 *and* no opaque term mentioning the
//!   block variable is provably block-invariant: every block writes the
//!   same cells, a definite contract violation regardless of shapes;
//! * **interval/congruence separation** — when every term is a loop
//!   variable with a known constant range, `|c_b| >` (width of the
//!   non-block part) separates distinct blocks' index intervals. This is
//!   where the divisibility structure `Schedule::split` introduces
//!   (`v = v_o·f + v_i`) pays off: the factors appear as coefficients.
//!
//! Opaque-term identity is *syntactic* (same print ⇒ same term). That is
//! sound only while a name means one thing throughout the analyzed
//! scope; callers analyzing statements with shadowed bindings must fall
//! back to a scoped (concrete) pass.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::expr::{Expr, ExprKind};
use crate::ops::IBinOp;
use crate::visit::{mentions, Node};

/// One non-constant term of a [`LinForm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinTerm {
    /// A scalar integer variable.
    Var(String),
    /// A non-affine subexpression kept opaque (load, division, select…).
    Opaque(Expr),
}

impl LinTerm {
    /// Canonical key: the term's pretty-print. Variable names cannot
    /// collide with opaque prints (opaque heads always print brackets,
    /// parentheses or calls).
    pub fn key(&self) -> String {
        match self {
            LinTerm::Var(n) => n.clone(),
            LinTerm::Opaque(e) => format!("{e}"),
        }
    }

    /// True if the term's value can depend on `var`.
    pub fn mentions(&self, var: &str) -> bool {
        match self {
            LinTerm::Var(n) => n == var,
            LinTerm::Opaque(e) => mentions(Node::Expr(e), var),
        }
    }
}

/// An affine form `constant + Σ coeff·term` with canonicalized,
/// deduplicated terms (zero coefficients are dropped).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinForm {
    terms: BTreeMap<String, (LinTerm, i64)>,
    constant: i64,
}

impl LinForm {
    /// The constant form.
    pub fn constant(c: i64) -> LinForm {
        LinForm {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The form `1·term`.
    pub fn term(t: LinTerm) -> LinForm {
        let mut f = LinForm::default();
        f.add_term(t, 1);
        f
    }

    /// The constant part `c₀`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// True if the form is a bare constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The non-constant terms with their coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (&LinTerm, i64)> {
        self.terms.values().map(|(t, c)| (t, *c))
    }

    /// Coefficient of the variable `var` (0 if absent).
    pub fn coeff_of(&self, var: &str) -> i64 {
        self.terms.get(var).map_or(0, |(_, c)| *c)
    }

    /// Removes `var`'s own linear term, returning its coefficient.
    /// Opaque terms mentioning `var` are untouched (check
    /// [`LinTerm::mentions`] over the remaining [`LinForm::terms`] to see
    /// whether the rest is truly `var`-free).
    pub fn remove_var(&mut self, var: &str) -> i64 {
        self.terms.remove(var).map_or(0, |(_, c)| c)
    }

    fn add_term(&mut self, t: LinTerm, c: i64) {
        if c == 0 {
            return;
        }
        let key = t.key();
        let entry = self.terms.entry(key.clone()).or_insert((t, 0));
        entry.1 = entry.1.saturating_add(c);
        if entry.1 == 0 {
            self.terms.remove(&key);
        }
    }

    /// `self + o`.
    #[allow(clippy::should_implement_trait)] // abstract-domain op, not std::ops
    pub fn add(mut self, o: &LinForm) -> LinForm {
        self.constant = self.constant.saturating_add(o.constant);
        for (t, c) in o.terms() {
            self.add_term(t.clone(), c);
        }
        self
    }

    /// `self - o`.
    #[allow(clippy::should_implement_trait)] // abstract-domain op, not std::ops
    pub fn sub(mut self, o: &LinForm) -> LinForm {
        self.constant = self.constant.saturating_sub(o.constant);
        for (t, c) in o.terms() {
            self.add_term(t.clone(), c.saturating_neg());
        }
        self
    }

    /// `self · c`.
    pub fn scale(mut self, c: i64) -> LinForm {
        if c == 0 {
            return LinForm::constant(0);
        }
        self.constant = self.constant.saturating_mul(c);
        let mut scaled = LinForm::constant(self.constant);
        for (_, (t, k)) in std::mem::take(&mut self.terms) {
            scaled.add_term(t, k.saturating_mul(c));
        }
        scaled
    }
}

impl fmt::Display for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (t, c) in self.terms() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            if c == 1 {
                write!(f, "{}", t.key())?;
            } else {
                write!(f, "{}·{}", c, t.key())?;
            }
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// Linearizes `e` into an affine form, substituting let-bound variables
/// through `binds` (map variable → its value's form). Total: non-affine
/// structure folds into [`LinTerm::Opaque`] terms.
pub fn linearize(e: &Expr, binds: &HashMap<String, LinForm>) -> LinForm {
    match e.kind() {
        ExprKind::Int(v) => LinForm::constant(*v),
        ExprKind::Var(n) => match binds.get(n) {
            Some(f) => f.clone(),
            None => LinForm::term(LinTerm::Var(n.clone())),
        },
        ExprKind::Bin(IBinOp::Add, a, b) => linearize(a, binds).add(&linearize(b, binds)),
        ExprKind::Bin(IBinOp::Sub, a, b) => linearize(a, binds).sub(&linearize(b, binds)),
        ExprKind::Bin(IBinOp::Mul, a, b) => {
            let fa = linearize(a, binds);
            let fb = linearize(b, binds);
            if fa.is_constant() {
                fb.scale(fa.constant_part())
            } else if fb.is_constant() {
                fa.scale(fb.constant_part())
            } else {
                LinForm::term(LinTerm::Opaque(e.clone()))
            }
        }
        _ => LinForm::term(LinTerm::Opaque(e.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(e: &Expr) -> LinForm {
        linearize(e, &HashMap::new())
    }

    #[test]
    fn affine_structure_is_recovered() {
        // 3·b + 4·i - i + 7 → 3·b + 3·i + 7.
        let e = Expr::var("b") * 3 + Expr::var("i") * 4 - Expr::var("i") + 7;
        let f = lin(&e);
        assert_eq!(f.coeff_of("b"), 3);
        assert_eq!(f.coeff_of("i"), 3);
        assert_eq!(f.constant_part(), 7);
    }

    #[test]
    fn cancelled_block_coefficient_is_zero() {
        // b - b + i: the screen sees a mention of b, the form does not.
        let e = Expr::var("b") - Expr::var("b") + Expr::var("i");
        let f = lin(&e);
        assert_eq!(f.coeff_of("b"), 0);
        assert!(f.terms().all(|(t, _)| !t.mentions("b")));
    }

    #[test]
    fn opaque_terms_keep_their_dependencies() {
        // row[b] + i: the load is opaque but still depends on b.
        let e = Expr::load("row", Expr::var("b")) + Expr::var("i");
        let f = lin(&e);
        assert_eq!(f.coeff_of("b"), 0);
        assert!(f.terms().any(|(t, _)| t.mentions("b")));
        assert_eq!(f.coeff_of("i"), 1);
        // b mod 2 likewise.
        let m = Expr::var("b").floor_mod(Expr::int(2));
        assert!(lin(&m).terms().any(|(t, _)| t.mentions("b")));
    }

    #[test]
    fn let_bindings_substitute_through() {
        let mut binds = HashMap::new();
        binds.insert("base".to_string(), lin(&(Expr::var("b") * 8)));
        let f = linearize(&(Expr::var("base") + Expr::var("i")), &binds);
        assert_eq!(f.coeff_of("b"), 8);
        assert_eq!(f.coeff_of("i"), 1);
    }

    #[test]
    fn identical_opaque_terms_merge() {
        let load = Expr::load("t", Expr::var("o"));
        let e = load.clone() * 2 + load.clone();
        let f = lin(&e);
        let terms: Vec<(String, i64)> = f.terms().map(|(t, c)| (t.key(), c)).collect();
        assert_eq!(terms, vec![("t[o]".to_string(), 3)]);
    }
}
