//! Traversal and rewriting over the four node types of the IR —
//! [`Expr`], [`Cond`], [`FExpr`], [`Stmt`] — and the passes built on them.
//!
//! This module is the one place that knows what a node's children are:
//!
//! * [`Node::for_each_child`] visits each direct child of a node, in
//!   evaluation order;
//! * [`map_expr`], [`map_cond`], [`map_fexpr`] and [`map_stmt`] rebuild a
//!   node from mapped children.
//!
//! **Writing a pass** is writing a closure over one of them: the pass
//! spells the node kinds it treats specially and hands every other node
//! to the default walk. [`free_vars`] names only `Var`; [`replace_load`]
//! only the `Load` it replaces; the slot census (`crate::slots`) only
//! the nodes that use or bind a name. A new operator or node kind is
//! added to the walks here and every pass inherits it.
//!
//! Two conventions the execution tiers' statistics parity rests on are
//! implemented here, and only here:
//!
//! * **An integer `Select`'s condition is neither counted nor
//!   collected** ([`count_loads`], [`collect_loads`]; see
//!   `for_each_counted_child`). `Env::eval` evaluates that condition
//!   without charging it, so the static per-expression load count both
//!   tiers charge covers the two branches only. (A *float* `Select` and a
//!   statement guard do charge their condition.)
//! * **[`subst_stmt`] respects shadowing:** a `For`/`LetInt` that rebinds
//!   a substituted variable hides it for its body, while its own bounds
//!   or bound value still see the outer binding.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::ops::Not;

use crate::expr::{Cond, CondKind, Expr, ExprKind};
use crate::fexpr::{FExpr, FExprKind};
use crate::stmt::Stmt;

/// A borrowed IR node of any of the four types.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// An integer expression.
    Expr(&'a Expr),
    /// A condition.
    Cond(&'a Cond),
    /// A float expression.
    FExpr(&'a FExpr),
    /// A statement.
    Stmt(&'a Stmt),
}

impl<'a> Node<'a> {
    /// Calls `f` on each direct child, in evaluation order.
    #[inline]
    pub fn for_each_child(self, mut f: impl FnMut(Node<'a>)) {
        let mut each = |children: &[Node<'a>]| children.iter().for_each(|&c| f(c));
        match self {
            Node::Expr(e) => match e.kind() {
                ExprKind::Int(_) | ExprKind::Var(_) => {}
                ExprKind::Bin(_, a, b) => each(&[Node::Expr(a), Node::Expr(b)]),
                ExprKind::Select(c, a, b) => each(&[Node::Cond(c), Node::Expr(a), Node::Expr(b)]),
                ExprKind::Load(_, idx) => each(&[Node::Expr(idx)]),
            },
            Node::Cond(c) => match c.kind() {
                CondKind::Const(_) => {}
                CondKind::Cmp(_, a, b) => each(&[Node::Expr(a), Node::Expr(b)]),
                CondKind::And(a, b) | CondKind::Or(a, b) => each(&[Node::Cond(a), Node::Cond(b)]),
                CondKind::Not(a) => each(&[Node::Cond(a)]),
            },
            Node::FExpr(e) => match e.kind() {
                FExprKind::Const(_) => {}
                FExprKind::Load(_, idx) | FExprKind::Cast(idx) => each(&[Node::Expr(idx)]),
                FExprKind::Bin(_, a, b) => each(&[Node::FExpr(a), Node::FExpr(b)]),
                FExprKind::Unary(_, a) => each(&[Node::FExpr(a)]),
                FExprKind::Select(c, a, b) => {
                    each(&[Node::Cond(c), Node::FExpr(a), Node::FExpr(b)]);
                }
            },
            Node::Stmt(s) => match s {
                Stmt::For {
                    min, extent, body, ..
                } => each(&[Node::Expr(min), Node::Expr(extent), Node::Stmt(body)]),
                Stmt::LetInt { value, body, .. } => each(&[Node::Expr(value), Node::Stmt(body)]),
                Stmt::Store { index, value, .. } => each(&[Node::Expr(index), Node::FExpr(value)]),
                Stmt::If { cond, then_, else_ } => {
                    each(&[Node::Cond(cond), Node::Stmt(then_)]);
                    else_.iter().for_each(|e| each(&[Node::Stmt(e)]));
                }
                Stmt::Seq(items) => items.iter().for_each(|i| each(&[Node::Stmt(i)])),
                Stmt::Alloc { size, body, .. } => each(&[Node::Expr(size), Node::Stmt(body)]),
                Stmt::Nop => {}
            },
        }
    }
}

/// Rebuilds `e` with each direct child expression replaced by `f(child)`
/// (a `Select`'s condition goes through [`map_cond`] over the same `f`).
pub fn map_expr(e: &Expr, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    match e.kind() {
        ExprKind::Int(_) | ExprKind::Var(_) => e.clone(),
        ExprKind::Bin(op, a, b) => Expr::bin(*op, f(a), f(b)),
        ExprKind::Select(c, a, b) => Expr::select(map_cond(c, f), f(a), f(b)),
        ExprKind::Load(buf, idx) => Expr::load(buf.clone(), f(idx)),
    }
}

/// Rebuilds `c` with every expression it compares replaced by `f(expr)`.
pub fn map_cond(c: &Cond, f: &mut impl FnMut(&Expr) -> Expr) -> Cond {
    match c.kind() {
        CondKind::Const(_) => c.clone(),
        CondKind::Cmp(op, a, b) => Cond::cmp(*op, f(a), f(b)),
        CondKind::And(a, b) => map_cond(a, f).and(map_cond(b, f)),
        CondKind::Or(a, b) => map_cond(a, f).or(map_cond(b, f)),
        CondKind::Not(a) => map_cond(a, f).not(),
    }
}

/// Rebuilds `e` with every integer expression in it (load indices, cast
/// operands, the operands of select conditions) replaced by `f(expr)`.
pub fn map_fexpr(e: &FExpr, f: &mut impl FnMut(&Expr) -> Expr) -> FExpr {
    match e.kind() {
        FExprKind::Const(_) => e.clone(),
        FExprKind::Load(buf, idx) => FExpr::load(buf.clone(), f(idx)),
        FExprKind::Cast(i) => FExpr::cast(f(i)),
        FExprKind::Bin(op, a, b) => FExpr::bin(*op, map_fexpr(a, f), map_fexpr(b, f)),
        FExprKind::Unary(op, a) => map_fexpr(a, f).unary(*op),
        FExprKind::Select(c, a, b) => {
            FExpr::select(map_cond(c, f), map_fexpr(a, f), map_fexpr(b, f))
        }
    }
}

/// Rebuilds `s` with each integer expression it directly contains
/// (bounds, bound values, indices, sizes, and those of its guard and
/// stored value) replaced by `fe(expr)` and each child statement by
/// `fs(child)`.
pub fn map_stmt(
    s: &Stmt,
    fe: &mut impl FnMut(&Expr) -> Expr,
    fs: &mut impl FnMut(&Stmt) -> Stmt,
) -> Stmt {
    match s {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => Stmt::For {
            var: var.clone(),
            min: fe(min),
            extent: fe(extent),
            kind: *kind,
            body: Box::new(fs(body)),
        },
        Stmt::LetInt { var, value, body } => Stmt::LetInt {
            var: var.clone(),
            value: fe(value),
            body: Box::new(fs(body)),
        },
        Stmt::Store {
            buffer,
            index,
            value,
            kind,
        } => Stmt::Store {
            buffer: buffer.clone(),
            index: fe(index),
            value: map_fexpr(value, fe),
            kind: *kind,
        },
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: map_cond(cond, fe),
            then_: Box::new(fs(then_)),
            else_: else_.as_ref().map(|e| Box::new(fs(e))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(fs).collect()),
        Stmt::Alloc { buffer, size, body } => Stmt::Alloc {
            buffer: buffer.clone(),
            size: fe(size),
            body: Box::new(fs(body)),
        },
        Stmt::Nop => Stmt::Nop,
    }
}

/// Substitutes variables in an integer expression.
pub fn subst(e: &Expr, map: &HashMap<String, Expr>) -> Expr {
    match e.as_var().and_then(|n| map.get(n)) {
        Some(replacement) => replacement.clone(),
        None => map_expr(e, &mut |c| subst(c, map)),
    }
}

/// Substitutes variables in a condition.
pub fn subst_cond(c: &Cond, map: &HashMap<String, Expr>) -> Cond {
    map_cond(c, &mut |e| subst(e, map))
}

/// Substitutes variables throughout a statement tree, respecting
/// shadowing (see the module docs).
pub fn subst_stmt(s: &Stmt, map: &HashMap<String, Expr>) -> Stmt {
    let shadowed = match s {
        Stmt::For { var, .. } | Stmt::LetInt { var, .. } if map.contains_key(var) => {
            let mut inner = map.clone();
            inner.remove(var);
            Some(inner)
        }
        _ => None,
    };
    let inner = shadowed.as_ref().unwrap_or(map);
    map_stmt(s, &mut |e| subst(e, map), &mut |b| subst_stmt(b, inner))
}

/// True if variable `var` occurs anywhere in `n`.
pub fn mentions(n: Node<'_>, var: &str) -> bool {
    let mut found = matches!(n, Node::Expr(e) if e.as_var() == Some(var));
    n.for_each_child(|c| found = found || mentions(c, var));
    found
}

/// Collects free variable names of an expression.
pub fn free_vars(e: &Expr, out: &mut BTreeSet<String>) {
    vars_in(Node::Expr(e), out);
}

fn vars_in(n: Node<'_>, out: &mut BTreeSet<String>) {
    if let Node::Expr(e) = n {
        out.extend(e.as_var().map(str::to_string));
    }
    n.for_each_child(|c| vars_in(c, out));
}

/// The children whose auxiliary-buffer loads count towards `n`'s: all of
/// them, except the condition of an integer `Select` (see the module
/// docs) — the one place that convention is implemented.
fn for_each_counted_child<'a>(n: Node<'a>, mut f: impl FnMut(Node<'a>)) {
    let int_select = matches!(n, Node::Expr(e) if matches!(e.kind(), ExprKind::Select(..)));
    n.for_each_child(|c| {
        if !(int_select && matches!(c, Node::Cond(_))) {
            f(c);
        }
    });
}

/// Counts auxiliary-buffer loads in `e` without allocating.
///
/// This is the *static* per-expression count the interpreter charges to
/// `InterpStats.aux_loads` and the bytecode compiler bakes into
/// instruction metadata, so both execution tiers account identically.
pub fn count_loads(e: &Expr) -> u64 {
    loads_in(Node::Expr(e))
}

/// Counts auxiliary-buffer loads in a condition without allocating
/// (both sides of comparisons, through `&&`/`||`/`!`).
pub fn count_cond_loads(c: &Cond) -> u64 {
    loads_in(Node::Cond(c))
}

fn loads_in(n: Node<'_>) -> u64 {
    let mut total = u64::from(matches!(n, Node::Expr(e) if matches!(e.kind(), ExprKind::Load(..))));
    for_each_counted_child(n, |c| total += loads_in(c));
    total
}

/// Collects all auxiliary-buffer loads (`buffer`, `index`) appearing in
/// `e`, a load's index before the load itself.
pub fn collect_loads(e: &Expr, out: &mut Vec<(String, Expr)>) {
    collect_in(Node::Expr(e), out);
}

fn collect_in(n: Node<'_>, out: &mut Vec<(String, Expr)>) {
    for_each_counted_child(n, |c| collect_in(c, out));
    if let Node::Expr(e) = n {
        if let ExprKind::Load(buf, idx) = e.kind() {
            out.push((buf.clone(), idx.clone()));
        }
    }
}

/// Replaces every occurrence of a `Load(buffer, index)` matching `target`
/// with variable `name` inside `e`.
pub fn replace_load(e: &Expr, target: &(String, Expr), name: &str) -> Expr {
    match e.kind() {
        ExprKind::Load(buf, idx) if (buf, idx) == (&target.0, &target.1) => Expr::var(name),
        _ => map_expr(e, &mut |c| replace_load(c, target, name)),
    }
}

fn replace_load_stmt(s: &Stmt, target: &(String, Expr), name: &str) -> Stmt {
    let fe = &mut |e: &Expr| replace_load(e, target, name);
    map_stmt(s, fe, &mut |b| replace_load_stmt(b, target, name))
}

/// Hoists loop-invariant auxiliary-array loads out of loops (§D.7).
///
/// For each loop, any `Load` whose index does not mention the loop variable
/// (or any variable bound inside the loop) is bound once in a `LetInt`
/// immediately outside the loop body. This mirrors the paper's fix for the
/// QKT operator slowdown: "hoisting data structure accesses outside loops
/// when possible helps recover the lost performance".
pub fn hoist_loads(s: &Stmt) -> Stmt {
    hoist_rec(s, &mut 0)
}

fn hoist_rec(s: &Stmt, counter: &mut usize) -> Stmt {
    // Inner loops first, so their hoists take the lower numbers.
    let (var, min, extent, kind, body) =
        match map_stmt(s, &mut Expr::clone, &mut |b| hoist_rec(b, counter)) {
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => (var, min, extent, kind, body),
            other => return other,
        };
    // The loads in the body whose indices depend on neither `var` nor
    // anything bound deeper in the body.
    let mut bound = BTreeSet::from([var.clone()]);
    collect_bound(&body, &mut bound);
    let mut loads = Vec::new();
    collect_in(Node::Stmt(&body), &mut loads);
    let mut hoistable: Vec<(String, Expr)> = Vec::new();
    for l in loads {
        let mut fv = BTreeSet::new();
        free_vars(&l.1, &mut fv);
        if fv.is_disjoint(&bound) && !hoistable.contains(&l) {
            hoistable.push(l);
        }
    }
    let mut body = *body;
    let mut lets: Vec<(String, Expr)> = Vec::new();
    for target in hoistable {
        let name = format!("hoist_{}", *counter);
        *counter += 1;
        body = replace_load_stmt(&body, &target, &name);
        // The hoisted value itself may mention earlier hoists; fine.
        lets.push((name, Expr::load(target.0, target.1)));
    }
    let looped = Stmt::For {
        var,
        min,
        extent,
        kind,
        body: Box::new(body),
    };
    // The bindings wrap the loop, the first hoist outermost.
    lets.into_iter()
        .rev()
        .fold(looped, |inner, (var, value)| Stmt::LetInt {
            var,
            value,
            body: Box::new(inner),
        })
}

/// Adds every variable bound inside `s` to `out`.
fn collect_bound(s: &Stmt, out: &mut BTreeSet<String>) {
    if let Stmt::For { var, .. } | Stmt::LetInt { var, .. } = s {
        out.insert(var.clone());
    }
    Node::Stmt(s).for_each_child(|c| {
        if let Node::Stmt(child) = c {
            collect_bound(child, out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fexpr::FExpr;

    #[test]
    fn subst_replaces_only_free_occurrences() {
        let mut map = HashMap::new();
        map.insert("i".to_string(), Expr::var("io") * 4 + Expr::var("ii"));
        let e = Expr::var("i") + Expr::var("j");
        assert_eq!(format!("{}", subst(&e, &map)), "(((io*4) + ii) + j)");
    }

    #[test]
    fn subst_stmt_respects_shadowing() {
        let mut map = HashMap::new();
        map.insert("i".to_string(), Expr::int(7));
        let s = Stmt::loop_(
            "i",
            Expr::int(3),
            Stmt::store("B", Expr::var("i"), FExpr::constant(0.0)),
        );
        let out = subst_stmt(&s, &map);
        // The loop rebinds i; the body index must stay `i`, not 7.
        if let Stmt::For { body, .. } = out {
            if let Stmt::Store { index, .. } = *body {
                assert_eq!(index.as_var(), Some("i"));
                return;
            }
        }
        panic!("unexpected shape");
    }

    #[test]
    fn count_loads_matches_collect_convention() {
        // Nested loads count transitively; Select counts both branches but
        // not the condition — the exact convention `collect_loads` uses.
        let e = Expr::load("a", Expr::load("b", Expr::var("i")))
            + Expr::select(
                Expr::load("c", Expr::int(0)).lt(Expr::int(1)),
                Expr::load("d", Expr::int(2)),
                Expr::int(0),
            );
        let mut v = Vec::new();
        collect_loads(&e, &mut v);
        assert_eq!(count_loads(&e), v.len() as u64);
        assert_eq!(count_loads(&e), 3);
        let c = Expr::load("x", Expr::int(0)).lt(Expr::load("y", Expr::int(1)));
        assert_eq!(count_cond_loads(&c.clone().and(!c)), 4);
    }

    #[test]
    fn free_vars_collects() {
        let e = Expr::var("a") + Expr::load("buf", Expr::var("b"));
        let mut fv = BTreeSet::new();
        free_vars(&e, &mut fv);
        assert!(fv.contains("a") && fv.contains("b"));
    }

    #[test]
    fn hoisting_pulls_invariant_load_out() {
        // for o { for i { B[row[o] + i] = A[row[o] + i] } }
        // row[o] is invariant in the inner loop and must be hoisted.
        let idx = Expr::load("row", Expr::var("o")) + Expr::var("i");
        let inner = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::store("B", idx.clone(), FExpr::load("A", idx)),
        );
        let nest = Stmt::loop_("o", Expr::int(4), inner);
        let hoisted = hoist_loads(&nest);
        let txt = crate::printer::print_c(&hoisted);
        assert!(txt.contains("int hoist_"), "no hoist binding in:\n{txt}");
        // The inner store must no longer contain `row[o]` directly.
        let inner_part = txt.split("for (int i").nth(1).unwrap();
        assert!(
            !inner_part.contains("row[o]"),
            "load not replaced in body:\n{txt}"
        );
    }

    #[test]
    fn hoisting_keeps_variant_loads() {
        // ffo[f] depends on the loop variable f and must not be hoisted out
        // of the f loop.
        let idx = Expr::load("ffo", Expr::var("f"));
        let nest = Stmt::loop_(
            "f",
            Expr::int(8),
            Stmt::store("B", idx.clone(), FExpr::constant(1.0)),
        );
        let hoisted = hoist_loads(&nest);
        let txt = crate::printer::print_c(&hoisted);
        assert!(txt.contains("ffo[f]"));
    }
}
