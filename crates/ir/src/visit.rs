//! Traversal and rewriting utilities over expressions and statements.
//!
//! Provides variable substitution (used when splitting/fusing loops turns
//! `i` into `i_outer*tile + i_inner`), free-variable collection, auxiliary
//! buffer-load collection, and the load-hoisting pass of §D.7.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::ops::Not;

use crate::expr::{Cond, CondKind, Expr, ExprKind};
use crate::fexpr::{FExpr, FExprKind};
use crate::stmt::Stmt;

/// Substitutes variables in an integer expression.
pub fn subst(e: &Expr, map: &HashMap<String, Expr>) -> Expr {
    match e.kind() {
        ExprKind::Int(_) => e.clone(),
        ExprKind::Var(n) => map.get(n).cloned().unwrap_or_else(|| e.clone()),
        ExprKind::Add(a, b) => subst(a, map) + subst(b, map),
        ExprKind::Sub(a, b) => subst(a, map) - subst(b, map),
        ExprKind::Mul(a, b) => subst(a, map) * subst(b, map),
        ExprKind::FloorDiv(a, b) => subst(a, map).floor_div(subst(b, map)),
        ExprKind::FloorMod(a, b) => subst(a, map).floor_mod(subst(b, map)),
        ExprKind::Min(a, b) => subst(a, map).min(subst(b, map)),
        ExprKind::Max(a, b) => subst(a, map).max(subst(b, map)),
        ExprKind::Select(c, a, b) => Expr::select(subst_cond(c, map), subst(a, map), subst(b, map)),
        ExprKind::Load(buf, idx) => Expr::load(buf.clone(), subst(idx, map)),
    }
}

/// Substitutes variables in a condition.
pub fn subst_cond(c: &Cond, map: &HashMap<String, Expr>) -> Cond {
    match c.kind() {
        CondKind::Const(_) => c.clone(),
        CondKind::Lt(a, b) => subst(a, map).lt(subst(b, map)),
        CondKind::Le(a, b) => subst(a, map).le(subst(b, map)),
        CondKind::Eq(a, b) => subst(a, map).eq_expr(subst(b, map)),
        CondKind::Ne(a, b) => subst(a, map).ne_expr(subst(b, map)),
        CondKind::And(a, b) => subst_cond(a, map).and(subst_cond(b, map)),
        CondKind::Or(a, b) => subst_cond(a, map).or(subst_cond(b, map)),
        CondKind::Not(a) => subst_cond(a, map).not(),
    }
}

/// Substitutes variables in a float expression (indices only).
pub fn subst_fexpr(e: &FExpr, map: &HashMap<String, Expr>) -> FExpr {
    match e.kind() {
        FExprKind::Const(_) => e.clone(),
        FExprKind::Load(buf, idx) => FExpr::load(buf.clone(), subst(idx, map)),
        FExprKind::Cast(i) => FExpr::cast(subst(i, map)),
        FExprKind::Add(a, b) => subst_fexpr(a, map) + subst_fexpr(b, map),
        FExprKind::Sub(a, b) => subst_fexpr(a, map) - subst_fexpr(b, map),
        FExprKind::Mul(a, b) => subst_fexpr(a, map) * subst_fexpr(b, map),
        FExprKind::Div(a, b) => subst_fexpr(a, map) / subst_fexpr(b, map),
        FExprKind::Max(a, b) => subst_fexpr(a, map).max(subst_fexpr(b, map)),
        FExprKind::Unary(op, a) => subst_fexpr(a, map).unary(*op),
        FExprKind::Select(c, a, b) => {
            FExpr::select(subst_cond(c, map), subst_fexpr(a, map), subst_fexpr(b, map))
        }
    }
}

/// Substitutes variables throughout a statement tree.
///
/// Bindings shadowed by inner loops or lets are respected.
pub fn subst_stmt(s: &Stmt, map: &HashMap<String, Expr>) -> Stmt {
    match s {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let mut inner = map.clone();
            inner.remove(var);
            Stmt::For {
                var: var.clone(),
                min: subst(min, map),
                extent: subst(extent, map),
                kind: *kind,
                body: Box::new(subst_stmt(body, &inner)),
            }
        }
        Stmt::LetInt { var, value, body } => {
            let mut inner = map.clone();
            inner.remove(var);
            Stmt::LetInt {
                var: var.clone(),
                value: subst(value, map),
                body: Box::new(subst_stmt(body, &inner)),
            }
        }
        Stmt::Store {
            buffer,
            index,
            value,
            kind,
        } => Stmt::Store {
            buffer: buffer.clone(),
            index: subst(index, map),
            value: subst_fexpr(value, map),
            kind: *kind,
        },
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: subst_cond(cond, map),
            then_: Box::new(subst_stmt(then_, map)),
            else_: else_.as_ref().map(|e| Box::new(subst_stmt(e, map))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|i| subst_stmt(i, map)).collect()),
        Stmt::Alloc { buffer, size, body } => Stmt::Alloc {
            buffer: buffer.clone(),
            size: subst(size, map),
            body: Box::new(subst_stmt(body, map)),
        },
        Stmt::Nop => Stmt::Nop,
    }
}

/// Collects free variable names of an expression.
pub fn free_vars(e: &Expr, out: &mut BTreeSet<String>) {
    match e.kind() {
        ExprKind::Int(_) => {}
        ExprKind::Var(n) => {
            out.insert(n.clone());
        }
        ExprKind::Add(a, b)
        | ExprKind::Sub(a, b)
        | ExprKind::Mul(a, b)
        | ExprKind::FloorDiv(a, b)
        | ExprKind::FloorMod(a, b)
        | ExprKind::Min(a, b)
        | ExprKind::Max(a, b) => {
            free_vars(a, out);
            free_vars(b, out);
        }
        ExprKind::Select(c, a, b) => {
            free_vars_cond(c, out);
            free_vars(a, out);
            free_vars(b, out);
        }
        ExprKind::Load(_, idx) => free_vars(idx, out),
    }
}

/// Collects free variable names of a condition.
pub fn free_vars_cond(c: &Cond, out: &mut BTreeSet<String>) {
    match c.kind() {
        CondKind::Const(_) => {}
        CondKind::Lt(a, b) | CondKind::Le(a, b) | CondKind::Eq(a, b) | CondKind::Ne(a, b) => {
            free_vars(a, out);
            free_vars(b, out);
        }
        CondKind::And(a, b) | CondKind::Or(a, b) => {
            free_vars_cond(a, out);
            free_vars_cond(b, out);
        }
        CondKind::Not(a) => free_vars_cond(a, out),
    }
}

/// Counts auxiliary-buffer loads in `e` without allocating.
///
/// Same convention as [`collect_loads`]: both branches of a
/// [`ExprKind::Select`] are counted, its condition is not. This is the
/// *static* per-expression count the interpreter charges to
/// `InterpStats.aux_loads` and the bytecode compiler bakes into
/// instruction metadata, so both execution tiers account identically.
pub fn count_loads(e: &Expr) -> u64 {
    match e.kind() {
        ExprKind::Int(_) | ExprKind::Var(_) => 0,
        ExprKind::Add(a, b)
        | ExprKind::Sub(a, b)
        | ExprKind::Mul(a, b)
        | ExprKind::FloorDiv(a, b)
        | ExprKind::FloorMod(a, b)
        | ExprKind::Min(a, b)
        | ExprKind::Max(a, b)
        | ExprKind::Select(_, a, b) => count_loads(a) + count_loads(b),
        ExprKind::Load(_, idx) => 1 + count_loads(idx),
    }
}

/// Counts auxiliary-buffer loads in a condition without allocating
/// (both sides of comparisons, through `&&`/`||`/`!`).
pub fn count_cond_loads(c: &Cond) -> u64 {
    match c.kind() {
        CondKind::Const(_) => 0,
        CondKind::Lt(a, b) | CondKind::Le(a, b) | CondKind::Eq(a, b) | CondKind::Ne(a, b) => {
            count_loads(a) + count_loads(b)
        }
        CondKind::And(a, b) | CondKind::Or(a, b) => count_cond_loads(a) + count_cond_loads(b),
        CondKind::Not(a) => count_cond_loads(a),
    }
}

/// Collects all auxiliary-buffer loads (`buffer`, `index`) appearing in `e`.
pub fn collect_loads(e: &Expr, out: &mut Vec<(String, Expr)>) {
    match e.kind() {
        ExprKind::Int(_) | ExprKind::Var(_) => {}
        ExprKind::Add(a, b)
        | ExprKind::Sub(a, b)
        | ExprKind::Mul(a, b)
        | ExprKind::FloorDiv(a, b)
        | ExprKind::FloorMod(a, b)
        | ExprKind::Min(a, b)
        | ExprKind::Max(a, b) => {
            collect_loads(a, out);
            collect_loads(b, out);
        }
        ExprKind::Select(_, a, b) => {
            collect_loads(a, out);
            collect_loads(b, out);
        }
        ExprKind::Load(buf, idx) => {
            collect_loads(idx, out);
            out.push((buf.clone(), idx.clone()));
        }
    }
}

/// Replaces every occurrence of a `Load(buffer, index)` matching `target`
/// with variable `name` inside `e`.
pub fn replace_load(e: &Expr, target: &(String, Expr), name: &str) -> Expr {
    if let ExprKind::Load(buf, idx) = e.kind() {
        if buf == &target.0 && idx == &target.1 {
            return Expr::var(name);
        }
    }
    match e.kind() {
        ExprKind::Int(_) | ExprKind::Var(_) => e.clone(),
        ExprKind::Add(a, b) => replace_load(a, target, name) + replace_load(b, target, name),
        ExprKind::Sub(a, b) => replace_load(a, target, name) - replace_load(b, target, name),
        ExprKind::Mul(a, b) => replace_load(a, target, name) * replace_load(b, target, name),
        ExprKind::FloorDiv(a, b) => {
            replace_load(a, target, name).floor_div(replace_load(b, target, name))
        }
        ExprKind::FloorMod(a, b) => {
            replace_load(a, target, name).floor_mod(replace_load(b, target, name))
        }
        ExprKind::Min(a, b) => replace_load(a, target, name).min(replace_load(b, target, name)),
        ExprKind::Max(a, b) => replace_load(a, target, name).max(replace_load(b, target, name)),
        ExprKind::Select(c, a, b) => Expr::select(
            replace_load_cond(c, target, name),
            replace_load(a, target, name),
            replace_load(b, target, name),
        ),
        ExprKind::Load(buf, idx) => Expr::load(buf.clone(), replace_load(idx, target, name)),
    }
}

fn replace_load_cond(c: &Cond, target: &(String, Expr), name: &str) -> Cond {
    match c.kind() {
        CondKind::Const(_) => c.clone(),
        CondKind::Lt(a, b) => replace_load(a, target, name).lt(replace_load(b, target, name)),
        CondKind::Le(a, b) => replace_load(a, target, name).le(replace_load(b, target, name)),
        CondKind::Eq(a, b) => replace_load(a, target, name).eq_expr(replace_load(b, target, name)),
        CondKind::Ne(a, b) => replace_load(a, target, name).ne_expr(replace_load(b, target, name)),
        CondKind::And(a, b) => {
            replace_load_cond(a, target, name).and(replace_load_cond(b, target, name))
        }
        CondKind::Or(a, b) => {
            replace_load_cond(a, target, name).or(replace_load_cond(b, target, name))
        }
        CondKind::Not(a) => replace_load_cond(a, target, name).not(),
    }
}

fn replace_load_fexpr(e: &FExpr, target: &(String, Expr), name: &str) -> FExpr {
    match e.kind() {
        FExprKind::Const(_) => e.clone(),
        FExprKind::Load(buf, idx) => FExpr::load(buf.clone(), replace_load(idx, target, name)),
        FExprKind::Cast(i) => FExpr::cast(replace_load(i, target, name)),
        FExprKind::Add(a, b) => {
            replace_load_fexpr(a, target, name) + replace_load_fexpr(b, target, name)
        }
        FExprKind::Sub(a, b) => {
            replace_load_fexpr(a, target, name) - replace_load_fexpr(b, target, name)
        }
        FExprKind::Mul(a, b) => {
            replace_load_fexpr(a, target, name) * replace_load_fexpr(b, target, name)
        }
        FExprKind::Div(a, b) => {
            replace_load_fexpr(a, target, name) / replace_load_fexpr(b, target, name)
        }
        FExprKind::Max(a, b) => {
            replace_load_fexpr(a, target, name).max(replace_load_fexpr(b, target, name))
        }
        FExprKind::Unary(op, a) => replace_load_fexpr(a, target, name).unary(*op),
        FExprKind::Select(c, a, b) => FExpr::select(
            replace_load_cond(c, target, name),
            replace_load_fexpr(a, target, name),
            replace_load_fexpr(b, target, name),
        ),
    }
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
    match s {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let body = hoist_rec(body, counter);
            // Find loads in the body whose indices don't depend on `var` or
            // anything bound deeper in the body.
            let bound = bound_vars(&body, var);
            let mut loads = Vec::new();
            collect_stmt_loads(&body, &mut loads);
            let mut hoistable: Vec<(String, Expr)> = Vec::new();
            for l in loads {
                let mut fv = BTreeSet::new();
                free_vars(&l.1, &mut fv);
                if fv.iter().all(|v| !bound.contains(v)) && !hoistable.contains(&l) {
                    hoistable.push(l);
                }
            }
            let mut new_body = body;
            let mut wrapped = Stmt::For {
                var: var.clone(),
                min: min.clone(),
                extent: extent.clone(),
                kind: *kind,
                body: Box::new(Stmt::Nop), // placeholder, fixed below
            };
            let mut lets: Vec<(String, Expr)> = Vec::new();
            for target in hoistable {
                let name = format!("hoist_{}", *counter);
                *counter += 1;
                new_body = replace_load_stmt(&new_body, &target, &name);
                lets.push((name, Expr::load(target.0.clone(), target.1.clone())));
                // The hoisted value itself may mention earlier hoists; fine.
            }
            if let Stmt::For { body, .. } = &mut wrapped {
                **body = new_body;
            }
            // Wrap LetInt bindings outside the loop, innermost last.
            for (name, value) in lets.into_iter().rev() {
                wrapped = Stmt::LetInt {
                    var: name,
                    value,
                    body: Box::new(wrapped),
                };
            }
            wrapped
        }
        Stmt::LetInt { var, value, body } => Stmt::LetInt {
            var: var.clone(),
            value: value.clone(),
            body: Box::new(hoist_rec(body, counter)),
        },
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: cond.clone(),
            then_: Box::new(hoist_rec(then_, counter)),
            else_: else_.as_ref().map(|e| Box::new(hoist_rec(e, counter))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|i| hoist_rec(i, counter)).collect()),
        Stmt::Alloc { buffer, size, body } => Stmt::Alloc {
            buffer: buffer.clone(),
            size: size.clone(),
            body: Box::new(hoist_rec(body, counter)),
        },
        Stmt::Store { .. } | Stmt::Nop => s.clone(),
    }
}

/// All variables bound inside `s`, plus `extra`.
fn bound_vars(s: &Stmt, extra: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    out.insert(extra.to_string());
    collect_bound(s, &mut out);
    out
}

fn collect_bound(s: &Stmt, out: &mut BTreeSet<String>) {
    match s {
        Stmt::For { var, body, .. } | Stmt::LetInt { var, body, .. } => {
            out.insert(var.clone());
            collect_bound(body, out);
        }
        Stmt::If { then_, else_, .. } => {
            collect_bound(then_, out);
            if let Some(e) = else_ {
                collect_bound(e, out);
            }
        }
        Stmt::Seq(items) => {
            for i in items {
                collect_bound(i, out);
            }
        }
        Stmt::Alloc { body, .. } => collect_bound(body, out),
        Stmt::Store { .. } | Stmt::Nop => {}
    }
}

fn collect_stmt_loads(s: &Stmt, out: &mut Vec<(String, Expr)>) {
    match s {
        Stmt::For {
            min, extent, body, ..
        } => {
            collect_loads(min, out);
            collect_loads(extent, out);
            collect_stmt_loads(body, out);
        }
        Stmt::LetInt { value, body, .. } => {
            collect_loads(value, out);
            collect_stmt_loads(body, out);
        }
        Stmt::Store { index, value, .. } => {
            collect_loads(index, out);
            collect_fexpr_loads(value, out);
        }
        Stmt::If { cond, then_, else_ } => {
            collect_cond_loads(cond, out);
            collect_stmt_loads(then_, out);
            if let Some(e) = else_ {
                collect_stmt_loads(e, out);
            }
        }
        Stmt::Seq(items) => {
            for i in items {
                collect_stmt_loads(i, out);
            }
        }
        Stmt::Alloc { size, body, .. } => {
            collect_loads(size, out);
            collect_stmt_loads(body, out);
        }
        Stmt::Nop => {}
    }
}

fn collect_fexpr_loads(e: &FExpr, out: &mut Vec<(String, Expr)>) {
    match e.kind() {
        FExprKind::Const(_) => {}
        FExprKind::Load(_, idx) | FExprKind::Cast(idx) => collect_loads(idx, out),
        FExprKind::Add(a, b)
        | FExprKind::Sub(a, b)
        | FExprKind::Mul(a, b)
        | FExprKind::Div(a, b)
        | FExprKind::Max(a, b) => {
            collect_fexpr_loads(a, out);
            collect_fexpr_loads(b, out);
        }
        FExprKind::Unary(_, a) => collect_fexpr_loads(a, out),
        FExprKind::Select(c, a, b) => {
            collect_cond_loads(c, out);
            collect_fexpr_loads(a, out);
            collect_fexpr_loads(b, out);
        }
    }
}

fn collect_cond_loads(c: &Cond, out: &mut Vec<(String, Expr)>) {
    match c.kind() {
        CondKind::Const(_) => {}
        CondKind::Lt(a, b) | CondKind::Le(a, b) | CondKind::Eq(a, b) | CondKind::Ne(a, b) => {
            collect_loads(a, out);
            collect_loads(b, out);
        }
        CondKind::And(a, b) | CondKind::Or(a, b) => {
            collect_cond_loads(a, out);
            collect_cond_loads(b, out);
        }
        CondKind::Not(a) => collect_cond_loads(a, out),
    }
}

fn replace_load_stmt(s: &Stmt, target: &(String, Expr), name: &str) -> Stmt {
    match s {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => Stmt::For {
            var: var.clone(),
            min: replace_load(min, target, name),
            extent: replace_load(extent, target, name),
            kind: *kind,
            body: Box::new(replace_load_stmt(body, target, name)),
        },
        Stmt::LetInt { var, value, body } => Stmt::LetInt {
            var: var.clone(),
            value: replace_load(value, target, name),
            body: Box::new(replace_load_stmt(body, target, name)),
        },
        Stmt::Store {
            buffer,
            index,
            value,
            kind,
        } => Stmt::Store {
            buffer: buffer.clone(),
            index: replace_load(index, target, name),
            value: replace_load_fexpr(value, target, name),
            kind: *kind,
        },
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: replace_load_cond(cond, target, name),
            then_: Box::new(replace_load_stmt(then_, target, name)),
            else_: else_
                .as_ref()
                .map(|e| Box::new(replace_load_stmt(e, target, name))),
        },
        Stmt::Seq(items) => Stmt::Seq(
            items
                .iter()
                .map(|i| replace_load_stmt(i, target, name))
                .collect(),
        ),
        Stmt::Alloc { buffer, size, body } => Stmt::Alloc {
            buffer: buffer.clone(),
            size: replace_load(size, target, name),
            body: Box::new(replace_load_stmt(body, target, name)),
        },
        Stmt::Nop => Stmt::Nop,
    }
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
