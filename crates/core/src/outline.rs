//! Parallel outlining: turning a lowered statement's outermost block
//! axis into a block-indexed entry point.
//!
//! CoRa schedules bind loops to GPU block axes (§4.1); on the simulated
//! GPU those loops become the grid, and on the CPU runtime they should
//! become a real parallel region. [`outline`] performs the enabling
//! transformation at the statement level:
//!
//! * it walks down from the root collecting `LetInt` wrappers (produced
//!   by load hoisting, §D.7) until it reaches the outermost
//!   [`cora_ir::ForKind::is_block_axis`] loop,
//! * hoists that loop's bounds (`min`, `extent`) and the collected
//!   bindings into host-evaluated expressions, and
//! * returns the loop body as a standalone statement in which the block
//!   variable is *free* — the block-indexed entry point a parallel
//!   driver executes once per block index.
//!
//! Outlining also carries the safety obligations of the parallel tier:
//!
//! * the body may store **only** to the designated output buffer (plus
//!   scoped `Alloc` scratch, which stays private per worker), and must
//!   not read the output back (an in-place update could observe another
//!   block's stores);
//! * every store to the output must index through the block variable (or
//!   a `LetInt` derived from it), the syntactic core of the argument
//!   that distinct blocks write disjoint output elements.
//!
//! When a block axis exists but one of these conditions fails — most
//! commonly because a schedule nested the block-bound loop inside a
//! serial loop — outlining returns
//! [`ScheduleError::BlockAxisNotOutlinable`] instead of silently falling
//! back to serial execution. A statement with *no* block axis returns
//! `Ok(None)`: running serially is then the correct behaviour, not a
//! degradation.

use cora_ir::printer::print_c;
use cora_ir::slots::StmtSlots;
use cora_ir::visit::{count_loads, mentions, Node};
use cora_ir::{Expr, Stmt};

use crate::schedule::ScheduleError;
use crate::verify;

/// A `LetInt` binding hoisted above the block loop; the parallel driver
/// evaluates it once on the host and binds it as a free variable of the
/// outlined body.
#[derive(Debug, Clone)]
pub struct HoistedLet {
    /// Binding name (free in the outlined body).
    pub var: String,
    /// Bound expression, evaluated against earlier bindings.
    pub value: Expr,
    /// Static aux-load count the binding charges (`LetInt` accounting).
    /// `u64`: shared expression DAGs have exponential static load
    /// counts, which the serial tier charges in full.
    pub aux: u64,
}

/// The outermost block axis of a lowered statement, outlined into a
/// block-indexed entry point.
#[derive(Debug, Clone)]
pub struct BlockOutline {
    /// Host-evaluated bindings, outermost first.
    pub hoisted: Vec<HoistedLet>,
    /// The block loop's iteration variable (free in [`Self::body`]).
    pub block_var: String,
    /// The block loop's lower bound.
    pub min: Expr,
    /// The block loop's trip count.
    pub extent: Expr,
    /// Static aux loads charged once when the bounds evaluate (the
    /// serial tier's `BumpAux` at the loop header).
    pub bounds_aux: u64,
    /// The loop body: one block's work, with [`Self::block_var`] free.
    pub body: Stmt,
}

/// Outlines the outermost block-bound loop of `stmt`.
///
/// Returns `Ok(None)` when no loop is bound to a block axis (serial
/// execution is then correct), `Ok(Some(_))` with the entry point when
/// outlining succeeds.
///
/// # Errors
///
/// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a block axis
/// exists but cannot be hoisted: it is nested inside a serial loop,
/// guard, statement sequence or allocation, the body stores outside the
/// output buffer, reads the output back, or stores to output elements
/// that do not depend on the block index.
pub fn outline(stmt: &Stmt, output: &str) -> Result<Option<BlockOutline>, ScheduleError> {
    let Some(block_name) = first_block_axis(stmt) else {
        return Ok(None);
    };
    let fail = |reason: String| ScheduleError::BlockAxisNotOutlinable {
        loop_name: block_name.clone(),
        reason,
    };

    let mut hoisted: Vec<HoistedLet> = Vec::new();
    let mut cur = stmt;
    loop {
        match cur {
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } if kind.is_block_axis() => {
                validate_body(body, output, var, &fail)?;
                return Ok(Some(BlockOutline {
                    hoisted,
                    block_var: var.clone(),
                    min: min.clone(),
                    extent: extent.clone(),
                    bounds_aux: count_loads(min) + count_loads(extent),
                    body: (**body).clone(),
                }));
            }
            Stmt::LetInt { var, value, body } => {
                hoisted.push(HoistedLet {
                    var: var.clone(),
                    value: value.clone(),
                    aux: count_loads(value),
                });
                cur = body;
            }
            Stmt::For { var, .. } => {
                return Err(fail(format!(
                    "it is nested inside the serial loop `{var}`; bind enclosing \
                     loops to block axes (or reorder the schedule) so the block \
                     axis is outermost"
                )));
            }
            Stmt::If { .. } => {
                return Err(fail("a guard encloses it".to_string()));
            }
            Stmt::Seq(_) => {
                return Err(fail(
                    "it is one of several statements in sequence; the sibling \
                     statements would run once per block"
                        .to_string(),
                ));
            }
            Stmt::Alloc { buffer, .. } => {
                return Err(fail(format!(
                    "allocation of `{buffer}` encloses it; blocks would share \
                     the scratch buffer"
                )));
            }
            Stmt::Store { .. } | Stmt::Nop => {
                unreachable!("first_block_axis found a block loop below this node");
            }
        }
    }
}

/// Checks the parallel-safety obligations of an outlined block body.
fn validate_body(
    body: &Stmt,
    output: &str,
    block_var: &str,
    fail: &impl Fn(String) -> ScheduleError,
) -> Result<(), ScheduleError> {
    let slots = StmtSlots::resolve(body);
    for stored in slots.stored_fbuf_names() {
        if stored != output {
            return Err(fail(format!(
                "the block body stores to `{stored}`, which is not the output \
                 buffer `{output}`"
            )));
        }
    }
    if slots.fbuf_is_inplace(output) {
        return Err(fail(format!(
            "the block body reads the output buffer `{output}` back (in-place \
             update); another block's stores could be observed"
        )));
    }
    let mut taint: Vec<String> = vec![block_var.to_string()];
    check_store_dependence(body, output, &mut taint, fail)?;
    // The screen above is syntactic: it asks whether the index *mentions*
    // a block-derived variable. The symbolic pass asks the stronger
    // question — whether the block variable's coefficient survives in the
    // index's linear form — catching cancellations (`out[b - b + i]`,
    // `out[b*0 + i]`) that mention the block variable yet are
    // block-invariant for every shape.
    verify::symbolic_store_check(body, output, block_var)
        .map_err(|e| fail(format!("a store to `{output}` is block-invariant: {e}")))
}

/// Verifies every store to `output` indexes through a tainted variable
/// (the block variable or a `LetInt` derived from it) — the syntactic
/// core of the disjoint-store argument. Bindings that shadow a tainted
/// name un-taint it for their scope.
fn check_store_dependence(
    s: &Stmt,
    output: &str,
    taint: &mut Vec<String>,
    fail: &impl Fn(String) -> ScheduleError,
) -> Result<(), ScheduleError> {
    match s {
        // The loop variable's *values* depend on the block only if the
        // lower bound does (extent taints trip count, not values);
        // a `LetInt` value propagates taint directly.
        Stmt::For { var, min, body, .. } => scoped_binding(var, min, body, output, taint, fail),
        Stmt::LetInt { var, value, body } => scoped_binding(var, value, body, output, taint, fail),
        Stmt::Store { buffer, index, .. } => {
            if buffer == output && !mentions_taint(index, taint) {
                return Err(fail(format!(
                    "a store to `{output}` indexes only block-invariant \
                     variables, so different blocks would write the same \
                     elements\n  store: {}  index: `{index}`",
                    print_c(s).trim_end()
                )));
            }
            Ok(())
        }
        Stmt::If { then_, else_, .. } => {
            check_store_dependence(then_, output, taint, fail)?;
            if let Some(e) = else_ {
                check_store_dependence(e, output, taint, fail)?;
            }
            Ok(())
        }
        Stmt::Seq(items) => {
            for item in items {
                check_store_dependence(item, output, taint, fail)?;
            }
            Ok(())
        }
        Stmt::Alloc { buffer, body, .. } => {
            // Stores to the scratch buffer are private; if it shadows the
            // output name, inner "output" stores are scratch stores.
            if buffer == output {
                return Ok(());
            }
            check_store_dependence(body, output, taint, fail)
        }
        Stmt::Nop => Ok(()),
    }
}

/// One binding site's taint-scoping protocol, shared by `For` and
/// `LetInt`: `var` becomes tainted iff `dep` mentions the taint set,
/// shadows any outer tainted name of the same spelling for the scope of
/// `body`, and both effects are undone on exit.
fn scoped_binding(
    var: &str,
    dep: &Expr,
    body: &Stmt,
    output: &str,
    taint: &mut Vec<String>,
    fail: &impl Fn(String) -> ScheduleError,
) -> Result<(), ScheduleError> {
    let var_tainted = mentions_taint(dep, taint);
    let shadowed = remove_taint(taint, var);
    if var_tainted {
        taint.push(var.to_string());
    }
    let r = check_store_dependence(body, output, taint, fail);
    if var_tainted {
        taint.pop();
    }
    if shadowed {
        taint.push(var.to_string());
    }
    r
}

fn mentions_taint(e: &Expr, taint: &[String]) -> bool {
    taint.iter().any(|t| mentions(Node::Expr(e), t))
}

/// Removes `name` from the taint set if present; returns whether it was.
fn remove_taint(taint: &mut Vec<String>, name: &str) -> bool {
    match taint.iter().position(|t| t == name) {
        Some(i) => {
            taint.remove(i);
            true
        }
        None => false,
    }
}

/// The variable of the first (pre-order) block-bound loop, if any.
fn first_block_axis(s: &Stmt) -> Option<String> {
    match s {
        Stmt::For {
            var, kind, body, ..
        } => {
            if kind.is_block_axis() {
                Some(var.clone())
            } else {
                first_block_axis(body)
            }
        }
        Stmt::LetInt { body, .. } | Stmt::Alloc { body, .. } => first_block_axis(body),
        Stmt::If { then_, else_, .. } => {
            first_block_axis(then_).or_else(|| else_.as_ref().and_then(|e| first_block_axis(e)))
        }
        Stmt::Seq(items) => items.iter().find_map(first_block_axis),
        Stmt::Store { .. } | Stmt::Nop => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_ir::{FExpr, ForKind};

    fn block_store(var: &str) -> Stmt {
        Stmt::store("out", Expr::var(var), FExpr::constant(1.0))
    }

    #[test]
    fn no_block_axis_is_serial() {
        let s = Stmt::loop_("i", Expr::int(4), block_store("i"));
        assert!(outline(&s, "out").unwrap().is_none());
    }

    #[test]
    fn outermost_block_axis_outlines() {
        let s = Stmt::loop_kind(
            "b",
            Expr::load("nb", Expr::int(0)),
            ForKind::GpuBlockX,
            block_store("b"),
        );
        let o = outline(&s, "out").unwrap().expect("outlined");
        assert_eq!(o.block_var, "b");
        assert_eq!(o.bounds_aux, 1, "extent load charged at the header");
        assert!(o.hoisted.is_empty());
        // The body sees `b` free.
        let slots = StmtSlots::resolve(&o.body);
        assert_eq!(slots.free_vars.names(), &["b".to_string()]);
    }

    #[test]
    fn letint_wrappers_are_hoisted() {
        let inner = Stmt::loop_kind("b", Expr::var("h"), ForKind::GpuBlockX, block_store("b"));
        let s = Stmt::LetInt {
            var: "h".into(),
            value: Expr::load("tbl", Expr::int(0)),
            body: Box::new(inner),
        };
        let o = outline(&s, "out").unwrap().expect("outlined");
        assert_eq!(o.hoisted.len(), 1);
        assert_eq!(o.hoisted[0].var, "h");
        assert_eq!(o.hoisted[0].aux, 1);
    }

    #[test]
    fn block_axis_inside_serial_loop_errors() {
        let s = Stmt::loop_(
            "o",
            Expr::int(2),
            Stmt::loop_kind(
                "b",
                Expr::int(3),
                ForKind::GpuBlockX,
                Stmt::store(
                    "out",
                    Expr::var("o") * 3 + Expr::var("b"),
                    FExpr::constant(1.0),
                ),
            ),
        );
        let err = outline(&s, "out").unwrap_err();
        match &err {
            ScheduleError::BlockAxisNotOutlinable { loop_name, reason } => {
                assert_eq!(loop_name, "b");
                assert!(reason.contains("serial loop `o`"), "{reason}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("cannot be outlined"), "{msg}");
    }

    #[test]
    fn store_to_non_output_buffer_errors() {
        let body = block_store("b").then(Stmt::store("tmp", Expr::var("b"), FExpr::constant(0.0)));
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let err = outline(&s, "out").unwrap_err();
        assert!(err.to_string().contains("`tmp`"), "{err}");
    }

    #[test]
    fn inplace_output_read_errors() {
        let body = Stmt::store(
            "out",
            Expr::var("b"),
            FExpr::load("out", Expr::var("b")) * 2.0,
        );
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let err = outline(&s, "out").unwrap_err();
        assert!(err.to_string().contains("in-place"), "{err}");
    }

    #[test]
    fn block_invariant_store_errors() {
        // A reduce-style loop bound to blocks: every block writes out[i].
        let body = Stmt::loop_("i", Expr::int(4), block_store("i"));
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let err = outline(&s, "out").unwrap_err();
        assert!(err.to_string().contains("block-invariant"), "{err}");
    }

    #[test]
    fn letint_derived_indices_count_as_block_dependent() {
        // h = row[b]; out[h + i] = 1 — the hoisted-load pattern.
        let store = Stmt::store("out", Expr::var("h") + Expr::var("i"), FExpr::constant(1.0));
        let inner = Stmt::LetInt {
            var: "h".into(),
            value: Expr::load("row", Expr::var("b")),
            body: Box::new(Stmt::loop_("i", Expr::int(2), store)),
        };
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, inner);
        assert!(outline(&s, "out").unwrap().is_some());
    }

    #[test]
    fn alloc_scratch_stores_are_private() {
        let fill = Stmt::store("tile", Expr::int(0), FExpr::constant(1.0));
        let flush = Stmt::store("out", Expr::var("b"), FExpr::load("tile", Expr::int(0)));
        let body = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(4),
            body: Box::new(fill.then(flush)),
        };
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        assert!(outline(&s, "out").unwrap().is_some());
    }

    #[test]
    fn block_invariant_diagnostic_cites_the_offending_store() {
        // Satellite check: the message carries the pretty-printed store
        // statement and its index expression, not just a category.
        let body = Stmt::loop_("i", Expr::int(4), block_store("i"));
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let msg = outline(&s, "out").unwrap_err().to_string();
        assert!(msg.contains("out[i] = 1.0f;"), "store cited: {msg}");
        assert!(msg.contains("index: `i`"), "index cited: {msg}");
        assert!(msg.contains("block-invariant"), "{msg}");
    }

    #[test]
    fn cancelled_block_coefficient_is_rejected_symbolically() {
        // out[b - b + i] mentions `b`, so the syntactic screen passes;
        // the linear-form pass sees coefficient 0 and rejects.
        let store = Stmt::store(
            "out",
            Expr::var("b") - Expr::var("b") + Expr::var("i"),
            FExpr::constant(1.0),
        );
        let body = Stmt::loop_("i", Expr::int(4), store);
        let s = Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, body);
        let msg = outline(&s, "out").unwrap_err().to_string();
        assert!(msg.contains("coefficient 0"), "{msg}");
        assert!(msg.contains("block-invariant"), "{msg}");
    }

    #[test]
    fn guard_enclosing_block_axis_errors() {
        let s = Stmt::if_then(
            Expr::int(1).lt(Expr::int(2)),
            Stmt::loop_kind("b", Expr::int(2), ForKind::GpuBlockX, block_store("b")),
        );
        let err = outline(&s, "out").unwrap_err();
        assert!(err.to_string().contains("guard"), "{err}");
    }
}
