//! Lowering: Ragged API + schedule → loop-nest IR + prelude spec (§5).
//!
//! The pipeline applies scheduling directives in order (padding, splitting,
//! binding, vloop fusion, bulk padding), builds the statement IR with all
//! tensor accesses lowered through Algorithm 1, elides guards that
//! interval analysis proves redundant (`cora_ir::interval::decide`), and
//! optionally hoists loop-invariant auxiliary loads (§D.7).
//!
//! Memory legality follows the paper: loop padding must be covered by
//! storage padding (§4.1), checked here; bulk padding follows §6's
//! contract — "our implementation currently expects users to correctly
//! allocate memory (taking into account padding requirements as specified
//! in the schedule)".
//!
//! **Shape-generic code.** A parameter extent (a fused extent, or a shape
//! parameter declared with [`crate::api::LoopSpec::param`]) is emitted as
//! a read of the parameter, and lowering never reads its value when
//! deciding what code to emit: guard elision treats it as unbounded
//! above, and a split of a shape parameter is always tail-guarded (a
//! fused extent's split must divide, which bulk padding ensures). The
//! value reaches only the per-shape part of a [`Program`] — its prelude,
//! output size and block costs — so operators that differ only in
//! parameter values lower to equal statements, and one compiled program
//! serves them all ([`Program::rebind`]).

use std::collections::HashMap;

use cora_ir::interval::{decide, range_of};
use cora_ir::simplify::simplify_cond;
use cora_ir::visit::{mentions, subst, subst_cond, Node};
use cora_ir::{Cond, Expr, ExprKind, FExprKind, ForKind, SInt, Stmt, StoreKind};
use cora_ragged::LengthFn;

use crate::api::{LoopExtent, Operator};
use crate::prelude_gen::{FusionSpec, PreludeSpec};
use crate::program::{BlockCost, Program};
use crate::schedule::{Directive, ScheduleError};

/// A loop after scheduling, before statement construction.
#[derive(Debug, Clone)]
struct LoweredLoop {
    var: String,
    extent: ExtentIr,
    kind: ForKind,
}

/// Extent representation of a scheduled loop.
#[derive(Debug, Clone)]
enum ExtentIr {
    Const(i64),
    /// Extent read from a prelude-built table at the value of the loop it
    /// depends on: that loop's variable, rewritten like every other
    /// index when the loop is later split or fused.
    Table {
        buffer: String,
        index: Expr,
        lens: LengthFn,
    },
    /// Extent is a runtime parameter bound by the prelude, over the
    /// product of the factors the loop has since been split by. A fused
    /// extent is bulk-padded before splitting, so it divides exactly
    /// (`var / div`); a shape parameter rounds up (`⌈var / div⌉`) and its
    /// splits are tail-guarded. `value` is the extent at this shape, read
    /// only for fusion maps and block costs.
    Param {
        var: String,
        div: i64,
        value: i64,
        fused: bool,
    },
}

impl ExtentIr {
    fn to_expr(&self) -> Expr {
        match self {
            ExtentIr::Const(e) => Expr::int(*e),
            ExtentIr::Table { buffer, index, .. } => Expr::load(buffer.clone(), index.clone()),
            ExtentIr::Param { var, div: 1, .. } => Expr::var(var.clone()),
            ExtentIr::Param {
                var,
                div,
                fused: true,
                ..
            } => Expr::var(var.clone()).floor_div(Expr::int(*div)),
            ExtentIr::Param { var, div, .. } => {
                (Expr::var(var.clone()) + Expr::int(div - 1)).floor_div(Expr::int(*div))
            }
        }
    }

    /// The loop a table extent is read at, while its index is that loop's
    /// bare variable (not yet rebuilt by a split or fusion of the loop).
    fn dep_var(&self) -> Option<&str> {
        match self {
            ExtentIr::Table { index, .. } => match index.kind() {
                ExprKind::Var(v) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }

    /// The loop variable's range for guard elision. A parameter extent
    /// is unbounded above: no guard is dropped on the strength of one
    /// shape's value.
    fn var_range(&self) -> SInt {
        match self {
            ExtentIr::Const(e) => SInt::range(0, e - 1),
            ExtentIr::Table { lens, .. } => SInt::range(0, lens.max() as i64 - 1),
            ExtentIr::Param { .. } => SInt::range(0, i64::MAX),
        }
    }
}

/// Lowers an operator to an executable [`Program`].
///
/// # Errors
///
/// Returns a [`ScheduleError`] when the schedule is illegal (unknown
/// loops, loop padding beyond storage padding, splitting unpadded vloops,
/// non-adjacent fusion).
pub fn lower(op: &Operator) -> Result<Program, ScheduleError> {
    let (loops, body, prelude) = schedule(op)?;
    // ---- Block-cost metadata for the GPU simulator ----------------------
    let block_costs = derive_block_costs(&loops, count_flops(Node::Stmt(&body)));
    Ok(Program::new(
        op.name.clone(),
        body,
        prelude,
        op.schedule.remap_policy(),
        op.output.name().to_string(),
        op.output.layout().size(),
        op.init,
        block_costs,
    ))
}

/// Applies the schedule and builds the statement: the scheduled loops
/// (outermost first), the lowered statement and its prelude
/// requirements.
fn schedule(op: &Operator) -> Result<(Vec<LoweredLoop>, Stmt, PreludeSpec), ScheduleError> {
    let mut loops: Vec<LoweredLoop> = Vec::new();
    let n_spatial = op.loops.len();
    // Map original loop name -> expression reconstructing it from the
    // scheduled loops.
    let mut var_map: HashMap<String, Expr> = HashMap::new();
    // Tail guards of non-dividing constant splits, over the scheduled
    // loops' variables (rewritten with `var_map` by `substitute_all`).
    let mut guards: Vec<Cond> = Vec::new();
    // Original loop name -> position of its *spec* (for dep resolution).
    let spatial_names: Vec<String> = op.loops.iter().map(|l| l.name.clone()).collect();

    let mut prelude = PreludeSpec::new();
    for t in op.inputs.iter().chain(std::iter::once(&op.output)) {
        prelude.add_tensor(t.name(), t.layout_arc());
    }

    for spec in op.loops.iter().chain(op.reduce.iter()) {
        let extent = match &spec.extent {
            LoopExtent::Fixed(e) => ExtentIr::Const(*e as i64),
            LoopExtent::Variable { dep, lens } => {
                let dep_name = spatial_names
                    .get(*dep)
                    .unwrap_or_else(|| {
                        panic!(
                            "loop `{}` depends on loop index {dep} out of range",
                            spec.name
                        )
                    })
                    .clone();
                let buffer = format!("{}__ext_{}", op.name, spec.name);
                ExtentIr::Table {
                    buffer,
                    index: Expr::var(dep_name),
                    lens: lens.clone(),
                }
            }
            LoopExtent::Param { param, value } => {
                let value = *value as i64;
                prelude.add_param(param, value);
                ExtentIr::Param {
                    var: param.clone(),
                    div: 1,
                    value,
                    fused: false,
                }
            }
        };
        // Operation splitting shifts the loop variable: the body sees
        // `var + shift_table[dep]` while the loop itself runs from 0.
        let reconstructed = match op.shifts.iter().find(|s| s.loop_name == spec.name) {
            Some(shift) => {
                let dep_name = spatial_names[shift.dep].clone();
                prelude.add_loop_table(&shift.buffer, shift.lens.clone());
                Expr::var(spec.name.clone()) + Expr::load(shift.buffer.clone(), Expr::var(dep_name))
            }
            None => Expr::var(spec.name.clone()),
        };
        var_map.insert(spec.name.clone(), reconstructed);
        loops.push(LoweredLoop {
            var: spec.name.clone(),
            extent,
            kind: ForKind::Serial,
        });
    }

    let mut fusions: Vec<FusionSpec> = Vec::new();

    for directive in op.schedule.directives() {
        match directive {
            Directive::PadLoop {
                loop_name,
                multiple,
            } => {
                let idx = find_loop(&loops, loop_name)?;
                match &mut loops[idx].extent {
                    ExtentIr::Table { lens, .. } => {
                        // Legality: if this is a spatial loop, the output
                        // storage padding must cover the loop padding.
                        if let Some(dpos) = op.loops.iter().position(|l| &l.name == loop_name) {
                            let out_lens = op.output.layout().padded_lens(dpos);
                            if let Some(store_lens) = out_lens {
                                let loop_padded = lens.padded(*multiple);
                                for (&lp, &sp) in
                                    loop_padded.as_slice().iter().zip(store_lens.as_slice())
                                {
                                    if lp > sp {
                                        return Err(ScheduleError::LoopPaddingExceedsStorage {
                                            loop_name: loop_name.clone(),
                                            loop_pad: *multiple,
                                            storage_pad: op.output.layout().dims()[dpos].pad,
                                        });
                                    }
                                }
                            }
                        }
                        *lens = lens.padded(*multiple);
                    }
                    ExtentIr::Const(e) => {
                        *e = (*e as usize).div_ceil(*multiple) as i64 * *multiple as i64;
                    }
                    ExtentIr::Param { .. } => {
                        // Padding a fused loop is bulk padding; redirect.
                        return Err(ScheduleError::UnknownLoop(format!(
                            "{loop_name} (a parameter extent cannot be loop-padded; \
                             use bulk_pad for fused loops)"
                        )));
                    }
                }
            }
            Directive::Split { loop_name, factor } => {
                let idx = find_loop(&loops, loop_name)?;
                let f = *factor as i64;
                let vo = format!("{loop_name}_o");
                let vi = format!("{loop_name}_i");
                // The original variable, rebuilt from the two halves.
                let rebuilt = Expr::var(vo.clone()) * f + Expr::var(vi.clone());
                let outer_ext = match &loops[idx].extent {
                    ExtentIr::Const(e) => {
                        // A non-dividing split over-runs in its last outer
                        // iteration; the tail guard cuts it off.
                        if e % f != 0 {
                            guards.push(rebuilt.clone().lt(Expr::int(*e)));
                        }
                        ExtentIr::Const((*e + f - 1) / f)
                    }
                    ExtentIr::Table {
                        buffer,
                        index,
                        lens,
                    } => {
                        if lens.as_slice().iter().any(|&l| l % factor != 0) {
                            return Err(ScheduleError::SplitUnpaddedVloop {
                                loop_name: loop_name.clone(),
                                factor: *factor,
                            });
                        }
                        let outer_lens =
                            LengthFn::new(lens.as_slice().iter().map(|&l| l / factor).collect());
                        ExtentIr::Table {
                            buffer: format!("{buffer}_o"),
                            index: index.clone(),
                            lens: outer_lens,
                        }
                    }
                    ExtentIr::Param {
                        var,
                        div,
                        value,
                        fused: true,
                    } => {
                        // Fused loops are padded to a multiple before
                        // splitting (bulk padding), so require divisibility.
                        if value % f != 0 {
                            return Err(ScheduleError::SplitUnpaddedVloop {
                                loop_name: loop_name.clone(),
                                factor: *factor,
                            });
                        }
                        // The prelude binds only the fused extent itself,
                        // so the outer half stays an expression over it.
                        ExtentIr::Param {
                            var: var.clone(),
                            div: div * f,
                            value: value / f,
                            fused: true,
                        }
                    }
                    param @ ExtentIr::Param {
                        var, div, value, ..
                    } => {
                        // The code cannot know whether a shape parameter
                        // divides, so its last outer iteration is always
                        // guarded. ⌈⌈n/a⌉/b⌉ = ⌈n/(ab)⌉: the outer half
                        // stays one expression over the parameter.
                        guards.push(rebuilt.clone().lt(param.to_expr()));
                        ExtentIr::Param {
                            var: var.clone(),
                            div: div * f,
                            value: (*value + f - 1) / f,
                            fused: false,
                        }
                    }
                };
                substitute_all(&mut var_map, &mut guards, &mut loops, loop_name, &rebuilt);
                let kind = loops[idx].kind;
                loops[idx] = LoweredLoop {
                    var: vo,
                    extent: outer_ext,
                    kind,
                };
                loops.insert(
                    idx + 1,
                    LoweredLoop {
                        var: vi,
                        extent: ExtentIr::Const(f),
                        kind: ForKind::Serial,
                    },
                );
            }
            Directive::Bind { loop_name, kind } => {
                let idx = find_loop(&loops, loop_name)?;
                loops[idx].kind = *kind;
            }
            Directive::FuseLoops { outer, inner } => {
                let oi = find_loop(&loops, outer)?;
                let ii = find_loop(&loops, inner)?;
                if ii != oi + 1 {
                    return Err(ScheduleError::NonAdjacentFusion {
                        outer: outer.clone(),
                        inner: inner.clone(),
                    });
                }
                // The outer trip count feeds only the prelude's fusion
                // maps, so an unsplit shape parameter fuses like a
                // constant.
                let outer_count = match &loops[oi].extent {
                    ExtentIr::Const(m)
                    | ExtentIr::Param {
                        value: m,
                        div: 1,
                        fused: false,
                        ..
                    } => Some(*m as usize),
                    _ => None,
                };
                let (outer_extent, inner_lens) = match (outer_count, &loops[ii].extent) {
                    (Some(m), inner @ ExtentIr::Table { lens, .. })
                        if inner.dep_var() == Some(loops[oi].var.as_str()) =>
                    {
                        (m, lens.clone())
                    }
                    // Fusing two constant loops is ordinary dense fusion.
                    (Some(m), ExtentIr::Const(e)) => (m, LengthFn::new(vec![*e as usize; m])),
                    _ => {
                        return Err(ScheduleError::NonAdjacentFusion {
                            outer: outer.clone(),
                            inner: inner.clone(),
                        })
                    }
                };
                let fused = format!("{}_{}_f", loops[oi].var, loops[ii].var);
                let spec = FusionSpec::new(fused.clone(), outer_extent, inner_lens.clone());
                let total = spec.fused_extent();
                // Body reconstructs o and i from the prelude maps.
                let o_expr = Expr::load(format!("{fused}__ffo"), Expr::var(fused.clone()));
                let i_expr = Expr::load(format!("{fused}__ffi"), Expr::var(fused.clone()));
                substitute_all(&mut var_map, &mut guards, &mut loops, outer, &o_expr);
                substitute_all(&mut var_map, &mut guards, &mut loops, inner, &i_expr);
                let kind = loops[oi].kind;
                loops[oi] = LoweredLoop {
                    var: fused.clone(),
                    extent: ExtentIr::Param {
                        var: format!("F_{fused}"),
                        div: 1,
                        value: total as i64,
                        fused: true,
                    },
                    kind,
                };
                loops.remove(ii);
                fusions.push(spec);
            }
            Directive::BulkPad {
                loop_name,
                multiple,
            } => {
                let idx = find_loop(&loops, loop_name)?;
                let fused_var = loops[idx].var.clone();
                let Some(spec) = fusions.iter_mut().find(|f| f.name() == fused_var) else {
                    return Err(ScheduleError::UnknownLoop(format!(
                        "{loop_name} is not a fused loop"
                    )));
                };
                spec.bulk_pad(*multiple);
                if let ExtentIr::Param { value, .. } = &mut loops[idx].extent {
                    *value = spec.fused_extent() as i64;
                }
            }
            Directive::Reorder { order } => {
                if order.len() != loops.len()
                    || !loops.iter().all(|l| order.iter().any(|n| n == &l.var))
                {
                    return Err(ScheduleError::UnknownLoop(format!(
                        "reorder [{}] is not a permutation of the current loops [{}]",
                        order.join(", "),
                        loops
                            .iter()
                            .map(|l| l.var.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                let mut reordered = Vec::with_capacity(loops.len());
                for name in order {
                    let idx = find_loop(&loops, name)?;
                    reordered.push(loops[idx].clone());
                }
                // §4.1: a vloop cannot move outside the loops its extent
                // depends on.
                for (pos, l) in reordered.iter().enumerate() {
                    if let ExtentIr::Table { index, .. } = &l.extent {
                        let inner = &reordered[pos..];
                        let dep_ok = inner.iter().all(|o| !mentions(Node::Expr(index), &o.var));
                        if !dep_ok {
                            return Err(ScheduleError::VloopReorderedPastDependence {
                                loop_name: l.var.clone(),
                            });
                        }
                    }
                }
                loops = reordered;
            }
            Directive::ThreadRemap(_) | Directive::HoistLoads => {
                // Consumed from the schedule directly (see below).
            }
        }
    }

    // ---- Build the body ----------------------------------------------
    let ordered_names: Vec<String> = op
        .loops
        .iter()
        .chain(op.reduce.iter())
        .map(|l| l.name.clone())
        .collect();
    let arg_exprs: Vec<Expr> = ordered_names.iter().map(|n| var_map[n].clone()).collect();
    let value = (op.body)(&arg_exprs);
    let out_index = op.output.offset(&arg_exprs[..n_spatial]);
    let store_kind = if op.reduce.is_empty() {
        StoreKind::Assign
    } else {
        op.reduce_kind
    };
    let mut body = Stmt::Store {
        buffer: op.output.name().to_string(),
        index: out_index,
        value,
        kind: store_kind,
    };

    // ---- Assemble loops (innermost-first wrap) -------------------------
    let ranges: HashMap<String, SInt> = loops
        .iter()
        .map(|l| (l.var.clone(), l.extent.var_range()))
        .collect();
    for l in loops.iter().rev() {
        // A guard sits directly inside the innermost loop it mentions,
        // unless it holds over every loop range (then it is redundant).
        let (here, outside) = guards
            .into_iter()
            .partition(|g| mentions(Node::Cond(g), &l.var));
        guards = outside;
        for g in here.iter().map(simplify_cond) {
            if decide(&g, &ranges) != Some(true) {
                body = Stmt::if_then(g, body);
            }
        }
        body = Stmt::For {
            var: l.var.clone(),
            min: Expr::int(0),
            extent: l.extent.to_expr(),
            kind: l.kind,
            body: Box::new(body),
        };
    }
    debug_assert!(guards.is_empty(), "a tail guard mentions its split loops");
    if op.schedule.hoisting_enabled() {
        body = cora_ir::visit::hoist_loads(&body);
    }

    // ---- Prelude requirements ------------------------------------------
    for l in &loops {
        if let ExtentIr::Table { buffer, lens, .. } = &l.extent {
            prelude.add_loop_table(buffer, lens.clone());
        }
    }
    for (name, values) in &op.aux_tables {
        prelude.add_loop_table(name, values.clone());
    }
    for f in fusions {
        prelude.add_fusion(f);
    }
    Ok((loops, body, prelude))
}

fn find_loop(loops: &[LoweredLoop], name: &str) -> Result<usize, ScheduleError> {
    loops
        .iter()
        .position(|l| l.var == name)
        .ok_or_else(|| ScheduleError::UnknownLoop(name.to_string()))
}

/// Rewrites every mapping in `var_map` that mentions `name`, the entry
/// for `name` itself, every pending tail guard and every table extent's
/// index, in terms of `replacement` — so a guard or a vloop's extent
/// follows its loop through later splits and fusions.
fn substitute_all(
    var_map: &mut HashMap<String, Expr>,
    guards: &mut [Cond],
    loops: &mut [LoweredLoop],
    name: &str,
    replacement: &Expr,
) {
    let single = HashMap::from([(name.to_string(), replacement.clone())]);
    for v in var_map.values_mut() {
        *v = subst(v, &single);
    }
    for g in guards {
        *g = subst_cond(g, &single);
    }
    for l in loops {
        if let ExtentIr::Table { index, .. } = &mut l.extent {
            *index = subst(index, &single);
        }
    }
}

/// FLOPs of one execution of `n` (the lowered body holds a single
/// store): one per float operator and per reducing store. A guard costs
/// its taken branch and a select its dearer one — the only nodes spelled;
/// the rest sum their children.
fn count_flops(n: Node<'_>) -> f64 {
    let mut flops = match n {
        Node::Stmt(Stmt::If { then_, .. }) => return count_flops(Node::Stmt(then_)),
        Node::Stmt(Stmt::Store { kind, .. }) if *kind != StoreKind::Assign => 1.0,
        Node::FExpr(e) => match e.kind() {
            FExprKind::Select(_, a, b) => {
                return count_flops(Node::FExpr(a)).max(count_flops(Node::FExpr(b)));
            }
            FExprKind::Bin(..) | FExprKind::Unary(..) => 1.0,
            _ => 0.0,
        },
        // Index arithmetic is free.
        Node::Expr(_) | Node::Cond(_) => return 0.0,
        Node::Stmt(_) => 0.0,
    };
    n.for_each_child(|c| flops += count_flops(c));
    flops
}

/// A loop's trip count as block-cost enumeration resolves it: fixed at
/// this shape, a table read at the index of an enumerated outer loop, or
/// (for a loop inside the block) the largest table entry over the range
/// its rebuilt index spans within the block.
#[derive(Clone, Copy)]
enum CostExtent<'a> {
    Fixed(i64),
    At(usize, &'a LengthFn),
    Hull(&'a Expr, &'a LengthFn),
}

impl CostExtent<'_> {
    /// The trip count at the enumerated indices `idx`; `ranges` holds the
    /// inner loops' ranges and is read only by [`CostExtent::Hull`].
    fn at(self, idx: &[i64], names: &[&str], ranges: &HashMap<String, SInt>) -> i64 {
        match self {
            CostExtent::Fixed(e) => e,
            CostExtent::At(dep, lens) => lens.len_at(idx[dep] as usize) as i64,
            CostExtent::Hull(index, lens) => {
                let mut ranges = ranges.clone();
                for (name, &v) in names.iter().zip(idx) {
                    ranges.insert(name.to_string(), SInt::point(v));
                }
                let last = lens.domain() as i64 - 1;
                match range_of(index, &ranges).hull() {
                    Some((lo, hi)) => (lo.max(0)..=hi.min(last))
                        .map(|i| lens.len_at(i as usize) as i64)
                        .max()
                        .unwrap_or(0),
                    None => lens.max() as i64,
                }
            }
        }
    }
}

/// Derives per-block FLOP counts: the iterations of the loops at or
/// outside the outermost block-bound loop are blocks; each block's work
/// is the product of inner extents times the body FLOPs, resolved
/// against the extent tables at the block's outer indices.
fn derive_block_costs(loops: &[LoweredLoop], body_flops: f64) -> Vec<BlockCost> {
    let block_pos = loops
        .iter()
        .position(|l| l.kind.is_block_axis())
        .unwrap_or(0);
    let outer = (block_pos + 1).min(loops.len());
    // A table indexed by an enumerated loop's variable resolves at that
    // loop's index — one outside it, or, for loops inside the block, any
    // of the enumerated ones. Inside the block, any other index (one a
    // split rebuilt, say `i_o * 64 + i_i`) resolves to the table's
    // largest entry over the index's range at the block's indices; an
    // enumerated loop's falls back to the table's maximum (conservative).
    let extents: Vec<CostExtent<'_>> = loops
        .iter()
        .enumerate()
        .map(|(pos, l)| match &l.extent {
            ExtentIr::Const(e) | ExtentIr::Param { value: e, .. } => CostExtent::Fixed(*e),
            ExtentIr::Table { lens, index, .. } => {
                let enumerated = &loops[..pos.min(outer)];
                let dep = l.extent.dep_var();
                match dep.and_then(|v| enumerated.iter().position(|o| o.var == v)) {
                    Some(dep) => CostExtent::At(dep, lens),
                    None if pos >= outer => CostExtent::Hull(index, lens),
                    None => CostExtent::Fixed(lens.max() as i64),
                }
            }
        })
        .collect();
    let names: Vec<&str> = loops[..outer].iter().map(|l| l.var.as_str()).collect();
    let inner = loops[outer..].iter();
    let ranges: HashMap<String, SInt> = inner
        .map(|l| (l.var.clone(), l.extent.var_range()))
        .collect();
    let mut costs = Vec::new();
    let mut idx = vec![0; outer];
    let ctx = (names.as_slice(), &ranges);
    enumerate_blocks(&extents, 0, body_flops, &mut idx, ctx, &mut costs);
    costs
}

/// Iterates the enumerated loops from position `at` concretely (`idx`
/// holds the outer ones' indices, `ctx` their names and the inner loops'
/// ranges) and pushes one cost per block.
fn enumerate_blocks(
    extents: &[CostExtent<'_>],
    at: usize,
    body_flops: f64,
    idx: &mut [i64],
    ctx: (&[&str], &HashMap<String, SInt>),
    out: &mut Vec<BlockCost>,
) {
    if at == idx.len() {
        let mut work = body_flops;
        for e in &extents[at..] {
            work *= e.at(idx, ctx.0, ctx.1) as f64;
        }
        out.push(BlockCost { flops: work });
        return;
    }
    for v in 0..extents[at].at(idx, ctx.0, ctx.1) {
        idx[at] = v;
        enumerate_blocks(extents, at + 1, body_flops, idx, ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use cora_ir::FExpr;
    use cora_ragged::{Dim, RaggedLayout};

    use super::*;
    use crate::api::{BodyFn, LoopSpec, TensorRef};
    use crate::schedule::RemapPolicy;

    /// The block-cost enumeration [`derive_block_costs`] replaced: outer
    /// indices in a map keyed by loop name, one cloned key per block.
    /// Kept as the reference the positional version must match bit for
    /// bit.
    fn reference_block_costs(loops: &[LoweredLoop], body_flops: f64) -> Vec<BlockCost> {
        fn enumerate(
            loops: &[LoweredLoop],
            at: usize,
            block_pos: usize,
            body_flops: f64,
            idx: &mut HashMap<String, i64>,
            out: &mut Vec<BlockCost>,
        ) {
            let extent_of = |l: &LoweredLoop, idx: &HashMap<String, i64>| match &l.extent {
                ExtentIr::Const(e) => *e,
                ExtentIr::Param { value, .. } => *value,
                ExtentIr::Table { lens, .. } => match l.extent.dep_var().and_then(|v| idx.get(v)) {
                    Some(&v) => lens.len_at(v as usize) as i64,
                    None => lens.max() as i64,
                },
            };
            if at > block_pos {
                let mut work = body_flops;
                for l in &loops[at..] {
                    work *= extent_of(l, idx) as f64;
                }
                out.push(BlockCost { flops: work });
                return;
            }
            let l = &loops[at];
            for v in 0..extent_of(l, idx) {
                idx.insert(l.var.clone(), v);
                enumerate(loops, at + 1, block_pos, body_flops, idx, out);
            }
            idx.remove(&l.var);
        }
        let block_pos = loops
            .iter()
            .position(|l| l.kind.is_block_axis())
            .unwrap_or(0);
        let mut costs = Vec::new();
        enumerate(
            loops,
            0,
            block_pos,
            body_flops,
            &mut HashMap::new(),
            &mut costs,
        );
        costs
    }

    /// Lowers `op` and checks its block costs against the reference
    /// enumeration over the same scheduled loops.
    fn assert_block_costs_match(op: &Operator) {
        let (loops, body, _) = schedule(op).expect("legal schedule");
        let want = reference_block_costs(&loops, count_flops(Node::Stmt(&body)));
        let program = lower(op).expect("legal schedule");
        let bits = |c: &[BlockCost]| c.iter().map(|b| b.flops.to_bits()).collect::<Vec<_>>();
        assert!(!want.is_empty(), "`{}` has blocks", op.name);
        assert_eq!(bits(program.block_costs()), bits(&want), "`{}`", op.name);
    }

    /// An operator whose body is one float op per point: only the loop
    /// structure and schedule matter to block costs.
    fn nest(
        name: &str,
        loops: Vec<LoopSpec>,
        reduce: Vec<LoopSpec>,
        out: RaggedLayout,
    ) -> Operator {
        let out = TensorRef::new("Out", out);
        let body: BodyFn = Rc::new(|_| FExpr::constant(1.0) * 2.0);
        Operator::new(name, loops, reduce, out, vec![], body)
    }

    /// The loop nests of the compiled encoder's stages (the transformer
    /// crate's stage table, which this crate cannot see), at one batch
    /// shape: row stages over the `rows` parameter, attention stages over
    /// `head_rows` with `attend[hr]` keys per row.
    fn encoder_stage_nests(lens: &[usize], causal: bool) -> Vec<Operator> {
        let (hidden, heads, hd, ff) = (64, 8, 8, 256);
        let rows: usize = lens.iter().sum();
        let mut attend = Vec::new();
        for _ in 0..heads {
            for &len in lens {
                attend.extend((0..len).map(|pos| if causal { pos + 1 } else { len }));
            }
        }
        let hr = attend.len();
        let r = || LoopSpec::param("r", "rows", rows);
        let hr_loop = || LoopSpec::param("hr", "head_rows", hr);
        let j = || LoopSpec::variable("j", 0, attend.clone());
        let scores_layout = || {
            let (row, key) = (Dim::new("row"), Dim::new("key"));
            RaggedLayout::builder()
                .cdim(row.clone(), hr)
                .vdim(key, &row, attend.clone())
                .build()
                .expect("per-row ragged layout")
        };
        let mut ops = Vec::new();
        for (name, k, n) in [
            ("qkv_proj", hidden, 3 * hidden),
            ("ff1", hidden, ff),
            ("ff2", ff, hidden),
        ] {
            let mut op = nest(
                name,
                vec![r(), LoopSpec::fixed("c", n)],
                vec![LoopSpec::fixed("d", k)],
                RaggedLayout::dense(&[rows, n]),
            );
            op.schedule_mut()
                .reorder(&["r", "d", "c"])
                .bind("r", ForKind::GpuBlockX);
            ops.push(op);
        }
        for (name, n) in [("bias", 3 * hidden), ("bias_gelu", ff), ("ln_norm", hidden)] {
            let mut op = nest(
                name,
                vec![r(), LoopSpec::fixed("c", n)],
                vec![],
                RaggedLayout::dense(&[rows, n]),
            );
            op.schedule_mut().bind("r", ForKind::GpuBlockX);
            ops.push(op);
        }
        let mut ln_sum = nest(
            "ln_sum",
            vec![r()],
            vec![LoopSpec::fixed("d", hidden)],
            RaggedLayout::dense(&[rows]),
        );
        ln_sum.schedule_mut().bind("r", ForKind::GpuBlockX);
        ops.push(ln_sum);
        let scores = nest(
            "scores",
            vec![hr_loop(), j()],
            vec![LoopSpec::fixed("d", hd)],
            scores_layout(),
        );
        let sweep = nest("sweep", vec![hr_loop(), j()], vec![], scores_layout());
        let row_reduce = nest(
            "row_reduce",
            vec![hr_loop()],
            vec![j()],
            RaggedLayout::dense(&[hr]),
        );
        let mut attnv = nest(
            "attnv",
            vec![hr_loop(), LoopSpec::fixed("e", hd)],
            vec![j()],
            RaggedLayout::dense(&[hr, hd]),
        );
        attnv.schedule_mut().reorder(&["hr", "j", "e"]);
        for mut op in [scores, sweep, row_reduce, attnv] {
            op.schedule_mut()
                .bind("hr", ForKind::GpuBlockX)
                .thread_remap(RemapPolicy::LongestFirst);
            ops.push(op);
        }
        let mut out_proj = nest(
            "out_proj",
            vec![r(), LoopSpec::fixed("c", hidden)],
            vec![LoopSpec::fixed("head", heads), LoopSpec::fixed("e", hd)],
            RaggedLayout::dense(&[rows, hidden]),
        );
        out_proj
            .schedule_mut()
            .reorder(&["r", "head", "e", "c"])
            .bind("r", ForKind::GpuBlockX);
        ops.push(out_proj);
        ops
    }

    #[test]
    fn block_costs_match_the_reference_for_every_encoder_stage_nest() {
        // The program goldens' two shapes: zero-length and single-token
        // sequences, and an MNLI-like batch.
        for lens in [
            &[5usize, 0, 3, 1, 7, 12, 1, 0][..],
            &[21, 34, 9, 17, 40, 13, 28, 6],
        ] {
            for causal in [false, true] {
                for op in encoder_stage_nests(lens, causal) {
                    assert_block_costs_match(&op);
                }
            }
        }
    }

    #[test]
    fn block_costs_match_the_reference_for_split_and_fused_nests() {
        // A row nest split by non-dividing factors, once and twice: the
        // block axis moves to the outer half.
        for (rows, splits) in [(10, &[4][..]), (10, &[3]), (7, &[8]), (10, &[4, 2])] {
            let mut op = nest(
                "split",
                vec![LoopSpec::param("r", "rows", rows), LoopSpec::fixed("c", 4)],
                vec![LoopSpec::fixed("d", 4)],
                RaggedLayout::dense(&[rows, 4]),
            );
            let schedule = op.schedule_mut();
            schedule
                .reorder(&["r", "d", "c"])
                .bind("r", ForKind::GpuBlockX);
            let mut name = String::from("r");
            for &factor in splits {
                schedule.split(name.clone(), factor);
                name.push_str("_o");
            }
            assert_block_costs_match(&op);
        }
        // A fused ragged nest, bulk-padded, then split and bound — and
        // unbound, so the costs enumerate the fused loop itself.
        for (lens, splits) in [
            (&[4usize, 8, 4][..], &[4][..]),
            (&[4, 3], &[2, 2]),
            (&[4, 3], &[]),
        ] {
            let batch = Dim::new("batch");
            let layout = RaggedLayout::builder()
                .cdim(batch.clone(), lens.len())
                .vdim(Dim::new("len"), &batch, lens.to_vec())
                .build()
                .expect("a legal layout");
            let mut op = nest(
                "fused",
                vec![
                    LoopSpec::fixed("o", lens.len()),
                    LoopSpec::variable("i", 0, lens.to_vec()),
                ],
                vec![],
                layout,
            );
            let schedule = op.schedule_mut();
            schedule.fuse_loops("o", "i").bulk_pad("o_i_f", 4);
            let mut name = String::from("o_i_f");
            for &factor in splits {
                schedule.split(name.clone(), factor);
                name.push_str("_o");
            }
            if !splits.is_empty() {
                schedule.bind(name, ForKind::GpuBlockX);
            }
            assert_block_costs_match(&op);
        }
    }

    #[test]
    fn a_table_indexed_by_a_split_index_resolves_per_tile() {
        let flops = |op: &Operator| -> Vec<f64> {
            let program = lower(op).expect("legal schedule");
            program.block_costs().iter().map(|b| b.flops).collect()
        };
        // Tiled trmm, `C[i, j] += L[i, k] · B[k, j]` over `k ≤ i`: each
        // 64×64 tile reduces over its longest row, 64·bi + 64.
        let n = 256;
        let mut trmm = nest(
            "trmm",
            vec![LoopSpec::fixed("i", n), LoopSpec::fixed("j", n)],
            vec![LoopSpec::variable("k", 0, (1..=n).collect::<Vec<_>>())],
            RaggedLayout::dense(&[n, n]),
        );
        trmm.schedule_mut()
            .split("i", 64)
            .split("j", 64)
            .reorder(&["i_o", "j_o", "i_i", "j_i", "k"])
            .bind("j_o", ForKind::GpuBlockX);
        let tile = |bi: usize| 2.0 * 64.0 * (64 * bi + 64) as f64 * 64.0;
        let want: Vec<f64> = (0..4).flat_map(|bi| [tile(bi); 4]).collect();
        assert_eq!(flops(&trmm), want);
        // An unordered table under a non-dividing split: each tile reads
        // the largest entry of its rows, the last tile only its one row.
        let lens = vec![3usize, 9, 1, 4, 7];
        let mut op = nest(
            "rows",
            vec![LoopSpec::fixed("i", 5)],
            vec![LoopSpec::variable("k", 0, lens)],
            RaggedLayout::dense(&[5]),
        );
        op.schedule_mut()
            .split("i", 2)
            .bind("i_o", ForKind::GpuBlockX);
        assert_eq!(
            flops(&op),
            [2.0 * 2.0 * 9.0, 2.0 * 2.0 * 4.0, 2.0 * 2.0 * 7.0]
        );
    }

    #[test]
    fn a_shape_parameter_lowers_to_one_statement_at_every_value() {
        let op = |rows: usize, split: usize| {
            let mut op = nest(
                "rows",
                vec![LoopSpec::param("r", "rows", rows), LoopSpec::fixed("c", 4)],
                vec![],
                RaggedLayout::dense(&[rows, 4]),
            );
            op.schedule_mut().split("r", split);
            lower(&op).expect("legal schedule")
        };
        // A dividing and a non-dividing value emit the same statement:
        // the split is guarded either way, and the value is prelude data.
        let (a, b) = (op(8, 4), op(10, 4));
        assert_eq!(a.stmt(), b.stmt(), "{}\n{}", a.c_source(), b.c_source());
        assert_eq!(a.stmt().count_guards(), 1, "{}", a.c_source());
        assert!(a.c_source().contains("(rows + 3)/4"), "{}", a.c_source());
        assert_eq!(a.prelude_spec().build().params, [("rows".to_string(), 8)]);
        assert_eq!(b.prelude_spec().build().params, [("rows".to_string(), 10)]);
        assert_eq!((a.block_costs().len(), b.block_costs().len()), (2, 3));
    }

    #[test]
    fn a_shape_parameter_fuses_with_its_ragged_inner_loop_like_a_constant() {
        // `B[o, i] = 2·A[o, i]` over `n` ragged rows: fusing the
        // parameter loop with its vloop (§4.1's `(hr, j)` fusion) builds
        // the fusion maps from the parameter's value, and the fused code
        // is the same at every row count.
        let op = |lens: &[usize], fuse: bool| {
            let layout = || {
                let batch = Dim::new("batch");
                RaggedLayout::builder()
                    .cdim(batch.clone(), lens.len())
                    .vdim(Dim::new("len"), &batch, lens.to_vec())
                    .build()
                    .expect("a legal layout")
            };
            let a = TensorRef::new("A", layout());
            let a2 = a.clone();
            let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0);
            let loops = vec![
                LoopSpec::param("o", "n", lens.len()),
                LoopSpec::variable("i", 0, lens.to_vec()),
            ];
            let out = TensorRef::new("B", layout());
            let mut op = Operator::new("ragged", loops, vec![], out, vec![a], body);
            if fuse {
                op.schedule_mut().fuse_loops("o", "i");
            }
            lower(&op).expect("legal schedule")
        };
        let input = [("A", (0..6).map(|v| v as f32).collect::<Vec<_>>())];
        let (fused, unfused) = (op(&[3, 1, 2], true), op(&[3, 1, 2], false));
        assert_eq!(fused.run(&input).output, unfused.run(&input).output);
        assert_eq!(fused.stmt(), op(&[2, 2, 1, 1], true).stmt());
    }
}
