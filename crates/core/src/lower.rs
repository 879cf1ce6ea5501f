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

use std::collections::HashMap;

use cora_ir::interval::decide;
use cora_ir::simplify::simplify_cond;
use cora_ir::visit::{mentions, subst, subst_cond, Node};
use cora_ir::{Cond, Expr, FExprKind, ForKind, SInt, Stmt, StoreKind};
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
    /// Extent read from a prelude-built table at the dependence variable.
    Table {
        buffer: String,
        dep_var: String,
        lens: LengthFn,
    },
    /// Extent is a runtime parameter (fused loops), bound by the prelude,
    /// over the product of the factors the loop has since been split by:
    /// `var / div`, which is `value` at this shape.
    Param {
        var: String,
        div: i64,
        value: i64,
    },
}

impl ExtentIr {
    fn to_expr(&self) -> Expr {
        match self {
            ExtentIr::Const(e) => Expr::int(*e),
            ExtentIr::Table {
                buffer, dep_var, ..
            } => Expr::load(buffer.clone(), Expr::var(dep_var.clone())),
            ExtentIr::Param { var, div: 1, .. } => Expr::var(var.clone()),
            ExtentIr::Param { var, div, .. } => Expr::var(var.clone()).floor_div(Expr::int(*div)),
        }
    }

    fn max(&self) -> i64 {
        match self {
            ExtentIr::Const(e) => *e,
            ExtentIr::Table { lens, .. } => lens.max() as i64,
            ExtentIr::Param { value, .. } => *value,
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
                    dep_var: dep_name,
                    lens: lens.clone(),
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
                            "{loop_name} (use bulk_pad for fused loops)"
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
                        dep_var,
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
                            dep_var: dep_var.clone(),
                            lens: outer_lens,
                        }
                    }
                    ExtentIr::Param { var, div, value } => {
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
                        }
                    }
                };
                substitute_all(&mut var_map, &mut guards, loop_name, &rebuilt);
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
            Directive::Unroll { loop_name } => {
                let idx = find_loop(&loops, loop_name)?;
                loops[idx].kind = ForKind::Unrolled;
            }
            Directive::Vectorize { loop_name } => {
                let idx = find_loop(&loops, loop_name)?;
                loops[idx].kind = ForKind::Vectorized;
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
                let (outer_extent, inner_lens) = match (&loops[oi].extent, &loops[ii].extent) {
                    (ExtentIr::Const(m), ExtentIr::Table { lens, dep_var, .. })
                        if dep_var == &loops[oi].var =>
                    {
                        (*m as usize, lens.clone())
                    }
                    // Fusing two constant loops is ordinary dense fusion.
                    (ExtentIr::Const(m), ExtentIr::Const(e)) => {
                        let lens = LengthFn::new(vec![*e as usize; *m as usize]);
                        (*m as usize, lens)
                    }
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
                substitute_all(&mut var_map, &mut guards, outer, &o_expr);
                substitute_all(&mut var_map, &mut guards, inner, &i_expr);
                let kind = loops[oi].kind;
                loops[oi] = LoweredLoop {
                    var: fused.clone(),
                    extent: ExtentIr::Param {
                        var: format!("F_{fused}"),
                        div: 1,
                        value: total as i64,
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
                // §4.1: a vloop cannot move outside the loop its extent
                // depends on.
                for (pos, l) in reordered.iter().enumerate() {
                    if let ExtentIr::Table { dep_var, .. } = &l.extent {
                        let dep_ok = reordered[..pos].iter().any(|o| &o.var == dep_var);
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
        .map(|l| (l.var.clone(), SInt::range(0, l.extent.max() - 1)))
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

    // ---- Block-cost metadata for the GPU simulator ----------------------
    let body_flops = count_flops(Node::Stmt(&body));
    let block_costs = derive_block_costs(&loops, body_flops);

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

fn find_loop(loops: &[LoweredLoop], name: &str) -> Result<usize, ScheduleError> {
    loops
        .iter()
        .position(|l| l.var == name)
        .ok_or_else(|| ScheduleError::UnknownLoop(name.to_string()))
}

/// Rewrites every mapping in `var_map` that mentions `name`, the entry
/// for `name` itself, and every pending tail guard, in terms of
/// `replacement` — so a guard follows its loop through later splits and
/// fusions.
fn substitute_all(
    var_map: &mut HashMap<String, Expr>,
    guards: &mut [Cond],
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

/// Derives per-block FLOP counts: the outermost block-bound loop's
/// iterations are blocks; each block's work is the product of inner
/// extents times the body FLOPs, resolved against the extent tables.
fn derive_block_costs(loops: &[LoweredLoop], body_flops: f64) -> Vec<BlockCost> {
    let block_pos = loops
        .iter()
        .position(|l| l.kind.is_block_axis())
        .unwrap_or(0);
    // Iterate the loops at or outside the block axis concretely; multiply
    // extents of inner loops symbolically (resolving tables against the
    // concrete outer indices).
    let mut costs = Vec::new();
    let mut idx: HashMap<String, i64> = HashMap::new();
    enumerate_blocks(loops, 0, block_pos, body_flops, &mut idx, &mut costs);
    costs
}

fn enumerate_blocks(
    loops: &[LoweredLoop],
    at: usize,
    block_pos: usize,
    body_flops: f64,
    idx: &mut HashMap<String, i64>,
    out: &mut Vec<BlockCost>,
) {
    if at > block_pos {
        // Everything inside the block: product of extents at the current
        // outer indices. Variable extents that depend on inner loop
        // variables fall back to their maximum (conservative).
        let mut work = body_flops;
        for l in &loops[at..] {
            let e = match &l.extent {
                ExtentIr::Const(e) => *e,
                ExtentIr::Param { value, .. } => *value,
                ExtentIr::Table { dep_var, lens, .. } => match idx.get(dep_var) {
                    Some(&v) => lens.len_at(v as usize) as i64,
                    None => lens.max() as i64,
                },
            };
            work *= e as f64;
        }
        out.push(BlockCost { flops: work });
        return;
    }
    let l = &loops[at];
    let extent = match &l.extent {
        ExtentIr::Const(e) => *e,
        ExtentIr::Param { value, .. } => *value,
        ExtentIr::Table { dep_var, lens, .. } => match idx.get(dep_var) {
            Some(&v) => lens.len_at(v as usize) as i64,
            None => lens.max() as i64,
        },
    };
    for v in 0..extent {
        idx.insert(l.var.clone(), v);
        enumerate_blocks(loops, at + 1, block_pos, body_flops, idx, out);
    }
    idx.remove(&l.var);
}
