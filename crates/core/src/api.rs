//! The Ragged API (§4): describing ragged operators.
//!
//! Users declare named dimensions, loop extents (constant, or variable as
//! a function of one outer loop — matching the prototype restriction of
//! §6), ragged input/output tensors, and a body expression over the loop
//! variables. Tensor accesses in the body go through [`TensorRef::at`],
//! which lowers multi-dimensional indices to flat offsets using
//! Algorithm 1 — the user never sees an offset.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use cora_ir::{Expr, FExpr, StoreKind};
use cora_ragged::access::offset_expr;
use cora_ragged::{LengthFn, RaggedLayout};

use crate::schedule::Schedule;

/// Naming convention for a tensor's per-dimension auxiliary offset buffer.
pub fn aux_buffer_name(tensor: &str, d: usize) -> String {
    format!("{tensor}__A{d}")
}

/// Naming convention for a tensor's per-dimension padded-length buffer.
pub fn lens_buffer_name(tensor: &str, d: usize) -> String {
    format!("{tensor}__lens{d}")
}

/// A declared tensor: a name bound to a ragged storage layout.
#[derive(Clone)]
pub struct TensorRef {
    name: String,
    layout: Arc<RaggedLayout>,
}

impl TensorRef {
    /// Declares a tensor with the given layout.
    pub fn new(name: impl Into<String>, layout: RaggedLayout) -> TensorRef {
        TensorRef {
            name: name.into(),
            layout: Arc::new(layout),
        }
    }

    /// The tensor's name (also its buffer name in lowered code).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The storage layout.
    pub fn layout(&self) -> &RaggedLayout {
        &self.layout
    }

    /// Shared handle to the layout.
    pub fn layout_arc(&self) -> Arc<RaggedLayout> {
        Arc::clone(&self.layout)
    }

    /// A load of this tensor at symbolic indices, lowered to a flat offset
    /// through the tensor's auxiliary structures (Algorithm 1).
    pub fn at(&self, idx: &[Expr]) -> FExpr {
        FExpr::load(self.name.clone(), self.offset(idx))
    }

    /// The flat-offset expression for symbolic indices.
    pub fn offset(&self, idx: &[Expr]) -> Expr {
        let t = self.name.clone();
        let t2 = self.name.clone();
        offset_expr(
            &self.layout,
            idx,
            &move |d| aux_buffer_name(&t, d),
            &move |d| lens_buffer_name(&t2, d),
        )
    }
}

impl fmt::Debug for TensorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TensorRef({}, {} dims)", self.name, self.layout.ndim())
    }
}

/// The extent of one loop in an operator's loop nest.
#[derive(Debug, Clone)]
pub enum LoopExtent {
    /// Constant trip count (a cloop).
    Fixed(usize),
    /// Variable trip count (a vloop): iteration `v` of the loop at
    /// position `dep` runs this loop for `lens.len_at(v)` iterations.
    Variable {
        /// Position (in the operator's loop list) of the outer loop the
        /// extent depends on.
        dep: usize,
        /// Tabulated extent function.
        lens: LengthFn,
    },
    /// Trip count read from a named scalar the prelude binds (a shape
    /// parameter, e.g. a batch's total rows). The generated code reads
    /// `param`, so one compiled program serves every value; `value` is
    /// this shape's, used only by the prelude and the block costs.
    Param {
        /// Name of the prelude parameter holding the trip count.
        param: String,
        /// The trip count at this shape.
        value: usize,
    },
}

impl LoopExtent {
    /// True for constant loops.
    pub fn is_fixed(&self) -> bool {
        matches!(self, LoopExtent::Fixed(_))
    }

    /// Maximum trip count (a parameter's value at this shape).
    pub fn max(&self) -> usize {
        match self {
            LoopExtent::Fixed(e) | LoopExtent::Param { value: e, .. } => *e,
            LoopExtent::Variable { lens, .. } => lens.max(),
        }
    }
}

/// One loop of the operator: a name plus an extent.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Loop (iteration variable) name; also used in scheduling directives.
    pub name: String,
    /// Trip-count specification.
    pub extent: LoopExtent,
}

impl LoopSpec {
    /// A constant loop.
    pub fn fixed(name: impl Into<String>, extent: usize) -> LoopSpec {
        LoopSpec {
            name: name.into(),
            extent: LoopExtent::Fixed(extent),
        }
    }

    /// A variable loop dependent on the loop at position `dep`.
    pub fn variable(name: impl Into<String>, dep: usize, lens: impl Into<LengthFn>) -> LoopSpec {
        LoopSpec {
            name: name.into(),
            extent: LoopExtent::Variable {
                dep,
                lens: lens.into(),
            },
        }
    }

    /// A loop of `value` iterations whose trip count the code reads from
    /// the prelude parameter `param` — see [`LoopExtent::Param`].
    pub fn param(name: impl Into<String>, param: impl Into<String>, value: usize) -> LoopSpec {
        LoopSpec {
            name: name.into(),
            extent: LoopExtent::Param {
                param: param.into(),
                value,
            },
        }
    }
}

/// The operator body: maps the loop variables (spatial loops first, then
/// reduction loops) to the value contributed at that point.
pub type BodyFn = Rc<dyn Fn(&[Expr]) -> FExpr>;

/// A ragged operator: loop nest + output tensor + body.
///
/// The output is indexed by the spatial loop variables in order (one loop
/// per output dimension). Reduction loops accumulate into the output with
/// `+=` after it is initialised to `init`.
pub struct Operator {
    /// Operator name (kernel name in reports).
    pub name: String,
    /// Spatial loops, outermost first; loop `i` indexes output dim `i`.
    pub loops: Vec<LoopSpec>,
    /// Reduction loops, nested inside all spatial loops.
    pub reduce: Vec<LoopSpec>,
    /// Output tensor declaration.
    pub output: TensorRef,
    /// Input tensor declarations (for prelude planning).
    pub inputs: Vec<TensorRef>,
    /// Body expression.
    pub body: BodyFn,
    /// Initial value of the output when reductions are present.
    pub init: f32,
    /// Combine rule of the reduction loops: `+=` by default,
    /// [`StoreKind::MaxAssign`] for max-reductions (set via
    /// [`Operator::reduce_max`]). Ignored when [`Operator::reduce`] is
    /// empty.
    pub reduce_kind: StoreKind,
    /// Attached schedule.
    pub schedule: Schedule,
    /// Index shifts applied to loop variables (operation splitting's
    /// second half iterates `[s1(o), s(o))` — represented as extent
    /// `s(o) - s1(o)` plus a shift of `s1(o)`).
    pub shifts: Vec<LoopShift>,
    /// Extra integer auxiliary tables the prelude must materialise, for
    /// bodies that index through structures the layouts do not describe
    /// (e.g. the per-row sequence-start table of a flattened masked
    /// attention kernel). Each entry becomes a bound aux buffer the body
    /// can `Expr::load` from.
    pub aux_tables: Vec<(String, LengthFn)>,
}

/// A per-loop index shift: the loop variable is offset by a table lookup
/// at its dependence (used by operation splitting, §4.1).
#[derive(Debug, Clone)]
pub struct LoopShift {
    /// Which loop is shifted.
    pub loop_name: String,
    /// Position of the loop the shift table is indexed by.
    pub dep: usize,
    /// Prelude buffer holding the shift amounts.
    pub buffer: String,
    /// The shift table.
    pub lens: LengthFn,
}

impl fmt::Debug for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Operator")
            .field("name", &self.name)
            .field("loops", &self.loops)
            .field("reduce", &self.reduce)
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

impl Operator {
    /// Creates an operator with an empty schedule.
    pub fn new(
        name: impl Into<String>,
        loops: Vec<LoopSpec>,
        reduce: Vec<LoopSpec>,
        output: TensorRef,
        inputs: Vec<TensorRef>,
        body: BodyFn,
    ) -> Operator {
        Operator {
            name: name.into(),
            loops,
            reduce,
            output,
            inputs,
            body,
            init: 0.0,
            reduce_kind: StoreKind::AddAssign,
            schedule: Schedule::default(),
            shifts: Vec::new(),
            aux_tables: Vec::new(),
        }
    }

    /// Mutable access to the schedule.
    pub fn schedule_mut(&mut self) -> &mut Schedule {
        &mut self.schedule
    }

    /// Turns the reduction into a max-reduction: the output is
    /// initialised to `-∞` and reduction iterations combine with
    /// `max=` instead of `+=` (row-max of softmax, pooling).
    pub fn reduce_max(&mut self) -> &mut Self {
        self.reduce_kind = StoreKind::MaxAssign;
        self.init = f32::NEG_INFINITY;
        self
    }

    /// Declares an extra auxiliary table (see [`Operator::aux_tables`]);
    /// the body may then `Expr::load(name, idx)` from it.
    pub fn add_aux_table(
        &mut self,
        name: impl Into<String>,
        values: impl Into<LengthFn>,
    ) -> &mut Self {
        self.aux_tables.push((name.into(), values.into()));
        self
    }

    /// Finds a loop (spatial or reduction) by name.
    pub fn find_loop(&self, name: &str) -> Option<&LoopSpec> {
        self.loops
            .iter()
            .chain(self.reduce.iter())
            .find(|l| l.name == name)
    }

    /// Total iteration count of the (unpadded) loop nest — the "useful
    /// work" baseline the padding-overhead figures compare against.
    pub fn iteration_count(&self) -> u64 {
        // Spatial × reduce, resolving variable extents against their
        // dependences. Only single-level deps exist (validated at lower
        // time), so a simple recursive walk suffices.
        let all: Vec<&LoopSpec> = self.loops.iter().chain(self.reduce.iter()).collect();
        fn rec(loops: &[&LoopSpec], at: usize, idx: &mut Vec<usize>) -> u64 {
            if at == loops.len() {
                return 1;
            }
            let extent = match &loops[at].extent {
                LoopExtent::Fixed(e) | LoopExtent::Param { value: e, .. } => *e,
                LoopExtent::Variable { dep, lens } => lens.len_at(idx[*dep]),
            };
            let mut total = 0u64;
            for v in 0..extent {
                idx[at] = v;
                total += rec(loops, at + 1, idx);
            }
            idx[at] = 0;
            total
        }
        let mut idx = vec![0usize; all.len()];
        rec(&all, 0, &mut idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_ragged::Dim;

    fn ragged_layout(lens: &[usize]) -> RaggedLayout {
        let b = Dim::new("batch");
        let l = Dim::new("len");
        RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.to_vec())
            .build()
            .unwrap()
    }

    #[test]
    fn tensor_ref_offsets_use_aux_buffers() {
        let t = TensorRef::new("A", ragged_layout(&[3, 1, 2]));
        let e = t.offset(&[Expr::var("o"), Expr::var("i")]);
        let s = format!("{e}");
        assert!(
            s.contains("A__A0[o]"),
            "offset should load the A_0 array: {s}"
        );
    }

    #[test]
    fn iteration_count_resolves_vloops() {
        let t = TensorRef::new("B", ragged_layout(&[3, 1, 2]));
        let body: BodyFn = Rc::new(|_| FExpr::constant(0.0));
        let op = Operator::new(
            "double",
            vec![
                LoopSpec::fixed("o", 3),
                LoopSpec::variable("i", 0, vec![3usize, 1, 2]),
            ],
            vec![],
            t.clone(),
            vec![t],
            body,
        );
        assert_eq!(op.iteration_count(), 6);
        assert!(op.find_loop("i").is_some());
        assert!(op.find_loop("zz").is_none());
    }

    #[test]
    fn loop_extent_max() {
        assert_eq!(LoopExtent::Fixed(5).max(), 5);
        let v = LoopExtent::Variable {
            dep: 0,
            lens: vec![1usize, 7, 3].into(),
        };
        assert_eq!(v.max(), 7);
        assert!(!v.is_fixed());
        let p = LoopSpec::param("r", "rows", 9).extent;
        assert_eq!(p.max(), 9);
        assert!(!p.is_fixed());
    }
}
