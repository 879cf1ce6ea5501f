//! Statement IR: the loop-nest form CoRa lowers ragged operators into.
//!
//! A lowered kernel is a tree of [`Stmt`]s: loops (serial, or bound to
//! the simulated GPU grid/thread x-axes), integer `let` bindings (used
//! for load hoisting, §D.7), stores with accumulation kinds, guards and
//! local allocations. The interpreter in `cora-exec` gives these precise
//! semantics; the printer renders C- and CUDA-flavoured text.

use std::fmt;

use crate::expr::{Cond, Expr};
use crate::fexpr::FExpr;
use crate::visit::Node;

/// How a loop's iterations are executed. Every executor runs `Serial` and
/// `GpuThreadX` loops in order; the `GpuBlockX` loop is the one the CPU
/// parallel tier splits into tiles and the simulated GPU prices per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForKind {
    /// Ordinary sequential loop.
    Serial,
    /// Bound to the simulated GPU grid x-axis (`blockIdx.x`).
    GpuBlockX,
    /// Bound to the simulated GPU thread x-axis (`threadIdx.x`).
    GpuThreadX,
}

impl ForKind {
    /// True for the GPU grid axis.
    pub fn is_block_axis(self) -> bool {
        self == ForKind::GpuBlockX
    }
}

/// How a [`Stmt::Store`] combines the new value with the old.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// `buf[i] = v`.
    Assign,
    /// `buf[i] += v` (reduction).
    AddAssign,
    /// `buf[i] = max(buf[i], v)` (reduction).
    MaxAssign,
}

/// A statement in the lowered IR.
#[derive(Clone, PartialEq)]
pub enum Stmt {
    /// `for var in min .. min+extent { body }`.
    For {
        /// Iteration variable name.
        var: String,
        /// Lower bound.
        min: Expr,
        /// Trip count.
        extent: Expr,
        /// Execution flavour.
        kind: ForKind,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `let var: i64 = value; body` — used for hoisting aux-array loads.
    LetInt {
        /// Binding name.
        var: String,
        /// Bound integer expression.
        value: Expr,
        /// Scope of the binding.
        body: Box<Stmt>,
    },
    /// Store into a float buffer.
    Store {
        /// Destination buffer name.
        buffer: String,
        /// Flat element index.
        index: Expr,
        /// Value to combine.
        value: FExpr,
        /// Combination rule.
        kind: StoreKind,
    },
    /// Conditional guard.
    If {
        /// Guard condition.
        cond: Cond,
        /// Taken branch.
        then_: Box<Stmt>,
        /// Optional fallthrough branch.
        else_: Option<Box<Stmt>>,
    },
    /// Statement sequence.
    Seq(Vec<Stmt>),
    /// Scoped allocation of a float scratch buffer of `size` elements.
    Alloc {
        /// Scratch buffer name.
        buffer: String,
        /// Element count (evaluated on entry).
        size: Expr,
        /// Scope in which the buffer exists.
        body: Box<Stmt>,
    },
    /// No-op (useful as an else-branch placeholder).
    Nop,
}

impl Stmt {
    /// Convenience constructor for a serial loop from 0.
    pub fn loop_(var: impl Into<String>, extent: Expr, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.into(),
            min: Expr::int(0),
            extent,
            kind: ForKind::Serial,
            body: Box::new(body),
        }
    }

    /// Convenience constructor for a loop of a given kind from 0.
    pub fn loop_kind(var: impl Into<String>, extent: Expr, kind: ForKind, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.into(),
            min: Expr::int(0),
            extent,
            kind,
            body: Box::new(body),
        }
    }

    /// Convenience constructor for a plain assignment store.
    pub fn store(buffer: impl Into<String>, index: Expr, value: FExpr) -> Stmt {
        Stmt::Store {
            buffer: buffer.into(),
            index,
            value,
            kind: StoreKind::Assign,
        }
    }

    /// Convenience constructor for a guard with no else branch.
    pub fn if_then(cond: Cond, then_: Stmt) -> Stmt {
        Stmt::If {
            cond,
            then_: Box::new(then_),
            else_: None,
        }
    }

    /// Sequences two statements, flattening nested [`Stmt::Seq`]s.
    pub fn then(self, next: Stmt) -> Stmt {
        match (self, next) {
            (Stmt::Seq(mut a), Stmt::Seq(b)) => {
                a.extend(b);
                Stmt::Seq(a)
            }
            (Stmt::Seq(mut a), b) => {
                a.push(b);
                Stmt::Seq(a)
            }
            (a, Stmt::Seq(mut b)) => {
                b.insert(0, a);
                Stmt::Seq(b)
            }
            (a, b) => Stmt::Seq(vec![a, b]),
        }
    }

    /// Counts statements of each syntactic class (used in tests and by the
    /// codegen statistics the benches report).
    pub fn count_nodes(&self) -> usize {
        1 + self.sum_over_children(Stmt::count_nodes)
    }

    /// Counts `If` guards in the tree — the quantity operation splitting
    /// exists to reduce (§7.1: "eliding conditional checks in the main body").
    pub fn count_guards(&self) -> usize {
        usize::from(matches!(self, Stmt::If { .. })) + self.sum_over_children(Stmt::count_guards)
    }

    fn sum_over_children(&self, f: fn(&Stmt) -> usize) -> usize {
        let mut total = 0;
        Node::Stmt(self).for_each_child(|c| {
            if let Node::Stmt(child) = c {
                total += f(child);
            }
        });
        total
    }
}

impl fmt::Debug for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::print_c(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_flattening() {
        let s = Stmt::Nop.then(Stmt::Nop).then(Stmt::Nop);
        match s {
            Stmt::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn node_and_guard_counts() {
        let body = Stmt::if_then(
            Expr::var("i").lt(Expr::var("n")),
            Stmt::store("B", Expr::var("i"), FExpr::constant(1.0)),
        );
        let l = Stmt::loop_("i", Expr::int(4), body);
        assert_eq!(l.count_guards(), 1);
        assert_eq!(l.count_nodes(), 3);
    }

    #[test]
    fn for_kind_classification() {
        assert!(ForKind::GpuBlockX.is_block_axis());
        assert!(!ForKind::Serial.is_block_axis());
    }
}
