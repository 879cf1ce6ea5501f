//! Slot resolution: interning every name a lowered statement references
//! into dense indices.
//!
//! The tree-walking interpreter resolves variables, auxiliary buffers
//! and float buffers through `HashMap<String, _>` lookups on every
//! access. A compiled execution tier cannot afford that, so
//! [`StmtSlots::resolve`] walks a [`Stmt`] once and produces a census of
//! the three runtime namespaces:
//!
//! * **free integer variables** — referenced but never bound by an
//!   enclosing `For`/`LetInt` (e.g. fused-extent parameters like
//!   `F_o_i_f`); these must be bound externally before execution,
//! * **integer auxiliary buffers** — always external (row offsets,
//!   extent tables, fusion maps built by the prelude),
//! * **free float buffers** — kernel inputs and outputs; buffers
//!   introduced by `Alloc` are scoped scratch and excluded.
//!
//! Each namespace is a dense [`Interner`], so an executor can replace
//! string hashing with direct `Vec` indexing. Binding sites (`For`,
//! `LetInt`, `Alloc`) are *counted* rather than interned: the bytecode
//! compiler alpha-renames each site to its own fresh slot past the free
//! range, which makes shadowing need no save/restore at run time.

use std::collections::HashMap;

use crate::expr::ExprKind;
use crate::fexpr::FExprKind;
use crate::stmt::Stmt;
use crate::visit::Node;

/// A dense string interner for one namespace: names map to stable
/// `u32` slots in first-seen order.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the slot for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX interned names");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Returns the slot for `name` if already interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// All interned names, indexed by slot.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Census of every name a statement references, split by namespace.
///
/// Produced by [`StmtSlots::resolve`]; consumed by the bytecode compiler
/// in `cora-exec` and by binding-validation logic.
#[derive(Debug, Default, Clone)]
pub struct StmtSlots {
    /// Free integer variables (must be bound before execution).
    pub free_vars: Interner,
    /// Integer auxiliary buffers (always external).
    pub ibufs: Interner,
    /// Free float buffers (inputs/outputs; `Alloc` scratch excluded).
    pub free_fbufs: Interner,
    /// Number of `For`/`LetInt` binding sites (each gets a fresh slot).
    pub binding_sites: usize,
    /// Number of `Alloc` sites (each gets a fresh float-buffer slot).
    pub alloc_sites: usize,
    /// Per-[`Self::free_fbufs`] slot: true if the statement *stores* into
    /// that buffer. Region metadata for the parallel outliner, which must
    /// prove a block body writes only the designated output buffer.
    pub stored_fbufs: Vec<bool>,
    /// Per-[`Self::free_fbufs`] slot: true if the statement *loads* from
    /// that buffer. Together with [`Self::stored_fbufs`] this classifies
    /// every free float buffer as input, output, or both (in-place).
    pub loaded_fbufs: Vec<bool>,
}

impl StmtSlots {
    /// Walks `s` and resolves every referenced name into its namespace.
    pub fn resolve(s: &Stmt) -> StmtSlots {
        let mut r = Resolver {
            slots: StmtSlots::default(),
            var_scope: Vec::new(),
            fbuf_scope: Vec::new(),
        };
        r.node(Node::Stmt(s));
        r.slots
    }

    /// Total integer-variable slots an executor needs (free + bound).
    pub fn var_slot_count(&self) -> usize {
        self.free_vars.len() + self.binding_sites
    }

    /// Total float-buffer slots an executor needs (free + allocated).
    pub fn fbuf_slot_count(&self) -> usize {
        self.free_fbufs.len() + self.alloc_sites
    }

    /// Names of the free float buffers the statement stores into.
    pub fn stored_fbuf_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.free_fbufs
            .names()
            .iter()
            .zip(&self.stored_fbufs)
            .filter(|(_, &stored)| stored)
            .map(|(n, _)| n.as_str())
    }

    /// True if the statement both loads from and stores into the named
    /// free float buffer (an in-place update, which the parallel tier
    /// must refuse: another block's stores could race the loads).
    pub fn fbuf_is_inplace(&self, name: &str) -> bool {
        match self.free_fbufs.get(name) {
            Some(slot) => self.stored_fbufs[slot as usize] && self.loaded_fbufs[slot as usize],
            None => false,
        }
    }
}

struct Resolver {
    slots: StmtSlots,
    var_scope: Vec<String>,
    fbuf_scope: Vec<String>,
}

impl Resolver {
    fn var_use(&mut self, name: &str) {
        if !self.var_scope.iter().any(|v| v == name) {
            self.slots.free_vars.intern(name);
        }
    }

    fn fbuf_use(&mut self, name: &str, stored: bool) {
        if !self.fbuf_scope.iter().any(|b| b == name) {
            let slot = self.slots.free_fbufs.intern(name) as usize;
            if slot == self.slots.stored_fbufs.len() {
                self.slots.stored_fbufs.push(false);
                self.slots.loaded_fbufs.push(false);
            }
            if stored {
                self.slots.stored_fbufs[slot] = true;
            } else {
                self.slots.loaded_fbufs[slot] = true;
            }
        }
    }

    /// The census over the default child walk: only the nodes that use
    /// or bind a name are spelled; a name is recorded before the node's
    /// children are visited (a store's destination after them).
    fn node(&mut self, n: Node<'_>) {
        match n {
            Node::Expr(e) => match e.kind() {
                ExprKind::Var(name) => self.var_use(name),
                ExprKind::Load(buf, _) => {
                    self.slots.ibufs.intern(buf);
                }
                _ => {}
            },
            Node::FExpr(e) => {
                if let FExprKind::Load(buf, _) = e.kind() {
                    self.fbuf_use(buf, false);
                }
            }
            Node::Stmt(Stmt::For {
                var,
                min,
                extent,
                body,
                kind: _,
            }) => {
                // Bounds are evaluated in the enclosing scope, before the
                // iteration variable is bound (interpreter order).
                self.node(Node::Expr(min));
                self.node(Node::Expr(extent));
                return self.binding(var, body);
            }
            Node::Stmt(Stmt::LetInt { var, value, body }) => {
                self.node(Node::Expr(value));
                return self.binding(var, body);
            }
            Node::Stmt(Stmt::Alloc { buffer, size, body }) => {
                self.node(Node::Expr(size));
                self.slots.alloc_sites += 1;
                self.fbuf_scope.push(buffer.clone());
                self.node(Node::Stmt(body));
                self.fbuf_scope.pop();
                return;
            }
            Node::Cond(_) | Node::Stmt(_) => {}
        }
        n.for_each_child(|c| self.node(c));
        if let Node::Stmt(Stmt::Store { buffer, .. }) = n {
            self.fbuf_use(buffer, true);
        }
    }

    /// One `For`/`LetInt` binding site scoping `var` over `body`.
    fn binding(&mut self, var: &str, body: &Stmt) {
        self.slots.binding_sites += 1;
        self.var_scope.push(var.to_string());
        self.node(Node::Stmt(body));
        self.var_scope.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, FExpr};

    #[test]
    fn interner_is_stable_and_dedups() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.get("b"), Some(1));
        assert_eq!(i.get("c"), None);
        assert_eq!(i.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn loop_vars_are_bound_params_are_free() {
        // for o in 0..row[p] { B[row[o]+i_free] = A[o] }
        let idx = Expr::load("row", Expr::var("o")) + Expr::var("i_free");
        let body = Stmt::store("B", idx.clone(), FExpr::load("A", Expr::var("o")));
        let nest = Stmt::loop_("o", Expr::load("row", Expr::var("p")), body);
        let slots = StmtSlots::resolve(&nest);
        assert_eq!(
            slots.free_vars.names(),
            &["p".to_string(), "i_free".to_string()]
        );
        assert_eq!(slots.ibufs.names(), &["row".to_string()]);
        // Store resolution order: index, value (A), then the destination.
        assert_eq!(
            slots.free_fbufs.names(),
            &["A".to_string(), "B".to_string()]
        );
        assert_eq!(slots.binding_sites, 1);
        assert_eq!(slots.var_slot_count(), 3);
    }

    #[test]
    fn alloc_scratch_is_not_free() {
        let body = Stmt::store("tile", Expr::int(0), FExpr::constant(1.0)).then(Stmt::store(
            "out",
            Expr::int(0),
            FExpr::load("tile", Expr::int(0)),
        ));
        let s = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(8),
            body: Box::new(body),
        };
        let slots = StmtSlots::resolve(&s);
        assert_eq!(slots.free_fbufs.names(), &["out".to_string()]);
        assert_eq!(slots.alloc_sites, 1);
        assert_eq!(slots.fbuf_slot_count(), 2);
    }

    #[test]
    fn stored_and_loaded_fbufs_are_classified() {
        // B[0] = A[0]; C[0] = C[1] * 2 — A input, B output, C in-place.
        let s = Stmt::store("B", Expr::int(0), FExpr::load("A", Expr::int(0))).then(Stmt::store(
            "C",
            Expr::int(0),
            FExpr::load("C", Expr::int(1)) * 2.0,
        ));
        let slots = StmtSlots::resolve(&s);
        let stored: Vec<&str> = slots.stored_fbuf_names().collect();
        assert_eq!(stored, vec!["B", "C"]);
        assert!(!slots.fbuf_is_inplace("A"));
        assert!(!slots.fbuf_is_inplace("B"));
        assert!(slots.fbuf_is_inplace("C"));
        assert!(!slots.fbuf_is_inplace("missing"));
    }
}
