//! # cora-ir
//!
//! The intermediate representation of the CoRa ragged-tensor compiler
//! reproduction: integer index expressions with auxiliary-table loads
//! (variable loop bounds, row offsets, fused-loop maps), float value
//! expressions, a loop-nest statement IR, the operator tables and the
//! default child walk every pass is written over, a rewriting simplifier,
//! one strided-interval analysis serving bound-check elision and the
//! safety verifier, and C/CUDA pretty-printers.
//!
//! ## Where the paper's uninterpreted functions went
//!
//! The paper represents variable loop bounds and fused-loop maps as
//! *uninterpreted functions* and asks Z3 to discharge bound checks over
//! them (§5.1, §B.2). This reproduction keeps the idea and drops the
//! machinery: the prelude materialises every extent, offset and
//! fused-loop map as an integer table before the kernel runs, and
//! lowering emits [`ExprKind::Load`]s of those tables — a `Load` *is* the
//! uninterpreted function, applied. What Z3 decided is decided by
//! strided-interval analysis ([`interval`]): [`interval::decide`] elides
//! guards that loop padding makes redundant, and `cora_core::verify`
//! proves every access in bounds and the blocks' store sets disjoint
//! over the same [`SInt`] domain, reading the built tables where the
//! paper would consult an axiom.
//!
//! ## Operators and traversals are described once
//!
//! An operator is a value, not a node kind: [`ExprKind::Bin`],
//! [`CondKind::Cmp`], [`FExprKind::Bin`] and [`FExprKind::Unary`] carry an
//! [`IBinOp`], [`CmpOp`], [`FBinOp`] or [`FUnaryOp`], and [`ops`] is the
//! table of what each one means — concrete semantics (`apply`, which
//! [`Env::eval`], the interpreter and the VM's scalar instructions all
//! call), abstract semantics over [`SInt`] (`apply_sint`, which
//! [`interval::range_of`]/[`interval::decide`] and the verifier call),
//! neutral elements, print symbol, disassembly mnemonic. What a node's
//! children are is likewise written once, in [`visit`]:
//! [`visit::Node::for_each_child`] visits them and
//! [`visit::map_expr`]/[`visit::map_cond`]/[`visit::map_fexpr`]/[`visit::map_stmt`]
//! rebuild a node from mapped children.
//!
//! * **To add an operator**, add the variant and its arm in each column
//!   of its enum in [`ops`] (and to `ALL`, which the table-driven unit
//!   tests iterate). Printing, evaluation on every tier, range analysis,
//!   the verifier, substitution, load counting, the slot census and the
//!   disassembler follow. Teach [`simplify`] or [`linearize`] about it
//!   only if it has algebra worth knowing.
//! * **To write a pass**, write a closure over the child walk that spells
//!   the nodes the pass treats specially and leaves the rest to the
//!   default: [`visit::free_vars`] names only `Var`,
//!   [`visit::replace_load`] only the `Load` it replaces,
//!   [`visit::subst_stmt`] only the binding statements that shadow.
//!
//! This crate is dependency-light and semantically self-contained: every
//! transformation is checked against concrete evaluation ([`eval::Env`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affine;
pub mod eval;
pub mod expr;
pub mod fexpr;
pub mod interval;
pub mod ops;
pub mod printer;
pub mod simplify;
pub mod slots;
pub mod stmt;
pub mod visit;

pub use affine::{linearize, LinForm, LinTerm};
pub use eval::Env;
pub use expr::{Cond, CondKind, Expr, ExprKind};
pub use fexpr::{FExpr, FExprKind};
pub use interval::SInt;
pub use ops::{CmpOp, FBinOp, FUnaryOp, IBinOp};
pub use slots::StmtSlots;
pub use stmt::{ForKind, Stmt, StoreKind};
