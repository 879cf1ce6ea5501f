//! # cora-ir
//!
//! The intermediate representation of the CoRa ragged-tensor compiler
//! reproduction: integer index expressions with auxiliary-table loads
//! (variable loop bounds, row offsets, fused-loop maps), float value
//! expressions, a loop-nest statement IR, a rewriting simplifier, one
//! strided-interval analysis serving bound-check elision and the safety
//! verifier, and C/CUDA pretty-printers.
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
//! This crate is dependency-light and semantically self-contained: every
//! transformation is checked against concrete evaluation ([`eval::Env`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affine;
pub mod eval;
pub mod expr;
pub mod fexpr;
pub mod interval;
pub mod printer;
pub mod simplify;
pub mod slots;
pub mod stmt;
pub mod visit;

pub use affine::{linearize, LinForm, LinTerm};
pub use eval::Env;
pub use expr::{Cond, CondKind, Expr, ExprKind};
pub use fexpr::{FExpr, FExprKind, FUnaryOp};
pub use interval::SInt;
pub use slots::StmtSlots;
pub use stmt::{ForKind, Stmt, StoreKind};
