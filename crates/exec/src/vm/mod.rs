//! A slot-resolved bytecode VM: the compiled execution tier for lowered
//! statements.
//!
//! The tree-walking interpreter ([`crate::interp::Machine`]) defines the
//! IR's semantics, but it pays a `HashMap<String, i64>` lookup for every
//! variable and auxiliary-buffer access, recurses
//! through `Rc` expression trees, and allocates a fresh `Vec` per
//! expression just to count aux loads. [`compile`] removes all three
//! costs:
//!
//! * **Slot resolution** ([`cora_ir::slots`]): every name the statement
//!   references is interned to a dense index. Free variables, auxiliary
//!   buffers and float buffers become positions in flat `Vec`s
//!   bound once before execution; each `For`/`LetInt` binding site and
//!   each `Alloc` site is alpha-renamed to its own fresh slot past the
//!   free range, so shadowing needs no save/restore at run time.
//! * **Flattening**: expressions become straight-line register
//!   instructions over `Vec<i64>`/`Vec<f32>` register files; loops and
//!   conditionals become explicit jumps. Conditions compile to
//!   short-circuit branch chains in the interpreter's evaluation order,
//!   so exactly the same sub-expressions execute (and can panic) in both
//!   tiers.
//! * **Static instruction-mix metadata**: the per-expression aux-load
//!   counts the interpreter derives by collecting loads into a `Vec` are
//!   computed once at compile time and attached to the instructions that
//!   charge them, so a VM run produces *identical* [`InterpStats`](crate::interp::InterpStats) to
//!   the tree walker by construction. The interpreter stays as semantic
//!   ground truth; differential tests assert bit-identical outputs and
//!   stats between the two tiers.
//! * **Loop fusion**: a one- or two-deep loop nest around a single
//!   store `out[o] (=|+=|max=) f(loads)` whose value is branch-free and
//!   whose indices are provably affine in the loop variables — the
//!   reduction nests of every GEMM-, score- and AttnV-style operator,
//!   and every row sweep, bias/GELU epilogue and layer-norm pass —
//!   compiles to **one** superinstruction, the *fused nest*
//!   (`isa::FusedNest`, one matcher in `compiler`, one executor in
//!   `dispatch`). It runs the whole nest natively — as a panel kernel
//!   when the one microkernel table ([`crate::microkernel`]) has a row
//!   for the nest's class and runtime strides, as a chunked sweep of its
//!   float-op tape otherwise — with bit-identical results and statistics
//!   to the unfused form. It disassembles as `fmulacc`/`fmulacc2` (a
//!   one-/two-deep multiply-accumulate) or `fmap` (any other tape).
//!   *Adding a microkernel* is one function and one table row; the
//!   recipe is in [`crate::microkernel`]'s module docs.
//!
//! # Layout
//!
//! One file per concern, so each can be read in a sitting:
//!
//! | module | holds |
//! |---|---|
//! | `isa` | instruction set, the fused-nest record, [`VmProgram`] |
//! | `compiler` | [`compile`]: `Stmt` → bytecode, the fused-nest matcher |
//! | `opt` | block-local CSE + DCE over the instruction stream |
//! | `validate` | [`VmProgram::validate`] (census, registers, def-before-use) |
//! | `disasm` | [`VmProgram`]'s `Display` (golden-tested disassembly) |
//! | `bufs` | the one float-buffer view + the output-port trait |
//! | `dispatch` | the instruction loop and the fused-nest executor |
//! | `machine` | [`VmShared`] binding table, [`VmMachine`], serial runs |
//! | `cert` | [`StoreCert`], the disjoint-store certificate |
//! | `parallel` | [`VmShared::run_blocks_proven`], the shared output — **all `unsafe`** |
//!
//! # Execution model
//!
//! A [`VmProgram`] is immutable after compilation and `Sync`
//! (compile-time asserted below). Everything bound per shape lives in
//! one table, [`VmShared`], which owns its program through an `Arc` and
//! therefore has no lifetime: a *prep* (`cora_core`'s `ParallelPrep` /
//! `PipelinePrep`) stores bound tables next to proofs and arenas, and a
//! session is a plain view over a prep.
//!
//! Float buffers are never part of the table. Every execution sees them
//! through one slot view (`bufs`): read-only slices for inputs, private
//! `Vec`s for `Alloc` scratch, and an **output port** for written
//! buffers — the only thing the dispatch loop is generic (monomorphised,
//! never `dyn`) over:
//!
//! * serial runs ([`VmShared::run_borrowed`], [`VmMachine::run`]) use an
//!   exclusive `&mut [f32]`; the owned machine is just the borrowed view
//!   over its own `Vec`s;
//! * parallel workers ([`VmShared::run_blocks_proven`]) use the shared
//!   output, where every store is checked against the executing block's
//!   [`StoreCert`] regions (and, in debug builds or under
//!   `CORA_CHECK_DISJOINT=1`, the per-element owner tracker) before the
//!   cell is written. Its soundness rests on the disjoint-store
//!   contract the static verifier proves and the port enforces.
//!
//! Each worker carries only cheap private state (register files, loop
//! variables, scratch, a statistics accumulator). Statistics are
//! plain counters, so summing the per-worker accumulators reproduces the
//! serial run's numbers exactly, regardless of how blocks were
//! scheduled.

mod bufs;
mod cert;
mod compiler;
mod disasm;
mod dispatch;
mod isa;
mod machine;
mod opt;
mod parallel;
#[cfg(test)]
mod testutil;
mod validate;

pub use cert::{CertError, StoreCert};
pub use compiler::compile;
pub use isa::VmProgram;
pub use machine::{BoundBuf, VmMachine, VmShared};

/// Compile-time proof that a compiled program (and the binding table
/// built on top of it) can be handed to worker threads by reference.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<VmProgram>();
    assert_sync::<VmShared>();
};
