//! # cora-core
//!
//! The CoRa ragged-tensor compiler (the paper's primary contribution):
//!
//! * [`api`] — the Ragged API: named dimensions, vloops/vdims whose
//!   extents are per-slice length tables, tensor declarations with
//!   Algorithm-1 access lowering.
//! * [`schedule`] — scheduling primitives, including the ragged-specific
//!   ones: loop/storage padding, vloop fusion, bulk padding, thread
//!   remapping, load hoisting.
//! * [`opsplit`] — operation splitting and horizontal fusion.
//! * [`mod@lower`] — the lowering pipeline to statement IR + prelude spec.
//! * [`outline`] — the parallel outlining pass: hoists the outermost
//!   block-bound loop into a block-indexed entry point for the CPU
//!   runtime.
//! * [`prelude_gen`] — prelude planning and host-side construction of
//!   auxiliary structures.
//! * [`program`] — compiled programs: C/CUDA source, numeric execution
//!   (serial and block-parallel), simulated-GPU kernels.
//! * [`pipeline`] — multi-operator compiled pipelines: chained programs
//!   sharing a statically planned buffer arena, with preludes and
//!   dispatch orders resolved once per shape.
//! * [`builder`] — a compact facade for common operator shapes.
//! * [`autotune`] — shape buckets: the length-histogram class of a
//!   ragged batch (there is no schedule search; every operator runs the
//!   schedule it declares).
//! * [`verify`] — the shape-symbolic safety verifier: a
//!   shape-independent proof program per outlined body and a per-shape
//!   walk of it proving in-bounds accesses and the disjoint-store
//!   contract, producing the `StoreCert` the parallel executor enforces
//!   at run time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod autotune;
pub mod builder;
pub mod lower;
pub mod opsplit;
pub mod outline;
pub mod pipeline;
pub mod prelude_gen;
pub mod program;
pub mod schedule;
pub mod verify;

/// Convenience re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::api::{BodyFn, LoopExtent, LoopShift, LoopSpec, Operator, TensorRef};
    pub use crate::builder::{BuildError, BuiltOp, OpBuilder};
    pub use crate::lower::lower;
    pub use crate::opsplit::{hfuse_sim, split_operation};
    pub use crate::outline::{outline, BlockOutline};
    pub use crate::pipeline::{
        BufferPlan, Chain, ChainRefusal, CompiledPipeline, PipelineBuilder, PipelineError,
        PipelinePrep, PipelineRun, PipelineSession,
    };
    pub use crate::prelude_gen::{FusionSpec, PreludeData, PreludeSpec};
    pub use crate::program::{CompiledProgram, ParallelPrep, ParallelSession, Program, RunResult};
    pub use crate::schedule::{Directive, RemapPolicy, Schedule, ScheduleError};
    pub use crate::verify::{ProofKind, VerifyError, VerifyOutcome};
    pub use cora_exec::{CpuPool, MathMode};
    pub use cora_ir::{Expr, FExpr, FUnaryOp, ForKind};
}

pub use api::{LoopSpec, Operator, TensorRef};
pub use builder::OpBuilder;
pub use lower::lower;
pub use program::Program;
pub use schedule::{RemapPolicy, Schedule, ScheduleError};
