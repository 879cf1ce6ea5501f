//! # cora-exec
//!
//! Execution substrates for the CoRa reproduction:
//!
//! * [`gpu`] — a deterministic simulated GPU (in-order thread-block
//!   dispatch over streaming multiprocessors, launch and copy overheads)
//!   used for every GPU-side experiment, since real CUDA codegen is out of
//!   scope for this environment.
//! * [`runtime`] — the persistent work-stealing CPU runtime: a
//!   process-wide team of parked worker threads with per-worker chunk
//!   deques, woken per parallel region instead of spawned per call.
//! * [`cpu`] — [`CpuPool`], the parallel-loop facade over the runtime
//!   used by the CPU experiments (wall-clock numbers).
//! * [`interp`] — a scalar interpreter giving the lowered IR executable
//!   semantics and instruction-mix statistics.
//! * [`vm`] — a slot-resolved bytecode VM: the compiled execution tier,
//!   bit-identical to the interpreter (outputs *and* statistics) but
//!   free of string hashing, tree recursion and per-expression
//!   allocation. A compiled [`VmProgram`] is `Sync`; [`VmShared`] is
//!   the lifetime-free per-shape binding table, executed serially or
//!   with outlined thread blocks dispatched across a [`CpuPool`], always
//!   over one float-buffer view (see the [`vm`] module docs for the
//!   file layout and where its `unsafe` lives).
//! * [`microkernel`] — the vectorized microkernel ISA behind the VM's
//!   fused superinstructions: register-blocked GEMM panels, chunked
//!   reductions and fast transcendentals, all keyed by the
//!   [`MathMode`] strict/fast contract.
//! * [`cost`] — the analytic cost model shared by the simulator and the
//!   benchmark harnesses.
//!
//! ## CPU scheduling
//!
//! Ragged workloads give parallel loops wildly uneven iteration costs
//! (sorted sequence lengths decay across a batch), so the runtime balances
//! them dynamically: [`CpuPool::parallel_for`] cuts iterations into
//! chunks of a configurable grain; each participant owns a deque of
//! chunks and idle participants steal from the far end of a victim's
//! deque. This is the policy behind the CoRa lines of Table 5, Table 9,
//! and Fig. 27.
//!
//! [`CpuPool::parallel_rows`] pre-packs disjoint `&mut` rows into
//! cost-balanced batches and runs them under the same schedule — the
//! pattern used by per-sequence SDPA (exactly `l×l` attention per
//! sequence, heaviest sequences first).

#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod gpu;
pub mod interp;
pub mod microkernel;
pub mod runtime;
pub mod vm;

pub use cost::{GpuModel, KernelTraits};
pub use cpu::CpuPool;
pub use gpu::{GpuRunReport, GpuSim, KernelReport, SimKernel};
pub use interp::{InterpStats, Machine};
pub use microkernel::MathMode;
pub use runtime::Runtime;
pub use vm::{BoundBuf, CertError, StoreCert, VmMachine, VmProgram, VmShared};
