//! # CoRa: a tensor compiler for ragged tensors (Rust reproduction)
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate. The system reproduces *The CoRa Tensor
//! Compiler: Compilation for Ragged Tensors with Minimal Padding*
//! (MLSys 2022).
//!
//! ## Quickstart
//!
//! ```
//! use cora::core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Batch of 3 variable-length rows: a ragged elementwise doubling,
//! // the running example (Fig. 1) of the paper.
//! let lens = vec![5usize, 2, 3];
//! let mut op = OpBuilder::new("double")
//!     .cdim("batch", lens.len())
//!     .vdim_of("len", "batch", lens.clone())
//!     .pad_dimension("len", 2)
//!     .input("A")
//!     .elementwise(|x| x * 2.0)
//!     .build()?;
//! op.schedule().pad_loop("len", 2);
//! let program = op.compile()?;
//! assert!(program.cuda_source().contains("for"));
//!
//! // Execute: prelude on the host, then the kernel.
//! let input: Vec<f32> = (0..program.output_size()).map(|x| x as f32).collect();
//! let result = program.run(&[("A", input.clone())]);
//! assert_eq!(result.output[0], 0.0);
//! assert_eq!(result.output[1], 2.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios (transformer encoder, triangular
//! matmul, load balancing) and `crates/bench`'s `paper` binary for the evaluation.

#![forbid(unsafe_code)]

pub use cora_core as core;
pub use cora_datasets as datasets;
pub use cora_exec as exec;
pub use cora_ir as ir;
pub use cora_kernels as kernels;
pub use cora_ragged as ragged;
pub use cora_serve as serve;
pub use cora_sparse as sparse;
pub use cora_transformer as transformer;
