//! # cora-kernels
//!
//! Dense baseline kernels and microkernels for the CoRa reproduction:
//! row-major gemm (plain and transposed-B), softmax, layer norm,
//! elementwise operators, and the vendor-library cost model that prices
//! cuBLAS/MKL-style kernels on the simulated GPU.
//!
//! CoRa-compiled operators dispatch their dense inner tiles to the
//! leading-dimension gemm variants here, mirroring the paper's CPU backend
//! offloading inner tiles to MKL.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod elementwise;
pub mod gemm;
pub mod layernorm;
pub mod softmax;
pub mod vendor;

pub use gemm::{gemm_flops, parallel_sgemm, sgemm, sgemm_ld, sgemm_nt_ld};
pub use layernorm::{layernorm_row, layernorm_rows, parallel_layernorm_rows};
pub use softmax::softmax_row;
