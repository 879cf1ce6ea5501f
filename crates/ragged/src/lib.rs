//! # cora-ragged
//!
//! The ragged-tensor substrate of the CoRa reproduction: named dimensions,
//! variable extents (length functions), dimension graphs with precise
//! dependence modelling (Fig. 8), storage layouts with loop/storage
//! padding, the prelude's auxiliary structures (prefix-sum offset arrays
//! and fused-loop maps), Algorithm-1 O(1) access lowering, and the
//! CSF-style scheme of past work for overhead comparisons.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod aux;
pub mod csf;
pub mod dgraph;
pub mod dim;
pub mod extent;
pub mod layout;

pub use aux::{AuxOffsets, FusedLoopMaps};
pub use csf::CsfStorage;
pub use dgraph::{Dgraph, DgraphError};
pub use dim::Dim;
pub use extent::{DimExtent, LengthFn};
pub use layout::{LayoutBuilder, LayoutDim, RaggedLayout};
