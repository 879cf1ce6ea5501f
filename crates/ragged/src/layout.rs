//! Ragged storage layouts: ordered dimensions, padding, and sizes.
//!
//! A [`RaggedLayout`] is the storage format of one tensor: dimensions
//! ordered outermost-first, each a cdim or a vdim, each vdim optionally
//! *storage-padded* to a multiple of a constant (`pad_dimension`, §4.1).
//! Building a layout validates the dimension graph and precomputes the
//! padded length tables; the auxiliary offset arrays live in
//! [`crate::aux`].

use crate::dgraph::{Dgraph, DgraphError};
use crate::dim::Dim;
use crate::extent::{DimExtent, LengthFn};

/// One dimension of a layout after validation and padding.
#[derive(Debug, Clone)]
pub struct LayoutDim {
    /// The named dimension.
    pub dim: Dim,
    /// Declared extent (pre-padding).
    pub extent: DimExtent,
    /// Storage padding multiple (1 = none).
    pub pad: usize,
}

/// A validated ragged storage layout.
#[derive(Debug, Clone)]
pub struct RaggedLayout {
    dims: Vec<LayoutDim>,
    graph: Dgraph,
    /// Per-dimension *padded* length tables (vdims only; `None` for cdims).
    padded_lens: Vec<Option<LengthFn>>,
    /// Padded extents for cdims.
    fixed_extents: Vec<Option<usize>>,
}

/// Builder for [`RaggedLayout`].
#[derive(Debug, Default)]
pub struct LayoutBuilder {
    dims: Vec<LayoutDim>,
}

impl LayoutBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a constant dimension.
    pub fn cdim(mut self, dim: Dim, extent: usize) -> Self {
        self.dims.push(LayoutDim {
            dim,
            extent: DimExtent::Fixed(extent),
            pad: 1,
        });
        self
    }

    /// Appends a variable dimension whose slice sizes along `dep` are
    /// `lens`.
    pub fn vdim(mut self, dim: Dim, dep: &Dim, lens: impl Into<LengthFn>) -> Self {
        self.dims.push(LayoutDim {
            dim,
            extent: DimExtent::variable(dep.clone(), lens),
            pad: 1,
        });
        self
    }

    /// Sets the storage padding multiple of the most recently added
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if no dimension has been added or `pad == 0`.
    pub fn pad(mut self, pad: usize) -> Self {
        assert!(pad > 0, "padding multiple must be positive");
        self.dims
            .last_mut()
            .expect("pad() requires a preceding dimension")
            .pad = pad;
        self
    }

    /// Validates and builds the layout.
    pub fn build(self) -> Result<RaggedLayout, DgraphError> {
        let dim_ids: Vec<Dim> = self.dims.iter().map(|d| d.dim.clone()).collect();
        let extents: Vec<DimExtent> = self.dims.iter().map(|d| d.extent.clone()).collect();
        let graph = Dgraph::build(&dim_ids, &extents)?;
        let mut padded_lens = Vec::with_capacity(self.dims.len());
        let mut fixed_extents = Vec::with_capacity(self.dims.len());
        for d in &self.dims {
            match &d.extent {
                DimExtent::Fixed(e) => {
                    padded_lens.push(None);
                    fixed_extents.push(Some(e.div_ceil(d.pad) * d.pad));
                }
                DimExtent::Variable { lens, .. } => {
                    padded_lens.push(Some(lens.padded(d.pad)));
                    fixed_extents.push(None);
                }
            }
        }
        Ok(RaggedLayout {
            dims: self.dims,
            graph,
            padded_lens,
            fixed_extents,
        })
    }
}

impl RaggedLayout {
    /// Starts a builder.
    pub fn builder() -> LayoutBuilder {
        LayoutBuilder::new()
    }

    /// A fully dense layout helper: all dimensions constant.
    pub fn dense(shape: &[usize]) -> RaggedLayout {
        let mut b = LayoutBuilder::new();
        for (i, &e) in shape.iter().enumerate() {
            b = b.cdim(Dim::new(format!("d{i}")), e);
        }
        b.build().expect("dense layouts always validate")
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// The dimensions in order.
    pub fn dims(&self) -> &[LayoutDim] {
        &self.dims
    }

    /// The validated dimension graph.
    pub fn graph(&self) -> &Dgraph {
        &self.graph
    }

    /// Post-padding slice extent of dimension `d` given the index along its
    /// dependence (ignored for cdims).
    pub fn extent_at(&self, d: usize, dep_index: usize) -> usize {
        match (&self.fixed_extents[d], &self.padded_lens[d]) {
            (Some(e), _) => *e,
            (None, Some(lens)) => lens.len_at(dep_index),
            _ => unreachable!("dimension is neither fixed nor variable"),
        }
    }

    /// *Unpadded* slice extent of dimension `d` (the iteration extent
    /// before `pad_loop`).
    pub fn raw_extent_at(&self, d: usize, dep_index: usize) -> usize {
        match &self.dims[d].extent {
            DimExtent::Fixed(e) => *e,
            DimExtent::Variable { lens, .. } => lens.len_at(dep_index),
        }
    }

    /// Padded length table of vdim `d` (None for cdims).
    pub fn padded_lens(&self, d: usize) -> Option<&LengthFn> {
        self.padded_lens[d].as_ref()
    }

    /// Padded extent of cdim `d` (None for vdims).
    pub fn fixed_extent(&self, d: usize) -> Option<usize> {
        self.fixed_extents[d]
    }

    /// Total number of stored elements (with storage padding).
    pub fn size(&self) -> usize {
        self.size_rec(0, 0)
    }

    fn size_rec(&self, d: usize, outer_index: usize) -> usize {
        if d == self.ndim() {
            return 1;
        }
        match self.graph.incoming(d) {
            None => {
                let e = self.fixed_extents[d].expect("cdim has fixed extent");
                // Constant extent: if no inner dim depends on d, the slice
                // volume is uniform.
                if !self.graph.has_dependents(d) {
                    e * self.size_rec(d + 1, outer_index)
                } else {
                    (0..e).map(|i| self.size_rec(d + 1, i)).sum()
                }
            }
            Some(k) => {
                debug_assert!(k < d);
                let e = self.extent_at(d, outer_index);
                debug_assert!(
                    !self.graph.has_dependents(d),
                    "chained raggedness rejected at build time"
                );
                e * self.size_rec(d + 1, outer_index)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 4 example: A[batch=4, len] with lens [5, 2, 3, 4],
    /// output padded to multiples of 4.
    fn fig4_layout(pad: usize) -> RaggedLayout {
        let batch = Dim::new("batch");
        let len = Dim::new("len");
        RaggedLayout::builder()
            .cdim(batch.clone(), 4)
            .vdim(len, &batch, vec![5usize, 2, 3, 4])
            .pad(pad)
            .build()
            .unwrap()
    }

    #[test]
    fn sizes_match_fig4() {
        let a = fig4_layout(1);
        assert_eq!(a.size(), 5 + 2 + 3 + 4);
        let b = fig4_layout(4);
        // Rows pad to 8,4,4,4 (cf. Fig. 4's row_idx_b = [0,8,12,16] for
        // its three-row example).
        assert_eq!(b.size(), 8 + 4 + 4 + 4);
    }

    #[test]
    fn four_dim_attention_layout() {
        // X[batch, len1, heads, len2]: size = sum_b len(b)^2 * heads.
        let batch = Dim::new("batch");
        let len1 = Dim::new("len1");
        let heads = Dim::new("heads");
        let len2 = Dim::new("len2");
        let lens = vec![3usize, 1, 2];
        let l = RaggedLayout::builder()
            .cdim(batch.clone(), 3)
            .vdim(len1, &batch, lens.clone())
            .cdim(heads, 4)
            .vdim(len2, &batch, lens)
            .build()
            .unwrap();
        assert_eq!(l.size(), 4 * (9 + 1 + 4));
    }

    #[test]
    fn dense_layout_is_product() {
        let l = RaggedLayout::dense(&[2, 3, 4]);
        assert_eq!(l.size(), 24);
    }

    #[test]
    fn extent_queries() {
        let l = fig4_layout(4);
        assert_eq!(l.extent_at(0, 0), 4);
        assert_eq!(l.extent_at(1, 0), 8); // padded
        assert_eq!(l.raw_extent_at(1, 0), 5); // raw
        assert_eq!(l.padded_lens(1).unwrap().as_slice(), &[8, 4, 4, 4]);
        assert_eq!(l.fixed_extent(0), Some(4));
    }
}
