//! Dimension extents: constant (cdim) or variable (vdim).
//!
//! A vdim's slice size is a *length function* of the index along one outer
//! dimension — the paper's prototype restriction ("our prototype allows
//! vdims to depend on at most one outer tensor dimension", §6), which we
//! keep. Length functions are materialised as plain arrays: the raggedness
//! pattern is known before computation (insight I1), so the prelude can
//! tabulate them.

use std::sync::Arc;

use crate::dim::Dim;

/// The extent of one dimension in a ragged layout.
#[derive(Debug, Clone)]
pub enum DimExtent {
    /// Constant-size dimension (`cdim`).
    Fixed(usize),
    /// Variable-size dimension (`vdim`): slice `i` of the dimension named
    /// by `dep` has `lens.len(i)` elements.
    Variable {
        /// The single outer dimension the extent depends on.
        dep: Dim,
        /// Tabulated length function.
        lens: LengthFn,
    },
}

impl DimExtent {
    /// Constructs a vdim extent.
    pub fn variable(dep: Dim, lens: impl Into<LengthFn>) -> Self {
        DimExtent::Variable {
            dep,
            lens: lens.into(),
        }
    }

    /// True for constant dimensions.
    pub fn is_fixed(&self) -> bool {
        matches!(self, DimExtent::Fixed(_))
    }
}

/// A tabulated length function `index -> slice length`.
#[derive(Debug, Clone)]
pub struct LengthFn(Arc<Vec<usize>>);

impl LengthFn {
    /// Wraps a table of lengths.
    pub fn new(lens: Vec<usize>) -> Self {
        LengthFn(Arc::new(lens))
    }

    /// Length of slice `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the tabulated domain.
    pub fn len_at(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Domain size (number of slices).
    pub fn domain(&self) -> usize {
        self.0.len()
    }

    /// Largest tabulated length (0 for an empty domain).
    pub fn max(&self) -> usize {
        self.0.iter().copied().max().unwrap_or(0)
    }

    /// Smallest tabulated length (0 for an empty domain).
    pub fn min(&self) -> usize {
        self.0.iter().copied().min().unwrap_or(0)
    }

    /// Sum of all lengths.
    pub fn total(&self) -> usize {
        self.0.iter().sum()
    }

    /// The raw table.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// A copy of the table with every length rounded up to a multiple of
    /// `pad` (`pad_loop` / `pad_dimension`, §4.1). `pad == 1` is identity.
    pub fn padded(&self, pad: usize) -> LengthFn {
        assert!(pad > 0, "padding multiple must be positive");
        LengthFn::new(self.0.iter().map(|&l| l.div_ceil(pad) * pad).collect())
    }
}

impl From<Vec<usize>> for LengthFn {
    fn from(v: Vec<usize>) -> Self {
        LengthFn::new(v)
    }
}

impl From<&[usize]> for LengthFn {
    fn from(v: &[usize]) -> Self {
        LengthFn::new(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_fn_stats() {
        let f = LengthFn::new(vec![5, 2, 3]);
        assert_eq!(f.len_at(1), 2);
        assert_eq!(f.domain(), 3);
        assert_eq!(f.max(), 5);
        assert_eq!(f.min(), 2);
        assert_eq!(f.total(), 10);
    }

    #[test]
    fn padding_rounds_up() {
        let f = LengthFn::new(vec![5, 2, 3, 8]);
        let p = f.padded(4);
        assert_eq!(p.as_slice(), &[8, 4, 4, 8]);
        assert_eq!(f.padded(1).as_slice(), f.as_slice());
    }

    #[test]
    fn fixed_and_variable_extents() {
        let d = Dim::new("b");
        let e = DimExtent::variable(d, vec![1usize, 9, 4]);
        assert!(!e.is_fixed());
        assert!(DimExtent::Fixed(7).is_fixed());
    }

    #[test]
    #[should_panic(expected = "padding multiple must be positive")]
    fn zero_padding_rejected() {
        LengthFn::new(vec![1]).padded(0);
    }
}
