//! Dimension graphs (Fig. 8, §5.3).
//!
//! The dgraph of a tensor has one node per dimension and an edge
//! `d1 -> d2` when the size of a slice of `d2` depends on the index along
//! `d1`. CoRa models these dependences *precisely*; CSF-style sparse
//! schemes conservatively assume every dimension depends on all outer
//! dimensions, which inflates their auxiliary data (compared in
//! [`crate::csf`] and the §7.4 experiment).

use std::collections::HashMap;

use crate::dim::Dim;
use crate::extent::DimExtent;

/// Errors raised when validating a layout's dimension structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DgraphError {
    /// A vdim depends on a dimension that is not in the layout.
    UnknownDependence {
        /// Index of the offending dimension.
        dim_index: usize,
        /// Name of the missing dependence.
        dep_name: String,
    },
    /// A vdim depends on a dimension that is not strictly outer to it.
    NonOuterDependence {
        /// Index of the offending dimension.
        dim_index: usize,
        /// Index of the dependence.
        dep_index: usize,
    },
    /// The outermost dimension must be a cdim.
    VariableOutermost,
    /// A vdim's length table does not cover its dependence's extent, or the
    /// dependence is itself variable (not supported by the prototype).
    DomainMismatch {
        /// Index of the offending dimension.
        dim_index: usize,
        /// Tabulated domain size.
        domain: usize,
        /// Required domain size.
        required: usize,
    },
}

impl std::fmt::Display for DgraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DgraphError::UnknownDependence {
                dim_index,
                dep_name,
            } => write!(
                f,
                "dimension {dim_index} depends on `{dep_name}` which is not in the layout"
            ),
            DgraphError::NonOuterDependence {
                dim_index,
                dep_index,
            } => write!(
                f,
                "dimension {dim_index} depends on dimension {dep_index} which is not outer to it"
            ),
            DgraphError::VariableOutermost => {
                write!(f, "the outermost dimension cannot be variable")
            }
            DgraphError::DomainMismatch {
                dim_index,
                domain,
                required,
            } => write!(
                f,
                "dimension {dim_index} length table covers {domain} slice(s) but its dependence has extent {required}"
            ),
        }
    }
}

impl std::error::Error for DgraphError {}

/// The dependence structure of an ordered list of dimensions.
#[derive(Debug, Clone)]
pub struct Dgraph {
    n: usize,
    /// `dep[i] = Some(k)` if dimension `i`'s extent depends on dimension `k`.
    dep: Vec<Option<usize>>,
}

impl Dgraph {
    /// Builds and validates the dgraph of `(dims, extents)` ordered
    /// outermost-first.
    pub fn build(dims: &[Dim], extents: &[DimExtent]) -> Result<Dgraph, DgraphError> {
        assert_eq!(dims.len(), extents.len(), "dims/extents length mismatch");
        let index_of: HashMap<&Dim, usize> = dims.iter().enumerate().map(|(i, d)| (d, i)).collect();
        let mut dep = vec![None; dims.len()];
        for (i, e) in extents.iter().enumerate() {
            if let DimExtent::Variable { dep: d, lens } = e {
                let Some(&k) = index_of.get(d) else {
                    return Err(DgraphError::UnknownDependence {
                        dim_index: i,
                        dep_name: d.name().to_string(),
                    });
                };
                if k >= i {
                    return Err(DgraphError::NonOuterDependence {
                        dim_index: i,
                        dep_index: k,
                    });
                }
                if i == 0 {
                    return Err(DgraphError::VariableOutermost);
                }
                let required = match &extents[k] {
                    DimExtent::Fixed(n) => *n,
                    // Chained raggedness (vdim depending on a vdim) is not
                    // supported by the prototype, mirroring the paper's §6.
                    DimExtent::Variable { .. } => {
                        return Err(DgraphError::NonOuterDependence {
                            dim_index: i,
                            dep_index: k,
                        })
                    }
                };
                if lens.domain() < required {
                    return Err(DgraphError::DomainMismatch {
                        dim_index: i,
                        domain: lens.domain(),
                        required,
                    });
                }
                dep[i] = Some(k);
            } else if i == 0 && !e.is_fixed() {
                return Err(DgraphError::VariableOutermost);
            }
        }
        Ok(Dgraph { n: dims.len(), dep })
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the layout has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `IG(d)`: the dimension `d`'s extent depends on, if any.
    pub fn incoming(&self, d: usize) -> Option<usize> {
        self.dep[d]
    }

    /// True if any dimension depends on `d` (i.e. `d` needs an `A_d`
    /// prefix-sum array in the prelude).
    pub fn has_dependents(&self, d: usize) -> bool {
        self.dep.contains(&Some(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::DimExtent;

    fn mha_layout() -> (Vec<Dim>, Vec<DimExtent>) {
        // X[batch, len1, heads, len2] with len1, len2 dependent on batch —
        // the paper's running example (Fig. 8).
        let batch = Dim::new("batch");
        let len1 = Dim::new("len1");
        let heads = Dim::new("heads");
        let len2 = Dim::new("len2");
        let lens = vec![1usize, 2];
        let extents = vec![
            DimExtent::Fixed(2),
            DimExtent::variable(batch.clone(), lens.clone()),
            DimExtent::Fixed(2),
            DimExtent::variable(batch.clone(), lens),
        ];
        (vec![batch, len1, heads, len2], extents)
    }

    #[test]
    fn builds_precise_graph() {
        let (dims, extents) = mha_layout();
        let g = Dgraph::build(&dims, &extents).unwrap();
        assert_eq!(g.incoming(1), Some(0));
        assert_eq!(g.incoming(3), Some(0));
        assert_eq!(g.incoming(2), None);
        assert!(g.has_dependents(0));
        assert!(!g.has_dependents(2));
    }

    #[test]
    fn rejects_variable_outermost() {
        let b = Dim::new("b");
        let l = Dim::new("l");
        let extents = vec![
            DimExtent::variable(b.clone(), vec![1usize]),
            DimExtent::Fixed(2),
        ];
        // Dependence names a dim that exists but is not outer.
        let err = Dgraph::build(&[l, b], &extents).unwrap_err();
        assert!(matches!(
            err,
            DgraphError::NonOuterDependence { .. } | DgraphError::VariableOutermost
        ));
    }

    #[test]
    fn rejects_unknown_dependence() {
        let b = Dim::new("b");
        let ghost = Dim::new("ghost");
        let l = Dim::new("l");
        let extents = vec![
            DimExtent::Fixed(2),
            DimExtent::variable(ghost, vec![1usize, 2]),
        ];
        let err = Dgraph::build(&[b, l], &extents).unwrap_err();
        assert!(matches!(err, DgraphError::UnknownDependence { .. }));
    }

    #[test]
    fn rejects_short_length_table() {
        let b = Dim::new("b");
        let l = Dim::new("l");
        let extents = vec![
            DimExtent::Fixed(3),
            DimExtent::variable(b.clone(), vec![1usize, 2]),
        ];
        let err = Dgraph::build(&[b, l], &extents).unwrap_err();
        assert_eq!(
            err,
            DgraphError::DomainMismatch {
                dim_index: 1,
                domain: 2,
                required: 3
            }
        );
    }
}
