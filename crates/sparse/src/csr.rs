//! Compressed Sparse Row matrices.
//!
//! The format Taco uses for the §7.5 / Table 6 comparison. Accessing an
//! element requires a search over the stored column indices of its row —
//! the O(1)-violating property (insight I2) that makes CSR a poor fit for
//! ragged data even though a triangular matrix is perfectly regular.

/// A CSR `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row start offsets (`nrows + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column index per stored value.
    pub col_idx: Vec<usize>,
    /// Stored values.
    pub vals: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense row-major buffer, dropping zeros.
    pub fn from_dense(nrows: usize, ncols: usize, dense: &[f32]) -> CsrMatrix {
        assert_eq!(dense.len(), nrows * ncols, "dense buffer size mismatch");
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for i in 0..nrows {
            for j in 0..ncols {
                let v = dense[i * ncols + j];
                if v != 0.0 {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Builds an `n×n` lower-triangular matrix with values from `f(i, j)`
    /// for `j <= i` (all stored, even if zero — the triangle is the
    /// sparsity pattern, matching how the paper feeds Taco).
    pub fn lower_triangular(n: usize, f: impl Fn(usize, usize) -> f32) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(n * (n + 1) / 2);
        let mut vals = Vec::with_capacity(n * (n + 1) / 2);
        row_ptr.push(0);
        for i in 0..n {
            for j in 0..=i {
                col_idx.push(j);
                vals.push(f(i, j));
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Converts back to a dense row-major buffer.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[i * self.ncols + self.col_idx[p]] = self.vals[p];
            }
        }
        out
    }

    /// Element lookup via binary search over the row's column indices —
    /// the non-constant-time access CoRa's scheme avoids.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(p) => self.vals[lo + p],
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let d = vec![1.0, 0.0, 0.0, 2.0, 3.0, 0.0];
        let m = CsrMatrix::from_dense(2, 3, &d);
        assert_eq!(m.vals.len(), 3);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn lower_triangular_shape() {
        let m = CsrMatrix::lower_triangular(4, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.vals.len(), 10);
        assert_eq!(m.get(3, 2), 32.0);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.row_ptr, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn get_searches_row() {
        let d = vec![0.0, 5.0, 0.0, 7.0];
        let m = CsrMatrix::from_dense(2, 2, &d);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 1), 7.0);
    }
}
