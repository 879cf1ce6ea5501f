//! Blocked CSR: dense `bs×bs` blocks addressed CSR-style.
//!
//! The format reduces index traffic at the cost of padding partial blocks
//! — the trade Taco's BCSR results exhibit in Table 6 (faster than CSR for
//! trmm/trmul, but with `block²` padding waste near the diagonal).

/// A BCSR `f32` matrix with square blocks.
#[derive(Debug, Clone)]
pub struct BcsrMatrix {
    /// Rows of the logical matrix.
    pub nrows: usize,
    /// Columns of the logical matrix.
    pub ncols: usize,
    /// Block edge length.
    pub block: usize,
    /// Block-row start offsets (`nrows/block + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Block-column index per stored block.
    pub col_idx: Vec<usize>,
    /// Stored blocks, each `block*block` values row-major.
    pub vals: Vec<f32>,
}

impl BcsrMatrix {
    /// Builds a BCSR matrix from a dense row-major buffer, storing every
    /// block that contains at least one non-zero.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are not multiples of `block`.
    pub fn from_dense(nrows: usize, ncols: usize, block: usize, dense: &[f32]) -> BcsrMatrix {
        assert!(block > 0, "block size must be positive");
        assert_eq!(
            nrows % block,
            0,
            "rows must be a multiple of the block size"
        );
        assert_eq!(
            ncols % block,
            0,
            "cols must be a multiple of the block size"
        );
        let brows = nrows / block;
        let bcols = ncols / block;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for bi in 0..brows {
            for bj in 0..bcols {
                let mut any = false;
                'scan: for r in 0..block {
                    for c in 0..block {
                        if dense[(bi * block + r) * ncols + bj * block + c] != 0.0 {
                            any = true;
                            break 'scan;
                        }
                    }
                }
                if any {
                    col_idx.push(bj);
                    for r in 0..block {
                        for c in 0..block {
                            vals.push(dense[(bi * block + r) * ncols + bj * block + c]);
                        }
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        BcsrMatrix {
            nrows,
            ncols,
            block,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Converts back to dense.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        let brows = self.nrows / self.block;
        for bi in 0..brows {
            for p in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bj = self.col_idx[p];
                let blk =
                    &self.vals[p * self.block * self.block..(p + 1) * self.block * self.block];
                for r in 0..self.block {
                    for c in 0..self.block {
                        out[(bi * self.block + r) * self.ncols + bj * self.block + c] =
                            blk[r * self.block + c];
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_dense(n: usize) -> Vec<f32> {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                d[i * n + j] = (i + j + 1) as f32;
            }
        }
        d
    }

    #[test]
    fn round_trip() {
        let d = lower_dense(8);
        let m = BcsrMatrix::from_dense(8, 8, 4, &d);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn triangular_block_count() {
        // 8x8 lower triangle with 4x4 blocks: 3 blocks stored (the upper
        // right block is entirely zero).
        let m = BcsrMatrix::from_dense(8, 8, 4, &lower_dense(8));
        assert_eq!(m.nblocks(), 3);
        // Stored values include diagonal-block padding: 3 * 16 = 48 vs 36
        // true entries.
        assert_eq!(m.vals.len(), 48);
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn rejects_non_multiple() {
        BcsrMatrix::from_dense(6, 6, 4, &[0.0; 36]);
    }
}
