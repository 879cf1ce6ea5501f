//! The disjoint-store certificate the parallel dispatcher enforces.

use cora_ir::interval::SInt;

/// A machine-checked disjoint-store certificate: for every block value,
/// the strided-interval regions of the output its stores may touch.
///
/// Produced by the static verifier (`cora_core::verify`) from a
/// concrete abstract interpretation of the outlined body, and consumed
/// by [`run_blocks_proven`](super::VmShared::run_blocks_proven) — the
/// *safe* parallel entry point. Soundness does not rest on trusting the
/// verifier:
/// [`StoreCert::new`] re-validates that regions of distinct blocks are
/// pairwise disjoint (so the type cannot exist for a non-partitioned
/// store space), and the executor checks every output store against the
/// executing block's regions at run time. A verifier bug can therefore
/// produce a deterministic panic, never a data race.
///
/// The layout is a flat CSR table: block `b` owns
/// `regions[offsets[b - min_block] .. offsets[b - min_block + 1]]`, so
/// the per-block lookup on the dispatch path is two index operations.
#[derive(Debug, Clone, Default)]
pub struct StoreCert {
    min_block: i64,
    /// One entry past each block of `min_block ..= max_block`; empty for
    /// the empty certificate.
    offsets: Vec<u32>,
    regions: Vec<SInt>,
}

/// Why a set of per-block store regions is not a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// A block has an unbounded ([`SInt::Top`]) store region.
    Unbounded {
        /// The block value.
        block: i64,
    },
    /// Two distinct blocks have regions the congruence test cannot
    /// separate: the first such pair in `(lo, hi, block)` order.
    Overlap {
        /// First witness block value.
        block_a: i64,
        /// Its region.
        region_a: SInt,
        /// Second witness block value.
        block_b: i64,
        /// Its overlapping region.
        region_b: SInt,
    },
    /// The block values span more than [`StoreCert::MAX_BLOCK_SPAN`], or
    /// there are more regions than a `u32` offset can address.
    TooLarge,
}

impl StoreCert {
    /// Widest `max_block - min_block` a certificate indexes densely: the
    /// offsets table is allocated for the whole span, so the span of an
    /// arbitrary caller's block values is bounded before allocating.
    pub const MAX_BLOCK_SPAN: usize = 1 << 24;

    /// Builds a certificate from `(block value, region)` spans,
    /// re-validating pairwise disjointness across blocks (interval
    /// separation with stride/congruence fallback, via a sort-and-sweep
    /// over the regions). A block's regions keep their input order;
    /// empty regions are dropped.
    ///
    /// # Errors
    ///
    /// Rejects unbounded ([`SInt::Top`]) regions and any cross-block
    /// overlap the congruence test cannot refute, naming the first
    /// offending pair in `(lo, hi, block)` order.
    pub fn new(spans: impl IntoIterator<Item = (i64, SInt)>) -> Result<StoreCert, CertError> {
        let mut sweep: Vec<(i64, i64, i64, SInt)> = Vec::new();
        for (block, r) in spans {
            match r {
                SInt::Empty => {}
                SInt::Top => return Err(CertError::Unbounded { block }),
                SInt::Set { lo, hi, .. } => sweep.push((lo, hi, block, r)),
            }
        }
        let (Some(min_block), Some(max_block)) = (
            sweep.iter().map(|s| s.2).min(),
            sweep.iter().map(|s| s.2).max(),
        ) else {
            return Ok(StoreCert::default());
        };
        let span = max_block
            .checked_sub(min_block)
            .and_then(|d| usize::try_from(d).ok())
            .filter(|&d| d <= Self::MAX_BLOCK_SPAN && u32::try_from(sweep.len()).is_ok())
            .ok_or(CertError::TooLarge)?;
        // Counting sort by block into the CSR table: count, prefix-sum
        // into each block's start, scatter in input order.
        let slot = |block: i64| (block - min_block) as usize;
        let mut offsets = vec![0u32; span + 2];
        for s in &sweep {
            offsets[slot(s.2) + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut regions = vec![SInt::Empty; sweep.len()];
        for s in &sweep {
            regions[next[slot(s.2)] as usize] = s.3;
            next[slot(s.2)] += 1;
        }

        sweep.sort_by_key(|&(lo, hi, b, _)| (lo, hi, b));
        for (i, &(_, hi_i, block_a, region_a)) in sweep.iter().enumerate() {
            for &(lo_j, _, block_b, region_b) in &sweep[i + 1..] {
                if lo_j > hi_i {
                    break;
                }
                if block_a != block_b && !region_a.disjoint(region_b) {
                    return Err(CertError::Overlap {
                        block_a,
                        region_a,
                        block_b,
                        region_b,
                    });
                }
            }
        }
        Ok(StoreCert {
            min_block,
            offsets,
            regions,
        })
    }

    /// The certified store regions of one block value. Blocks absent
    /// from the certificate (e.g. zero-length rows) own no elements, so
    /// any store they attempt panics.
    #[inline]
    pub fn regions_for(&self, block: i64) -> &[SInt] {
        let bounds = block
            .checked_sub(self.min_block)
            .and_then(|d| usize::try_from(d).ok())
            .and_then(|i| Some((*self.offsets.get(i)?, *self.offsets.get(i + 1)?)));
        match bounds {
            Some((start, end)) => &self.regions[start as usize..end as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_cert_validates_pairwise_disjointness() {
        // Disjoint rows certify; a block's regions keep their input
        // order, and blocks between, below and above the certified ones
        // own nothing.
        let cert = StoreCert::new([
            (3i64, SInt::range(5, 9)),
            (1, SInt::range(0, 4)),
            (3, SInt::range(12, 13)),
            (1, SInt::Empty),
        ])
        .expect("disjoint rows certify");
        assert_eq!(cert.regions_for(1), &[SInt::range(0, 4)]);
        assert_eq!(
            cert.regions_for(3),
            &[SInt::range(5, 9), SInt::range(12, 13)]
        );
        for absent in [i64::MIN, -1, 0, 2, 4, i64::MAX] {
            assert!(cert.regions_for(absent).is_empty(), "block {absent}");
        }
        let empty = StoreCert::new([(7i64, SInt::Empty)]).expect("nothing to overlap");
        assert!(empty.regions_for(7).is_empty());

        // Interleaved but congruence-disjoint strided lanes certify.
        StoreCert::new([(0i64, SInt::make(0, 8, 2)), (1, SInt::make(1, 9, 2))])
            .expect("even/odd lanes certify");

        // A genuine overlap is rejected, naming both blocks.
        let err = StoreCert::new([(0i64, SInt::range(0, 5)), (1, SInt::range(5, 9))]).unwrap_err();
        assert_eq!(
            err,
            CertError::Overlap {
                block_a: 0,
                region_a: SInt::range(0, 5),
                block_b: 1,
                region_b: SInt::range(5, 9),
            }
        );

        // Unbounded regions can never certify, and block values too far
        // apart to index densely are refused before anything is allocated.
        let err = StoreCert::new([(0i64, SInt::Top)]).unwrap_err();
        assert_eq!(err, CertError::Unbounded { block: 0 });
        let far = [(i64::MIN, SInt::point(0)), (i64::MAX, SInt::point(1))];
        assert_eq!(StoreCert::new(far).unwrap_err(), CertError::TooLarge);
    }
}
