//! The disjoint-store certificate the parallel dispatcher enforces.
//!
//! A certificate is keyed by *tile*: `grain` consecutive block values
//! that the dispatcher hands to one worker as a unit and that worker
//! runs in ascending order. Only distinct tiles can run concurrently,
//! so only distinct tiles need disjoint store regions; a grain of 1 is
//! the per-block certificate.

use std::ops::Range;

use cora_ir::interval::SInt;

/// A machine-checked disjoint-store certificate: for every tile of
/// block values, the strided-interval regions of the output its stores
/// may touch.
///
/// Produced by the static verifier (`cora_core::verify`) from a
/// concrete abstract interpretation of the outlined body, and consumed
/// by [`run_chain_proven`](super::run_chain_proven) — the
/// *safe* parallel entry point. Soundness does not rest on trusting the
/// verifier:
/// [`StoreCert::tiled`] re-validates that regions of distinct tiles are
/// pairwise disjoint (so the type cannot exist for a non-partitioned
/// store space), the executor runs a tile's blocks on one worker, and
/// it checks every output store against the executing tile's regions at
/// run time. A verifier bug can therefore produce a deterministic panic,
/// never a data race.
///
/// Tile `t` holds block values `origin + t·grain ..` (`grain` of them,
/// fewer for the last tile). The layout is a flat CSR table: tile `t`
/// owns `regions[offsets[t] .. offsets[t + 1]]`, so the lookup on the
/// dispatch path is a division and two index operations.
#[derive(Debug, Clone)]
pub struct StoreCert {
    /// First block value of tile 0.
    origin: i64,
    /// Block values per tile.
    grain: usize,
    /// Block values covered: `origin .. origin + n_blocks`.
    n_blocks: usize,
    /// One entry past each tile; empty for the empty certificate.
    offsets: Vec<u32>,
    regions: Vec<SInt>,
}

/// Why a set of per-tile store regions is not a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// A tile has an unbounded ([`SInt::Top`]) store region.
    Unbounded {
        /// The tile's first block value.
        block: i64,
    },
    /// Two distinct tiles have regions the congruence test cannot
    /// separate: the first such pair in `(lo, hi, tile)` order.
    Overlap {
        /// First block value of the first witness tile.
        block_a: i64,
        /// Its region.
        region_a: SInt,
        /// First block value of the second witness tile.
        block_b: i64,
        /// Its overlapping region.
        region_b: SInt,
    },
    /// There are more tiles than [`StoreCert::MAX_BLOCK_SPAN`], the block
    /// values overflow `i64`, or there are more regions than a `u32`
    /// offset can address.
    TooLarge,
}

impl StoreCert {
    /// Most tiles a certificate indexes densely: the offsets table is
    /// allocated for every tile, so an arbitrary caller's tile count is
    /// bounded before allocating.
    pub const MAX_BLOCK_SPAN: usize = 1 << 24;

    /// A certificate over block values `origin .. origin + n_blocks` in
    /// tiles of `grain`, from `(tile index, region)` spans. Proves the
    /// regions of distinct tiles pairwise disjoint (interval separation
    /// with stride/congruence fallback, via a sort-and-sweep over the
    /// regions); regions of one tile may overlap, since its blocks run
    /// in order on one worker. A tile's regions keep their input order;
    /// empty regions are dropped.
    ///
    /// # Errors
    ///
    /// Rejects unbounded ([`SInt::Top`]) regions and any cross-tile
    /// overlap the congruence test cannot refute, naming the first
    /// offending pair in `(lo, hi, tile)` order by their tiles' first
    /// block values.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero or a span names a tile past the last.
    pub fn tiled(
        origin: i64,
        n_blocks: usize,
        grain: usize,
        spans: impl IntoIterator<Item = (usize, SInt)>,
    ) -> Result<StoreCert, CertError> {
        assert!(grain > 0, "a tile holds at least one block");
        let n_tiles = n_blocks.div_ceil(grain);
        let fits = (i64::try_from(n_blocks).ok()).and_then(|n| origin.checked_add(n));
        if n_tiles > Self::MAX_BLOCK_SPAN || fits.is_none() {
            return Err(CertError::TooLarge);
        }
        let mut sweep: Vec<(i64, i64, usize, SInt)> = Vec::new();
        for (tile, r) in spans {
            assert!(
                tile < n_tiles,
                "tile {tile} of a {n_tiles}-tile certificate"
            );
            match r {
                SInt::Empty => {}
                SInt::Top => {
                    let block = origin + (tile * grain) as i64;
                    return Err(CertError::Unbounded { block });
                }
                SInt::Set { lo, hi, .. } => sweep.push((lo, hi, tile, r)),
            }
        }
        if u32::try_from(sweep.len()).is_err() {
            return Err(CertError::TooLarge);
        }
        // Counting sort by tile into the CSR table: count, prefix-sum
        // into each tile's start, scatter in input order.
        let mut offsets = vec![0u32; n_tiles + 1];
        for s in &sweep {
            offsets[s.2 + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut regions = vec![SInt::Empty; sweep.len()];
        for s in &sweep {
            regions[next[s.2] as usize] = s.3;
            next[s.2] += 1;
        }
        let cert = StoreCert {
            origin,
            grain,
            n_blocks,
            offsets,
            regions,
        };

        sweep.sort_by_key(|&(lo, hi, t, _)| (lo, hi, t));
        for (i, &(_, hi_i, tile_a, region_a)) in sweep.iter().enumerate() {
            for &(lo_j, _, tile_b, region_b) in &sweep[i + 1..] {
                if lo_j > hi_i {
                    break;
                }
                if tile_a != tile_b && !region_a.disjoint(region_b) {
                    return Err(CertError::Overlap {
                        block_a: cert.tile_start(tile_a),
                        region_a,
                        block_b: cert.tile_start(tile_b),
                        region_b,
                    });
                }
            }
        }
        Ok(cert)
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The first block value of tile `t`.
    pub fn tile_start(&self, t: usize) -> i64 {
        self.origin + (t * self.grain) as i64
    }

    /// `block − origin`, for a block value the certificate covers.
    #[inline]
    fn offset_of(&self, block: i64) -> Option<usize> {
        let d = block.checked_sub(self.origin)?;
        usize::try_from(d).ok().filter(|&d| d < self.n_blocks)
    }

    #[inline]
    fn tile_regions(&self, t: usize) -> &[SInt] {
        &self.regions[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// The certified store regions of the tile holding one block value.
    /// Blocks outside the certificate own no elements, nor do tiles
    /// without regions (zero-length rows), so any store they attempt
    /// panics.
    #[inline]
    pub fn regions_for(&self, block: i64) -> &[SInt] {
        match self.offset_of(block) {
            Some(d) => self.tile_regions(d / self.grain),
            None => &[],
        }
    }

    /// Checks a dispatch of this certificate's tiles: `batches` are
    /// ascending, non-overlapping ranges of `tiles`, and no covered tile
    /// appears in them twice — so no two workers ever run one tile. (A
    /// block value outside the certificate owns nothing and may repeat.)
    ///
    /// # Panics
    ///
    /// Panics if a batch overlaps the one before it or ends past
    /// `tiles`, or a tile is dispatched twice.
    pub(crate) fn check_dispatch(&self, tiles: &[i64], batches: &[Range<usize>]) {
        let mut dispatched = vec![false; self.tiles()];
        let mut end = 0;
        for batch in batches {
            assert!(
                end <= batch.start,
                "dispatch batch {batch:?} overlaps the one before"
            );
            end = batch.end;
            for &first in &tiles[batch.clone()] {
                if let Some(d) = self.offset_of(first) {
                    let twice = std::mem::replace(&mut dispatched[d / self.grain], true);
                    assert!(!twice, "the tile of block {first} is dispatched twice");
                }
            }
        }
    }

    /// The tile that starts at block value `first`: how many blocks it
    /// holds and its certified regions. A block value outside the
    /// certificate is a one-block tile owning nothing.
    ///
    /// # Panics
    ///
    /// Panics if `first` is covered but does not start a tile: running
    /// from the middle of a tile would hand part of it to a second
    /// worker.
    #[inline]
    pub fn tile_at(&self, first: i64) -> (usize, &[SInt]) {
        let Some(d) = self.offset_of(first) else {
            return (1, &[]);
        };
        assert!(
            d % self.grain == 0,
            "block {first} does not start a tile of {} blocks",
            self.grain
        );
        let len = self.grain.min(self.n_blocks - d);
        (len, self.tile_regions(d / self.grain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_cert_validates_pairwise_disjointness() {
        // Disjoint rows certify per block; a block's regions keep their
        // input order, and blocks between, below and above the certified
        // ones own nothing.
        let cert = StoreCert::tiled(
            0,
            5,
            1,
            [
                (3, SInt::range(5, 9)),
                (1, SInt::range(0, 4)),
                (3, SInt::range(12, 13)),
                (1, SInt::Empty),
            ],
        )
        .expect("disjoint rows certify");
        assert_eq!(cert.regions_for(1), &[SInt::range(0, 4)]);
        assert_eq!(
            cert.regions_for(3),
            &[SInt::range(5, 9), SInt::range(12, 13)]
        );
        for absent in [i64::MIN, -1, 0, 2, 4, 5, i64::MAX] {
            assert!(cert.regions_for(absent).is_empty(), "block {absent}");
        }

        // Interleaved but congruence-disjoint strided lanes certify.
        StoreCert::tiled(
            0,
            2,
            1,
            [(0, SInt::make(0, 8, 2)), (1, SInt::make(1, 9, 2))],
        )
        .expect("even/odd lanes certify");

        // A genuine overlap is rejected, naming both blocks.
        let overlap = [(0, SInt::range(0, 5)), (1, SInt::range(5, 9))];
        assert_eq!(
            StoreCert::tiled(0, 2, 1, overlap).unwrap_err(),
            CertError::Overlap {
                block_a: 0,
                region_a: SInt::range(0, 5),
                block_b: 1,
                region_b: SInt::range(5, 9),
            }
        );

        // Unbounded regions can never certify, and more tiles than can
        // be indexed densely are refused before anything is allocated.
        let err = StoreCert::tiled(0, 1, 1, [(0, SInt::Top)]).unwrap_err();
        assert_eq!(err, CertError::Unbounded { block: 0 });
        let far = StoreCert::tiled(i64::MIN, usize::MAX, 1, []);
        assert_eq!(far.unwrap_err(), CertError::TooLarge);
    }

    #[test]
    fn tiles_share_regions_and_only_distinct_tiles_must_be_disjoint() {
        // Blocks 10..17 in tiles of 3: [10, 13), [13, 16), [16, 17).
        // Tile 0's two regions overlap each other — one worker runs them
        // in order — and every block maps to its tile's regions.
        let spans = [
            (0, SInt::range(0, 5)),
            (0, SInt::range(4, 8)),
            (1, SInt::range(9, 9)),
            (2, SInt::Empty),
        ];
        let cert = StoreCert::tiled(10, 7, 3, spans).expect("distinct tiles are disjoint");
        assert_eq!(cert.tiles(), 3);
        assert_eq!(
            (10..17)
                .map(|b| cert.regions_for(b).len())
                .collect::<Vec<_>>(),
            [2, 2, 2, 1, 1, 1, 0]
        );
        assert_eq!(cert.tile_at(13), (3, &[SInt::point(9)][..]));
        assert_eq!(cert.tile_at(16), (1, &[][..]));
        assert_eq!((cert.tile_start(0), cert.tile_start(2)), (10, 16));
        // Outside the certificate: a one-block tile that owns nothing.
        assert_eq!(cert.tile_at(9), (1, &[][..]));
        assert_eq!(cert.tile_at(17), (1, &[][..]));

        // Across tiles an overlap is rejected, witnessed by tile starts.
        let spans = [(0usize, SInt::range(0, 5)), (2, SInt::range(5, 6))];
        assert_eq!(
            StoreCert::tiled(10, 7, 3, spans).unwrap_err(),
            CertError::Overlap {
                block_a: 10,
                region_a: SInt::range(0, 5),
                block_b: 16,
                region_b: SInt::range(5, 6),
            }
        );
        let err = StoreCert::tiled(10, 7, 3, [(1usize, SInt::Top)]).unwrap_err();
        assert_eq!(err, CertError::Unbounded { block: 13 });
        let past_i64 = StoreCert::tiled(i64::MAX - 2, 7, 3, []);
        assert_eq!(past_i64.unwrap_err(), CertError::TooLarge);
    }

    #[test]
    fn a_dispatch_runs_each_tile_once() {
        let cert = StoreCert::tiled(10, 7, 3, []).unwrap();
        let run = |tiles: &[i64], batches: &[Range<usize>]| {
            std::panic::catch_unwind(|| cert.check_dispatch(tiles, batches)).is_ok()
        };
        assert!(run(&[16, 10, 13], &[0..1, 1..3]));
        // Values outside the certificate own nothing: they may repeat.
        assert!(run(&[16, 9, 9, 10, 13], &[0..2, 2..5]));
        // One tile in two batches, or twice in one, or from inside.
        assert!(!run(&[16, 10, 13, 10], &[0..2, 2..4]));
        assert!(!run(&[13, 13], &[0..0, 0..2]));
        assert!(!run(&[10, 11], &[0..1, 1..2]));
        // Overlapping batches would hand one tile to two workers.
        assert!(!run(&[16, 10, 13], &[0..2, 1..3]));
    }

    #[test]
    #[should_panic(expected = "block 11 does not start a tile of 3 blocks")]
    fn a_block_inside_a_tile_is_not_a_tile_start() {
        let _ = StoreCert::tiled(10, 7, 3, []).unwrap().tile_at(11);
    }
}
