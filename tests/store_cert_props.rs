//! The flat (CSR) `StoreCert` against a map-based reference.
//!
//! The certificate the parallel executor enforces per store is indexed
//! by two array reads (`offsets[b - min_block]`, then the region slice).
//! The reference below is the obvious formulation — a map from block
//! value to its regions, all pairs compared — and the property is that
//! the two agree on everything observable: acceptance, the error class
//! on rejection, and the regions of every block value, present, absent,
//! negative or far outside the certified span.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cora::exec::{CertError, StoreCert};
use cora::ir::interval::SInt;

/// What the reference decides for a set of spans.
#[derive(Debug, PartialEq)]
enum Verdict {
    Unbounded,
    Overlap,
    Accept(BTreeMap<i64, Vec<SInt>>),
}

/// Map-based reference: group by block in input order, reject `Top`,
/// then test every cross-block pair of regions for disjointness.
fn reference(spans: &[(i64, SInt)]) -> Verdict {
    let mut by_block: BTreeMap<i64, Vec<SInt>> = BTreeMap::new();
    for &(block, r) in spans {
        match r {
            SInt::Empty => {}
            // The constructor reports the first unbounded region it
            // meets, before looking for overlaps.
            SInt::Top => return Verdict::Unbounded,
            SInt::Set { .. } => by_block.entry(block).or_default().push(r),
        }
    }
    for (a, ra) in &by_block {
        for (b, rb) in &by_block {
            if a < b && ra.iter().any(|x| rb.iter().any(|y| !x.disjoint(*y))) {
                return Verdict::Overlap;
            }
        }
    }
    Verdict::Accept(by_block)
}

/// Mostly bounded strided sets on a small lattice, so that disjoint
/// and overlapping inputs are both common; some points and empties.
fn region() -> impl Strategy<Value = SInt> {
    (0u8..8, 0i64..40, 0i64..6, 1i64..4).prop_map(|(kind, lo, n, stride)| match kind {
        0 => SInt::Empty,
        1 => SInt::point(lo),
        _ => SInt::make(lo, lo + n * stride, stride),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn csr_certificate_agrees_with_the_map_reference(
        // Sparse block ids around an arbitrary (negative or positive,
        // never zero-based by construction) origin.
        origin in -1000i64..1000,
        raw in prop::collection::vec((0i64..12, region()), 0..10),
        // Occasionally one region is unbounded.
        top_at in 0usize..40,
    ) {
        let mut spans: Vec<(i64, SInt)> =
            raw.iter().map(|&(b, r)| (origin + b * 3, r)).collect();
        if top_at < spans.len() {
            spans[top_at].1 = SInt::Top;
        }
        let want = reference(&spans);
        match StoreCert::new(spans.iter().copied()) {
            Err(CertError::Unbounded { block }) => {
                prop_assert_eq!(&want, &Verdict::Unbounded);
                prop_assert!(spans.iter().any(|&(b, r)| b == block && r == SInt::Top));
            }
            Err(CertError::Overlap { block_a, region_a, block_b, region_b }) => {
                prop_assert_eq!(&want, &Verdict::Overlap);
                // The witnesses are real input spans of distinct blocks
                // that do overlap.
                prop_assert!(block_a != block_b && !region_a.disjoint(region_b));
                prop_assert!(spans.contains(&(block_a, region_a)));
                prop_assert!(spans.contains(&(block_b, region_b)));
            }
            Err(CertError::TooLarge) => prop_assert!(false, "span of 36 block values refused"),
            Ok(cert) => {
                prop_assert!(matches!(want, Verdict::Accept(_)), "certified {:?}", want);
                let Verdict::Accept(by_block) = want else { unreachable!() };
                // Every block value in and around the span — including
                // the gaps between the sparse ids — and the far ends.
                let probes = (origin - 4..origin + 40).chain([i64::MIN, -1, 0, i64::MAX]);
                for block in probes {
                    let regions = by_block.get(&block).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(cert.regions_for(block), regions, "block {}", block);
                }
            }
        }
    }
}
