//! Shape buckets: the length-histogram class of a ragged batch.
//!
//! A [`BucketKey`] keys a batch by the histogram class of its sequence
//! lengths — power-of-two length bins, not the exact length multiset —
//! so batches that differ only in sequence order or in lengths within a
//! bin share a key. The serving batch policy packs by [`length_class`];
//! `cora_transformer::autotune` keys its build record by [`BucketKey`].
//!
//! There is no schedule search: every operator runs the schedule its
//! constructor declares. [`TuneBudget`] survives only as a frozen
//! signature the benchmark (`perf_ledger`) calls; nothing reads it.

use std::collections::BTreeMap;

/// The histogram class of one sequence length: 0 for empty sequences,
/// otherwise `floor(log2(len)) + 1` — power-of-two length bins
/// (`[1]`, `[2,3]`, `[4,7]`, `[8,15]`, …). Resampling a length within
/// its bin never changes its class.
pub fn length_class(len: usize) -> u32 {
    if len == 0 {
        0
    } else {
        usize::BITS - len.leading_zeros()
    }
}

/// A shape-bucket key: the FTuner-style histogram class of a ragged
/// batch. Two batches map to the same key iff they have the same model
/// descriptor and the same number of sequences in every
/// [`length_class`] bin — independent of sequence order and of the
/// exact lengths within a bin.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    /// Caller-chosen model/config descriptor (hidden size, heads, math
    /// mode, …) — two models never share a bucket.
    model: String,
    /// `(length class, sequence count)`, ascending by class, zero
    /// counts omitted.
    hist: Vec<(u32, usize)>,
}

impl BucketKey {
    /// Builds the key for a batch of sequence lengths.
    pub fn new(model: impl Into<String>, lens: &[usize]) -> BucketKey {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for &l in lens {
            *counts.entry(length_class(l)).or_insert(0) += 1;
        }
        BucketKey {
            model: model.into(),
            hist: counts.into_iter().collect(),
        }
    }
}

/// A trial budget nothing spends: accepted by
/// `EncoderAutotuner::new` and ignored, because there is no search.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TuneBudget;

impl TuneBudget {
    /// Accepted and ignored, like the budget itself.
    pub fn trials(_max_trials: usize) -> TuneBudget {
        TuneBudget
    }

    /// Accepted and ignored: there is nothing for a time cap to bound.
    pub fn with_max_ms(self, _ms: f64) -> TuneBudget {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_classes_are_log2_bins() {
        assert_eq!(length_class(0), 0);
        assert_eq!(length_class(1), 1);
        assert_eq!(length_class(2), 2);
        assert_eq!(length_class(3), 2);
        assert_eq!(length_class(4), 3);
        assert_eq!(length_class(7), 3);
        assert_eq!(length_class(8), 4);
        assert_eq!(length_class(127), 7);
        assert_eq!(length_class(128), 8);
    }

    #[test]
    fn bucket_key_is_permutation_invariant_and_binned() {
        let a = BucketKey::new("m", &[5, 0, 9, 3]);
        let b = BucketKey::new("m", &[3, 9, 0, 5]);
        assert_eq!(a, b);
        // Resampling within bins: 5→6 ([4,7]), 9→15 ([8,15]), 3→2.
        let c = BucketKey::new("m", &[6, 0, 15, 2]);
        assert_eq!(a, c);
        // Crossing a bin boundary changes the key.
        let d = BucketKey::new("m", &[8, 0, 9, 3]);
        assert_ne!(a, d);
        // Different model descriptor never collides.
        assert_ne!(a, BucketKey::new("other", &[5, 0, 9, 3]));
    }
}
