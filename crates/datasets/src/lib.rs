//! # cora-datasets
//!
//! Synthetic sequence-length workloads matching the NLP datasets of the
//! CoRa evaluation (Table 3). The experiments consume only the multiset of
//! sequence lengths in a mini-batch, so we model each dataset as a
//! power-transformed uniform distribution on `[min, max]` whose mean is
//! matched *exactly* to the paper's reported mean: with `U ~ Uniform(0,1)`
//! and `c = (max - mean)/(mean - min)`, the length `min + (max-min)·U^c`
//! has expectation `mean`. Sampling is deterministic per (dataset, seed).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The eight datasets of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// RACE reading comprehension (80 / 364 / 512).
    Race,
    /// English Wikipedia, max length 512 (12 / 371 / 512).
    Wiki512,
    /// SQuAD v2.0 (39 / 192 / 384).
    Squad,
    /// English Wikipedia, max length 128 (14 / 117 / 128).
    Wiki128,
    /// MNLI (9 / 43 / 128).
    Mnli,
    /// XNLI (9 / 70 / 128).
    Xnli,
    /// MRPC (21 / 59 / 102).
    Mrpc,
    /// CoLA (6 / 13 / 37).
    Cola,
}

/// All datasets, in the paper's (descending mean length) order.
pub const ALL_DATASETS: [Dataset; 8] = [
    Dataset::Race,
    Dataset::Wiki512,
    Dataset::Squad,
    Dataset::Wiki128,
    Dataset::Mnli,
    Dataset::Xnli,
    Dataset::Mrpc,
    Dataset::Cola,
];

impl Dataset {
    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Race => "RACE",
            Dataset::Wiki512 => "Wiki512",
            Dataset::Squad => "SQuAD",
            Dataset::Wiki128 => "Wiki128",
            Dataset::Mnli => "MNLI",
            Dataset::Xnli => "XNLI",
            Dataset::Mrpc => "MRPC",
            Dataset::Cola => "CoLA",
        }
    }

    /// `(min, mean, max)` sequence lengths from Table 3.
    pub fn stats(self) -> (usize, usize, usize) {
        match self {
            Dataset::Race => (80, 364, 512),
            Dataset::Wiki512 => (12, 371, 512),
            Dataset::Squad => (39, 192, 384),
            Dataset::Wiki128 => (14, 117, 128),
            Dataset::Mnli => (9, 43, 128),
            Dataset::Xnli => (9, 70, 128),
            Dataset::Mrpc => (21, 59, 102),
            Dataset::Cola => (6, 13, 37),
        }
    }

    /// The model's maximum sequence length for this dataset (the padding
    /// target of the fully padded dense baselines).
    pub fn max_len(self) -> usize {
        self.stats().2
    }

    /// Samples `n` sequence lengths deterministically.
    pub fn sample_lengths(self, n: usize, seed: u64) -> Vec<usize> {
        let (min, mean, max) = self.stats();
        let (minf, meanf, maxf) = (min as f64, mean as f64, max as f64);
        // c chosen so E[min + (max-min) U^c] = mean.
        let c = (maxf - meanf) / (meanf - minf);
        let mut rng =
            StdRng::seed_from_u64(seed ^ (self as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>();
                let l = minf + (maxf - minf) * u.powf(c);
                (l.round() as usize).clamp(min, max)
            })
            .collect()
    }

    /// Samples a batch and sorts it descending — the order CoRa's
    /// transformer implementation uses so heavy thread blocks schedule
    /// first (§D.2), and the order micro-batching requires (Fig. 26).
    pub fn sample_batch_sorted(self, n: usize, seed: u64) -> Vec<usize> {
        let mut lens = self.sample_lengths(n, seed);
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_respect_support() {
        for ds in ALL_DATASETS {
            let (min, _, max) = ds.stats();
            let lens = ds.sample_lengths(512, 7);
            assert!(lens.iter().all(|&l| l >= min && l <= max), "{ds:?}");
        }
    }

    #[test]
    fn sample_mean_tracks_paper_mean() {
        for ds in ALL_DATASETS {
            let (_, mean, max) = ds.stats();
            let lens = ds.sample_lengths(20_000, 42);
            let got = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
            let tol = (max as f64) * 0.03 + 2.0;
            assert!(
                (got - mean as f64).abs() < tol,
                "{ds:?}: sampled mean {got:.1} vs paper {mean} (tol {tol:.1})"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = Dataset::Mnli.sample_lengths(64, 3);
        let b = Dataset::Mnli.sample_lengths(64, 3);
        let c = Dataset::Mnli.sample_lengths(64, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_batches_descend() {
        let lens = Dataset::Race.sample_batch_sorted(128, 1);
        assert!(lens.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn names_cover_all() {
        let names: Vec<&str> = ALL_DATASETS.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), 8);
        assert!(names.contains(&"RACE") && names.contains(&"CoLA"));
    }
}
