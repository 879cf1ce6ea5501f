//! Order statistics for the ledger: every reported timing is a median
//! with quartiles and a sample count, tails follow the "at least ten
//! samples beyond it" rule, and a workload's value is the median over
//! its measured passes.

/// Median, quartiles and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "a summary needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Summarises a non-empty series.
pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// Median of a non-empty series — also the "median over passes" a
/// workload reports when its measured pass is repeated.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Percentile `p` in `(0, 100]` by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still
/// has at least ten samples beyond it in a series of `n`; 50 when even
/// the median has fewer (the series is then too short for any tail).
pub fn tail_percentile(n: usize) -> f64 {
    // (percentile, samples needed for ten beyond it) — integers, so the
    // thresholds are exact.
    [(99.9, 10_000), (99.0, 1_000), (90.0, 100)]
        .into_iter()
        .find(|&(_, needed)| n >= needed)
        .map_or(50.0, |(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_median_quartiles_and_n() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                n: 5,
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!((even.q1, even.q3), (1.75, 3.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn median_over_passes_ignores_one_outlier_pass() {
        assert_eq!(median(&[100.0, 101.0, 250.0]), 101.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
