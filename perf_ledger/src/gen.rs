//! Seeded input generation: every length sample, arrival time and data
//! value of a run derives from `--seed`; the program under test only
//! ever receives what is generated here.

use cora_datasets::Dataset;
use cora_serve::Request;

/// SplitMix64 — the benchmark's own generator, so inputs do not change
/// when the repo's vendored `rand` shim does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`, the range the repo's own random inputs use.
    pub fn signed_f32(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` lengths from `ds`, one from each of `n` equal-probability strata
/// of a large seeded draw, in seeded order. Stratifying keeps a batch's
/// total rows nearly the same from seed to seed (the draws still
/// differ), so the spread of a metric across seeds shows the machine
/// and the code, not the luck of the draw.
pub fn stratified_lengths(ds: Dataset, n: usize, rng: &mut Rng) -> Vec<usize> {
    const PER_STRATUM: usize = 64;
    let mut drawn = ds.sample_lengths(n * PER_STRATUM, rng.next_u64());
    drawn.sort_unstable();
    let mut lens: Vec<usize> = (0..n)
        .map(|s| drawn[s * PER_STRATUM + rng.below(PER_STRATUM)])
        .collect();
    rng.shuffle(&mut lens);
    lens
}

/// `n` lengths using every value of `set` equally often (`n` is rounded
/// down to a multiple of `set.len()`), in seeded order.
pub fn balanced_lengths(set: &[usize], n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..n - n % set.len()).map(|i| set[i % set.len()]).collect();
    rng.shuffle(&mut lens);
    lens
}

/// Open-loop Poisson due times (ns from phase start) at `rate_per_s`.
pub fn poisson_arrivals_ns(n: usize, rate_per_s: f64, rng: &mut Rng) -> Vec<u64> {
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() / rate_per_s;
            (at * 1e9) as u64
        })
        .collect()
}

/// Every batch shape a server can form from lengths in `set` with at
/// most `max_seqs` sequences: the packer sorts longest-first, so a
/// shape is a multiset of lengths (for 4 lengths and 4 sequences:
/// 4 + 10 + 20 + 35 = 69 shapes).
pub fn batch_shapes(set: &[usize], max_seqs: usize) -> Vec<Vec<usize>> {
    fn extend(
        desc: &[usize],
        from: usize,
        max_seqs: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == max_seqs {
            return;
        }
        for i in from..desc.len() {
            cur.push(desc[i]);
            extend(desc, i, max_seqs, cur, out);
            cur.pop();
        }
    }
    let mut desc = set.to_vec();
    desc.sort_unstable_by(|a, b| b.cmp(a));
    desc.dedup();
    let mut out = Vec::new();
    extend(&desc, 0, max_seqs, &mut Vec::new(), &mut out);
    out
}

/// One request per `(len, due time)` pair with seeded rows, ids
/// `first_id..`.
pub fn requests(
    lens: &[usize],
    due_ns: &[u64],
    hidden: usize,
    first_id: u64,
    rng: &mut Rng,
) -> Vec<Request> {
    assert_eq!(lens.len(), due_ns.len());
    lens.iter()
        .zip(due_ns)
        .enumerate()
        .map(|(i, (&len, &due))| {
            let data = (0..len * hidden).map(|_| rng.signed_f32()).collect();
            Request::new(first_id + i as u64, len, data, due)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        let make = |seed| {
            let mut rng = Rng::new(seed, 3);
            let lens = stratified_lengths(Dataset::Mnli, 32, &mut rng);
            let due = poisson_arrivals_ns(32, 300.0, &mut rng);
            requests(&lens, &due, 4, 100, &mut rng)
        };
        let (a, b, c) = (make(7), make(7), make(8));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.id, x.len, x.arrival_ns), (y.id, y.len, y.arrival_ns));
            assert_eq!(x.data, y.data);
        }
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.len != y.len || x.data != y.data));
        assert_eq!(a[0].id, 100);
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.iter().all(|r| r.data.len() == r.len * 4));
    }

    #[test]
    fn stratified_batches_keep_total_rows_steady_across_seeds() {
        let totals: Vec<usize> = (0..20)
            .map(|seed| {
                stratified_lengths(Dataset::Mnli, 32, &mut Rng::new(seed, 0))
                    .iter()
                    .sum()
            })
            .collect();
        let (lo, hi) = (
            *totals.iter().min().unwrap() as f64,
            *totals.iter().max().unwrap() as f64,
        );
        // Independent draws of 32 lengths spread several times wider.
        assert!(hi / lo < 1.10, "total rows range {lo}..{hi}");
        let (min, _, max) = Dataset::Mnli.stats();
        let lens = stratified_lengths(Dataset::Mnli, 32, &mut Rng::new(1, 0));
        assert!(lens.iter().all(|&l| (min..=max).contains(&l)));
    }

    #[test]
    fn balanced_lengths_use_each_value_equally() {
        let lens = balanced_lengths(&[8, 16, 32, 64], 42, &mut Rng::new(5, 0));
        assert_eq!(lens.len(), 40);
        for v in [8, 16, 32, 64] {
            assert_eq!(lens.iter().filter(|&&l| l == v).count(), 10);
        }
    }

    #[test]
    fn poisson_rate_is_the_requested_rate() {
        let due = poisson_arrivals_ns(20_000, 500.0, &mut Rng::new(11, 0));
        let rate = 20_000.0 / (*due.last().unwrap() as f64 / 1e9);
        assert!((rate - 500.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn four_lengths_four_sequences_make_69_shapes() {
        let shapes = batch_shapes(&[8, 16, 32, 64], 4);
        assert_eq!(shapes.len(), 69);
        assert!(shapes
            .iter()
            .all(|s| !s.is_empty() && s.len() <= 4 && s.windows(2).all(|w| w[0] >= w[1])));
        let mut unique = shapes.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 69);
        assert!(shapes.contains(&vec![64, 32, 32, 8]));
        assert_eq!(batch_shapes(&[8, 16, 32, 64], 1).len(), 4);
    }
}
