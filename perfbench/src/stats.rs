//! The harness's own statistics and seeded input streams: medians, the
//! percentile rule, query permutations and the Zipf stream.

use wg_util::rng::{Rng64, Xoshiro256pp};

/// Samples that must lie strictly beyond a percentile before it is
/// reported; with fewer, the tail is not a tail.
pub const MIN_BEYOND: usize = 10;

/// Median of a non-empty sample set (mean of the two middle values for
/// even lengths).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in 0..100), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(s[rank - 1])
}

/// Samples per chunk of [`chunked_percentile`]: the fewest that carry a
/// p99 under the [`MIN_BEYOND`] rule.
pub const CHUNK: usize = 1000;

/// Percentile `p` of each whole chunk of [`CHUNK`] consecutive samples,
/// then the median over chunks. A burst of host contention that covers
/// fewer than half of a run's chunks cannot move it; `None` when there is
/// no whole chunk.
pub fn chunked_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let per_chunk: Vec<f64> =
        samples.chunks_exact(CHUNK).map(|c| percentile(c, p).expect("a chunk carries p")).collect();
    (!per_chunk.is_empty()).then(|| median(&per_chunk))
}

/// Fewest samples for which [`percentile`] reports `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("some n qualifies")
}

/// A seeded random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Xoshiro256pp) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.gen_index(i + 1));
    }
    out
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no items");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// `len` draws, mapped from rank to item through a seeded permutation
    /// so the hot items differ from seed to seed.
    pub fn stream(n: usize, s: f64, len: usize, seed: u64) -> Vec<usize> {
        let mut rng = Xoshiro256pp::new(seed);
        let item_of_rank = permutation(n, &mut rng);
        let zipf = Zipf::new(n, s);
        (0..len).map(|_| item_of_rank[zipf.sample(&mut rng)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // 999 samples leave only 9 beyond the nearest rank.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = percentile(&xs, 99.0);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(a, percentile(&xs, 99.0));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn chunked_percentile_takes_the_median_chunk() {
        assert_eq!(min_samples_for(99.0), CHUNK);
        assert_eq!(chunked_percentile(&vec![1.0; CHUNK - 1], 50.0), None);
        // Three chunks at levels 1, 5 and 3 (plus a partial fourth chunk,
        // which is ignored): the median chunk wins, not the pooled sample.
        let mut xs: Vec<f64> = Vec::new();
        for level in [1.0, 5.0, 3.0] {
            xs.extend((0..CHUNK).map(|i| level + i as f64 / 1e6));
        }
        xs.extend([100.0; 10]);
        let p50 = chunked_percentile(&xs, 50.0).unwrap();
        assert!((p50 - 3.0005).abs() < 1e-3, "{p50}");
        let p99 = chunked_percentile(&xs, 99.0).unwrap();
        assert!((p99 - 3.00099).abs() < 1e-4, "{p99}");
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(500, &mut Xoshiro256pp::new(7));
        let b = permutation(500, &mut Xoshiro256pp::new(7));
        let c = permutation(500, &mut Xoshiro256pp::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        assert_eq!(Zipf::stream(300, 1.0, 1000, 11), Zipf::stream(300, 1.0, 1000, 11));
        assert_ne!(Zipf::stream(300, 1.0, 1000, 11), Zipf::stream(300, 1.0, 1000, 12));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Xoshiro256pp::new(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(100) ≈ 19% of the mass, rank 9 a tenth of it.
        assert!((3400..4400).contains(&counts[0]), "rank 0 drew {}", counts[0]);
        assert!(counts[0] > 5 * counts[9]);
        assert!(counts.iter().all(|&c| c < 20_000));
    }
}
