//! Sample statistics and the benchmark's own deterministic randomness.

/// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) of an ascending-sorted sample by
/// nearest rank: the smallest element with at least `q · n` of the sample
/// at or below it. Always an element of the sample; 0 for an empty one.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts nanosecond samples and returns their `q`-quantile in microseconds.
pub fn percentile_us(nanos: &mut [u64], q: f64) -> f64 {
    nanos.sort_unstable();
    percentile(nanos, q) as f64 / 1e3
}

/// A metric as reported: the median over the rounds of one run, with the
/// smallest and largest round beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    /// A metric measured once (a count, a ratio of counts).
    pub fn single(value: f64) -> Self {
        Self {
            value,
            min: value,
            max: value,
        }
    }

    /// The nearest-rank median of per-round values (the lower middle for an
    /// even number of rounds), with their range.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN: both are bugs in the caller.
    pub fn of_rounds(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a metric needs at least one round");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("round values are never NaN"));
        Self {
            value: sorted[(sorted.len() - 1) / 2],
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// SplitMix64: the request-stream randomness of the serving workloads
/// (object and function data come from `pref_datagen`'s own seeded
/// generators).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` by widening multiply (no modulo bias worth the
    /// name at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derives an independent seed for one input stream of a workload.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        // at least half of {10, 20} is ≤ 10
        assert_eq!(percentile(&[10, 20], 0.5), 10);
        assert_eq!(percentile(&[10, 20], 0.51), 20);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), 50);
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&hundred, 1.0), 100);
        assert_eq!(percentile(&hundred, 0.0), 1);
        // nine solves: the p99 is the slowest one
        let nine: Vec<u64> = (1..=9).collect();
        assert_eq!(percentile(&nine, 0.99), 9);
        let mut unsorted = vec![3_000, 1_000, 2_000];
        assert_eq!(percentile_us(&mut unsorted, 0.5), 2.0);
    }

    #[test]
    fn median_of_rounds_is_a_round() {
        let s = Stat::of_rounds(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.value, s.min, s.max), (3.0, 1.0, 5.0));
        // even count: the lower middle, never an invented average
        let s = Stat::of_rounds(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.value, 2.0);
        assert_eq!(Stat::of_rounds(&[9.5]), Stat::single(9.5));
    }

    #[test]
    fn zipf_is_skewed_deterministic_and_in_range() {
        let zipf = Zipf::new(64, 1.1);
        let mut a = Rng::new(11);
        let mut b = Rng::new(11);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            let k = zipf.sample(&mut a);
            assert_eq!(k, zipf.sample(&mut b));
            counts[k as usize] += 1;
        }
        // rank 0 carries 1/H(64, 1.1) ≈ 23 % of the mass
        assert!((4_000..5_400).contains(&counts[0]), "head {}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[7] && counts[7] > counts[63]);
        assert!(counts[63] > 0);
    }

    #[test]
    fn rng_ranges_hold() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_eq!(derive_seed(9, 4), derive_seed(9, 4));
    }
}
