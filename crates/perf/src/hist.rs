//! Log-linear latency histogram: every power-of-two range of
//! nanoseconds is cut into 128 equal buckets, so a reported quantile is
//! within 1/256 (0.4 %) of a recorded sample in its bucket — fine enough
//! for a 5 % regression bound, which `pandora::LatencyHistogram`'s
//! factor-of-two buckets are not. Memory is fixed at construction
//! (37 KiB), recording never allocates, and histograms from different
//! threads merge by adding counts.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Samples at or above 2^MAX_EXP ns (18 minutes) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        if exp >= MAX_EXP {
            return BUCKETS - 1;
        }
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// `[low, low + width)` of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let (octave, sub) = (i as u64 / SUB, i as u64 % SUB);
        if octave == 0 {
            return (sub, 1);
        }
        let shift = octave - 1;
        ((SUB + sub) << shift, 1 << shift)
    }

    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[Hist::index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    #[inline]
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_ns(d.as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64
    }

    /// 1-based rank of the sample that is the `q`-quantile.
    fn rank(&self, q: f64) -> u64 {
        ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1))
    }

    /// The `q`-quantile in nanoseconds: the midpoint of the bucket
    /// holding the sample of rank `ceil(q * count)`, clamped to the
    /// recorded extremes. Zero when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = self.rank(q);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = Hist::bounds(i);
                let mid = low as f64 + (width - 1) as f64 / 2.0;
                return mid.clamp(self.min_ns as f64, self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// Samples ranked strictly above the `q`-quantile sample.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.count - self.rank(q).min(self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn check(samples: Vec<u64>) {
        let mut h = Hist::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        for q in [0.5, 0.99, 0.999] {
            let (got, want) = (h.quantile_ns(q), exact(&sorted, q));
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 0.01, "q={q}: histogram {got} vs sorted {want} ({err:.4})");
        }
        assert_eq!(h.count(), sorted.len() as u64);
        let mean = sorted.iter().map(|&s| s as f64).sum::<f64>() / sorted.len() as f64;
        assert!((h.mean_ns() - mean).abs() <= mean * 1e-9);
    }

    #[test]
    fn uniform_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        check((0..200_000).map(|_| rng.random_range(500..80_000u64)).collect());
    }

    #[test]
    fn bimodal_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        check(
            (0..200_000)
                .map(|_| {
                    if rng.random_bool(0.97) {
                        rng.random_range(28_000..32_000u64)
                    } else {
                        rng.random_range(900_000..1_100_000u64)
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn heavy_tailed_samples() {
        // Pareto, shape 1.2: the p99.9 sits three decades above the median.
        let mut rng = StdRng::seed_from_u64(3);
        check(
            (0..200_000)
                .map(|_| {
                    let u: f64 = rng.random_range(0.0..1.0);
                    (2_000.0 / (1.0 - u).powf(1.0 / 1.2)) as u64
                })
                .collect(),
        );
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let (mut a, mut b, mut all) = (Hist::new(), Hist::new(), Hist::new());
        for i in 0..50_000 {
            let s = rng.random_range(100..5_000_000u64);
            if i % 2 == 0 {
                a.record_ns(s)
            } else {
                b.record_ns(s)
            }
            all.record_ns(s);
        }
        a.merge(&b);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile_ns(q), all.quantile_ns(q));
        }
        assert_eq!(a.count(), all.count());
        assert_eq!(a.samples_beyond(0.99), 500);
    }

    #[test]
    fn small_values_are_exact_and_huge_values_clamp() {
        let mut h = Hist::new();
        for v in [0u64, 1, 2, 127] {
            h.record_ns(v);
        }
        assert_eq!(h.quantile_ns(0.5), 1.0);
        assert_eq!(h.quantile_ns(1.0), 127.0);
        h.record_ns(u64::MAX);
        let last_bucket = (1u64 << MAX_EXP) - (1 << (MAX_EXP - SUB_BITS - 1));
        assert!(h.quantile_ns(1.0) >= last_bucket as f64);
        assert_eq!(Hist::new().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = Hist::bounds(i);
            assert_eq!(low, next, "bucket {i}");
            assert_eq!(Hist::index(low), i);
            assert_eq!(Hist::index(low + width - 1), i);
            next = low + width;
        }
        assert_eq!(next, 1 << MAX_EXP);
    }
}
