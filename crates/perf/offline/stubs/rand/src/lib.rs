//! Offline stand-in for the slice of `rand` 0.10 the Pandora crates use:
//! `rngs::StdRng`, `SeedableRng::seed_from_u64` and
//! `RngExt::{random, random_bool, random_range}`. The generator is
//! xoshiro256++ seeded through splitmix64 — deterministic per seed,
//! statistically sound for workload key draws, not cryptographic.

use std::ops::{Range, RangeInclusive};

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    /// xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng { s: [next(), next(), next(), next()] }
    }
}

impl StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` (`n > 0`), Lemire's multiply-shift with
    /// rejection, so small ranges carry no modulo bias.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        let mut m = (self.next_u64() as u128) * (n as u128);
        if (m as u64) < n {
            let t = n.wrapping_neg() % n;
            while (m as u64) < t {
                m = (self.next_u64() as u128) * (n as u128);
            }
        }
        (m >> 64) as u64
    }
}

/// Types `RngExt::random` can produce.
pub trait Standard: Sized {
    fn draw(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    fn draw(rng: &mut StdRng) -> f64 {
        rng.next_f64()
    }
}

impl Standard for u64 {
    fn draw(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

/// Ranges `RngExt::random_range` accepts.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

pub trait RngExt {
    fn random<T: Standard>(&mut self) -> T;
    fn random_bool(&mut self, p: f64) -> bool;
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
}

impl RngExt for StdRng {
    #[inline]
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.next_f64() < p
    }

    #[inline]
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = a.random_range(3..17);
            assert_eq!(x, b.random_range(3..17));
            assert!((3..17).contains(&x));
            let y: u32 = a.random_range(1..=4);
            assert_eq!(y, b.random_range(1..=4));
            assert!((1..=4).contains(&y));
        }
    }

    #[test]
    fn uniform_over_a_small_range() {
        let mut r = StdRng::seed_from_u64(1);
        let mut hits = [0u32; 10];
        for _ in 0..100_000 {
            hits[r.random_range(0..10usize)] += 1;
        }
        assert!(hits.iter().all(|&h| (9_000..11_000).contains(&h)), "{hits:?}");
        let heads = (0..100_000).filter(|_| r.random_bool(0.25)).count();
        assert!((24_000..26_000).contains(&heads), "{heads}");
    }
}
