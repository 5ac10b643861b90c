//! In-tree deterministic random number generation.
//!
//! The whole reproduction rests on seeded determinism — 9598 seeded
//! synthetic graphs, seeded labeling runs, seeded train/test splits — so the
//! generator itself lives in-tree: a [SplitMix64] seeder feeding a
//! [xoshiro256**] core, with no external dependencies and a bit-stable
//! output stream that is safe to hard-code in regression tests.
//!
//! The API mirrors the subset of `rand` 0.8 this workspace uses, so call
//! sites read identically: a [`Rng`] extension trait ([`Rng::gen`],
//! [`Rng::gen_range`], [`Rng::gen_bool`], [`Rng::gen_normal`]), a
//! [`SeedableRng`] constructor trait, [`rngs::StdRng`], the
//! [`rngs::mock::StepRng`] test double, and [`seq::SliceRandom`] for
//! Fisher–Yates shuffling and uniform choice. Distribution structs
//! ([`distr::Bernoulli`], [`distr::Normal`], [`distr::Uniform`]) cover the
//! cases where a distribution is a value rather than a method call.
//!
//! Independent substreams come from [`rngs::StdRng::jump`] (the xoshiro
//! 2^128 jump polynomial) and [`rngs::StdRng::split`] — worker `i` of a
//! parallel loop can take `rng.split()` or `base.substream(i)` and never
//! overlap the parent stream in practice.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256**]: https://prng.di.unimi.it/xoshiro256starstar.c
//!
//! # Example
//!
//! ```
//! use qrand::{Rng, SeedableRng};
//!
//! let mut rng = qrand::rngs::StdRng::seed_from_u64(7);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.gen_range(0..10usize);
//! assert!(k < 10);
//! // Identical seeds give identical streams.
//! let mut a = qrand::rngs::StdRng::seed_from_u64(42);
//! let mut b = qrand::rngs::StdRng::seed_from_u64(42);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! ```

#![warn(missing_docs)]

pub mod distr;
pub mod rngs;
pub mod seq;

use core::ops::{Range, RangeInclusive};

/// The raw entropy source: a stream of `u64` words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Constructs a generator from a 64-bit seed.
///
/// Seeding runs the seed through SplitMix64, so nearby seeds (0, 1, 2, …)
/// still produce decorrelated streams.
pub trait SeedableRng: Sized {
    /// A generator deterministically derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled "standardly" from raw bits: uniform over the
/// full domain for integers and `bool`, uniform in `[0, 1)` for floats.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Highest bit: xoshiro256**'s strongest bits are the upper ones.
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 explicit mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Uniform over `[0, n)` without modulo bias (Lemire's multiply-shift
/// rejection).
fn uniform_u64_below<R: RngCore + ?Sized>(n: u64, rng: &mut R) -> u64 {
    debug_assert!(n > 0);
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Types with an unbiased uniform sampler over a finite range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform over `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform over `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let width = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_u64_below(width, rng) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let width = (hi as i128 - lo as i128) as u128 + 1;
                if width > u64::MAX as u128 {
                    // Full 64-bit domain: every word is a valid sample.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64_below(width as u64, rng) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let u = <$t as Standard>::sample(rng);
                let v = lo + u * (hi - lo);
                // Guard the open upper bound against rounding.
                if v < hi { v } else { <$t>::from_bits(hi.to_bits() - 1) }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let u = <$t as Standard>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`] (`lo..hi` or `lo..=hi`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A standard sample: full-domain integer, `[0,1)` float, or fair bool.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform over `range` (`lo..hi` or `lo..=hi`), unbiased for integers.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// A Bernoulli trial: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0,1]");
        self.gen::<f64>() < p
    }

    /// A normal sample via the Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "gen_normal: invalid std_dev {std_dev}"
        );
        // Box–Muller: u1 in (0, 1] so ln(u1) is finite.
        let u1 = 1.0 - self.gen::<f64>();
        let u2 = self.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (core::f64::consts::TAU * u2).cos()
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_decorrelate() {
        let mut a = StdRng::seed_from_u64(0);
        let mut b = StdRng::seed_from_u64(1);
        let overlap = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_int_covers_and_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let k = rng.gen_range(0..10usize);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1000 {
            let k = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&k));
        }
    }

    #[test]
    fn gen_range_float_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0f64;
        for _ in 0..10_000 {
            let v = rng.gen_range(-2.0..=2.0);
            assert!((-2.0..=2.0).contains(&v));
            sum += v;
        }
        assert!((sum / 10_000.0).abs() < 0.05, "mean {}", sum / 10_000.0);
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut rng = StdRng::seed_from_u64(8);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn gen_normal_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal(1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn full_u64_range_inclusive_does_not_hang() {
        let mut rng = StdRng::seed_from_u64(10);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(11);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn uniform_below_is_unbiased_ish() {
        // Chi-square-ish sanity: 3 buckets over 30k draws.
        let mut rng = StdRng::seed_from_u64(12);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[uniform_u64_below(3, &mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_500..10_500).contains(&c), "counts {counts:?}");
        }
    }
}
