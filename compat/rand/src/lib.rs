//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the small slice of the `rand` 0.8 API it actually
//! uses: [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`],
//! [`SeedableRng::seed_from_u64`] and [`rngs::StdRng`]. The generator is
//! xoshiro256++ seeded through SplitMix64 — deterministic across
//! platforms, which the seeded tests and benches rely on. It is **not**
//! cryptographically secure and does not reproduce upstream `StdRng`
//! streams bit-for-bit; all in-repo consumers only assume a seeded,
//! well-mixed uniform source.

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source, mirroring `rand_core::RngCore`.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    type Seed;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable from the uniform "standard" distribution
/// (`rng.gen::<T>()`): floats in `[0, 1)`, full-range integers, fair bools.
pub trait StandardSample {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> [0, 1) with full float resolution.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with a uniform sampler over an interval, mirroring
/// `rand::distributions::uniform::SampleUniform`.
pub trait SampleUniform: Sized + PartialOrd {
    /// Samples uniformly from `[lo, hi)` (`inclusive = false`) or
    /// `[lo, hi]` (`inclusive = true`).
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Ranges usable with [`Rng::gen_range`], mirroring
/// `rand::distributions::uniform::SampleRange`. The generic impls keep
/// upstream's type-inference behavior: the range's element type fixes
/// the output type.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

/// Unbiased integer sampling in `[0, bound)` by rejecting the biased
/// tail of the 64-bit space (Lemire-style threshold).
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let zone = u64::MAX - u64::MAX.wrapping_rem(bound);
    loop {
        let v = rng.next_u64();
        if v < zone || zone == 0 {
            return v % bound;
        }
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let span = (hi as i128 - lo as i128) + if inclusive { 1 } else { 0 };
                if span == 0 || span > u64::MAX as i128 {
                    // Full-width inclusive range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64_below(rng, span as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            // A few flops around one draw: left to the inliner's
            // heuristics, whether `Tensor::randn` (every model
            // construction, a checkpoint load's included) calls it out of
            // line twice per element — about 3 ms of a 20 ms load — moved
            // with unrelated edits elsewhere in the build.
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let unit = <$t as StandardSample>::standard_sample(rng);
                let v = lo + unit * (hi - lo);
                // lo + unit*(hi-lo) can round up to exactly hi; keep the
                // half-open contract for exclusive ranges.
                if !inclusive && v >= hi {
                    hi.next_down().max(lo)
                } else {
                    v
                }
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// User-facing sampling methods, mirroring `rand::Rng`. Blanket-implemented
/// for every bit source so `R: Rng + ?Sized` bounds work like upstream.
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Seeded deterministic generator (xoshiro256++), standing in for
    /// `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_splitmix(mut state: u64) -> Self {
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            if s.iter().all(|&w| w == 0) {
                return Self::from_splitmix(0);
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            Self::from_splitmix(state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let v = rng.gen_range(-10..2_400);
            assert!((-10..2_400).contains(&v));
            let u = rng.gen_range(0..=5usize);
            assert!(u <= 5);
            let f = rng.gen_range(-0.5..0.5f32);
            assert!((-0.5..0.5).contains(&f));
        }
    }

    #[test]
    fn unit_floats_are_in_unit_interval_and_mixed() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0f64;
        for _ in 0..4000 {
            let x = rng.gen::<f32>();
            assert!((0.0..1.0).contains(&x));
            sum += x as f64;
        }
        let mean = sum / 4000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..4000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }
}
