//! Offline stand-in for the subset of `rand` 0.8 this repository uses:
//! `Rng::{gen, gen_range}`, `SeedableRng::seed_from_u64`, `rngs::StdRng`
//! and `seq::SliceRandom::shuffle`.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64, not ChaCha12:
//! streams differ from the real crate's, but they are a pure function of
//! the seed, which is all the benchmark (and the repository's determinism
//! contract) relies on. Both sides of a comparison build against this
//! same generator.

use std::ops::{Range, RangeInclusive};

/// The core of a generator: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform `u64`.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform on `[0, 1)` with 53 random bits.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range; panics if it is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types `Rng::gen_range` can draw. One generic `SampleRange` impl
/// per range shape (as in the real crate) lets an untyped literal range such
/// as `1..=6` take its type from the call site.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform on `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform on `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// Uniform integer in `[0, span)` by widening multiply (Lemire), with
/// rejection so that every value is exactly equally likely.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = (rng.next_u64() as u128) * (span as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_ints {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
uniform_ints!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// The user-facing generator interface, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of a [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draw uniformly from a range.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed, expanded with SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
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
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> StdRng {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::{below, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }

    }
}
