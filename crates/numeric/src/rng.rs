//! Reproducible, splittable random-number streams from an in-tree generator.
//!
//! Parallel Monte Carlo work — MCDB replicates, particle
//! filters, replicated experiment designs — needs *independent* streams per
//! worker that are nevertheless a pure function of one master seed, so that
//! an entire composite-simulation run is reproducible. We derive child seeds
//! with the SplitMix64 finalizer, the standard tool for seeding PRNG
//! families from a single 64-bit key, and hand each consumer its own
//! [`Rng`].
//!
//! # The stream is a format
//!
//! [`Rng`] is xoshiro256++ (Blackman & Vigna), its four state words filled
//! from the 64-bit seed by four SplitMix64 steps. Every draw is a fixed
//! function of the generator's next 64-bit word(s):
//!
//! * `gen::<f64>()` — the top 53 bits times 2⁻⁵³, uniform on `[0, 1)`;
//! * `gen::<bool>()` — the top bit;
//! * `gen_range` over integers — Lemire's widening multiply with rejection
//!   (`[0, span)` exactly uniform; half-open and inclusive ranges; an
//!   inclusive range covering all of a 64-bit type is the raw word), and
//!   over `Range<f64>` `lo + (hi − lo)·u` with `u = gen::<f64>()`;
//! * `shuffle` — Fisher–Yates from the top index down, one bounded draw per
//!   position.
//!
//! Campaign checkpoints (`MDECKPT2`) store a cursor and resume by replaying
//! "randomness purely from `(seed, key, attempt)`"; the result cache
//! (`MDECACHE2`, and the `MDECACHE1` files it still reads) answers a lookup
//! keyed `(spec, point, replicates, master_seed)` with samples drawn
//! earlier. Both are only correct while seed
//! → stream is this function, so **the stream is part of those file
//! formats**: changing the generator, the seeding or any derived draw is a
//! format break, and the known-answer vectors in this module's tests exist
//! to make it a loud one.

use std::ops::{Range, RangeInclusive};

/// The generator used throughout the workspace: xoshiro256++.
///
/// `gen`, `gen_range` and `shuffle` are inherent methods; there is no
/// generator trait because there is exactly one generator (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Build from a 64-bit seed, expanded to the 256-bit state with
    /// SplitMix64.
    fn seed_from_u64(mut state: u64) -> Rng {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(state);
            state = state.wrapping_add(SPLITMIX_GAMMA);
        }
        Rng { s }
    }

    /// Next uniform 64-bit word.
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

    /// Draw a `u64` (the raw word), a `bool` (its top bit) or an `f64`
    /// uniform on `[0, 1)` (its top 53 bits).
    #[inline]
    pub fn gen<T: draw::Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draw uniformly from `lo..hi` or `lo..=hi` over any primitive integer
    /// type, or from `lo..hi` over `f64`. Panics on an empty range.
    #[inline]
    pub fn gen_range<T, S: draw::SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, draw::below(self, i as u64 + 1) as usize);
        }
    }
}

/// The traits behind [`Rng::gen`] and [`Rng::gen_range`]. Public so the
/// methods can name them in bounds, in a private module so that nothing
/// outside can implement or import them: the set of drawable types is
/// closed.
mod draw {
    use super::{Range, RangeInclusive, Rng};

    /// Types [`Rng::gen`] can produce.
    pub trait Standard: Sized {
        /// Draw one value.
        fn draw(rng: &mut Rng) -> Self;
    }

    impl Standard for u64 {
        #[inline]
        fn draw(rng: &mut Rng) -> u64 {
            rng.next_u64()
        }
    }

    impl Standard for bool {
        #[inline]
        fn draw(rng: &mut Rng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Standard for f64 {
        /// Uniform on `[0, 1)` with 53 random bits.
        #[inline]
        fn draw(rng: &mut Rng) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Ranges [`Rng::gen_range`] accepts.
    pub trait SampleRange<T> {
        /// Draw one value from the range; panics if it is empty.
        fn sample_single(self, rng: &mut Rng) -> T;
    }

    /// Integer types [`Rng::gen_range`] can draw. One generic `SampleRange`
    /// impl per range shape lets an untyped literal range such as `1..=6`
    /// take its type from the call site.
    pub(crate) trait SampleUniform: Sized + PartialOrd {
        /// Uniform on `[lo, hi)`.
        fn sample_half_open(lo: Self, hi: Self, rng: &mut Rng) -> Self;
        /// Uniform on `[lo, hi]`.
        fn sample_inclusive(lo: Self, hi: Self, rng: &mut Rng) -> Self;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        #[inline]
        fn sample_single(self, rng: &mut Rng) -> T {
            assert!(self.start < self.end, "gen_range: empty range");
            T::sample_half_open(self.start, self.end, rng)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        #[inline]
        fn sample_single(self, rng: &mut Rng) -> T {
            let (lo, hi) = self.into_inner();
            assert!(lo <= hi, "gen_range: empty range");
            T::sample_inclusive(lo, hi, rng)
        }
    }

    impl SampleRange<f64> for Range<f64> {
        /// `lo + (hi − lo)·u`, `u` uniform on `[0, 1)`. NaN bounds count as
        /// empty.
        #[inline]
        fn sample_single(self, rng: &mut Rng) -> f64 {
            assert!(self.start < self.end, "gen_range: empty range");
            self.start + (self.end - self.start) * rng.gen::<f64>()
        }
    }

    /// Uniform integer in `[0, span)` by widening multiply (Lemire), with
    /// rejection so that every value is exactly equally likely. A draw is
    /// rejected when its low word is below `2⁶⁴ mod span`, which is below
    /// `span`: so the division that computes it runs only for a low word
    /// below `span`.
    #[inline]
    pub(crate) fn below(rng: &mut Rng, span: u64) -> u64 {
        debug_assert!(span > 0);
        loop {
            let wide = (rng.next_u64() as u128) * (span as u128);
            let low = wide as u64;
            if low >= span || low >= span.wrapping_neg() % span {
                return (wide >> 64) as u64;
            }
        }
    }

    macro_rules! uniform_ints {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                #[inline]
                fn sample_half_open(lo: $t, hi: $t, rng: &mut Rng) -> $t {
                    let span = (hi as i128 - lo as i128) as u64;
                    (lo as i128 + below(rng, span) as i128) as $t
                }
                #[inline]
                fn sample_inclusive(lo: $t, hi: $t, rng: &mut Rng) -> $t {
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
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalization step: maps a 64-bit state to a well-mixed output.
///
/// This is the exact finalizer from Steele, Lea & Flood's SplitMix
/// generator; consecutive inputs give statistically independent outputs,
/// which is what makes it suitable for deriving stream seeds.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A factory for independent, reproducible RNG streams.
///
/// ```
/// use mde_numeric::rng::StreamFactory;
///
/// let factory = StreamFactory::new(42);
/// let mut a = factory.stream(0);
/// let mut b = factory.stream(1);
/// // Streams with different ids are independent...
/// assert_ne!(a.gen::<u64>(), b.gen::<u64>());
/// // ...and the same id always yields the same stream.
/// let mut a2 = StreamFactory::new(42).stream(0);
/// let mut a3 = StreamFactory::new(42).stream(0);
/// assert_eq!(a2.gen::<u64>(), a3.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFactory {
    master_seed: u64,
}

impl StreamFactory {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        StreamFactory { master_seed }
    }

    /// Derive the 64-bit seed of stream `id` without constructing the RNG.
    pub fn seed_of(&self, id: u64) -> u64 {
        // Two rounds of mixing: one to decorrelate master seeds that differ
        // in few bits, one to decorrelate adjacent stream ids.
        splitmix64(splitmix64(self.master_seed).wrapping_add(id))
    }

    /// Construct the RNG for stream `id`.
    pub fn stream(&self, id: u64) -> Rng {
        Rng::seed_from_u64(self.seed_of(id))
    }

    /// Construct a child factory for a nested component.
    ///
    /// Composite models need a *hierarchy* of streams: the experiment
    /// manager gives each Monte Carlo repetition a factory, which gives each
    /// component model a stream. `child(i).stream(j)` and `stream(k)` draw
    /// from disjoint seed sequences with overwhelming probability.
    pub fn child(&self, id: u64) -> StreamFactory {
        StreamFactory {
            // Offset child derivation so that `child(i).seed_of(j)` does not
            // collide with `self.seed_of(k)` for small i, j, k.
            master_seed: self.seed_of(id) ^ 0xA5A5_A5A5_5A5A_5A5A,
        }
    }
}

/// Construct a standalone RNG from a seed (shorthand used in tests and
/// examples).
pub fn rng_from_seed(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// The master seed of every randomised test: `MDE_CHAOS_SEED`, or 7 (the
/// first seed CI sweeps) when it is unset or not a number.
pub fn chaos_seed() -> u64 {
    std::env::var("MDE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Run a property `n` times, case `i` on stream `i` of [`chaos_seed`].
///
/// A failing case panics as any assertion does; on the way out the driver
/// prints the `(seed, case)` pair, and `MDE_CHAOS_SEED=<seed>` re-runs
/// exactly the same cases.
pub fn for_cases(n: u64, mut property: impl FnMut(&mut Rng)) {
    struct NameOnPanic {
        seed: u64,
        case: u64,
    }
    impl Drop for NameOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "for_cases: property failed at MDE_CHAOS_SEED={} case {}",
                    self.seed, self.case
                );
            }
        }
    }
    let seed = chaos_seed();
    let streams = StreamFactory::new(seed);
    for case in 0..n {
        let _named = NameOnPanic { seed, case };
        property(&mut streams.stream(case));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `draw::below` as it was first written, dividing on every call: the
    /// oracle for the one that divides only when a draw may be rejected.
    fn below_dividing_every_call(rng: &mut Rng, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = (rng.next_u64() as u128) * (span as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Same outputs and same generator state afterwards, so every stream is
    /// bit-identical. `2⁶³ + 1` rejects about half its draws, which covers
    /// the loop.
    #[test]
    fn bounded_draws_match_the_dividing_oracle() {
        for span in [1, 2, 3, 65, (1 << 32) + 1, (1 << 63) + 1, u64::MAX] {
            for seed in 0..8 {
                let (mut a, mut b) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
                for _ in 0..2_000 {
                    assert_eq!(
                        draw::below(&mut a, span),
                        below_dividing_every_call(&mut b, span)
                    );
                }
                assert_eq!(a, b, "span {span} seed {seed}");
            }
        }
    }

    #[test]
    fn splitmix_mixes_adjacent_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        // Hamming distance between outputs of adjacent inputs should be
        // substantial (avalanche). 20 of 64 bits is a loose bound.
        assert!((a ^ b).count_ones() > 20);
    }

    #[test]
    fn streams_are_reproducible() {
        let f = StreamFactory::new(7);
        let xs: Vec<u64> = (0..4).map(|i| f.stream(i).gen()).collect();
        let ys: Vec<u64> = (0..4)
            .map(|i| StreamFactory::new(7).stream(i).gen())
            .collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_ids_give_different_streams() {
        let f = StreamFactory::new(7);
        let xs: Vec<u64> = (0..100).map(|i| f.stream(i).gen()).collect();
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len(), "stream outputs collided");
    }

    #[test]
    fn different_master_seeds_give_different_streams() {
        let mut a = StreamFactory::new(1).stream(0);
        let mut b = StreamFactory::new(2).stream(0);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn child_factories_do_not_collide_with_parent() {
        let f = StreamFactory::new(99);
        let mut seeds = Vec::new();
        for i in 0..10 {
            seeds.push(f.seed_of(i));
            for j in 0..10 {
                seeds.push(f.child(i).seed_of(j));
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "hierarchical seeds collided");
    }

    #[test]
    fn stream_uniformity_smoke_test() {
        // Coarse chi-square-style sanity check: 16 buckets over 16k draws.
        let mut rng = StreamFactory::new(3).stream(5);
        let mut counts = [0usize; 16];
        let n = 16_384;
        for _ in 0..n {
            let u: f64 = rng.gen();
            counts[(u * 16.0) as usize % 16] += 1;
        }
        let expected = n as f64 / 16.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "bucket count {c} too far from expectation {expected}"
            );
        }
    }

    /// Outputs of the parent build (the stand-in generator every benchmark
    /// number and checkpoint in this repository's history came from),
    /// recorded by a throw-away harness at PR 17. A mismatch here is a break
    /// of the `MDECKPT2` / `MDECACHE2` formats and of the `MDECACHE1` files
    /// still read (module docs).
    #[test]
    fn known_answer_vectors_equal_the_parent_build() {
        struct Kat {
            rng: Rng,
            words: [u64; 8],
            f64_bits: [u64; 8],
            bools: [bool; 8],
            below_10: [usize; 8],
            pm_5: [i64; 8],
            shuffled: [u32; 16],
        }
        fn draws<T>(rng: &Rng, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
            let mut rng = rng.clone();
            (0..8).map(|_| draw(&mut rng)).collect()
        }
        let kats = [
            Kat {
                rng: rng_from_seed(0),
                words: [
                    0x5317_5D61_490B_23DF,
                    0x61DA_6F3D_C380_D507,
                    0x5C0F_DF91_EC9A_7BFC,
                    0x02EE_BF8C_3BBE_5E1A,
                    0x7ECA_04EB_AF4A_5EEA,
                    0x0543_C377_57F0_8D9A,
                    0xDB74_90C7_5AB5_026E,
                    0xD873_43E6_464B_C959,
                ],
                f64_bits: [
                    0x3FD4_C5D7_5852_42C8,
                    0x3FD8_769B_CF70_E034,
                    0x3FD7_03F7_E47B_269E,
                    0x3F87_75FC_61DD_F2C0,
                    0x3FDF_B281_3AEB_D296,
                    0x3F95_0F0D_DD5F_C220,
                    0x3FEB_6E92_18EB_56A0,
                    0x3FEB_0E68_7CC8_C979,
                ],
                bools: [false, false, false, false, false, false, true, true],
                below_10: [3, 3, 3, 0, 4, 0, 8, 8],
                pm_5: [-2, -1, -2, -5, 0, -5, 4, 4],
                shuffled: [11, 9, 3, 4, 6, 1, 10, 2, 7, 8, 12, 13, 0, 14, 15, 5],
            },
            Kat {
                rng: rng_from_seed(1),
                words: [
                    0xCFC5_D07F_6F03_C29B,
                    0xBF42_4132_963F_E08D,
                    0x19A3_7D57_57AA_F520,
                    0xBF08_119F_05CD_56D6,
                    0x2F47_184B_8618_6FA4,
                    0x9729_9FCA_E720_2345,
                    0xFCA3_C795_08F4_1507,
                    0x85FE_A5C9_0363_F221,
                ],
                f64_bits: [
                    0x3FE9_F8BA_0FED_E078,
                    0x3FE7_E848_2652_C7FC,
                    0x3FB9_A37D_5757_AAF0,
                    0x3FE7_E102_33E0_B9AA,
                    0x3FC7_A38C_25C3_0C34,
                    0x3FE2_E533_F95C_E404,
                    0x3FEF_9478_F2A1_1E82,
                    0x3FE0_BFD4_B920_6C7E,
                ],
                bools: [true, true, false, true, false, true, true, true],
                below_10: [8, 7, 1, 7, 1, 5, 9, 5],
                pm_5: [3, 3, -4, 3, -3, 1, 5, 0],
                shuffled: [14, 3, 8, 10, 13, 5, 7, 0, 4, 15, 6, 2, 9, 1, 11, 12],
            },
            Kat {
                rng: rng_from_seed(42),
                words: [
                    0xD076_4D4F_4476_689F,
                    0x519E_4174_576F_3791,
                    0xFBE0_7CFB_0C24_ED8C,
                    0xB37D_9F60_0CD8_35B8,
                    0xCB23_1C38_7484_6A73,
                    0x968D_9F00_4E50_DE7D,
                    0x2017_18FF_221A_3556,
                    0x9AE9_4E07_0ED8_CB46,
                ],
                f64_bits: [
                    0x3FEA_0EC9_A9E8_8ECD,
                    0x3FD4_6790_5D15_DBCC,
                    0x3FEF_7C0F_9F61_849D,
                    0x3FE6_6FB3_EC01_9B06,
                    0x3FE9_6463_870E_908D,
                    0x3FE2_D1B3_E009_CA1B,
                    0x3FC0_0B8C_7F91_0D18,
                    0x3FE3_5D29_C0E1_DB19,
                ],
                bools: [true, false, true, true, true, true, false, true],
                below_10: [8, 3, 9, 7, 7, 5, 1, 6],
                pm_5: [3, -2, 5, 2, 3, 1, -4, 1],
                shuffled: [7, 8, 0, 2, 14, 3, 10, 11, 5, 1, 6, 12, 9, 15, 4, 13],
            },
            Kat {
                rng: StreamFactory::new(42).child(3).stream(5),
                words: [
                    0xD8A5_2F29_DC77_F00E,
                    0x4795_A2DC_A15A_0306,
                    0x14B8_7DAB_E060_BF7C,
                    0xA281_620F_A067_7E5D,
                    0x9C74_6B19_7494_E897,
                    0xD5A9_E834_4B5C_C4D8,
                    0x39DB_9A16_98A7_2274,
                    0x6CD5_2C97_4530_6037,
                ],
                f64_bits: [
                    0x3FEB_14A5_E53B_8EFE,
                    0x3FD1_E568_B728_5680,
                    0x3FB4_B87D_ABE0_60B8,
                    0x3FE4_502C_41F4_0CEF,
                    0x3FE3_8E8D_632E_929D,
                    0x3FEA_B53D_0689_6B98,
                    0x3FCC_EDCD_0B4C_5390,
                    0x3FDB_354B_25D1_4C18,
                ],
                bools: [true, false, false, true, true, true, false, false],
                below_10: [8, 2, 0, 6, 6, 8, 2, 4],
                pm_5: [4, -2, -5, 1, 1, 4, -3, -1],
                shuffled: [5, 11, 14, 15, 10, 12, 6, 0, 3, 2, 9, 7, 8, 1, 4, 13],
            },
        ];
        for Kat {
            rng,
            words,
            f64_bits,
            bools,
            below_10,
            pm_5,
            shuffled,
        } in kats
        {
            assert_eq!(draws(&rng, |r| r.next_u64()), words);
            assert_eq!(draws(&rng, |r| r.gen::<u64>()), words);
            assert_eq!(draws(&rng, |r| r.gen::<f64>().to_bits()), f64_bits);
            assert_eq!(draws(&rng, |r| r.gen::<bool>()), bools);
            assert_eq!(draws(&rng, |r| r.gen_range(0..10usize)), below_10);
            assert_eq!(draws(&rng, |r| r.gen_range(-5..=5i64)), pm_5);
            // A full-width inclusive range is the raw word; a one-value
            // range consumes a word and returns the value.
            assert_eq!(draws(&rng, |r| r.gen_range(0..=u64::MAX)), words);
            assert_eq!(draws(&rng, |r| r.gen_range(7..8u8)), [7; 8]);
            let mut deck: Vec<u32> = (0..16).collect();
            rng.clone().shuffle(&mut deck);
            assert_eq!(deck, shuffled);
        }
    }

    #[test]
    fn bounded_draws_stay_inside_hostile_spans() {
        let mut rng = rng_from_seed(chaos_seed());
        for span in [1, 2, 3, 1 << 63, (1 << 63) + 1, u64::MAX] {
            for _ in 0..2_000 {
                assert!(rng.gen_range(0..span) < span);
                assert!(rng.gen_range(0..=span - 1) < span);
            }
        }
        // The three widest of those spans over a signed type, and ranges
        // that end at a type's limits.
        for _ in 0..2_000 {
            assert!(rng.gen_range(i64::MIN..0) < 0);
            assert!(rng.gen_range(i64::MIN..=0) <= 0);
            assert!(rng.gen_range(i64::MIN..i64::MAX) < i64::MAX);
            assert!(rng.gen_range(i64::MAX - 2..=i64::MAX) >= i64::MAX - 2);
            assert!(rng.gen_range(250..=255u8) >= 250);
            let _: i8 = rng.gen_range(i8::MIN..=i8::MAX);
        }
    }

    #[test]
    fn float_range_is_lo_plus_width_times_unit_draw() {
        let mut rng = rng_from_seed(chaos_seed());
        for (lo, hi) in [(0.0, 1.0), (-1e12, 1e12), (1e-6, 0.999999), (-40.0, 40.0)] {
            for _ in 0..1_000 {
                let u = rng.clone().gen::<f64>();
                let x = rng.gen_range(lo..hi);
                assert_eq!(x.to_bits(), (lo + (hi - lo) * u).to_bits());
                assert!(lo <= x && x < hi, "{x} outside [{lo}, {hi})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn empty_half_open_range_panics() {
        rng_from_seed(0).gen_range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn empty_inclusive_range_panics() {
        let (lo, hi) = (6, 5);
        rng_from_seed(0).gen_range(lo..=hi);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn empty_float_range_panics() {
        rng_from_seed(0).gen_range(1.0..1.0);
    }

    /// Pearson's χ² of `counts` against the uniform distribution, checked
    /// against the Laurent–Massart tail bounds of a χ² variable with
    /// `d = cells − 1` degrees of freedom at x = 14: `P(χ² ≥ d + 2√(dx) +
    /// 2x) ≤ e⁻ˣ` and `P(χ² ≤ d − 2√(dx)) ≤ e⁻ˣ` ≈ 8·10⁻⁷ each. (For
    /// d = 999 the band is d ± 5.3·√(2d), the CLT's.)
    fn assert_uniform(counts: &[u64], what: &str) {
        let n: u64 = counts.iter().sum();
        let expected = n as f64 / counts.len() as f64;
        assert!(expected >= 50.0, "{what}: too few draws per cell");
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let d = (counts.len() - 1) as f64;
        let x = 14.0;
        let (lo, hi) = (d - 2.0 * (d * x).sqrt(), d + 2.0 * (d * x).sqrt() + 2.0 * x);
        assert!(
            lo <= chi2 && chi2 <= hi,
            "{what}: chi² = {chi2:.1} outside [{lo:.1}, {hi:.1}] (d = {d})"
        );
    }

    #[test]
    fn bounded_draws_are_uniform() {
        let mut rng = rng_from_seed(chaos_seed());
        for k in [2usize, 3, 10, 1000] {
            let mut counts = vec![0u64; k];
            for _ in 0..200_000 {
                counts[rng.gen_range(0..k)] += 1;
            }
            assert_uniform(&counts, &format!("gen_range(0..{k})"));
        }
    }

    #[test]
    fn shuffle_is_uniform_over_the_24_permutations_of_four() {
        let mut rng = rng_from_seed(chaos_seed());
        let mut counts = [0u64; 24];
        for _ in 0..48_000 {
            let mut p = [0usize, 1, 2, 3];
            rng.shuffle(&mut p);
            // Lehmer code: a bijection from permutations onto 0..24.
            let rank = (0..4).fold(0, |acc, i| {
                acc * (4 - i) + p[i + 1..].iter().filter(|&&x| x < p[i]).count()
            });
            counts[rank] += 1;
        }
        assert_uniform(&counts, "shuffle of 4");
    }

    /// Moments of `gen::<f64>()` within 5 standard errors (CLT, n = 200 000):
    /// the mean of U(0,1) has s.e. √(1/12n); its sample variance has s.e.
    /// √((μ₄ − σ⁴)/n) = √(1/180n); the lag-1 autocorrelation of an
    /// independent sequence has s.e. 1/√n.
    #[test]
    fn unit_floats_have_uniform_moments_and_no_lag_one_correlation() {
        let n = 200_000;
        let mut rng = rng_from_seed(chaos_seed());
        let us: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        assert!(us.iter().all(|u| (0.0..1.0).contains(u)));
        let nf = n as f64;
        let mean = us.iter().sum::<f64>() / nf;
        let var = us.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / nf;
        let lag1 = us
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / nf
            / var;
        assert!(
            (mean - 0.5).abs() < 5.0 * (1.0 / 12.0 / nf).sqrt(),
            "mean {mean}"
        );
        assert!(
            (var - 1.0 / 12.0).abs() < 5.0 * (1.0 / 180.0 / nf).sqrt(),
            "variance {var}"
        );
        assert!(lag1.abs() < 5.0 / nf.sqrt(), "lag-1 correlation {lag1}");
    }

    /// Each of the 64 output bits is set in half the words, within 5
    /// binomial standard errors √n/2; `gen::<bool>()` is the top one.
    #[test]
    fn every_output_bit_is_balanced() {
        let n = 100_000;
        let mut rng = rng_from_seed(chaos_seed());
        let mut ones = [0u64; 64];
        for _ in 0..n {
            let w: u64 = rng.gen();
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += w >> bit & 1;
            }
        }
        let bound = 5.0 * (n as f64).sqrt() / 2.0;
        for (bit, &count) in ones.iter().enumerate() {
            let off = count as f64 - n as f64 / 2.0;
            assert!(off.abs() < bound, "bit {bit}: {count} ones of {n}");
        }
    }

    #[test]
    fn for_cases_runs_case_i_on_stream_i_of_the_chaos_seed() {
        let mut seen = Vec::new();
        for_cases(5, |rng| seen.push(rng.gen::<u64>()));
        let streams = StreamFactory::new(chaos_seed());
        let want: Vec<u64> = (0..5).map(|i| streams.stream(i).gen()).collect();
        assert_eq!(seen, want);
    }

    #[test]
    #[should_panic(expected = "case 2 fails")]
    fn for_cases_lets_a_failing_case_panic_through() {
        let mut case = 0;
        for_cases(4, |_| {
            assert!(case != 2, "case {case} fails");
            case += 1;
        });
    }
}
