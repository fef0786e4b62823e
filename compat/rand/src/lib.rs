//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a deterministic, dependency-free implementation of exactly the `rand 0.8`
//! API surface the Jellyfish reproduction uses (see DESIGN.md,
//! substitution 5):
//!
//! * [`rngs::StdRng`] — a seedable RNG (xoshiro256++ seeded via SplitMix64,
//!   instead of upstream's ChaCha12; streams therefore differ from upstream
//!   `rand`, but every consumer in this workspace only relies on seeded
//!   determinism, not on specific streams);
//! * [`Rng::gen_range`] over integer and float ranges;
//! * [`Rng::gen`] for `f64`/`bool`/integer primitives;
//! * [`seq::SliceRandom`] — Fisher–Yates `shuffle` and `choose`.
//!
//! All sampling is fully deterministic given the seed, across platforms and
//! thread counts.
//!
//! [`SeedableRng::seed_from_u64`] is the only way to make a generator, so
//! determinism rule D03 (LINTS.md) holds by construction: there is no
//! `thread_rng`, `from_entropy`, `OsRng` or `random()`, and code that asks
//! for an entropy-seeded generator does not compile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of random `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable RNG constructors.
pub trait SeedableRng: Sized {
    /// Creates an RNG from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named RNG implementations, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++ with SplitMix64 seeding.
    ///
    /// Statistically strong enough for randomized-construction and
    /// property-test use; not cryptographic.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_state(mut sm: u64) -> Self {
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng::from_state(seed)
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
}

/// Types that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics on empty ranges.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Widening-multiply rejection sampling (Lemire): unbiased and cheap.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        let (hi, lo) = {
            let m = (v as u128) * (span as u128);
            ((m >> 64) as u64, m as u64)
        };
        if lo <= zone {
            return hi;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f64::sample_standard(rng);
        self.start + unit * (self.end - self.start)
    }
}

/// High-level sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from a range (`gen_range(0..n)`, `gen_range(0.0..x)`…).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Uniform sample of a primitive (`gen::<f64>()` is uniform in [0, 1)).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related sampling, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle, in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: usize = rng.gen_range(0..=4);
            assert!(w <= 4);
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        // Mean of 1000 uniforms is close to 0.5.
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input in order");
    }

    #[test]
    fn choose_picks_existing_elements() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = [10, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
