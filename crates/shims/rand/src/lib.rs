//! Offline stand-in for the `rand` crate, 0.8 API surface (see
//! `crates/shims/`).
//!
//! Implements the subset this workspace uses: [`RngCore`], [`SeedableRng`]
//! (including `seed_from_u64` via SplitMix64, so seeding is deterministic
//! and well-mixed), the [`Rng`] extension trait with `gen`/`gen_range`/
//! `gen_bool`, slice shuffling, and the [`distributions::Distribution`]
//! trait. Distributional *quality* matches what NN-Descent needs (uniform,
//! well-mixed), not bit-for-bit `rand` output.

/// Low-level generator interface.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }
}

/// SplitMix64 step — used to expand `u64` seeds into full seed material.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seedable construction, mirroring rand 0.8.
pub trait SeedableRng: Sized {
    /// Raw seed type (byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Derive a full seed from a `u64` via SplitMix64 (deterministic).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let b = splitmix64(&mut s).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&b[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Uniform sampling over a range, used by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                let v = if span == 0 { rng.next_u64() } else { rng.next_u64() % span };
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128 + 1) as u64;
                let v = if span == 0 { rng.next_u64() } else { rng.next_u64() % span };
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                start + unit * (end - start)
            }
        }
    )*};
}

impl_sample_range_float!(f32, f64);

/// Types producible by [`Rng::gen`] (the `Standard` distribution).
pub trait StandardSample: Sized {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            #[inline]
            fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for bool {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)`.
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)`.
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod distributions {
    use super::{Rng, RngCore, StandardSample};

    /// A sampling distribution over values of `T`.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The standard distribution: uniform over a type's natural domain
    /// (`[0, 1)` for floats, full range for integers).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl<T: StandardSample> Distribution<T> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
            T::standard_sample(rng)
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Shuffling and choosing on slices.
    pub trait SliceRandom {
        type Item;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            // Fisher-Yates.
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast xoshiro256**-based generator (stand-in for `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64_pub(), b.next_u64_pub());
        }
    }

    // Helper since RngCore::next_u64 needs the trait in scope.
    trait NextPub {
        fn next_u64_pub(&mut self) -> u64;
    }
    impl<R: super::RngCore> NextPub for R {
        fn next_u64_pub(&mut self) -> u64 {
            self.next_u64()
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u32 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let f: f32 = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i: usize = rng.gen_range(0..=4);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g: f32 = rng.gen();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice in order (astronomically unlikely)"
        );
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} out of range");
        }
    }
}
