//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses. The build environment has no access to crates.io, so the
//! workspace vendors a deterministic, dependency-free implementation
//! with the same surface: [`Rng::gen_range`], [`SeedableRng::seed_from_u64`]
//! and [`rngs::StdRng`].
//!
//! The generator is `xoshiro256**` seeded through SplitMix64 — a
//! different stream than upstream `StdRng` (ChaCha12), but every use in
//! this repository only needs a *deterministic, well-mixed* stream, not
//! a specific one.

/// SplitMix64's increment: the golden-ratio constant `2^64 / φ`.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 as a one-shot mixer: a well-mixed 64-bit word that is a
/// pure function of `x`. Deterministic plans and jitter hash their
/// inputs through it; [`rngs::StdRng`] seeds from its stream.
///
/// # Examples
///
/// ```
/// assert_eq!(rand::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from a range, mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Samples one value from `self` using `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128 + self.start as i128;
                v as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = ((rng.next_u64() as u128) % span) as i128 + lo as i128;
                v as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
impl_float_range!(f32, f64);

/// The user-facing sampling interface (`rand::Rng` subset).
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// A uniformly random `bool`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Seedable construction (`rand::SeedableRng` subset).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed via SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix64, RngCore, SeedableRng, GOLDEN_GAMMA};

    /// Deterministic stand-in for `rand::rngs::StdRng`: `xoshiro256**`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the xoshiro authors' recommended seeding:
            // the i-th word mixes `seed + i * gamma`.
            let mut state = seed;
            let mut next = || {
                let z = splitmix64(state);
                state = state.wrapping_add(GOLDEN_GAMMA);
                z
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl StdRng {
        /// The raw xoshiro256** state. Together with
        /// [`StdRng::from_state`] this lets checkpoint code serialize a
        /// generator mid-stream and resume it bit-identically.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a [`StdRng::state`] dump.
        ///
        /// # Errors
        ///
        /// Rejects the all-zero state (a xoshiro fixed point that would
        /// emit zeros forever); seeding can never produce it, so seeing
        /// it means the dump is corrupt.
        pub fn from_state(s: [u64; 4]) -> Result<Self, &'static str> {
            if s == [0; 4] {
                return Err("all-zero xoshiro256** state is degenerate");
            }
            Ok(StdRng { s })
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: f32 = rng.gen_range(0.5..1.5);
            assert!((0.5..1.5).contains(&v));
            let i = rng.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let j = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&j));
        }
    }

    #[test]
    fn seeding_is_the_splitmix64_stream() {
        // Words of the reference SplitMix64 stream from seed 0.
        let rng = StdRng::seed_from_u64(0);
        let mut want = [0u64; 4];
        let mut state = 0u64;
        for w in &mut want {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *w = z ^ (z >> 31);
        }
        assert_eq!(rng.state(), want);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
