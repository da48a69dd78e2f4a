//! Offline stand-in for `rand` 0.8, covering what the tracon library
//! crates call outside their tests: `StdRng::seed_from_u64`,
//! `Rng::gen::<f64>()` and `Rng::gen_range` over `Range<f64>` and
//! `Range<usize>`.
//!
//! It follows the published crate's algorithms step by step (PCG32 seed
//! expansion, ChaCha12 with a 64-bit block counter read as 64-bit words,
//! the 53-bit float conversion, the widening-multiply integer range and
//! the `[1, 2)` float range), so that a simulated result does not depend
//! on which source the build resolved. Its block function is tested
//! against the RFC 7539 vector (`cargo test --offline` in this
//! directory), but its output has not been compared with the published
//! crate's in the sandbox it was written in, which has no registry:
//! treat agreement beyond the block function as intended, not verified.

/// A source of 64-bit words.
pub trait RngCore {
    /// The next 64 bits of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Seeding, as `rand_core::SeedableRng` does it from a `u64`.
pub trait SeedableRng: Sized {
    /// Expands `state` into a full seed with PCG32 and seeds from it.
    fn seed_from_u64(state: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: low >= high");
        let scale = self.end - self.start;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            // 52 random mantissa bits under exponent 0 give [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + self.start;
            if res < self.end {
                return res;
            }
        }
    }
}

impl SampleRange<usize> for std::ops::Range<usize> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "gen_range: low >= high");
        let range = (self.end - self.start) as u64;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(range);
            if (wide as u64) <= zone {
                return self.start + (wide >> 64) as usize;
            }
        }
    }
}

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of an inferred [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws a value from a half-open range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! The one generator the library crates name.

    use super::{RngCore, SeedableRng};

    const BUF_WORDS: usize = 64;

    /// ChaCha with 12 rounds, four blocks per refill, as `rand` 0.8's
    /// `StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        buf: [u32; BUF_WORDS],
        index: usize,
    }

    fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    /// One ChaCha block: `double_rounds` column-and-diagonal rounds over
    /// `init`, then the feed-forward addition.
    fn block(init: &[u32; 16], double_rounds: usize) -> [u32; 16] {
        let mut s = *init;
        for _ in 0..double_rounds {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (word, start) in s.iter_mut().zip(init) {
            *word = word.wrapping_add(*start);
        }
        s
    }

    const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    impl StdRng {
        fn refill(&mut self) {
            for (i, out) in self.buf.chunks_exact_mut(16).enumerate() {
                let counter = self.counter.wrapping_add(i as u64);
                let mut init = [0u32; 16];
                init[..4].copy_from_slice(&CONSTANTS);
                init[4..12].copy_from_slice(&self.key);
                init[12] = counter as u32;
                init[13] = (counter >> 32) as u32;
                // Words 14 and 15 hold the stream id, which StdRng leaves 0.
                out.copy_from_slice(&block(&init, 6));
            }
            self.counter = self.counter.wrapping_add((BUF_WORDS / 16) as u64);
            self.index = 0;
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // Only 64-bit reads exist here, so the index stays even and a
            // read never straddles a refill.
            if self.index >= BUF_WORDS {
                self.refill();
            }
            let low = u64::from(self.buf[self.index]);
            let high = u64::from(self.buf[self.index + 1]);
            self.index += 2;
            (high << 32) | low
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            let mut key = [0u32; 8];
            for word in &mut key {
                state = state.wrapping_mul(MUL).wrapping_add(INC);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                *word = xorshifted.rotate_right((state >> 59) as u32);
            }
            StdRng {
                key,
                counter: 0,
                buf: [0; BUF_WORDS],
                index: BUF_WORDS,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// RFC 7539 section 2.3.2: the ChaCha20 block function's test
        /// vector, which pins the quarter round, the round order and the
        /// feed-forward this generator shares (it runs 6 double rounds
        /// where ChaCha20 runs 10).
        #[test]
        fn block_matches_rfc_7539() {
            let mut init = [0u32; 16];
            init[..4].copy_from_slice(&CONSTANTS);
            for (i, word) in init[4..12].iter_mut().enumerate() {
                let b = 4 * i as u32;
                *word = b | (b + 1) << 8 | (b + 2) << 16 | (b + 3) << 24;
            }
            init[12..].copy_from_slice(&[1, 0x0900_0000, 0x4a00_0000, 0]);
            let expect: [u32; 16] = [
                0xe4e7_f110,
                0x1559_3bd1,
                0x1fdd_0f50,
                0xc471_20a3,
                0xc7f4_d1c7,
                0x0368_c033,
                0x9aaa_2204,
                0x4e6c_d4c3,
                0x4664_82d2,
                0x09aa_9f07,
                0x05d7_c214,
                0xa202_8bd9,
                0xd19c_12b5,
                0xb94e_16de,
                0xe883_d0cb,
                0x4e3c_50a2,
            ];
            assert_eq!(block(&init, 10), expect);
        }

        #[test]
        fn streams_are_seeded_and_uniform_enough() {
            use crate::Rng;
            let mut a = StdRng::seed_from_u64(7);
            let mut b = StdRng::seed_from_u64(7);
            let mut c = StdRng::seed_from_u64(8);
            let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
            assert_eq!(xs, (0..100).map(|_| b.next_u64()).collect::<Vec<u64>>());
            assert_ne!(xs, (0..100).map(|_| c.next_u64()).collect::<Vec<u64>>());
            let mean = (0..10_000).map(|_| a.gen::<f64>()).sum::<f64>() / 10_000.0;
            assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
            for _ in 0..1000 {
                let i = a.gen_range(3..11usize);
                assert!((3..11).contains(&i));
                let x = a.gen_range(-2.0..5.0);
                assert!((-2.0..5.0).contains(&x));
            }
        }
    }
}
