//! The workspace's one seeded generator: splitmix64 (Steele, Lea &
//! Flood, "Fast splittable pseudorandom number generators", OOPSLA'14).
//!
//! Everything that must replay bit-for-bit from a seed without touching
//! the `rand` stream draws from here: rendezvous shard routing, retry
//! jitter, simulator fault plans, failpoint draws and the replication
//! sim's interleavings. [`mix64`] is the stateless finaliser (a hash of
//! one word); [`SplitMix64`] is the counter-mode stream built on it.

/// The golden-ratio increment between successive stream states.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output finaliser: three xor-shift-multiply steps, no
/// increment. A bijection on `u64`, so distinct inputs never collide.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 stream: state advances by [`GAMMA`], output is
/// [`mix64`] of the new state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream whose first draw is `mix64(seed + GAMMA)`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix64(self.0)
    }

    /// Uniform draw in `0..bound` (`0` when `bound == 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// True with probability `permille`/1000.
    #[inline]
    pub fn chance(&mut self, permille: u32) -> bool {
        self.below(1000) < u64::from(permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published splitmix64 vectors for seed 0; every consumer's
    /// replayability hangs off these three words.
    #[test]
    fn seed_zero_matches_the_reference_stream() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(SplitMix64::new(17).next_u64(), mix64(17 + GAMMA));
        assert_eq!(
            (rng.below(0), rng.chance(0), rng.chance(1000)),
            (0, false, true)
        );
    }
}
