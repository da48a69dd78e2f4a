//! The workspace's two seeded generators, one per job, and the seeded
//! property-test loop built on the first.
//!
//! [`ChaCha12`] is the sampling stream: every simulated quantity (phase
//! jitter, arrivals, workload mixes, load-generator runtimes) and every
//! seeded test input draws from it. It is the generator the golden pins
//! and the benchmark's `result digest` were taken on — ChaCha with 12
//! rounds keyed by a PCG32 expansion of the seed, read as 64-bit words —
//! so those pins are the oracle for this code.
//!
//! [`SplitMix64`] (Steele, Lea & Flood, "Fast splittable pseudorandom
//! number generators", OOPSLA'14) is the control-plane stream, which
//! must replay bit-for-bit without disturbing a sampling stream:
//! rendezvous shard routing, retry jitter, failpoint draws and the
//! replication sim's interleavings. [`mix64`] is its stateless
//! finaliser (a hash of one word).
//!
//! [`check_cases`] runs a property over a fixed number of [`ChaCha12`]
//! streams and names the failing one.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Words per refill: four 16-word ChaCha blocks.
const BUF_WORDS: usize = 64;

/// "expand 32-byte k", the first four words of every ChaCha block.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

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

/// ChaCha with 12 rounds and a 64-bit block counter, four blocks per
/// refill, output read as little-endian 64-bit words.
#[derive(Debug, Clone)]
pub struct ChaCha12 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

impl ChaCha12 {
    /// Expands `state` into a 256-bit key with PCG32 and starts the
    /// stream at block 0.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut key = [0u32; 8];
        for word in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *word = xorshifted.rotate_right((state >> 59) as u32);
        }
        ChaCha12 {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    fn refill(&mut self) {
        for (i, out) in self.buf.chunks_exact_mut(16).enumerate() {
            let counter = self.counter.wrapping_add(i as u64);
            let mut init = [0u32; 16];
            init[..4].copy_from_slice(&CONSTANTS);
            init[4..12].copy_from_slice(&self.key);
            init[12] = counter as u32;
            init[13] = (counter >> 32) as u32;
            // Words 14 and 15 hold the stream id, which stays 0.
            out.copy_from_slice(&block(&init, 6));
        }
        self.counter = self.counter.wrapping_add((BUF_WORDS / 16) as u64);
        self.index = 0;
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        // Only 64-bit reads exist, so the index stays even and a read
        // never straddles a refill.
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let low = u64::from(self.buf[self.index]);
        let high = u64::from(self.buf[self.index + 1]);
        self.index += 2;
        (high << 32) | low
    }

    /// Uniform draw in `[0, 1)`: 53 random bits scaled by 2^-53.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi` or `hi - lo` overflows.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64: low >= high");
        let scale = hi - lo;
        assert!(scale.is_finite(), "range_f64: range overflow");
        loop {
            // 52 random mantissa bits under exponent 0 give [1, 2).
            let value1_2 = f64::from_bits((self.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + lo;
            // Rounding can land on `hi`; draw again.
            if res < hi {
                return res;
            }
        }
    }

    /// Uniform draw in `lo..hi`, by widening multiply with rejection of
    /// the biased zone.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize: low >= high");
        let range = (hi - lo) as u64;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if (wide as u64) <= zone {
                return lo + (wide >> 64) as usize;
            }
        }
    }
}

/// Runs `property` once per case index in `cases`, each on its own
/// [`ChaCha12`] stream seeded with that index, so a run is the same
/// inputs every time. A failing case panics with its index in the
/// message; `check_cases(i..i + 1, ..)` then replays it alone.
pub fn check_cases(cases: Range<u64>, mut property: impl FnMut(&mut ChaCha12)) {
    for case in cases {
        let run = AssertUnwindSafe(|| property(&mut ChaCha12::seed_from_u64(case)));
        if let Err(payload) = catch_unwind(run) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!(
                "property failed at case {case} (replay with check_cases({case}..{}, ..)): {message}",
                case + 1
            );
        }
    }
}

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

    /// RFC 7539 section 2.3.2: the ChaCha20 block function's test
    /// vector, which pins the quarter round, the round order and the
    /// feed-forward [`ChaCha12`] shares (it runs 6 double rounds where
    /// ChaCha20 runs 10).
    #[test]
    fn block_matches_rfc_7539() {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&CONSTANTS);
        for (i, word) in init[4..12].iter_mut().enumerate() {
            let b = 4 * i as u32;
            *word = b | (b + 1) << 8 | (b + 2) << 16 | (b + 3) << 24;
        }
        init[12..].copy_from_slice(&[1, 0x0900_0000, 0x4a00_0000, 0]);
        #[rustfmt::skip]
        let expect: [u32; 16] = [
            0xe4e7_f110, 0x1559_3bd1, 0x1fdd_0f50, 0xc471_20a3,
            0xc7f4_d1c7, 0x0368_c033, 0x9aaa_2204, 0x4e6c_d4c3,
            0x4664_82d2, 0x09aa_9f07, 0x05d7_c214, 0xa202_8bd9,
            0xd19c_12b5, 0xb94e_16de, 0xe883_d0cb, 0x4e3c_50a2,
        ];
        assert_eq!(block(&init, 10), expect);
    }

    /// The first 40 words (one refill is 32) per seed, printed by a
    /// program linked against the `rand` 0.8 stand-in every golden pin
    /// and benchmark digest was taken on.
    #[rustfmt::skip]
    const PINNED_WORDS: [(u64, [u64; 40]); 4] = [
        (0, [
            0xbb2a3fb2cd2c6f7f, 0xc6017c948e27697b, 0x069dc102cf310a16, 0x958b761dabe5f6d0,
            0x431d9d54dee17b11, 0xc5a0ef111f71c422, 0x37fc854f12037913, 0xcb30ce1ac9ff61c7,
            0xbfd4a4ae9e0d7fac, 0xf80c4de387b83854, 0xff0ea77dd9987f7e, 0x23ae2c7b48501800,
            0x1ce4b87b0bd4b7bb, 0xf6ff78effd960655, 0x0ca57b6234bb13f0, 0x6cfacf846e3bd6a2,
            0x75e88c63a6e1329a, 0xec9c7a3c30f0a328, 0x3a1f55f0fed54eba, 0x8f3066bc65781cfd,
            0x27c7951faf976aeb, 0xd5e34c79b892a064, 0x345f099776ef4fb1, 0x80cd14a8135f3ef3,
            0xa3438bd0e15e4e8d, 0x7a95e009bf5704d8, 0xe04696e7582b922f, 0xdee3997ccb29252a,
            0x102ff028bb620156, 0xfca4dc38ecdca315, 0x37800b8b295b5373, 0xfa202be26fdc7e07,
            0xeadd98ee4c0bcc72, 0xad5d35116362a0a5, 0x03d8ae10610e6994, 0x11b8823ad192ea97,
            0x9e3f6128db1dfde3, 0x9d1ffa92b36998ad, 0xc9055662abf1be91, 0xaa77ac12532fc768,
        ]),
        (1, [
            0xf9681a64d3301861, 0xb0f4d125cc0d694a, 0x6d8fc15a3248c9da, 0x2cf33517376425d3,
            0x412a4de2c53d7454, 0xf66d22c18495153b, 0x637bcda8cac4cfec, 0xb560cd66ff56cbc7,
            0x85353f1c1cb3b3a6, 0x62b019a827e588ea, 0x33b2740d8a4880c6, 0x0fef89656956c4dc,
            0xef846158cf4735f1, 0x6ec89502cdff9aa3, 0x31bcd62524bd4009, 0x2460de355d10546e,
            0xe46d13fb359a76c9, 0x63f8fe177f55f4a4, 0xe1c878d84ef132a2, 0x0b004ced5470d8d9,
            0x9bc3246c7d5b1f08, 0x43ca903f5082840f, 0xf28d9bf93eccae03, 0x9673b3c89ff5814e,
            0xa1f53e67f4050d9a, 0x1fd4eedc0b8b41bf, 0x4335531e5ff6006a, 0x30ab56b6843ecf22,
            0x9db2506628f4779d, 0x59f2c15a7041677e, 0x79520305ebd55ac8, 0x3c25aa000c3f0b5d,
            0xf4c4c9f506cc05a3, 0x43bd0a27cb68f270, 0x0d1865b14bc80dbc, 0xa30339056438200d,
            0x30e8b9424cd39632, 0x72c5497114cb6ba9, 0x292d78ca331bac9d, 0xca965a0bd7e94e48,
        ]),
        (42, [
            0x86cc7763222724a2, 0x8af00a133fad517d, 0xa2ef6071de5134d1, 0x67e92d78fd7630b2,
            0x08cab0dff8119fea, 0x6a3a9ca39e0f81a8, 0xbcc7d8e8590878fb, 0xd9688d9b2f8eb737,
            0x219b7e47a11c835e, 0x00d5211f7aba3a1e, 0xeea11039d26bae37, 0x8193012e994eac09,
            0x64019743ddd2f652, 0x2410b617b5c73fda, 0x85e5e480cd5aadfc, 0x37fd16ebd1802190,
            0x03394b7ca3072fca, 0x84ed7c21290ed3f3, 0x0cdebc7a765a56e4, 0xa57dc7c9a983551f,
            0xd885b9d042c5f5bf, 0x7f6b05ab76afa832, 0x8187c01bfa9a4fc3, 0x0ef9833f6a0a3f25,
            0x59dbd86317cecb50, 0x7293421f4d4e3852, 0xcb5cceb423cf90d5, 0x341ade3195244fc4,
            0x66d6afcd84ea33f2, 0xa793e7fe2a07abd3, 0x6c8a64b4dd8a46e1, 0xe373bd0032102eec,
            0xec0619b0ee66b7a9, 0xde8aa9696c100e0f, 0xa61dc1b0a5465bd3, 0x388486e7cf08a133,
            0x93b87b4a5aab1cb6, 0x63de0af2607885cf, 0x1115642b997b2c67, 0x6da293fb18d37054,
        ]),
        (u64::MAX, [
            0x0fa798482e3d5fb8, 0x0a3370b44112469e, 0x12a43d6f65c61658, 0x5d082f914e51203b,
            0x311444d2d0541fa7, 0x8f0ab386d3db9540, 0xd293f428483c6499, 0x24e1c7c768fa6506,
            0x5ca54de68be6847c, 0x24dbbd5066b475bd, 0xa79194a975b54175, 0x933376a467f2ca8d,
            0xed5859ed0c8b228d, 0xd105b58860825d41, 0x943655de05c87d40, 0x663b68db6d25286a,
            0xba56f15472c6acad, 0x9863905baf109c5c, 0x58b8a052796318e7, 0xc9e8854eeadda9d4,
            0xc6379e1d0ed51eef, 0xc32973d348e1ddeb, 0x5fc826551d4b9e5b, 0xcacb3219c173a424,
            0xc097cb7657285d07, 0x7f5e2685913edbca, 0x10cadac08b4d7f6a, 0x36df8c8481dd8d12,
            0xa82001576c5d9000, 0xb0b93c4ca37b4507, 0xf29a538cda58665c, 0x63096e3e75a977bf,
            0x7e139e29dc379ad1, 0xf634bb27508533ea, 0x5d01de449e4e70c5, 0x6867e17367333825,
            0xfa3d94fb4fb06199, 0xc217ff3490b91060, 0xddfcee2aeb8e9881, 0xe0d1804a6809d653,
        ]),
    ];

    #[test]
    fn chacha12_words_match_the_pinned_stream() {
        for (seed, words) in PINNED_WORDS {
            let mut rng = ChaCha12::seed_from_u64(seed);
            for (i, word) in words.into_iter().enumerate() {
                assert_eq!(rng.next_u64(), word, "seed {seed}, word {i}");
            }
        }
    }

    /// Twelve draws of each kind, one after the other on seed 42, from
    /// the same program as [`PINNED_WORDS`].
    #[test]
    fn chacha12_draws_match_the_pinned_stream() {
        #[rustfmt::skip]
        let units = [
            0.5265574090027738, 0.5427252099031439, 0.6364650991438949, 0.4059017582307767,
            0.034342817954956195, 0.4149568461853601, 0.7374244277243934, 0.8492516044494163,
            0.1312788891674348, 0.0032520963529599767, 0.932145132176102, 0.506149362446474,
        ];
        #[rustfmt::skip]
        let floats = [
            0.7345449242427708, -1.0138400406645391, 1.6612739278038844, -0.4690608711148312,
            -1.911848997590646, 1.6347411219316248, -1.6480842024934923, 2.5251535483717733,
            3.9205334600586976, 1.4840874486242703, 1.541843459907084, -1.5905366698513912,
        ];
        let indices = [9, 6, 8, 6, 10, 10, 8, 6, 6, 3, 4, 6];
        let mut rng = ChaCha12::seed_from_u64(42);
        assert_eq!(units.map(|_| rng.unit_f64()), units);
        assert_eq!(floats.map(|_| rng.range_f64(-2.0, 5.0)), floats);
        assert_eq!(indices.map(|_| rng.range_usize(3, 11)), indices);
    }

    #[test]
    fn a_clone_replays_its_original() {
        let mut original = ChaCha12::seed_from_u64(7);
        // Stop mid-buffer so the clone carries a partly used refill.
        for _ in 0..5 {
            original.next_u64();
        }
        let mut clone = original.clone();
        for _ in 0..100 {
            assert_eq!(clone.next_u64(), original.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "range_f64: low >= high")]
    fn range_f64_rejects_an_empty_range() {
        ChaCha12::seed_from_u64(0).range_f64(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "range_usize: low >= high")]
    fn range_usize_rejects_an_empty_range() {
        ChaCha12::seed_from_u64(0).range_usize(4, 4);
    }

    fn panic_message(run: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(run)).err()?;
        Some(payload.downcast_ref::<String>()?.clone())
    }

    #[test]
    fn check_cases_names_the_failing_case_and_replays_it() {
        let ran = std::cell::Cell::new(0);
        let property = |rng: &mut ChaCha12| {
            ran.set(ran.get() + 1);
            assert!(rng.range_usize(0, 10) != 3, "drew three");
        };
        let message = panic_message(|| check_cases(0..64, property)).expect("some case draws 3");
        assert!(message.ends_with(": drew three"), "{message}");
        let case: u64 = message
            .strip_prefix("property failed at case ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|index| index.parse().ok())
            .expect("the message leads with the case index");
        assert_eq!(ran.get(), case + 1, "the loop stops at the first failure");

        // The cases before it pass, and the named index alone fails the
        // same way.
        check_cases(0..case, property);
        assert_eq!(
            panic_message(|| check_cases(case..case + 1, property)),
            Some(message)
        );
    }

    #[test]
    fn check_cases_runs_each_case_on_its_own_stream() {
        let mut firsts = Vec::new();
        check_cases(0..24, |rng| firsts.push(rng.next_u64()));
        let expect: Vec<u64> = (0..24)
            .map(|case| ChaCha12::seed_from_u64(case).next_u64())
            .collect();
        assert_eq!(firsts, expect);
        firsts.dedup();
        assert_eq!(firsts.len(), 24);
    }

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
