//! The harness's own pseudo-random generator. Every workload input is
//! drawn from it, so inputs depend on `--seed` alone and never on which
//! `rand` the library crates were built against.

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, full period.
#[derive(Clone, Debug)]
pub struct Prng(u64);

impl Prng {
    /// A stream for one purpose: `lane` separates the streams a single
    /// `--seed` feeds (one per connection, one per phase).
    pub fn new(seed: u64, lane: u64) -> Prng {
        let mut p = Prng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        p.next_u64();
        p
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[low, high)`.
    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }

    /// Uniform index below `n` (the modulo bias is below 2^-50 for the
    /// small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Standard normal by Box-Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// The paper's medium I/O mix: a Gaussian over the eight IOPS ranks
    /// with mean 4.0 (and the simulator's spread), returned as the
    /// zero-based perf-table index `rank - 1`.
    pub fn medium_mix_app(&mut self) -> usize {
        let rank = (4.0 + tracon_dcsim::arrival::MIX_STD_DEV * self.normal()).round();
        rank.clamp(1.0, 8.0) as usize - 1
    }

    /// `n` draws of the medium mix with its composition fixed: every
    /// application appears its expected number of times (largest
    /// remainders make up the total) and only the order follows the
    /// seed. A static batch's cost depends on how many tasks of each
    /// application it holds; fixing that keeps seeds comparable.
    pub fn medium_mix_batch(&mut self, n: usize) -> Vec<usize> {
        let exact: Vec<f64> = MEDIUM_MIX.iter().map(|p| p * n as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = n - counts.iter().sum::<usize>();
        for &app in by_remainder.iter().cycle().take(short) {
            counts[app] += 1;
        }
        let mut batch: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(app, &count)| std::iter::repeat_n(app, count))
            .collect();
        for i in (1..batch.len()).rev() {
            batch.swap(i, self.below(i + 1));
        }
        batch
    }
}

/// Probability of each IOPS rank under the medium mix: the mass a
/// Gaussian with mean 4.0 and deviation 1.2 puts on `[k - 0.5, k + 0.5)`,
/// the tails folded into ranks 1 and 8, to four decimals.
const MEDIUM_MIX: [f64; 8] = [
    0.0186, 0.0870, 0.2328, 0.3231, 0.2328, 0.0870, 0.0168, 0.0018,
];
