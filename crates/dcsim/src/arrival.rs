//! Workload generation for the data-center simulation: the paper's
//! light / medium / heavy I/O mixes (Gaussian over the eight IOPS-ranked
//! benchmarks with means 2.5 / 4.0 / 5.5) and Poisson arrival processes.

use tracon_stats::dist;
use tracon_stats::prng::ChaCha12;
use tracon_vmsim::Benchmark;

/// The paper's workload mixes (Section 4.1, "Mixed I/O workload").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadMix {
    /// Gaussian over ranks with mean 2.5 — mostly low-IOPS applications.
    Light,
    /// Gaussian over ranks with mean 4.0.
    Medium,
    /// Gaussian over ranks with mean 5.5 — mostly high-IOPS applications.
    Heavy,
    /// Uniform over the eight benchmarks (used in Fig 4).
    Uniform,
}

/// Standard deviation of the Gaussian rank sampler. Tight enough that
/// the heavy mix is dominated by mutually-destructive I/O applications
/// (the paper: "almost all combinations in this workload likely severely
/// interfere with each other").
pub const MIX_STD_DEV: f64 = 1.2;

impl WorkloadMix {
    /// Mean rank of the Gaussian sampler (`None` for uniform).
    pub fn mean_rank(&self) -> Option<f64> {
        match self {
            WorkloadMix::Light => Some(2.5),
            WorkloadMix::Medium => Some(4.0),
            WorkloadMix::Heavy => Some(5.5),
            WorkloadMix::Uniform => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadMix::Light => "light",
            WorkloadMix::Medium => "medium",
            WorkloadMix::Heavy => "heavy",
            WorkloadMix::Uniform => "uniform",
        }
    }

    /// The three I/O-intensity mixes of Figs 8-12.
    pub const INTENSITY_MIXES: [WorkloadMix; 3] =
        [WorkloadMix::Light, WorkloadMix::Medium, WorkloadMix::Heavy];

    /// Samples a benchmark according to the mix.
    pub fn sample(&self, rng: &mut ChaCha12) -> Benchmark {
        match self.mean_rank() {
            Some(mean) => {
                let rank = dist::gaussian_rank(rng, mean, MIX_STD_DEV, 8);
                Benchmark::from_io_rank(rank)
            }
            None => Benchmark::ALL[rng.range_usize(0, Benchmark::ALL.len())],
        }
    }
}

/// A generated task arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEvent {
    /// Arrival time, seconds.
    pub time: f64,
    /// Index of the application in [`Benchmark::ALL`] order.
    pub app_idx: usize,
}

/// Generates a Poisson arrival trace: `lambda_per_min` tasks per minute
/// for `duration_s` seconds, applications drawn from `mix`.
pub fn poisson_trace(
    lambda_per_min: f64,
    duration_s: f64,
    mix: WorkloadMix,
    seed: u64,
) -> Vec<ArrivalEvent> {
    assert!(lambda_per_min > 0.0, "lambda must be positive");
    assert!(duration_s > 0.0, "duration must be positive");
    let rate_per_s = lambda_per_min / 60.0;
    let mut rng = ChaCha12::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    loop {
        t += dist::exponential(&mut rng, rate_per_s);
        if t >= duration_s {
            break;
        }
        let app = mix.sample(&mut rng);
        out.push(ArrivalEvent {
            time: t,
            app_idx: app.io_rank() - 1,
        });
    }
    out
}

/// Generates a Poisson trace with exactly `n` arrivals at
/// `lambda_per_min` tasks per minute. Unlike [`poisson_trace`] the run
/// length is fixed in tasks rather than in simulated time, which is what
/// a load generator driving a live daemon wants: "send 500 requests at
/// this rate" regardless of how long that takes.
pub fn poisson_n(lambda_per_min: f64, n: usize, mix: WorkloadMix, seed: u64) -> Vec<ArrivalEvent> {
    assert!(lambda_per_min > 0.0, "lambda must be positive");
    let rate_per_s = lambda_per_min / 60.0;
    let mut rng = ChaCha12::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += dist::exponential(&mut rng, rate_per_s);
            let app = mix.sample(&mut rng);
            ArrivalEvent {
                time: t,
                app_idx: app.io_rank() - 1,
            }
        })
        .collect()
}

/// Generates a static batch of `n` tasks (all present at t = 0).
pub fn static_batch(n: usize, mix: WorkloadMix, seed: u64) -> Vec<ArrivalEvent> {
    let mut rng = ChaCha12::seed_from_u64(seed);
    (0..n)
        .map(|_| ArrivalEvent {
            time: 0.0,
            app_idx: mix.sample(&mut rng).io_rank() - 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::mean;

    #[test]
    fn mixes_have_ordered_mean_ranks() {
        let mut rng = ChaCha12::seed_from_u64(1);
        let avg_rank = |mix: WorkloadMix, rng: &mut ChaCha12| {
            let xs: Vec<f64> = (0..5000)
                .map(|_| mix.sample(rng).io_rank() as f64)
                .collect();
            mean(&xs)
        };
        let light = avg_rank(WorkloadMix::Light, &mut rng);
        let medium = avg_rank(WorkloadMix::Medium, &mut rng);
        let heavy = avg_rank(WorkloadMix::Heavy, &mut rng);
        let uniform = avg_rank(WorkloadMix::Uniform, &mut rng);
        assert!(light < medium && medium < heavy, "{light} {medium} {heavy}");
        assert!((uniform - 4.5).abs() < 0.2, "uniform mean rank = {uniform}");
    }

    #[test]
    fn poisson_trace_rate_and_ordering() {
        let trace = poisson_trace(60.0, 3600.0, WorkloadMix::Medium, 2);
        // 60 tasks/min for an hour: ~3600 arrivals.
        assert!(
            (trace.len() as f64 - 3600.0).abs() < 250.0,
            "n = {}",
            trace.len()
        );
        assert!(trace.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(trace.iter().all(|a| a.time < 3600.0 && a.app_idx < 8));
    }

    #[test]
    fn static_batch_size_and_time() {
        let batch = static_batch(32, WorkloadMix::Uniform, 3);
        assert_eq!(batch.len(), 32);
        assert!(batch.iter().all(|a| a.time == 0.0));
    }

    #[test]
    fn poisson_n_yields_exact_count_at_requested_rate() {
        let trace = poisson_n(120.0, 400, WorkloadMix::Medium, 11);
        assert_eq!(trace.len(), 400);
        assert!(trace.windows(2).all(|w| w[0].time <= w[1].time));
        // 120/min = 2/s: 400 arrivals should span roughly 200 s.
        let span = trace.last().unwrap().time;
        assert!((span - 200.0).abs() < 60.0, "span = {span}");
        assert_eq!(trace, poisson_n(120.0, 400, WorkloadMix::Medium, 11));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = poisson_trace(10.0, 600.0, WorkloadMix::Light, 7);
        let b = poisson_trace(10.0, 600.0, WorkloadMix::Light, 7);
        assert_eq!(a, b);
        let c = poisson_trace(10.0, 600.0, WorkloadMix::Light, 8);
        assert_ne!(a, c);
    }
}
