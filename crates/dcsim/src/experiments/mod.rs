//! Experiment drivers: one per table and figure of the paper's
//! evaluation (Section 4), with Figs 9-12 as four rows of one
//! [`sweep`] and Figs 4 and 8 (and the MIBS ablation) as three rows of
//! one static [`batch`]. Each driver is a pure function from a built
//! [`Testbed`] (plus experiment parameters) to a structured result whose
//! `render` method emits the same rows/series the paper reports. The
//! [`registry`] module lists all drivers as [`registry::Experiment`]
//! rows so `tracon experiment NAME` can enumerate and run them by name.

pub mod batch;
pub mod ext_adaptive;
pub mod ext_density;
pub mod ext_storage;
pub mod fig3;
pub mod fig5_6;
pub mod fig7;
pub mod registry;
pub mod sweep;
pub mod table1;

use crate::setup::{Testbed, TestbedConfig};

/// Configuration shared by the experiment drivers: testbed parameters
/// plus the sweep grids the registry-run experiments consume.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Testbed construction parameters.
    pub testbed: TestbedConfig,
    /// Repetitions for averaged results (the paper averages three runs;
    /// we default to more for tighter error bars).
    pub repetitions: u64,
    /// Base seed for workload sampling.
    pub seed: u64,
    /// λ sweep (tasks/minute) for the dynamic figures (9, 10).
    pub lambdas: Vec<f64>,
    /// Machine-count sweep for the scalability figures (8, 11, 12).
    pub machine_counts: Vec<usize>,
    /// Cluster size for the fixed-size dynamic figures (9, 10).
    pub machines: usize,
    /// Repetitions for the long dynamic sweeps (cheaper than
    /// `repetitions` because each run covers a 10-hour horizon).
    pub sweep_repetitions: u64,
    /// Benchmark time scale for the vmsim-level extension experiments
    /// (storage, density), which run real simulated benchmarks rather
    /// than the replayed pair table.
    pub ext_time_scale: f64,
}

impl ExperimentConfig {
    /// Full-fidelity configuration (`--fidelity full`; `benchmark/` builds
    /// its testbed from it).
    ///
    /// The testbed time scale is 0.25: simulated benchmarks run for tens
    /// of seconds instead of minutes, which puts the paper's λ axis
    /// (tasks per minute) in the same relation to cluster capacity as the
    /// original testbed. Interference ratios are time-scale invariant.
    pub fn full() -> Self {
        ExperimentConfig {
            testbed: TestbedConfig {
                time_scale: 0.25,
                ..TestbedConfig::full()
            },
            repetitions: 10,
            seed: 0xF1605,
            lambdas: vec![5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            machine_counts: vec![8, 16, 32, 64, 128, 256, 512, 1024],
            // Paper: 64 machines.
            machines: 64,
            sweep_repetitions: 3,
            ext_time_scale: 0.25,
        }
    }

    /// Reduced-grid configuration for quick full-pipeline passes
    /// (`--fidelity quick`): a coarser calibration, fewer repetitions, and
    /// thinned sweep grids.
    pub fn quick() -> Self {
        ExperimentConfig {
            testbed: TestbedConfig {
                calibration_points: 45,
                ..Self::full().testbed
            },
            repetitions: 3,
            lambdas: vec![10.0, 40.0, 80.0],
            machine_counts: vec![8, 32, 128],
            sweep_repetitions: 2,
            ext_time_scale: 0.1,
            ..Self::full()
        }
    }

    /// Reduced configuration for integration tests.
    pub fn small() -> Self {
        ExperimentConfig {
            testbed: TestbedConfig::small(),
            repetitions: 3,
            seed: 0xF1605,
            lambdas: vec![10.0, 40.0],
            machine_counts: vec![8, 16],
            machines: 8,
            sweep_repetitions: 2,
            ext_time_scale: 0.08,
        }
    }
}

/// Builds the testbed for an experiment configuration.
pub fn build_testbed(cfg: &ExperimentConfig) -> Testbed {
    Testbed::build(&cfg.testbed)
}

/// Formats a mean +- std pair the way the figures report bars with error
/// whiskers.
pub fn fmt_pm(mean: f64, std: f64) -> String {
    format!("{mean:6.3} +- {std:5.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_build() {
        let f = ExperimentConfig::full();
        assert_eq!(f.testbed.calibration_points, 125);
        assert!(f.repetitions >= 3);
        let s = ExperimentConfig::small();
        assert!(s.testbed.calibration_points < 125);
        let q = ExperimentConfig::quick();
        assert_eq!(q.testbed.calibration_points, 45);
        assert!(q.lambdas.len() < f.lambdas.len());
        assert!(q.machine_counts.len() < f.machine_counts.len());
    }
}
