//! Experiment drivers: one per table and figure of the paper's
//! evaluation (Section 4). Each driver is a pure function from a built
//! [`Testbed`] (plus experiment parameters) to a structured result whose
//! `render` method emits the same rows/series the paper reports. The
//! [`registry`] module lists all drivers as [`registry::Experiment`]
//! rows so `tracon experiment NAME` can enumerate and run them by name.

pub mod ext_ablation;
pub mod ext_adaptive;
pub mod ext_density;
pub mod ext_storage;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5_6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod registry;
pub mod sweep;
pub mod table1;

use crate::setup::{Testbed, TestbedConfig};
use tracon_core::ModelKind;

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
            machines: sweep::MACHINES,
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

/// Builds a predictor backed by a specific model family from an existing
/// testbed's profiling data (used by the Fig 4 model comparison without
/// re-running the profiling campaign).
pub fn predictor_with_model(testbed: &Testbed, kind: ModelKind) -> tracon_core::Predictor {
    use crate::setup::training_data;
    use tracon_core::{AppModelSet, AppProfile, Characteristics};
    let mut predictor = tracon_core::Predictor::new();
    for set in &testbed.profiles {
        let runtime = tracon_core::train_model_scaled(
            kind,
            &training_data(set, tracon_core::Response::Runtime),
            tracon_core::ResponseScale::for_response(tracon_core::Response::Runtime),
        );
        let iops = tracon_core::train_model_scaled(
            kind,
            &training_data(set, tracon_core::Response::Iops),
            tracon_core::ResponseScale::for_response(tracon_core::Response::Iops),
        );
        let solo = Characteristics::new(
            set.solo.read_rps,
            set.solo.write_rps,
            set.solo.cpu_util,
            set.solo.dom0_util,
        );
        predictor.add_app(
            AppProfile {
                name: set.target.clone(),
                solo,
                solo_runtime: set.solo_runtime,
                solo_iops: set.solo_iops,
            },
            AppModelSet { runtime, iops },
        );
    }
    predictor
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

    #[test]
    fn predictor_with_model_trains_all_kinds() {
        let tb = crate::setup::tests::shared();
        for kind in [ModelKind::Wmm, ModelKind::Linear, ModelKind::Nonlinear] {
            let p = predictor_with_model(tb, kind);
            assert!(p.knows("video"));
            let rt = p.predict_runtime("video", &tracon_core::Characteristics::idle());
            assert!(rt.is_finite() && rt > 0.0);
        }
    }
}
