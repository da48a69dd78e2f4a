//! The experiment registry: every table/figure driver behind one
//! object-safe [`Experiment`] trait, so the CLI (`tracon experiment`)
//! can enumerate, look up, and run them by name.
//!
//! Experiments that need the profiled testbed share one lazily-built
//! instance through [`TestbedCache`]; the vmsim-level experiments
//! (table1, fig7, storage, density) never trigger the profiling
//! campaign.

use super::{
    ext_ablation, ext_adaptive, ext_density, ext_faults, ext_network, ext_storage, fig10, fig11,
    fig12, fig3, fig4, fig5_6, fig7, fig8, fig9, table1, ExperimentConfig,
};
use crate::setup::Testbed;
use std::sync::OnceLock;
use tracon_vmsim::HostConfig;

/// A finished experiment run: the registry name plus the rendered
/// rows/series.
#[derive(Debug, Clone)]
pub struct Report {
    /// Registry name of the experiment that produced this report.
    pub name: &'static str,
    /// The rendered result table(s).
    pub rendered: String,
}

/// Lazily-built testbed shared by the experiments of one campaign run.
/// The profiling campaign only runs when the first testbed-consuming
/// experiment asks for it.
pub struct TestbedCache<'a> {
    cfg: &'a ExperimentConfig,
    tb: OnceLock<Testbed>,
}

impl<'a> TestbedCache<'a> {
    /// Creates an empty cache over a configuration.
    pub fn new(cfg: &'a ExperimentConfig) -> Self {
        TestbedCache {
            cfg,
            tb: OnceLock::new(),
        }
    }

    /// The testbed, building it (once) on first use.
    pub fn get(&self) -> &Testbed {
        self.tb.get_or_init(|| super::build_testbed(self.cfg))
    }
}

/// One runnable experiment of the evaluation. Implementations are unit
/// structs registered in [`REGISTRY`].
pub trait Experiment: Sync {
    /// Registry name (what `tracon experiment <name>` matches).
    fn name(&self) -> &'static str;
    /// One-line description for listings.
    fn description(&self) -> &'static str;
    /// Runs the experiment and renders its report.
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report;
}

/// Whether a configuration asks for test-sized (not merely thinned)
/// experiments — used by the drivers whose cost is set by their own
/// config structs rather than the shared sweep grids.
fn is_small(cfg: &ExperimentConfig) -> bool {
    cfg.testbed.time_scale <= 0.1
}

struct Table1Exp;
impl Experiment for Table1Exp {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn description(&self) -> &'static str {
        "normalized App1 runtime under App2 interference (motivation)"
    }
    fn run(&self, _cfg: &ExperimentConfig, _testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: table1::run(HostConfig::testbed(), 1).render(),
        }
    }
}

struct Fig3Exp;
impl Experiment for Fig3Exp {
    fn name(&self) -> &'static str {
        "fig3"
    }
    fn description(&self) -> &'static str {
        "prediction errors of WMM/LM/NLM per benchmark (cross-validated)"
    }
    fn run(&self, _cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig3::run(testbed.get()).render(),
        }
    }
}

struct Fig4Exp;
impl Experiment for Fig4Exp {
    fn name(&self) -> &'static str {
        "fig4"
    }
    fn description(&self) -> &'static str {
        "MIBS speedup/IOBoost when driven by each model family"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig4::run(testbed.get(), cfg.repetitions * 3, cfg.seed).render(),
        }
    }
}

struct Fig5And6Exp;
impl Experiment for Fig5And6Exp {
    fn name(&self) -> &'static str {
        "fig5_6"
    }
    fn description(&self) -> &'static str {
        "NLM-predicted extremes vs measured min/avg/max runtimes and IOPS"
    }
    fn run(&self, _cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig5_6::run(testbed.get()).render(),
        }
    }
}

struct Fig7Exp;
impl Experiment for Fig7Exp {
    fn name(&self) -> &'static str {
        "fig7"
    }
    fn description(&self) -> &'static str {
        "online model learning across a storage switch (local -> iSCSI)"
    }
    fn run(&self, cfg: &ExperimentConfig, _testbed: &TestbedCache<'_>) -> Report {
        let fig_cfg = if is_small(cfg) {
            fig7::Fig7Config::small()
        } else if cfg.testbed.calibration_points >= 125 {
            fig7::Fig7Config::full()
        } else {
            fig7::Fig7Config {
                initial_points: 200,
                stream_points: 200,
                ..fig7::Fig7Config::full()
            }
        };
        Report {
            name: self.name(),
            rendered: fig7::run(&fig_cfg).render(),
        }
    }
}

struct Fig8Exp;
impl Experiment for Fig8Exp {
    fn name(&self) -> &'static str {
        "fig8"
    }
    fn description(&self) -> &'static str {
        "static-workload MIBS speedups over FIFO across cluster sizes"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig8::run(
                testbed.get(),
                &cfg.machine_counts,
                cfg.repetitions,
                cfg.seed,
            )
            .render(),
        }
    }
}

struct Fig9Exp;
impl Experiment for Fig9Exp {
    fn name(&self) -> &'static str {
        "fig9"
    }
    fn description(&self) -> &'static str {
        "dynamic normalized throughput vs arrival rate (MIBS/MIOS/MIX)"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig9::run(
                testbed.get(),
                &cfg.lambdas,
                cfg.machines,
                cfg.sweep_repetitions,
                cfg.seed,
            )
            .render(),
        }
    }
}

struct Fig10Exp;
impl Experiment for Fig10Exp {
    fn name(&self) -> &'static str {
        "fig10"
    }
    fn description(&self) -> &'static str {
        "MIBS queue lengths vs arrival rate"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig10::run(
                testbed.get(),
                &cfg.lambdas,
                cfg.machines,
                cfg.sweep_repetitions,
                cfg.seed,
            )
            .render(),
        }
    }
}

struct Fig11Exp;
impl Experiment for Fig11Exp {
    fn name(&self) -> &'static str {
        "fig11"
    }
    fn description(&self) -> &'static str {
        "scalability: normalized throughput vs machine count"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig11::run(
                testbed.get(),
                &cfg.machine_counts,
                fig11::LAMBDA,
                cfg.sweep_repetitions,
                cfg.seed,
            )
            .render(),
        }
    }
}

struct Fig12Exp;
impl Experiment for Fig12Exp {
    fn name(&self) -> &'static str {
        "fig12"
    }
    fn description(&self) -> &'static str {
        "MIBS queue lengths vs machine count"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: fig12::run(
                testbed.get(),
                &cfg.machine_counts,
                fig11::LAMBDA,
                cfg.sweep_repetitions,
                cfg.seed,
            )
            .render(),
        }
    }
}

struct ExtStorageExp;
impl Experiment for ExtStorageExp {
    fn name(&self) -> &'static str {
        "ext_storage"
    }
    fn description(&self) -> &'static str {
        "interference across storage devices (RAID/SSD/iSCSI extension)"
    }
    fn run(&self, cfg: &ExperimentConfig, _testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: ext_storage::run(cfg.ext_time_scale, 7).render(),
        }
    }
}

struct ExtDensityExp;
impl Experiment for ExtDensityExp {
    fn name(&self) -> &'static str {
        "ext_density"
    }
    fn description(&self) -> &'static str {
        "consolidation density beyond two VMs per machine (extension)"
    }
    fn run(&self, cfg: &ExperimentConfig, _testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: ext_density::run(cfg.ext_time_scale, 7).render(),
        }
    }
}

struct ExtAblationExp;
impl Experiment for ExtAblationExp {
    fn name(&self) -> &'static str {
        "ext_ablation"
    }
    fn description(&self) -> &'static str {
        "MIBS design-decision ablation (extension)"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        Report {
            name: self.name(),
            rendered: ext_ablation::run(testbed.get(), cfg.repetitions * 3, cfg.seed).render(),
        }
    }
}

struct ExtAdaptiveExp;
impl Experiment for ExtAdaptiveExp {
    fn name(&self) -> &'static str {
        "ext_adaptive"
    }
    fn description(&self) -> &'static str {
        "online adaptation in the scheduling loop (extension)"
    }
    fn run(&self, cfg: &ExperimentConfig, _testbed: &TestbedCache<'_>) -> Report {
        // Keyed off the extension time scale so `--quick` campaigns get
        // the reduced cluster too (the full run builds two testbeds and
        // simulates six hours).
        let a_cfg = if cfg.ext_time_scale <= 0.1 {
            ext_adaptive::ExtAdaptiveConfig::small()
        } else {
            ext_adaptive::ExtAdaptiveConfig::full()
        };
        Report {
            name: self.name(),
            rendered: ext_adaptive::run(&a_cfg).render(),
        }
    }
}

struct ExtNetworkExp;
impl Experiment for ExtNetworkExp {
    fn name(&self) -> &'static str {
        "ext_network"
    }
    fn description(&self) -> &'static str {
        "network-aware vs oblivious scheduling on a mixed local/iSCSI cluster (extension)"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        let n_cfg = if is_small(cfg) {
            ext_network::ExtNetworkConfig::small()
        } else {
            ext_network::ExtNetworkConfig::full()
        };
        Report {
            name: self.name(),
            rendered: ext_network::run(testbed.get(), &n_cfg).render(),
        }
    }
}

struct ExtFaultsExp;
impl Experiment for ExtFaultsExp {
    fn name(&self) -> &'static str {
        "ext_faults"
    }
    fn description(&self) -> &'static str {
        "scheduler comparison under machine churn and task failures (extension)"
    }
    fn run(&self, cfg: &ExperimentConfig, testbed: &TestbedCache<'_>) -> Report {
        let mut f_cfg = if is_small(cfg) {
            ext_faults::ExtFaultsConfig::small()
        } else {
            ext_faults::ExtFaultsConfig::full()
        };
        f_cfg.seed = cfg.seed;
        Report {
            name: self.name(),
            rendered: ext_faults::run(testbed.get(), &f_cfg).render(),
        }
    }
}

/// Every experiment of the evaluation, in the paper's presentation
/// order (motivation, models, schedulers, scale, extensions).
pub static REGISTRY: &[&dyn Experiment] = &[
    &Table1Exp,
    &Fig3Exp,
    &Fig4Exp,
    &Fig5And6Exp,
    &Fig7Exp,
    &Fig8Exp,
    &Fig9Exp,
    &Fig10Exp,
    &Fig11Exp,
    &Fig12Exp,
    &ExtStorageExp,
    &ExtDensityExp,
    &ExtAblationExp,
    &ExtAdaptiveExp,
    &ExtFaultsExp,
    &ExtNetworkExp,
];

/// Looks an experiment up by its registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_described() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.name()), "duplicate name {}", e.name());
            assert!(!e.description().is_empty(), "{} undescribed", e.name());
        }
        assert_eq!(REGISTRY.len(), 16);
    }

    #[test]
    fn find_resolves_every_registered_name() {
        for e in REGISTRY {
            let found = find(e.name()).expect("registered name must resolve");
            assert_eq!(found.name(), e.name());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn registry_runs_a_testbed_free_experiment() {
        let cfg = ExperimentConfig::small();
        let cache = TestbedCache::new(&cfg);
        let report = find("ext_storage").unwrap().run(&cfg, &cache);
        assert_eq!(report.name, "ext_storage");
        assert!(report.rendered.contains("SATA disk"));
        // The storage experiment never needs the profiled testbed.
        assert!(cache.tb.get().is_none());
    }
}
