//! The experiment registry: every table/figure driver as one row of
//! [`REGISTRY`], so the CLI (`tracon experiment`) can enumerate, look
//! up, and run them by name.
//!
//! Experiments that need the profiled testbed share one lazily-built
//! instance through [`TestbedCache`]; the vmsim-level experiments
//! (table1, fig7, storage, density) never trigger the profiling
//! campaign.

use super::{
    ext_ablation, ext_adaptive, ext_density, ext_storage, fig10, fig11, fig12, fig3, fig4, fig5_6,
    fig7, fig8, fig9, table1, ExperimentConfig,
};
use crate::setup::Testbed;
use std::sync::OnceLock;
use tracon_vmsim::HostConfig;

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

/// One runnable experiment of the evaluation.
pub struct Experiment {
    /// Registry name (what `tracon experiment <name>` matches).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Runs the experiment and renders its result table(s).
    pub run: fn(&ExperimentConfig, &TestbedCache<'_>) -> String,
}

/// Whether a configuration asks for test-sized (not merely thinned)
/// experiments — used by the drivers whose cost is set by their own
/// config structs rather than the shared sweep grids.
fn is_small(cfg: &ExperimentConfig) -> bool {
    cfg.testbed.time_scale <= 0.1
}

fn run_fig7(cfg: &ExperimentConfig, _tb: &TestbedCache<'_>) -> String {
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
    fig7::run(&fig_cfg).render()
}

fn run_ext_adaptive(cfg: &ExperimentConfig, _tb: &TestbedCache<'_>) -> String {
    // Keyed off the extension time scale so `--quick` campaigns get
    // the reduced cluster too (the full run builds two testbeds and
    // simulates six hours).
    let a_cfg = if cfg.ext_time_scale <= 0.1 {
        ext_adaptive::ExtAdaptiveConfig::small()
    } else {
        ext_adaptive::ExtAdaptiveConfig::full()
    };
    ext_adaptive::run(&a_cfg).render()
}

/// Every experiment of the evaluation, in the paper's presentation
/// order (motivation, models, schedulers, scale, extensions).
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        description: "normalized App1 runtime under App2 interference (motivation)",
        run: |_, _| table1::run(HostConfig::testbed(), 1).render(),
    },
    Experiment {
        name: "fig3",
        description: "prediction errors of WMM/LM/NLM per benchmark (cross-validated)",
        run: |_, tb| fig3::run(tb.get()).render(),
    },
    Experiment {
        name: "fig4",
        description: "MIBS speedup/IOBoost when driven by each model family",
        run: |cfg, tb| fig4::run(tb.get(), cfg.repetitions * 3, cfg.seed).render(),
    },
    Experiment {
        name: "fig5_6",
        description: "NLM-predicted extremes vs measured min/avg/max runtimes and IOPS",
        run: |_, tb| fig5_6::run(tb.get()).render(),
    },
    Experiment {
        name: "fig7",
        description: "online model learning across a storage switch (local -> iSCSI)",
        run: run_fig7,
    },
    Experiment {
        name: "fig8",
        description: "static-workload MIBS speedups over FIFO across cluster sizes",
        run: |cfg, tb| fig8::run(tb.get(), &cfg.machine_counts, cfg.repetitions, cfg.seed).render(),
    },
    Experiment {
        name: "fig9",
        description: "dynamic normalized throughput vs arrival rate (MIBS/MIOS/MIX)",
        run: |cfg, tb| {
            let reps = cfg.sweep_repetitions;
            fig9::run(tb.get(), &cfg.lambdas, cfg.machines, reps, cfg.seed).render()
        },
    },
    Experiment {
        name: "fig10",
        description: "MIBS queue lengths vs arrival rate",
        run: |cfg, tb| {
            let reps = cfg.sweep_repetitions;
            fig10::run(tb.get(), &cfg.lambdas, cfg.machines, reps, cfg.seed).render()
        },
    },
    Experiment {
        name: "fig11",
        description: "scalability: normalized throughput vs machine count",
        run: |cfg, tb| {
            let reps = cfg.sweep_repetitions;
            fig11::run(tb.get(), &cfg.machine_counts, fig11::LAMBDA, reps, cfg.seed).render()
        },
    },
    Experiment {
        name: "fig12",
        description: "MIBS queue lengths vs machine count",
        run: |cfg, tb| {
            let reps = cfg.sweep_repetitions;
            fig12::run(tb.get(), &cfg.machine_counts, fig11::LAMBDA, reps, cfg.seed).render()
        },
    },
    Experiment {
        name: "ext_storage",
        description: "interference across storage devices (RAID/SSD/iSCSI extension)",
        run: |cfg, _| ext_storage::run(cfg.ext_time_scale, 7).render(),
    },
    Experiment {
        name: "ext_density",
        description: "consolidation density beyond two VMs per machine (extension)",
        run: |cfg, _| ext_density::run(cfg.ext_time_scale, 7).render(),
    },
    Experiment {
        name: "ext_ablation",
        description: "MIBS design-decision ablation (extension)",
        run: |cfg, tb| ext_ablation::run(tb.get(), cfg.repetitions * 3, cfg.seed).render(),
    },
    Experiment {
        name: "ext_adaptive",
        description: "online adaptation in the scheduling loop (extension)",
        run: run_ext_adaptive,
    },
];

/// Looks an experiment up by its registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_described() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.name), "duplicate name {}", e.name);
            assert!(!e.description.is_empty(), "{} undescribed", e.name);
        }
        assert_eq!(REGISTRY.len(), 14);
    }

    #[test]
    fn find_resolves_every_registered_name() {
        for e in REGISTRY {
            let found = find(e.name).expect("registered name must resolve");
            assert_eq!(found.name, e.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn registry_runs_a_testbed_free_experiment() {
        let cfg = ExperimentConfig::small();
        let cache = TestbedCache::new(&cfg);
        let rendered = (find("ext_storage").unwrap().run)(&cfg, &cache);
        assert!(rendered.contains("SATA disk"));
        // The storage experiment never needs the profiled testbed.
        assert!(cache.tb.get().is_none());
    }
}
