//! Extension experiment: scheduling on a heterogeneous cluster with a
//! shared-bandwidth network dimension.
//!
//! The paper's testbed folds remote storage into "a slower disk"
//! (Section 4.6's iSCSI rows). This experiment promotes it to a first
//! class resource axis: half the machines keep local storage, the other
//! half reach their disks over a shared iSCSI link whose contention
//! follows an M/M/1 slowdown in the residents' combined offered load.
//! Every scheduler runs twice over the same traces — once with the class
//! table plugged into its scoring policy (network-aware) and once blind
//! to it (network-oblivious) — while the event kernel simulates the
//! classes as ground truth in both. The gap is the value of making the
//! interference model multi-axis.

use crate::arrival::{static_batch, WorkloadMix};
use crate::engine::{SchedulerKind, Simulation};
use crate::machines::MachineClassConfig;
use crate::setup::Testbed;
use tracon_core::MachineClass;

/// Parameters of the network-awareness comparison.
#[derive(Debug, Clone)]
pub struct ExtNetworkConfig {
    /// Cluster size (half local, half remote-storage).
    pub machines: usize,
    /// Tasks per batch.
    pub batch: usize,
    /// Batches averaged per scheduler.
    pub repetitions: u64,
    /// Base seed for the batch traces.
    pub seed: u64,
    /// The remote-storage class.
    pub remote: MachineClass,
    /// KB moved across the remote link per I/O request.
    pub kb_per_io: f64,
}

impl ExtNetworkConfig {
    /// Test-sized: a small mixed cluster, a few batches.
    pub fn small() -> Self {
        ExtNetworkConfig {
            machines: 8,
            batch: 24,
            repetitions: 5,
            seed: 0x2E7,
            remote: MachineClass::remote("iscsi", 2.0, 0.5, 60.0),
            kb_per_io: 64.0,
        }
    }

    /// Full-fidelity: a 32-machine mixed cluster, ten batches.
    pub fn full() -> Self {
        ExtNetworkConfig {
            machines: 32,
            batch: 96,
            repetitions: 10,
            seed: 0x2E7,
            remote: MachineClass::remote("iscsi", 2.0, 0.5, 60.0),
            kb_per_io: 64.0,
        }
    }
}

/// One scheduler's aware-versus-oblivious outcome (means over batches).
#[derive(Debug, Clone)]
pub struct NetworkRow {
    /// Scheduler display name.
    pub scheduler: String,
    /// Mean total runtime with class-aware scoring.
    pub aware_runtime: f64,
    /// Mean total runtime with class-oblivious scoring.
    pub oblivious_runtime: f64,
    /// Mean total IOPS with class-aware scoring.
    pub aware_iops: f64,
    /// Mean total IOPS with class-oblivious scoring.
    pub oblivious_iops: f64,
}

impl NetworkRow {
    /// Runtime improvement from network-awareness (>1 means the aware
    /// scheduler finished the same batches faster).
    pub fn gain(&self) -> f64 {
        self.oblivious_runtime / self.aware_runtime.max(1e-9)
    }
}

/// The comparison result.
#[derive(Debug, Clone)]
pub struct ExtNetwork {
    /// One row per scheduler (MIOS, MIBS, MIX).
    pub rows: Vec<NetworkRow>,
    cfg: ExtNetworkConfig,
}

/// Runs the comparison: same traces, same simulated hardware, scoring
/// with and without the machine-class table.
pub fn run(testbed: &Testbed, cfg: &ExtNetworkConfig) -> ExtNetwork {
    let classes = MachineClassConfig::mixed(cfg.machines, cfg.remote.clone(), cfg.kb_per_io);
    let kinds = [
        SchedulerKind::Mios,
        SchedulerKind::Mibs(cfg.batch),
        SchedulerKind::Mix(cfg.batch),
    ];
    let rows = kinds
        .iter()
        .map(|&kind| {
            let mut row = NetworkRow {
                scheduler: kind.name(),
                aware_runtime: 0.0,
                oblivious_runtime: 0.0,
                aware_iops: 0.0,
                oblivious_iops: 0.0,
            };
            for rep in 0..cfg.repetitions {
                let trace = static_batch(cfg.batch, WorkloadMix::Medium, cfg.seed + rep);
                let aware = Simulation::new(testbed, cfg.machines, kind)
                    .with_machine_classes(classes.clone())
                    .run(&trace, None);
                let oblivious = Simulation::new(testbed, cfg.machines, kind)
                    .with_machine_classes(classes.clone())
                    .with_network_oblivious_scoring()
                    .run(&trace, None);
                debug_assert_eq!(aware.completed, cfg.batch);
                debug_assert_eq!(oblivious.completed, cfg.batch);
                row.aware_runtime += aware.total_runtime;
                row.oblivious_runtime += oblivious.total_runtime;
                row.aware_iops += aware.total_iops;
                row.oblivious_iops += oblivious.total_iops;
            }
            let n = cfg.repetitions as f64;
            row.aware_runtime /= n;
            row.oblivious_runtime /= n;
            row.aware_iops /= n;
            row.oblivious_iops /= n;
            row
        })
        .collect();
    ExtNetwork {
        rows,
        cfg: cfg.clone(),
    }
}

impl ExtNetwork {
    /// Row by scheduler display name.
    pub fn row(&self, scheduler: &str) -> Option<&NetworkRow> {
        self.rows.iter().find(|r| r.scheduler == scheduler)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Network-aware vs network-oblivious scheduling: {} machines \
             (half local, half {} at {:.0} MB/s shared link, {:.0} KB/IO), \
             {} x {} tasks, seed = {:#x}",
            self.cfg.machines,
            self.cfg.remote.name,
            self.cfg.remote.net_capacity_mb.unwrap_or(f64::INFINITY),
            self.cfg.kb_per_io,
            self.cfg.repetitions,
            self.cfg.batch,
            self.cfg.seed,
        );
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>7} {:>11} {:>11}",
            "sched", "aware_rt", "oblivious", "gain", "aware_iops", "obliv_iops"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>11.0}s {:>11.0}s {:>6.2}x {:>11.1} {:>11.1}",
                r.scheduler,
                r.aware_runtime,
                r.oblivious_runtime,
                r.gain(),
                r.aware_iops,
                r.oblivious_iops,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    #[test]
    fn report_is_bit_reproducible() {
        let tb = shared();
        let cfg = ExtNetworkConfig::small();
        let a = run(tb, &cfg);
        let b = run(tb, &cfg);
        assert_eq!(a.render(), b.render());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(
                x.aware_runtime.to_bits(),
                y.aware_runtime.to_bits(),
                "{}",
                x.scheduler
            );
        }
    }

    #[test]
    fn network_awareness_pays_off_for_mix() {
        // The acceptance pin: on a mixed local/remote cluster the
        // class-aware MIX scheduler must beat its class-oblivious twin on
        // mean total runtime (averaged over the config's batches).
        let tb = shared();
        let cfg = ExtNetworkConfig::small();
        let fig = run(tb, &cfg);
        let mix = fig.row(&format!("MIX_{}", cfg.batch)).expect("MIX row");
        assert!(
            mix.gain() > 1.0,
            "network-aware MIX must beat oblivious MIX: aware {}s vs oblivious {}s",
            mix.aware_runtime,
            mix.oblivious_runtime
        );
        // All three schedulers are present and produced sane means.
        for r in &fig.rows {
            assert!(r.aware_runtime > 0.0 && r.oblivious_runtime > 0.0);
            assert!(r.aware_iops > 0.0 && r.oblivious_iops > 0.0);
        }
    }
}
