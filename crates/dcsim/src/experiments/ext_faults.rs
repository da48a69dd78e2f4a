//! Extension experiment: scheduler comparison under churn.
//!
//! The paper's evaluation assumes machines never fail; production
//! clusters do not. This experiment replays one Poisson arrival trace
//! against every scheduler under one seeded [`FaultPlan`] — machine
//! MTTF/MTTR churn, per-attempt task failures, straggler slowdowns — and
//! reports how much throughput each scheduler keeps relative to its own
//! fault-free run. Interference-aware *re*-scheduling is exercised
//! directly: every crash eviction re-enters the admission queue and is
//! re-placed against the surviving machines' residents.
//!
//! Both the trace and the plan derive from the experiment seed, so the
//! whole report is bit-reproducible.

use crate::arrival::{poisson_trace, WorkloadMix};
use crate::engine::{SchedulerKind, SimResult, Simulation};
use crate::faults::{FaultConfig, FaultPlan};
use crate::setup::Testbed;

/// Parameters of the churn comparison.
#[derive(Debug, Clone)]
pub struct ExtFaultsConfig {
    /// Cluster size.
    pub machines: usize,
    /// Arrival rate, tasks per minute.
    pub lambda_per_min: f64,
    /// Arrival window, seconds.
    pub duration_s: f64,
    /// Simulation horizon, seconds (also the fault-plan horizon).
    pub horizon_s: f64,
    /// Seed for both the trace and the fault plan.
    pub seed: u64,
    /// The fault model.
    pub fault: FaultConfig,
}

impl ExtFaultsConfig {
    /// Test-sized: a small cluster under aggressive churn so every fault
    /// path fires within seconds of simulated time.
    pub fn small() -> Self {
        ExtFaultsConfig {
            machines: 8,
            lambda_per_min: 40.0,
            duration_s: 900.0,
            horizon_s: 1800.0,
            seed: 0xFA17,
            fault: FaultConfig {
                machine_mttf_s: 300.0,
                machine_mttr_s: 60.0,
                task_fail_prob: 0.08,
                max_attempts: 4,
                straggler_prob: 0.1,
                straggler_slowdown: 2.0,
            },
        }
    }

    /// Full-fidelity: an hour of arrivals on 32 machines with
    /// datacenter-plausible MTTF/MTTR.
    pub fn full() -> Self {
        ExtFaultsConfig {
            machines: 32,
            lambda_per_min: 60.0,
            duration_s: 3600.0,
            horizon_s: 7200.0,
            seed: 0xFA17,
            fault: FaultConfig::default(),
        }
    }
}

/// One scheduler's outcome under the shared fault plan.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheduler display name.
    pub scheduler: String,
    /// The faulted run.
    pub faulted: SimResult,
    /// The same trace without the fault plan.
    pub fault_free: SimResult,
}

impl FaultRow {
    /// Completions under churn as a fraction of the fault-free run.
    pub fn retention(&self) -> f64 {
        self.faulted.completed as f64 / (self.fault_free.completed as f64).max(1.0)
    }
}

/// The churn-comparison result.
#[derive(Debug, Clone)]
pub struct ExtFaults {
    /// One row per scheduler (FIFO, MIOS, MIBS, MIX).
    pub rows: Vec<FaultRow>,
    /// Machine crash events within the horizon (same plan for all rows).
    pub planned_crashes: usize,
    cfg: ExtFaultsConfig,
}

/// Runs the comparison: one trace, one plan, every scheduler.
pub fn run(testbed: &Testbed, cfg: &ExtFaultsConfig) -> ExtFaults {
    let trace = poisson_trace(
        cfg.lambda_per_min,
        cfg.duration_s,
        WorkloadMix::Medium,
        cfg.seed,
    );
    let plan = FaultPlan::generate(cfg.fault, cfg.machines, cfg.horizon_s, cfg.seed);
    let planned_crashes = plan.machine_events.iter().filter(|e| !e.up).count();
    let kinds = [
        SchedulerKind::Fifo,
        SchedulerKind::Mios,
        SchedulerKind::Mibs(16),
        SchedulerKind::Mix(16),
    ];
    let rows = kinds
        .iter()
        .map(|&kind| {
            let fault_free =
                Simulation::new(testbed, cfg.machines, kind).run(&trace, Some(cfg.horizon_s));
            let faulted = Simulation::new(testbed, cfg.machines, kind)
                .with_faults(&plan)
                .run(&trace, Some(cfg.horizon_s));
            FaultRow {
                scheduler: kind.name(),
                faulted,
                fault_free,
            }
        })
        .collect();
    ExtFaults {
        rows,
        planned_crashes,
        cfg: cfg.clone(),
    }
}

impl ExtFaults {
    /// Row by scheduler display name.
    pub fn row(&self, scheduler: &str) -> Option<&FaultRow> {
        self.rows.iter().find(|r| r.scheduler == scheduler)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Scheduling under churn: {} machines, lambda = {} tasks/min, \
             MTTF = {:.0}s, MTTR = {:.0}s, {} planned crashes, seed = {:#x}",
            self.cfg.machines,
            self.cfg.lambda_per_min,
            self.cfg.fault.machine_mttf_s,
            self.cfg.fault.machine_mttr_s,
            self.planned_crashes,
            self.cfg.seed,
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9} {:>10}",
            "sched",
            "completed",
            "no-fault",
            "retention",
            "failed",
            "requeued",
            "abandoned",
            "mean_wait"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>10} {:>8.1}% {:>8} {:>8} {:>9} {:>9.1}s",
                r.scheduler,
                r.faulted.completed,
                r.fault_free.completed,
                r.retention() * 100.0,
                r.faulted.task_failures,
                r.faulted.requeues,
                r.faulted.abandoned,
                r.faulted.mean_wait,
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
        let cfg = ExtFaultsConfig::small();
        let a = run(tb, &cfg);
        let b = run(tb, &cfg);
        assert_eq!(a.render(), b.render());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(
                x.faulted.total_runtime.to_bits(),
                y.faulted.total_runtime.to_bits(),
                "{}",
                x.scheduler
            );
        }
    }

    #[test]
    fn churn_actually_bites_and_conservation_holds() {
        let tb = shared();
        let fig = run(tb, &ExtFaultsConfig::small());
        assert!(fig.planned_crashes > 0);
        for r in &fig.rows {
            assert!(r.faulted.machine_crashes > 0, "{}", r.scheduler);
            assert!(r.faulted.requeues > 0, "{}", r.scheduler);
            assert!(r.faulted.completed > 0, "{}", r.scheduler);
            assert_eq!(
                r.faulted.arrived,
                r.faulted.completed
                    + r.faulted.refused
                    + r.faulted.abandoned
                    + r.faulted.unfinished(),
                "{}",
                r.scheduler
            );
            // Churn cannot increase completions (same trace, same horizon).
            assert!(
                r.faulted.completed <= r.fault_free.completed,
                "{}: {} > {}",
                r.scheduler,
                r.faulted.completed,
                r.fault_free.completed
            );
        }
        // All four schedulers are present.
        for name in ["FIFO", "MIOS", "MIBS_16", "MIX_16"] {
            assert!(fig.row(name).is_some(), "{name} missing");
        }
    }
}
