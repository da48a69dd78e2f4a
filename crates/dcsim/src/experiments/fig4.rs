//! Fig 4: task scheduling with different prediction models — Speedup and
//! IOBoost of MIBS_RT and MIBS_IO (normalized to FIFO) when the scheduler
//! is driven by WMM, LM, or NLM.
//!
//! Paper setup: batches of 32 tasks sampled uniformly from the eight
//! applications, scheduled onto 16 machines with two VMs each. Paper
//! shape: NLM gives the best Speedup and IOBoost; WMM and LM trail.

use crate::arrival::{static_batch, WorkloadMix};
use crate::engine::{io_boost, speedup, SchedulerKind, Simulation};
use crate::setup::Testbed;
use tracon_core::{ModelKind, Objective};
use tracon_stats::Summary;

/// Number of machines (paper: 16).
pub const MACHINES: usize = 16;
/// Batch size (paper: 32).
pub const BATCH: usize = 32;

/// One Fig 4 bar.
#[derive(Debug, Clone)]
pub struct Fig4Bar {
    /// Model family driving the scheduler.
    pub model: ModelKind,
    /// Scheduler objective (RT or IO).
    pub objective: Objective,
    /// Runtime improvement over FIFO (equation 5).
    pub speedup: Summary,
    /// I/O throughput improvement over FIFO (equation 6).
    pub io_boost: Summary,
}

/// The Fig 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One bar per (model, objective).
    pub bars: Vec<Fig4Bar>,
}

/// Model families the paper compares in Fig 4.
pub const MODELS: [ModelKind; 3] = [ModelKind::Wmm, ModelKind::Linear, ModelKind::Nonlinear];

/// Runs the Fig 4 experiment.
pub fn run(testbed: &Testbed, repetitions: u64, seed: u64) -> Fig4 {
    let mut bars = Vec::new();
    for model in MODELS {
        let predictor = testbed.train_predictor(model);
        for objective in [Objective::MinRuntime, Objective::MaxIops] {
            let mut speedups = Vec::new();
            let mut boosts = Vec::new();
            for rep in 0..repetitions {
                let trace = static_batch(BATCH, WorkloadMix::Uniform, seed.wrapping_add(rep));
                let fifo =
                    Simulation::new(testbed, MACHINES, SchedulerKind::Fifo).run(&trace, None);
                let mibs = Simulation::new(testbed, MACHINES, SchedulerKind::Mibs(BATCH))
                    .with_objective(objective)
                    .with_predictor(&predictor)
                    .run(&trace, None);
                speedups.push(speedup(&fifo, &mibs));
                boosts.push(io_boost(&fifo, &mibs));
            }
            bars.push(Fig4Bar {
                model,
                objective,
                speedup: tracon_stats::summarize(&speedups),
                io_boost: tracon_stats::summarize(&boosts),
            });
        }
    }
    Fig4 { bars }
}

impl Fig4 {
    /// Finds the bar for a (model, objective) pair.
    pub fn bar(&self, model: ModelKind, objective: Objective) -> Option<&Fig4Bar> {
        self.bars
            .iter()
            .find(|b| b.model == model && b.objective == objective)
    }

    /// Renders the figure's series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fig 4: MIBS with different models, {BATCH} tasks on {MACHINES} machines x 2 VMs (vs FIFO)"
        );
        let _ = writeln!(
            out,
            "{:14} {:>10} {:>22} {:>22}",
            "scheduler", "model", "Speedup", "IOBoost"
        );
        for b in &self.bars {
            let _ = writeln!(
                out,
                "MIBS_{:9} {:>10} {:>22} {:>22}",
                b.objective.suffix(),
                b.model.name(),
                super::fmt_pm(b.speedup.mean, b.speedup.std_dev),
                super::fmt_pm(b.io_boost.mean, b.io_boost.std_dev),
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
    fn nlm_gives_best_speedup() {
        let tb = shared();
        let fig = run(tb, 6, 7);
        let nlm = fig
            .bar(ModelKind::Nonlinear, Objective::MinRuntime)
            .unwrap();
        let wmm = fig.bar(ModelKind::Wmm, Objective::MinRuntime).unwrap();
        // NLM must improve on FIFO and not lose to the baseline model.
        assert!(nlm.speedup.mean > 1.0, "NLM speedup {}", nlm.speedup.mean);
        assert!(
            nlm.speedup.mean >= wmm.speedup.mean - 0.05,
            "NLM {} vs WMM {}",
            nlm.speedup.mean,
            wmm.speedup.mean
        );
    }

    #[test]
    fn io_objective_boosts_iops() {
        let tb = shared();
        let fig = run(tb, 6, 11);
        let io = fig.bar(ModelKind::Nonlinear, Objective::MaxIops).unwrap();
        assert!(io.io_boost.mean > 1.0, "IOBoost {}", io.io_boost.mean);
    }

    #[test]
    fn six_bars_total() {
        let tb = shared();
        let fig = run(tb, 2, 3);
        assert_eq!(fig.bars.len(), 6);
    }
}
