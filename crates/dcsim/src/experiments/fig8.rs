//! Fig 8: static-workload speedups of MIBS_RT and MIBS_IO over FIFO for
//! light / medium / heavy I/O mixes across cluster sizes.
//!
//! Paper setup: the task list equals the number of available VMs
//! (2 x machines); machines range from 8 to 1,024. Paper shape: the
//! heavy mix leaves little room (everything interferes with everything);
//! the light mix improves substantially; the medium mix is best.

use crate::arrival::{static_batch, WorkloadMix};
use crate::engine::{io_boost, speedup, SchedulerKind, Simulation};
use crate::setup::Testbed;
use tracon_core::Objective;
use tracon_stats::Summary;

/// One Fig 8 data point.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Workload mix.
    pub mix: WorkloadMix,
    /// Scheduler objective (RT or IO).
    pub objective: Objective,
    /// Number of machines.
    pub machines: usize,
    /// Runtime speedup over FIFO.
    pub speedup: Summary,
    /// IOPS improvement over FIFO.
    pub io_boost: Summary,
}

/// The Fig 8 result.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All swept points.
    pub points: Vec<Fig8Point>,
}

/// Runs the Fig 8 sweep. `machine_counts` allows reduced sweeps in tests.
///
/// Each (mix, objective, machines) grid cell is self-contained (its
/// repetition seeds depend only on the cell), so the cells are evaluated
/// on worker threads ([`tracon_core::par`]); the point order and every
/// statistic are identical to the serial sweep for any thread count.
pub fn run(testbed: &Testbed, machine_counts: &[usize], repetitions: u64, seed: u64) -> Fig8 {
    let mut jobs = Vec::new();
    for mix in WorkloadMix::INTENSITY_MIXES {
        for objective in [Objective::MinRuntime, Objective::MaxIops] {
            for &machines in machine_counts {
                jobs.push((mix, objective, machines));
            }
        }
    }
    let points = tracon_core::par::map(jobs, |(mix, objective, machines)| {
        let batch = 2 * machines;
        let mut speedups = Vec::new();
        let mut boosts = Vec::new();
        for rep in 0..repetitions {
            let s = seed
                .wrapping_add(rep)
                .wrapping_add(machines as u64 * 1000)
                .wrapping_add(mix as u64 * 101);
            let trace = static_batch(batch, mix, s);
            let fifo = Simulation::new(testbed, machines, SchedulerKind::Fifo).run(&trace, None);
            let mibs = Simulation::new(testbed, machines, SchedulerKind::Mibs(batch))
                .with_objective(objective)
                .run(&trace, None);
            speedups.push(speedup(&fifo, &mibs));
            boosts.push(io_boost(&fifo, &mibs));
        }
        Fig8Point {
            mix,
            objective,
            machines,
            speedup: tracon_stats::summarize(&speedups),
            io_boost: tracon_stats::summarize(&boosts),
        }
    });
    Fig8 { points }
}

impl Fig8 {
    /// Mean speedup of a (mix, objective) series averaged over sizes.
    pub fn series_mean(&self, mix: WorkloadMix, objective: Objective) -> f64 {
        let xs: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.mix == mix && p.objective == objective)
            .map(|p| p.speedup.mean)
            .collect();
        tracon_stats::mean(&xs)
    }

    /// Renders the figure's series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fig 8: static-workload Speedup / IOBoost of MIBS over FIFO"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>10} {:>22} {:>22}",
            "mix", "scheduler", "machines", "Speedup", "IOBoost"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>8} {:>12} {:>10} {:>22} {:>22}",
                p.mix.name(),
                format!("MIBS_{}", p.objective.suffix()),
                p.machines,
                super::fmt_pm(p.speedup.mean, p.speedup.std_dev),
                super::fmt_pm(p.io_boost.mean, p.io_boost.std_dev),
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
    fn medium_beats_heavy() {
        let tb = shared();
        let fig = run(tb, &[16, 32], 4, 5);
        let medium = fig.series_mean(WorkloadMix::Medium, Objective::MinRuntime);
        let heavy = fig.series_mean(WorkloadMix::Heavy, Objective::MinRuntime);
        // On the reduced test testbed medium and heavy are close; the
        // full campaign (EXPERIMENTS.md) separates them clearly. Here
        // medium must show a real improvement and not lose to heavy
        // materially.
        assert!(
            medium >= heavy - 0.05,
            "medium mix must have improvement room: medium {medium} vs heavy {heavy}"
        );
        assert!(medium > 1.0, "medium speedup {medium}");
    }

    #[test]
    fn all_points_have_positive_metrics() {
        let tb = shared();
        let fig = run(tb, &[8], 2, 9);
        assert_eq!(fig.points.len(), 6);
        for p in &fig.points {
            assert!(p.speedup.mean > 0.5 && p.speedup.mean < 3.0);
            assert!(p.io_boost.mean > 0.5 && p.io_boost.mean < 3.0);
        }
    }
}
