//! Ablation experiment: what each MIBS design decision contributes.
//!
//! DESIGN.md documents three deliberate choices in our Min-Min
//! realization of MIBS (interference-excess scoring, fragility
//! tie-breaking on idle machines, whole-window double minimum). This
//! experiment removes them one at a time — plus the paper's Algorithm 2
//! listing taken literally and a random baseline — and measures static
//! batch speedups over FIFO for each variant.

use crate::arrival::{static_batch, WorkloadMix};
use crate::engine::{speedup, SchedulerKind, Simulation};
use crate::setup::Testbed;
use tracon_core::{MibsVariant, Objective};
use tracon_stats::Summary;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Scheduler label.
    pub scheduler: String,
    /// Speedup over FIFO, uniform mix.
    pub uniform: Summary,
    /// Speedup over FIFO, medium mix.
    pub medium: Summary,
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct ExtAblation {
    /// Rows: full MIBS first, then each ablated variant.
    pub rows: Vec<AblationRow>,
}

/// Number of machines in the ablation batches.
pub const MACHINES: usize = 16;
/// Batch size.
pub const BATCH: usize = 32;

/// Runs the ablation over static batches.
pub fn run(testbed: &Testbed, repetitions: u64, seed: u64) -> ExtAblation {
    let mut kinds: Vec<(String, SchedulerKind)> =
        vec![("MIBS (full)".to_string(), SchedulerKind::Mibs(BATCH))];
    for v in MibsVariant::ALL {
        kinds.push((v.name().to_string(), SchedulerKind::Ablation(v, BATCH)));
    }

    let mut rows = Vec::new();
    for (label, kind) in kinds {
        let mut per_mix = Vec::new();
        for mix in [WorkloadMix::Uniform, WorkloadMix::Medium] {
            let mut speedups = Vec::new();
            for rep in 0..repetitions {
                let s = seed.wrapping_add(rep).wrapping_add(mix as u64 * 7919);
                let trace = static_batch(BATCH, mix, s);
                let fifo =
                    Simulation::new(testbed, MACHINES, SchedulerKind::Fifo).run(&trace, None);
                let r = Simulation::new(testbed, MACHINES, kind)
                    .with_objective(Objective::MinRuntime)
                    .run(&trace, None);
                speedups.push(speedup(&fifo, &r));
            }
            per_mix.push(tracon_stats::summarize(&speedups));
        }
        rows.push(AblationRow {
            scheduler: label,
            uniform: per_mix[0],
            medium: per_mix[1],
        });
    }
    ExtAblation { rows }
}

impl ExtAblation {
    /// Row by scheduler label.
    pub fn row(&self, label: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.scheduler == label)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "MIBS design-decision ablation: speedup over FIFO ({BATCH} tasks, {MACHINES} machines)"
        );
        let _ = writeln!(
            out,
            "{:>20} {:>22} {:>22}",
            "scheduler", "uniform mix", "medium mix"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>20} {:>22} {:>22}",
                r.scheduler,
                super::fmt_pm(r.uniform.mean, r.uniform.std_dev),
                super::fmt_pm(r.medium.mean, r.medium.std_dev),
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
    fn full_mibs_beats_random_and_absolute_score() {
        let tb = shared();
        let fig = run(tb, 8, 3);
        let full = fig.row("MIBS (full)").unwrap().uniform.mean;
        let random = fig.row("RANDOM").unwrap().uniform.mean;
        let abs = fig.row("MIBS[abs-score]").unwrap().uniform.mean;
        assert!(
            full > random,
            "full MIBS {full} must beat random placement {random}"
        );
        assert!(
            full >= abs - 0.02,
            "excess scoring must not lose to absolute scoring: {full} vs {abs}"
        );
    }

    #[test]
    fn all_variants_produce_valid_runs() {
        let tb = shared();
        let fig = run(tb, 2, 9);
        assert_eq!(fig.rows.len(), 1 + MibsVariant::ALL.len());
        for r in &fig.rows {
            assert!(r.uniform.mean > 0.5 && r.uniform.mean < 3.0, "{:?}", r);
            assert!(r.medium.mean > 0.5 && r.medium.mean < 3.0, "{:?}", r);
        }
    }
}
