//! The paper's static evaluation, and our ablation of MIBS, as one sweep:
//! a batch of 2 x machines tasks lands at t = 0, and each scheduler's
//! Speedup and IOBoost (equations 5 and 6) are normalized against FIFO
//! on the same trace. A [`Batch`] is one row of data (header, mixes,
//! schedulers, model sources, objectives, seed steps) and [`run`]
//! evaluates it over the machine counts the caller passes.
//!
//! - Fig 4: MIBS_RT and MIBS_IO driven by WMM, LM and NLM, 32 tasks
//!   sampled uniformly from the eight applications on 16 machines with
//!   two VMs each. Paper shape: NLM gives the best Speedup and IOBoost;
//!   WMM and LM trail.
//! - Fig 8: MIBS_RT and MIBS_IO for the light / medium / heavy mixes on 8
//!   to 1,024 machines. Paper shape: the heavy mix leaves little room
//!   (everything interferes with everything); the light mix improves
//!   substantially; the medium mix is best.
//! - Ablation (extension): what each MIBS design decision contributes.
//!   DESIGN.md documents three deliberate choices in our Min-Min
//!   realization of MIBS (interference-excess scoring, fragility
//!   tie-breaking on idle machines, whole-window double minimum); each
//!   [`MibsVariant`] removes one, beside the paper's Algorithm 2 listing
//!   taken literally and a random baseline.

use crate::arrival::{static_batch, WorkloadMix};
use crate::engine::{io_boost, speedup, SchedulerKind, Simulation};
use crate::setup::Testbed;
use std::fmt::Write as _;
use tracon_core::{MibsVariant, ModelKind, Objective};
use tracon_stats::Summary;

/// One static experiment: what it compares against FIFO, not on how many
/// machines. The batch is always 2 x machines tasks, one per VM, and each
/// batch scheduler's window is the whole batch.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Header line.
    pub header: &'static str,
    /// Workload mixes.
    pub mixes: &'static [WorkloadMix],
    /// Schedulers compared against FIFO, given the batch size.
    pub schedulers: fn(batch: usize) -> Vec<SchedulerKind>,
    /// Where each scheduler's predictor comes from: a model family that
    /// [`Testbed::train_predictor`] trains, or `None` for the testbed's
    /// deployed predictor.
    pub models: &'static [Option<ModelKind>],
    /// Scheduler objectives.
    pub objectives: &'static [Objective],
    /// How far the base seed moves per machine.
    pub machine_step: u64,
    /// How far the base seed moves per mix (by its discriminant).
    pub mix_step: u64,
}

/// Fig 4: MIBS driven by each model family the paper compares (paper: 16
/// machines).
pub const FIG4: Batch = Batch {
    header: "Fig 4: MIBS with different models, one task per VM (vs FIFO)",
    mixes: &[WorkloadMix::Uniform],
    schedulers: |b| vec![SchedulerKind::Mibs(b)],
    models: &[
        Some(ModelKind::Wmm),
        Some(ModelKind::Linear),
        Some(ModelKind::Nonlinear),
    ],
    objectives: &[Objective::MinRuntime, Objective::MaxIops],
    machine_step: 0,
    mix_step: 0,
};

/// Fig 8: MIBS across cluster sizes for the three I/O intensity mixes.
pub const FIG8: Batch = Batch {
    header: "Fig 8: static-workload Speedup / IOBoost of MIBS over FIFO",
    mixes: &WorkloadMix::INTENSITY_MIXES,
    schedulers: |b| vec![SchedulerKind::Mibs(b)],
    models: &[None],
    objectives: &[Objective::MinRuntime, Objective::MaxIops],
    machine_step: 1000,
    mix_step: 101,
};

/// The ablation: full MIBS first, then each ablated variant (on Fig 4's
/// 16 machines).
pub const ABLATION: Batch = Batch {
    header: "MIBS design-decision ablation: Speedup / IOBoost over FIFO, one task per VM",
    mixes: &[WorkloadMix::Uniform, WorkloadMix::Medium],
    schedulers: |b| {
        let mut kinds = vec![SchedulerKind::Mibs(b)];
        kinds.extend(MibsVariant::ALL.map(|v| SchedulerKind::Ablation(v, b)));
        kinds
    },
    models: &[None],
    objectives: &[Objective::MinRuntime],
    machine_step: 0,
    mix_step: 7919,
};

impl Batch {
    /// Seed of one repetition's batch: it depends only on the cell, so
    /// the traces are independent of evaluation order.
    pub fn trace_seed(&self, seed: u64, machines: usize, mix: WorkloadMix, rep: u64) -> u64 {
        seed.wrapping_add(rep)
            .wrapping_add(machines as u64 * self.machine_step)
            .wrapping_add(mix as u64 * self.mix_step)
    }
}

/// Where a point sits: (mix, machines, scheduler, model, objective), the
/// model being the trained family or `None` for the deployed predictor.
pub type Key = (
    WorkloadMix,
    usize,
    SchedulerKind,
    Option<ModelKind>,
    Objective,
);

/// One static data point.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// The point's cell and arm.
    pub key: Key,
    /// Runtime improvement over FIFO (equation 5).
    pub speedup: Summary,
    /// I/O throughput improvement over FIFO (equation 6).
    pub io_boost: Summary,
}

/// A row's swept points.
#[derive(Debug, Clone)]
pub struct BatchSweep {
    /// The row's header line.
    pub header: &'static str,
    /// Points in mix-major order, then machines, scheduler, model and
    /// objective.
    pub points: Vec<BatchPoint>,
}

/// Runs a row over every (mix, machines) cell. Each model is trained once,
/// before the cells fan out over worker threads ([`tracon_core::par`]);
/// results are identical to a serial run for any thread count. A cell
/// runs FIFO once per trace and every (scheduler, model, objective) arm
/// against it: FIFO is deterministic on a trace and reads no predictor.
pub fn run(
    testbed: &Testbed,
    row: &Batch,
    machine_counts: &[usize],
    reps: u64,
    seed: u64,
) -> BatchSweep {
    let trained: Vec<_> = (row.models.iter())
        .map(|model| model.map(|kind| testbed.train_predictor(kind)))
        .collect();
    let jobs = (row.mixes.iter())
        .flat_map(|&mix| machine_counts.iter().map(move |&machines| (mix, machines)));
    let cells = tracon_core::par::map(jobs.collect(), |(mix, machines)| {
        let traces: Vec<_> = (0..reps)
            .map(|rep| static_batch(2 * machines, mix, row.trace_seed(seed, machines, mix, rep)))
            .collect();
        let fifo: Vec<_> = (traces.iter())
            .map(|t| Simulation::new(testbed, machines, SchedulerKind::Fifo).run(t, None))
            .collect();
        let mut cell = Vec::new();
        for scheduler in (row.schedulers)(2 * machines) {
            for (&model, trained) in row.models.iter().zip(&trained) {
                // The deployed predictor is what a `Simulation` scores with
                // when it is given none.
                let predictor = trained.as_ref().unwrap_or(&testbed.predictor);
                for &objective in row.objectives {
                    let sim = Simulation::new(testbed, machines, scheduler)
                        .with_objective(objective)
                        .with_predictor(predictor);
                    let (speedups, boosts): (Vec<f64>, Vec<f64>) = (traces.iter().zip(&fifo))
                        .map(|(trace, fifo)| {
                            let r = sim.run(trace, None);
                            (speedup(fifo, &r), io_boost(fifo, &r))
                        })
                        .unzip();
                    cell.push(BatchPoint {
                        key: (mix, machines, scheduler, model, objective),
                        speedup: tracon_stats::summarize(&speedups),
                        io_boost: tracon_stats::summarize(&boosts),
                    });
                }
            }
        }
        cell
    });
    BatchSweep {
        header: row.header,
        points: cells.into_iter().flatten().collect(),
    }
}

impl BatchSweep {
    /// Renders the row's point table.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.header);
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>18} {:>8} {:>9} {:>22} {:>22}",
            "mix", "machines", "scheduler", "model", "objective", "Speedup", "IOBoost"
        );
        for p in &self.points {
            let (mix, machines, scheduler, model, objective) = p.key;
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>18} {:>8} {:>9} {:>22} {:>22}",
                mix.name(),
                machines,
                scheduler.to_string(),
                model.map_or("deployed", |kind| kind.name()),
                objective.suffix(),
                super::fmt_pm(p.speedup.mean, p.speedup.std_dev),
                super::fmt_pm(p.io_boost.mean, p.io_boost.std_dev),
            );
        }
        out
    }

    /// The point at a key.
    pub fn point(&self, key: Key) -> Option<&BatchPoint> {
        self.points.iter().find(|p| p.key == key)
    }

    /// Mean speedup of a (mix, objective) series, averaged over the
    /// other axes.
    pub fn series_mean(&self, mix: WorkloadMix, objective: Objective) -> f64 {
        let xs: Vec<f64> = (self.points.iter())
            .filter(|p| (p.key.0, p.key.4) == (mix, objective))
            .map(|p| p.speedup.mean)
            .collect();
        tracon_stats::mean(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    /// The Fig 4 point of a (model, objective) pair, on 16 machines.
    fn bar(fig: &BatchSweep, kind: ModelKind, objective: Objective) -> &BatchPoint {
        let mibs = SchedulerKind::Mibs(32);
        fig.point((WorkloadMix::Uniform, 16, mibs, Some(kind), objective))
            .unwrap()
    }

    /// The ablation's uniform-mix speedup of a scheduler, on 16 machines.
    fn uniform(fig: &BatchSweep, scheduler: SchedulerKind) -> f64 {
        let (mix, rt) = (WorkloadMix::Uniform, Objective::MinRuntime);
        let point = fig.point((mix, 16, scheduler, None, rt));
        point.unwrap().speedup.mean
    }

    #[test]
    fn nlm_gives_best_speedup() {
        let tb = shared();
        let fig = run(tb, &FIG4, &[16], 6, 7);
        let nlm = bar(&fig, ModelKind::Nonlinear, Objective::MinRuntime);
        let wmm = bar(&fig, ModelKind::Wmm, Objective::MinRuntime);
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
        let fig = run(tb, &FIG4, &[16], 6, 11);
        let io = bar(&fig, ModelKind::Nonlinear, Objective::MaxIops);
        assert!(io.io_boost.mean > 1.0, "IOBoost {}", io.io_boost.mean);
    }

    #[test]
    fn six_bars_total() {
        let tb = shared();
        let fig = run(tb, &FIG4, &[16], 2, 3);
        assert_eq!(fig.points.len(), 6);
    }

    #[test]
    fn medium_beats_heavy() {
        let tb = shared();
        let fig = run(tb, &FIG8, &[16, 32], 4, 5);
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
        let fig = run(tb, &FIG8, &[8], 2, 9);
        assert_eq!(fig.points.len(), 6);
        for p in &fig.points {
            assert!(p.speedup.mean > 0.5 && p.speedup.mean < 3.0);
            assert!(p.io_boost.mean > 0.5 && p.io_boost.mean < 3.0);
        }
    }

    #[test]
    fn full_mibs_beats_random_and_absolute_score() {
        let tb = shared();
        let fig = run(tb, &ABLATION, &[16], 8, 3);
        let full = uniform(&fig, SchedulerKind::Mibs(32));
        let random = uniform(&fig, SchedulerKind::Ablation(MibsVariant::Random, 32));
        let abs = uniform(
            &fig,
            SchedulerKind::Ablation(MibsVariant::AbsoluteScore, 32),
        );
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
        let fig = run(tb, &ABLATION, &[16], 2, 9);
        // One row per scheduler, each with a uniform and a medium point.
        assert_eq!(fig.points.len(), 2 * (1 + MibsVariant::ALL.len()));
        for p in &fig.points {
            assert!(p.speedup.mean > 0.5 && p.speedup.mean < 3.0, "{:?}", p);
        }
    }
}
