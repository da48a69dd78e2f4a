//! Figs 9-12, the paper's dynamic evaluation, as one sweep: Poisson
//! arrivals over a 10-hour horizon on a (machines, mix, λ) grid, each
//! scheduler's completed tasks normalized against FIFO on the same
//! traces. A [`Figure`] is one row of data (header, mixes, schedulers,
//! seed step) and [`run`] evaluates it over the grid the caller passes.
//!
//! - Fig 9: MIBS_8, MIOS and MIX_8 vs λ for the light / medium / heavy
//!   mixes on 64 machines. Paper shape: at small λ all schedulers match
//!   FIFO; as λ grows the interference-aware schedulers pull ahead, MIX_8
//!   best with MIBS_8 close behind and MIOS last; the medium mix gains
//!   most.
//! - Fig 10: MIBS queue lengths 2, 4 and 8 vs λ on the medium mix. Paper
//!   shape: a longer queue beats a shorter one (~10% at λ = 100).
//! - Fig 11: scalability, Fig 9's schedulers as the cluster grows from 8
//!   to 1,024 machines at a fixed high λ. Paper shape: MIBS_8 close to
//!   MIX_8, the gap narrowing with machine count; MIOS improves least.
//!   (The paper's 10,000-machine sidebar is a `tracon simulate --machines
//!   10000` run; see EXPERIMENTS.md.)
//! - Fig 12: Fig 10's queue lengths across Fig 11's cluster sizes.

use crate::arrival::{poisson_trace, WorkloadMix};
use crate::engine::{SchedulerKind, Simulation};
use crate::setup::Testbed;
use std::fmt::Write as _;
use tracon_core::Objective;
use tracon_stats::Summary;

/// Simulated horizon: ten hours (paper).
pub const HORIZON_S: f64 = 10.0 * 3600.0;

/// Fixed arrival rate of Figs 11 and 12, tasks/minute. (Rescaled with
/// the testbed time scale like the Fig 9 λ axis; saturates the small
/// clusters and approaches capacity at 1,024 machines, as in the paper
/// at λ = 1,000.)
pub const LAMBDA: f64 = 500.0;

/// Admission-queue capacity used for the dynamic scenarios: the paper's
/// dynamic system buffers incoming tasks in "the queue" whose length is
/// the schedulers' parameter; we bound the FIFO/MIOS buffer at the same
/// eight slots as the largest batch window so all schedulers face the
/// same admission pressure.
pub const QUEUE_CAPACITY: usize = 8;

/// One figure of the dynamic evaluation: what it sweeps over, not how
/// far.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Header line, given the sweep's first machine count and first λ (a
    /// figure names the axis it holds fixed).
    pub header: fn(machines: usize, lambda: f64) -> String,
    /// Workload mixes.
    pub mixes: &'static [WorkloadMix],
    /// Schedulers compared against FIFO.
    pub schedulers: &'static [SchedulerKind],
    /// How far the base seed moves per machine, so that each cluster size
    /// of a machine sweep sees its own traces.
    pub seed_step: u64,
}

/// Fig 9's schedulers (paper: MIBS_8, MIOS, MIX_8), shared by Fig 11.
const AWARE: [SchedulerKind; 3] = [
    SchedulerKind::Mibs(8),
    SchedulerKind::Mios,
    SchedulerKind::Mix(8),
];

/// Fig 10's queue lengths (paper: 2, 4, 8), shared by Fig 12.
const QUEUE_LENGTHS: [SchedulerKind; 3] = [
    SchedulerKind::Mibs(2),
    SchedulerKind::Mibs(4),
    SchedulerKind::Mibs(8),
];

/// Fig 9: normalized throughput vs λ.
pub const FIG9: Figure = Figure {
    header: |machines, _| {
        format!("Fig 9: normalized throughput vs lambda ({machines} machines, 10 h)")
    },
    mixes: &WorkloadMix::INTENSITY_MIXES,
    schedulers: &AWARE,
    seed_step: 0,
};

/// Fig 10: MIBS queue lengths vs λ, medium mix (the paper's emphasis).
pub const FIG10: Figure = Figure {
    header: |machines, _| {
        format!("Fig 10: MIBS queue lengths vs lambda ({machines} machines, medium mix)")
    },
    mixes: &[WorkloadMix::Medium],
    schedulers: &QUEUE_LENGTHS,
    seed_step: 0,
};

/// Fig 11: normalized throughput vs machine count, medium mix (as in the
/// scalability discussion).
pub const FIG11: Figure = Figure {
    header: |_, lambda| {
        format!("Fig 11: normalized throughput vs machines (lambda = {lambda}/min, medium mix)")
    },
    mixes: &[WorkloadMix::Medium],
    schedulers: &AWARE,
    seed_step: 1,
};

/// Fig 12: MIBS queue lengths vs machine count, medium mix.
pub const FIG12: Figure = Figure {
    header: |_, lambda| {
        format!("Fig 12: MIBS queue lengths vs machines (lambda = {lambda}/min, medium mix)")
    },
    mixes: &[WorkloadMix::Medium],
    schedulers: &QUEUE_LENGTHS,
    seed_step: 31,
};

impl Figure {
    /// Seed of the arrival trace of one repetition of a grid cell: it
    /// depends only on the cell, so the traces are independent of
    /// evaluation order.
    pub fn trace_seed(
        &self,
        seed: u64,
        machines: usize,
        mix: WorkloadMix,
        lambda: f64,
        rep: u64,
    ) -> u64 {
        seed.wrapping_add(machines as u64 * self.seed_step)
            .wrapping_add(rep * 7919)
            .wrapping_add((lambda * 10.0) as u64)
            .wrapping_add(mix as u64 * 65537)
    }
}

/// One dynamic data point.
#[derive(Debug, Clone)]
pub struct DynamicPoint {
    /// Workload mix.
    pub mix: WorkloadMix,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Arrival rate, tasks/minute.
    pub lambda: f64,
    /// Number of machines.
    pub machines: usize,
    /// Throughput normalized to FIFO on the same trace.
    pub normalized_throughput: Summary,
    /// Raw completed-task counts (mean over repetitions).
    pub completed: f64,
}

/// A figure's swept points.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The figure's header line.
    pub header: String,
    /// Points in machine-major order, then mix, then λ, then scheduler.
    pub points: Vec<DynamicPoint>,
}

/// Runs a figure over every (machines, mix, λ) cell and normalizes each
/// scheduler against FIFO on the same arrival traces. Every scheduler
/// runs with a bounded admission queue (its batch window, or
/// [`QUEUE_CAPACITY`] for the online schedulers): under sustained
/// overload an unbounded buffer makes long-run throughput insensitive to
/// placement quality (every arrival is eventually served no matter how
/// well it was paired), which is not the regime the paper's Figs 9-12
/// describe.
///
/// Grid cells are independent, so the sweep evaluates them on worker
/// threads ([`tracon_core::par`]); results are identical to the serial
/// sweep for any thread count. Both grids must be non-empty: the header
/// names their first values.
pub fn run(
    testbed: &Testbed,
    figure: &Figure,
    machine_counts: &[usize],
    lambdas: &[f64],
    horizon_s: f64,
    repetitions: u64,
    seed: u64,
) -> Sweep {
    // One self-contained job per grid cell: the job regenerates its
    // repetition traces, runs the FIFO baselines, and evaluates every
    // scheduler against them. Cells share nothing mutable, so they fan
    // out over worker threads; flattening in job order keeps the output
    // ordering bit-identical to the serial loop for any thread count.
    let mut jobs = Vec::new();
    for &machines in machine_counts {
        for &mix in figure.mixes {
            for &lambda in lambdas {
                jobs.push((machines, mix, lambda));
            }
        }
    }
    let cells = tracon_core::par::map(jobs, |(machines, mix, lambda)| {
        // FIFO baselines per repetition.
        let mut fifo_completed = Vec::new();
        let mut traces = Vec::new();
        for rep in 0..repetitions {
            let s = figure.trace_seed(seed, machines, mix, lambda, rep);
            let trace = poisson_trace(lambda, horizon_s, mix, s);
            let fifo = Simulation::new(testbed, machines, SchedulerKind::Fifo)
                .with_queue_capacity(QUEUE_CAPACITY)
                .run(&trace, Some(horizon_s));
            fifo_completed.push(fifo.completed.max(1) as f64);
            traces.push(trace);
        }
        let mut cell = Vec::with_capacity(figure.schedulers.len());
        for &kind in figure.schedulers {
            let mut ratios = Vec::new();
            let mut completed_sum = 0.0;
            for (rep, trace) in traces.iter().enumerate() {
                // Every scheduler faces the same admission buffer; the
                // batch window is the scheduler's own parameter.
                let r = Simulation::new(testbed, machines, kind)
                    .with_objective(Objective::MinRuntime)
                    .with_queue_capacity(QUEUE_CAPACITY)
                    .run(trace, Some(horizon_s));
                ratios.push(r.completed as f64 / fifo_completed[rep]);
                completed_sum += r.completed as f64;
            }
            cell.push(DynamicPoint {
                mix,
                scheduler: kind,
                lambda,
                machines,
                normalized_throughput: tracon_stats::summarize(&ratios),
                completed: completed_sum / repetitions as f64,
            });
        }
        cell
    });
    Sweep {
        header: (figure.header)(machine_counts[0], lambdas[0]),
        points: cells.into_iter().flatten().collect(),
    }
}

impl Sweep {
    /// Renders the figure's point table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10} {:>22} {:>12}",
            "mix", "scheduler", "machines", "lambda", "norm. throughput", "completed"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>10} {:>10.0} {:>22} {:>12.0}",
                p.mix.name(),
                p.scheduler.to_string(),
                p.machines,
                p.lambda,
                super::fmt_pm(
                    p.normalized_throughput.mean,
                    p.normalized_throughput.std_dev
                ),
                p.completed,
            );
        }
        out
    }

    /// The point of one (mix, scheduler, machines, λ) cell.
    pub fn point(
        &self,
        mix: WorkloadMix,
        scheduler: SchedulerKind,
        machines: usize,
        lambda: f64,
    ) -> Option<&DynamicPoint> {
        self.points.iter().find(|p| {
            p.mix == mix && p.scheduler == scheduler && p.machines == machines && p.lambda == lambda
        })
    }

    /// Mean normalized throughput of a scheduler across the sweep.
    pub fn series_mean(&self, scheduler: SchedulerKind) -> f64 {
        let xs: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.scheduler == scheduler)
            .map(|p| p.normalized_throughput.mean)
            .collect();
        tracon_stats::mean(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    /// Figs 9 and 10 name the machine count they swept.
    #[test]
    fn the_header_names_the_swept_machine_count() {
        let tb = shared();
        for figure in [FIG9, FIG10] {
            let small = Figure {
                mixes: &[WorkloadMix::Medium],
                schedulers: &[SchedulerKind::Mibs(2)],
                ..figure
            };
            let out = run(tb, &small, &[8], &[10.0], 600.0, 1, 5).render();
            let header = out.lines().next().unwrap();
            assert!(header.contains("(8 machines, "), "{header}");
        }
    }

    #[test]
    fn low_lambda_all_schedulers_similar() {
        let tb = shared();
        // Tiny load on 16 machines: everything completes under every
        // scheduler, so normalized throughput ~= 1.
        let medium = Figure {
            mixes: &[WorkloadMix::Medium],
            ..FIG9
        };
        let fig = run(tb, &medium, &[16], &[2.0], 3600.0 * 4.0, 2, 3);
        for p in &fig.points {
            assert!(
                (p.normalized_throughput.mean - 1.0).abs() < 0.05,
                "{} at low lambda: {}",
                p.scheduler,
                p.normalized_throughput.mean
            );
        }
    }

    #[test]
    fn saturation_favors_interference_aware() {
        let tb = shared();
        let mibs8 = Figure {
            mixes: &[WorkloadMix::Medium],
            schedulers: &[SchedulerKind::Mibs(8)],
            ..FIG9
        };
        let points = run(tb, &mibs8, &[8], &[40.0], 3600.0 * 3.0, 3, 11).points;
        let mibs = &points[0];
        // With the reduced test testbed the dynamic gain is small; the
        // full-fidelity sweep (`--fidelity full`) shows the Fig 9 separation.
        // Here MIBS must at least not lose materially to FIFO.
        assert!(
            mibs.normalized_throughput.mean >= 0.95,
            "MIBS_8 under saturation: {}",
            mibs.normalized_throughput.mean
        );
    }

    #[test]
    fn longer_queue_not_worse_under_load() {
        let tb = shared();
        let fig = run(tb, &FIG10, &[8], &[40.0], HORIZON_S, 3, 17);
        let q8 = fig.series_mean(SchedulerKind::Mibs(8));
        let q2 = fig.series_mean(SchedulerKind::Mibs(2));
        assert!(
            q8 >= q2 - 0.05,
            "longer queue should not lose: MIBS_8 {q8} vs MIBS_2 {q2}"
        );
    }

    #[test]
    fn sweep_produces_all_points() {
        let tb = shared();
        let fig = run(tb, &FIG11, &[8, 16], &[30.0], HORIZON_S, 2, 23);
        assert_eq!(fig.points.len(), 6);
        for p in &fig.points {
            assert!(p.normalized_throughput.mean > 0.5);
            assert!(p.completed > 0.0);
        }
    }

    #[test]
    fn mibs_tracks_mix_under_saturation() {
        let tb = shared();
        let fig = run(tb, &FIG11, &[8], &[40.0], HORIZON_S, 3, 29);
        let point = |kind| fig.point(WorkloadMix::Medium, kind, 8, 40.0).unwrap();
        let mibs = point(SchedulerKind::Mibs(8));
        let mix = point(SchedulerKind::Mix(8));
        // Paper: MIBS_8's throughput is close to MIX_8's.
        assert!(
            (mibs.normalized_throughput.mean - mix.normalized_throughput.mean).abs() < 0.25,
            "MIBS {} vs MIX {}",
            mibs.normalized_throughput.mean,
            mix.normalized_throughput.mean
        );
    }

    #[test]
    fn queue_length_ordering_under_saturation() {
        let tb = shared();
        let fig = run(tb, &FIG12, &[8], &[40.0], HORIZON_S, 3, 37);
        let q8 = fig.series_mean(SchedulerKind::Mibs(8));
        let q2 = fig.series_mean(SchedulerKind::Mibs(2));
        assert!(q8 >= q2 - 0.05, "MIBS_8 {q8} vs MIBS_2 {q2}");
        assert_eq!(fig.points.len(), 3);
    }
}
