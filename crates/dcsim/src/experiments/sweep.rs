//! Shared dynamic-workload sweep machinery for Figs 9-12: the (mix, λ)
//! grid evaluation normalized against FIFO, and the common point-table
//! rendering. Each figure module supplies its own parameter grid and
//! result wrapper on top of [`dynamic_sweep`].

use crate::arrival::{poisson_trace, WorkloadMix};
use crate::engine::{SchedulerKind, Simulation};
use crate::setup::Testbed;
use std::fmt::Write as _;
use tracon_core::Objective;
use tracon_stats::Summary;

/// Simulated horizon: ten hours (paper).
pub const HORIZON_S: f64 = 10.0 * 3600.0;
/// Cluster size (paper: 64 machines).
pub const MACHINES: usize = 64;

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

/// Admission-queue capacity used for the dynamic scenarios: the paper's
/// dynamic system buffers incoming tasks in "the queue" whose length is
/// the schedulers' parameter; we bound the FIFO/MIOS buffer at the same
/// eight slots as the largest batch window so all schedulers face the
/// same admission pressure.
pub const QUEUE_CAPACITY: usize = 8;

/// Runs a dynamic sweep and normalizes each scheduler against FIFO on the
/// same arrival traces. Shared by Figs 9-12. Every scheduler runs with a
/// bounded admission queue (its batch window, or [`QUEUE_CAPACITY`] for
/// the online schedulers): under sustained overload an unbounded buffer
/// makes long-run throughput insensitive to placement quality (every
/// arrival is eventually served no matter how well it was paired), which
/// is not the regime the paper's Figs 9-12 describe.
///
/// Grid cells — (mix, λ) pairs — are independent, so the sweep evaluates
/// them on worker threads ([`tracon_core::par`]); results are identical
/// to the serial sweep for any thread count.
#[allow(clippy::too_many_arguments)] // a sweep is inherently a parameter grid
pub fn dynamic_sweep(
    testbed: &Testbed,
    machines: usize,
    lambdas: &[f64],
    mixes: &[WorkloadMix],
    schedulers: &[SchedulerKind],
    horizon_s: f64,
    repetitions: u64,
    seed: u64,
) -> Vec<DynamicPoint> {
    // One self-contained job per (mix, lambda) grid cell: the job
    // regenerates its repetition traces (seeded by the cell, so the trace
    // stream is independent of evaluation order), runs the FIFO baselines,
    // and evaluates every scheduler against them. Cells share nothing
    // mutable, so they fan out over worker threads; flattening in job
    // order keeps the output ordering (mix-major, then lambda, then
    // scheduler) bit-identical to the serial loop for any thread count.
    let mut jobs = Vec::new();
    for &mix in mixes {
        for &lambda in lambdas {
            jobs.push((mix, lambda));
        }
    }
    let cells = tracon_core::par::map(jobs, |(mix, lambda)| {
        // FIFO baselines per repetition.
        let mut fifo_completed = Vec::new();
        let mut traces = Vec::new();
        for rep in 0..repetitions {
            let s = seed
                .wrapping_add(rep * 7919)
                .wrapping_add((lambda * 10.0) as u64)
                .wrapping_add(mix as u64 * 65537);
            let trace = poisson_trace(lambda, horizon_s, mix, s);
            let fifo = Simulation::new(testbed, machines, SchedulerKind::Fifo)
                .with_queue_capacity(QUEUE_CAPACITY)
                .run(&trace, Some(horizon_s));
            fifo_completed.push(fifo.completed.max(1) as f64);
            traces.push(trace);
        }
        let mut cell = Vec::with_capacity(schedulers.len());
        for &kind in schedulers {
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
    cells.into_iter().flatten().collect()
}

/// Renders a dynamic point table (shared by Figs 9-12).
pub fn render_points(title: &str, points: &[DynamicPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>10} {:>22} {:>12}",
        "mix", "scheduler", "machines", "lambda", "norm. throughput", "completed"
    );
    for p in points {
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
