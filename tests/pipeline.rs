//! End-to-end integration tests over the full TRACON pipeline: the
//! virtualized testbed produces measurements, the models train on them,
//! the predictor scores placements, the schedulers act on the scores, and
//! the data-center simulation replays the measured interference.
//!
//! All tests share one (reduced) testbed build.

use std::sync::OnceLock;
use tracon::core::{ModelKind, Objective};
use tracon::dcsim::arrival::{poisson_trace, static_batch, WorkloadMix};
use tracon::dcsim::{io_boost, speedup, SchedulerKind, Simulation, Testbed, TestbedConfig};
use tracon::vmsim::Benchmark;

fn testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| Testbed::build(&TestbedConfig::small()))
}

#[test]
fn testbed_covers_all_benchmarks() {
    let tb = testbed();
    assert_eq!(tb.perf.n_apps(), 8);
    for b in Benchmark::ALL {
        assert!(tb.predictor.knows(b.name()));
        let i = tb.perf.names.iter().position(|n| n == b.name()).unwrap();
        assert!(tb.perf.solo_runtime(i) > 0.0);
        assert!(tb.perf.solo_iops(i) > 0.0);
    }
}

#[test]
fn interference_matrix_has_scheduling_room() {
    // The scheduler can only help if pairings differ: the worst pair must
    // be far costlier than the best pair for the I/O-heavy applications.
    let tb = testbed();
    let video = tb.perf.names.iter().position(|n| n == "video").unwrap();
    let worst = (0..8)
        .map(|b| tb.perf.slowdown(video, b))
        .fold(0.0, f64::max);
    let best = (0..8)
        .map(|b| tb.perf.slowdown(video, b))
        .fold(f64::INFINITY, f64::min);
    assert!(
        worst / best > 2.0,
        "matrix too flat: worst {worst} best {best}"
    );
}

#[test]
fn predictor_ranks_extreme_neighbours_correctly() {
    // The model must know that an I/O-heavy neighbour is worse than an
    // idle-ish one — the minimum the scheduler needs.
    let tb = testbed();
    for target in ["video", "dedup", "blastn"] {
        let light = tb.predictor.predict_pair_runtime(target, "email");
        let heavy = tb.predictor.predict_pair_runtime(target, "blastn");
        assert!(
            heavy > light * 1.3,
            "{target}: heavy neighbour {heavy} vs light {light}"
        );
    }
}

#[test]
fn mibs_improves_on_fifo_across_batches() {
    let tb = testbed();
    let mut speedups = Vec::new();
    let mut boosts = Vec::new();
    for seed in 0..10u64 {
        let trace = static_batch(32, WorkloadMix::Uniform, 1000 + seed);
        let fifo = Simulation::new(tb, 16, SchedulerKind::Fifo).run(&trace, None);
        let mibs = Simulation::new(tb, 16, SchedulerKind::Mibs(32)).run(&trace, None);
        assert_eq!(mibs.completed, 32, "all tasks must complete");
        speedups.push(speedup(&fifo, &mibs));
        boosts.push(io_boost(&fifo, &mibs));
    }
    let mean_speedup = tracon::stats::mean(&speedups);
    let mean_boost = tracon::stats::mean(&boosts);
    assert!(
        mean_speedup > 1.02,
        "mean speedup {mean_speedup} ({speedups:?})"
    );
    assert!(mean_boost > 1.0, "mean IOBoost {mean_boost}");
}

#[test]
fn wmm_and_lm_predictors_also_schedule() {
    // Fig 4's comparison needs all three model families to drive the
    // scheduler without blowing up.
    let tb = testbed();
    for kind in [ModelKind::Wmm, ModelKind::Linear] {
        let predictor = tb.train_predictor(kind);
        let trace = static_batch(16, WorkloadMix::Uniform, 3000);
        let r = Simulation::new(tb, 8, SchedulerKind::Mibs(16))
            .with_predictor(&predictor)
            .run(&trace, None);
        assert_eq!(
            r.completed,
            16,
            "{} predictor broke the simulation",
            kind.name()
        );
        assert!(r.total_runtime.is_finite() && r.total_runtime > 0.0);
    }
}

#[test]
fn dynamic_simulation_conserves_tasks() {
    let tb = testbed();
    let horizon = 4.0 * 3600.0;
    let trace = poisson_trace(6.0, horizon / 2.0, WorkloadMix::Medium, 42);
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Mios,
        SchedulerKind::Mibs(4),
        SchedulerKind::Mix(4),
    ] {
        let r = Simulation::new(tb, 16, kind).run(&trace, Some(horizon));
        assert!(r.completed <= r.arrived, "{kind}: {r:?}");
        // Generous horizon and light load: nothing should be left behind.
        assert_eq!(
            r.completed, r.arrived,
            "{kind} left tasks unfinished: {r:?}"
        );
        assert!(r.total_runtime > 0.0 && r.total_iops > 0.0);
    }
}

#[test]
fn objectives_produce_valid_schedules() {
    let tb = testbed();
    let trace = static_batch(24, WorkloadMix::Heavy, 4000);
    for objective in [Objective::MinRuntime, Objective::MaxIops] {
        let r = Simulation::new(tb, 12, SchedulerKind::Mix(24))
            .with_objective(objective)
            .run(&trace, None);
        assert_eq!(r.completed, 24);
    }
}

#[test]
fn per_task_iops_bounded_by_solo() {
    // A task's average IOPS can never exceed its uncontended rate, so the
    // batch total is bounded by the sum of solo rates.
    let tb = testbed();
    let trace = static_batch(16, WorkloadMix::Heavy, 5000);
    let r = Simulation::new(tb, 8, SchedulerKind::Fifo).run(&trace, None);
    let solo_total: f64 = trace.iter().map(|a| tb.perf.solo_iops(a.app_idx)).sum();
    assert!(
        r.total_iops <= solo_total * 1.05,
        "total IOPS {} exceeds solo bound {solo_total}",
        r.total_iops
    );
}
