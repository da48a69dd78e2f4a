//! Reproducibility tests: every stochastic component is seed-driven, so
//! identical seeds must give bit-identical results across the whole
//! stack — the property that makes the experiment outputs in
//! EXPERIMENTS.md regenerable.

use tracon::vmsim::{apps, Engine, HostConfig, Profiler};

#[test]
fn engine_corun_is_deterministic() {
    let engine = Engine::new(HostConfig::testbed());
    let target = apps::Benchmark::Compile.model().time_scaled(0.1);
    let bg = apps::synthetic(0.5, 0.75, 0.25);
    let a = engine.co_run(&target, &bg, 99);
    let b = engine.co_run(&target, &bg, 99);
    assert_eq!(a.runtime[0].to_bits(), b.runtime[0].to_bits());
    assert_eq!(a.iops[0].to_bits(), b.iops[0].to_bits());
    assert_eq!(
        a.observed[0].read_rps.to_bits(),
        b.observed[0].read_rps.to_bits()
    );
}

#[test]
fn different_seeds_differ_for_jittered_apps() {
    let engine = Engine::new(HostConfig::testbed());
    let target = apps::Benchmark::Compile.model().time_scaled(0.1);
    let a = engine.solo_run(&target, 1);
    let b = engine.solo_run(&target, 2);
    assert_ne!(a.runtime[0].to_bits(), b.runtime[0].to_bits());
}

#[test]
fn profiling_is_deterministic() {
    let profiler = Profiler::new(Engine::new(HostConfig::testbed()));
    let target = apps::Benchmark::Email.model().time_scaled(0.1);
    let backgrounds = vec![
        apps::synthetic(0.5, 0.5, 0.0),
        apps::synthetic(0.0, 1.0, 1.0),
    ];
    let a = profiler.profile(&target, &backgrounds, 7);
    let b = profiler.profile(&target, &backgrounds, 7);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.runtime.to_bits(), rb.runtime.to_bits());
        assert_eq!(ra.features, rb.features);
    }
}

#[test]
fn model_training_is_deterministic() {
    use tracon::core::{train_model, ModelKind, TrainingData};
    let mut data = TrainingData::default();
    for i in 0..60 {
        let x = i as f64 / 10.0;
        let f = [x, 1.0, 0.5, 0.1, 3.0 - x * 0.3, 0.2, 0.4, 0.05];
        data.push(f, 10.0 + 2.0 * x + 0.5 * x * x);
    }
    for kind in [ModelKind::Wmm, ModelKind::Linear, ModelKind::Nonlinear] {
        let m1 = train_model(kind, &data);
        let m2 = train_model(kind, &data);
        let q = data.features[7];
        assert_eq!(
            m1.predict(&q).to_bits(),
            m2.predict(&q).to_bits(),
            "{} training not deterministic",
            kind.name()
        );
    }
}

#[test]
fn arrival_traces_are_deterministic() {
    use tracon::dcsim::arrival::{poisson_trace, WorkloadMix};
    let a = poisson_trace(30.0, 1200.0, WorkloadMix::Heavy, 5);
    let b = poisson_trace(30.0, 1200.0, WorkloadMix::Heavy, 5);
    assert_eq!(a, b);
}

/// Held by each test that sets `par`'s process-wide worker count: libtest
/// runs tests on parallel threads, and one test's reset would otherwise
/// undo another's override mid-run.
static WORKER_COUNT: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn dynamic_sweep_is_thread_count_invariant() {
    // The dynamic sweep fans (machines, mix, lambda) cells out over
    // worker threads; every statistic must be bit-identical to the
    // single-threaded sweep regardless of worker count.
    use tracon::core::par;
    use tracon::dcsim::arrival::WorkloadMix;
    use tracon::dcsim::engine::SchedulerKind;
    use tracon::dcsim::experiments::sweep::{self, Figure};
    use tracon::dcsim::{Testbed, TestbedConfig};

    let tb = Testbed::build(&TestbedConfig::small());
    let figure = Figure {
        mixes: &[WorkloadMix::Light, WorkloadMix::Medium],
        schedulers: &[SchedulerKind::Mibs(4), SchedulerKind::Mix(4)],
        ..sweep::FIG11
    };
    let _pinned = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let run = |threads: usize| {
        par::override_threads(Some(threads));
        let points = sweep::run(&tb, &figure, &[4, 6], &[6.0, 12.0], 1800.0, 2, 17).points;
        assert_eq!(par::max_threads(), threads);
        par::override_threads(None);
        points
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), 16);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.mix, b.mix);
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        assert_eq!(a.machines, b.machines);
        assert_eq!(
            a.normalized_throughput.mean.to_bits(),
            b.normalized_throughput.mean.to_bits()
        );
        assert_eq!(
            a.normalized_throughput.std_dev.to_bits(),
            b.normalized_throughput.std_dev.to_bits()
        );
        assert_eq!(a.completed.to_bits(), b.completed.to_bits());
    }
}

#[test]
fn batch_sweep_is_thread_count_invariant() {
    // The static batch sweep fans (mix, machines) cells out over worker
    // threads; every statistic must be bit-identical to the
    // single-threaded sweep regardless of worker count.
    use tracon::core::par;
    use tracon::dcsim::arrival::WorkloadMix;
    use tracon::dcsim::experiments::batch::{self, Batch};
    use tracon::dcsim::{Testbed, TestbedConfig};

    let tb = Testbed::build(&TestbedConfig::small());
    let row = Batch {
        mixes: &[WorkloadMix::Light, WorkloadMix::Medium],
        ..batch::FIG8
    };
    let _pinned = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let run = |threads: usize| {
        par::override_threads(Some(threads));
        let points = batch::run(&tb, &row, &[4, 6], 3, 17).points;
        assert_eq!(par::max_threads(), threads);
        par::override_threads(None);
        points
    };
    let serial = run(1);
    let parallel = run(4);
    // 2 mixes x 2 machine counts x 2 objectives.
    assert_eq!(serial.len(), 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.key, b.key);
        for (x, y) in [(a.speedup, b.speedup), (a.io_boost, b.io_boost)] {
            assert_eq!(x.mean.to_bits(), y.mean.to_bits());
            assert_eq!(x.std_dev.to_bits(), y.std_dev.to_bits());
        }
    }
}

/// Every pair-table cell with both pair predictions, then every profile
/// set's solo statistics and records, as raw bits.
fn testbed_bits(tb: &tracon::dcsim::Testbed) -> Vec<u64> {
    let mut bits = Vec::new();
    let names = tb.app_names();
    for (a, app) in names.iter().enumerate() {
        bits.extend([tb.perf.solo_runtime(a), tb.perf.solo_iops(a)].map(f64::to_bits));
        for (b, other) in names.iter().enumerate() {
            bits.extend(
                [
                    tb.perf.runtime(a, b),
                    tb.perf.iops(a, b),
                    tb.predictor.predict_pair_runtime(app, other),
                    tb.predictor.predict_pair_iops(app, other),
                ]
                .map(f64::to_bits),
            );
        }
    }
    for set in &tb.profiles {
        bits.extend(set.solo.as_features().map(f64::to_bits));
        bits.extend([set.solo_runtime, set.solo_iops].map(f64::to_bits));
        for r in &set.records {
            bits.extend(r.features.map(f64::to_bits));
            bits.extend(r.background_observed.map(f64::to_bits));
            bits.extend([r.runtime, r.iops].map(f64::to_bits));
        }
    }
    bits
}

#[test]
fn testbed_build_is_thread_count_invariant() {
    // The profiling campaign is a flat list of independent co-runs on
    // the worker pool, assembled in input order: the testbed must not
    // depend on how many workers ran it.
    use tracon::core::par;
    use tracon::dcsim::{Testbed, TestbedConfig};

    let _pinned = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let build = |threads: usize| {
        par::override_threads(Some(threads));
        let tb = Testbed::build(&TestbedConfig::small());
        assert_eq!(par::max_threads(), threads);
        par::override_threads(None);
        tb
    };
    let serial = build(1);
    let parallel = build(3);
    assert_eq!(serial.app_names(), parallel.app_names());
    assert_eq!(testbed_bits(&serial), testbed_bits(&parallel));
    for (a, b) in serial.profiles.iter().zip(&parallel.profiles) {
        let names = |s: &tracon::vmsim::ProfileSet| -> Vec<(String, String)> {
            s.records
                .iter()
                .map(|r| (r.target.clone(), r.background.clone()))
                .collect()
        };
        assert_eq!((&a.target, names(a)), (&b.target, names(b)));
    }
}
