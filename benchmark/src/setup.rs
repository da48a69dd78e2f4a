//! Set-up shared by every workload: the vmsim profiling campaign plus
//! model training (`Testbed::build`), the cost every `tracon experiment`
//! and `tracon serve` boot pays. The traced pass rebuilds the same
//! testbed step by step under spans and checks it against the one-call
//! build bit for bit, so the per-layer numbers describe the real thing.

use crate::report::{median, Report};
use crate::trace::Trace;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tracon_core::{
    train_model_scaled, AdaptiveModel, AppModelSet, AppProfile, Characteristics, ModelKind,
    MonitorConfig, Objective, Predictor, Response, ResponseScale, ScoringPolicy,
};
use tracon_dcsim::setup::{calibration_workloads, training_data};
use tracon_dcsim::{PerfTable, Testbed, TestbedConfig};
use tracon_vmsim::{AppModel, Benchmark, Engine, ProfileSet, Profiler};

/// Median over the 8 x 8 application pairs of
/// |predicted - measured| / measured runtime. The pair matrix is profiled
/// by its own runs, apart from the training sets, so it is held-out data.
pub fn predict_rel_err(tb: &Testbed) -> f64 {
    let names = tb.app_names();
    let mut errs = Vec::with_capacity(names.len() * names.len());
    for (a, app) in names.iter().enumerate() {
        for (b, other) in names.iter().enumerate() {
            let measured = tb.perf.runtime(a, b);
            let predicted = tb.predictor.predict_pair_runtime(app, other);
            errs.push((predicted - measured).abs() / measured);
        }
    }
    median(&errs)
}

/// Every prediction and every replayed statistic of `tb`, as raw bits.
fn fingerprint(tb: &Testbed) -> Vec<u64> {
    let names = tb.app_names();
    let mut bits = Vec::new();
    for (a, app) in names.iter().enumerate() {
        bits.push(tb.perf.solo_runtime(a).to_bits());
        bits.push(tb.perf.solo_iops(a).to_bits());
        for (b, other) in names.iter().enumerate() {
            bits.push(tb.perf.runtime(a, b).to_bits());
            bits.push(tb.perf.iops(a, b).to_bits());
            bits.push(tb.predictor.predict_pair_runtime(app, other).to_bits());
            bits.push(tb.predictor.predict_pair_iops(app, other).to_bits());
        }
    }
    bits
}

fn solo_chars(set: &ProfileSet) -> Characteristics {
    Characteristics::new(
        set.solo.read_rps,
        set.solo.write_rps,
        set.solo.cpu_util,
        set.solo.dom0_util,
    )
}

/// `Testbed::build`, one layer call at a time, each under a span. Pushes
/// the set-up layer metrics and fails the report when the result differs
/// from the one-call build in any bit.
pub fn build_traced(cfg: &TestbedConfig, trace: &mut Trace, report: &mut Report) -> Testbed {
    let models: Vec<AppModel> = Benchmark::ALL
        .iter()
        .map(|b| b.model().time_scaled(cfg.time_scale))
        .collect();
    let backgrounds = calibration_workloads(cfg.calibration_points);
    let profiler = Profiler::new(Engine::new(cfg.host));

    // One thread per benchmark and the same seeds as `Testbed::build`.
    let (profiles, profile_s) = trace.span("vmsim.profiler.profile", |_| {
        let mut slots: Vec<Option<ProfileSet>> = (0..models.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, (slot, app)) in slots.iter_mut().zip(&models).enumerate() {
                let (profiler, backgrounds) = (&profiler, &backgrounds);
                let seed = cfg.seed.wrapping_add(10_000 * (i as u64 + 1));
                scope.spawn(move || *slot = Some(profiler.profile(app, backgrounds, seed)));
            }
        });
        slots
            .into_iter()
            .map(|p| p.expect("every profiling thread filled its slot"))
            .collect::<Vec<ProfileSet>>()
    });
    let (pair, pair_s) = trace.span("vmsim.profiler.pair_matrix", |_| {
        profiler.pair_matrix(&models, cfg.seed.wrapping_add(99))
    });
    let perf = PerfTable::from_pair_matrix(&pair);

    let mut predictor = Predictor::new();
    let mut app_chars = HashMap::new();
    trace.span("core.model.train_deployed", |_| {
        for set in &profiles {
            let train = |response: Response| {
                train_model_scaled(
                    cfg.model_kind,
                    &training_data(set, response),
                    ResponseScale::for_response(response),
                )
            };
            let solo = solo_chars(set);
            predictor.add_app(
                AppProfile {
                    name: set.target.clone(),
                    solo,
                    solo_runtime: set.solo_runtime,
                    solo_iops: set.solo_iops,
                },
                AppModelSet {
                    runtime: train(Response::Runtime),
                    iops: train(Response::Iops),
                },
            );
            app_chars.insert(set.target.clone(), solo);
        }
    });
    let stepwise = Testbed {
        predictor,
        perf,
        app_chars,
        profiles,
    };

    let (reference, _) = trace.span("dcsim.setup.testbed_build", |_| Testbed::build(cfg));
    report.check(fingerprint(&stepwise) == fingerprint(&reference), || {
        "step-by-step testbed differs from Testbed::build".to_string()
    });

    // Per profile: one solo run, then a background observation and a
    // co-run per calibration point; the pair matrix adds n solo runs and
    // n x n co-runs.
    let n = stepwise.profiles.len();
    let runs: usize = stepwise
        .profiles
        .iter()
        .map(|p| 1 + 2 * p.records.len())
        .sum::<usize>()
        + n
        + n * n;
    // Simulated seconds the profiling campaign advanced: each target's
    // solo run and co-runs (endless backgrounds are observed for 60 s).
    let sim_s: f64 = stepwise
        .profiles
        .iter()
        .map(|p| p.solo_runtime + p.records.iter().map(|r| r.runtime + 60.0).sum::<f64>())
        .sum();
    report.push("vmsim.profiler.profile_s", profile_s, "s");
    report.push("vmsim.profiler.pair_matrix_s", pair_s, "s");
    report.push("vmsim.profiler.runs", runs as f64, "count");
    report.push("vmsim.engine.sim_s_per_host_s", sim_s / profile_s, "ratio");

    model_layers(&stepwise, trace, report);
    stepwise
}

/// Training and prediction cost of each model family on the campaign's
/// own data, the scoring policy's construction, and one monitor rebuild.
fn model_layers(tb: &Testbed, trace: &mut Trace, report: &mut Report) {
    let runtime_scale = ResponseScale::for_response(Response::Runtime);
    let kinds: [(ModelKind, &'static str, &'static str); 3] = [
        (
            ModelKind::Wmm,
            "core.model.train_ms_wmm",
            "core.model.predict_ns_wmm",
        ),
        (
            ModelKind::Linear,
            "core.model.train_ms_lm",
            "core.model.predict_ns_lm",
        ),
        (
            ModelKind::Nonlinear,
            "core.model.train_ms_nlm",
            "core.model.predict_ns_nlm",
        ),
    ];
    trace.span("core.model.families", |_| {
        for (kind, train_name, predict_name) in kinds {
            let mut train_ms = Vec::new();
            let mut predict_ns = Vec::new();
            for set in &tb.profiles {
                let data = training_data(set, Response::Runtime);
                let t = Instant::now();
                let model = train_model_scaled(kind, &data, runtime_scale);
                train_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let rounds = 200;
                let t = Instant::now();
                let mut sum = 0.0;
                for _ in 0..rounds {
                    for f in &data.features {
                        sum += model.predict(black_box(f));
                    }
                }
                black_box(sum);
                predict_ns
                    .push(t.elapsed().as_secs_f64() * 1e9 / (rounds * data.features.len()) as f64);
            }
            report.push(train_name, median(&train_ms), "ms");
            report.push(predict_name, median(&predict_ns), "ns");
        }
    });

    // What the first scheduling calls of a run pay: constructing the
    // policy and scoring every application against every neighbour once.
    let ids: Vec<_> = tb.predictor.registry().ids().collect();
    let mut build_us = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let policy = ScoringPolicy::new(&tb.predictor, Objective::MinRuntime);
        let mut sum = 0.0;
        for &a in &ids {
            sum += policy.solo_score(a);
            for &b in &ids {
                sum += policy.pair_score(a, b);
            }
        }
        black_box(sum);
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.push("core.predictor.policy_build_us", median(&build_us), "us");

    // The rebuild the daemon runs inline in `Service::complete`: the
    // model family and monitor settings `tracon serve` defaults to.
    let serve_defaults = tracon_serve::ServeConfig::default();
    let monitor: MonitorConfig = serve_defaults.monitor;
    let mut rebuild_ms = Vec::new();
    for set in &tb.profiles {
        let data = training_data(set, Response::Runtime);
        let mut model =
            AdaptiveModel::new_scaled(serve_defaults.model_kind, runtime_scale, &data, monitor);
        let t = Instant::now();
        model.rebuild();
        rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.push("core.monitor.rebuild_ms", median(&rebuild_ms), "ms");
}
