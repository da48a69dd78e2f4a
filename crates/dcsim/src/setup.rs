//! End-to-end testbed construction: runs the profiling campaign on the
//! virtualized-host simulator, trains the interference models, and
//! packages everything the data-center simulation needs (predictor +
//! measured pair-performance table).
//!
//! The full campaign is 2 080 co-run engine runs: for each of the 8
//! applications a solo run, then a background observation and a co-run
//! against each of the 125 calibration workloads, plus the 8 solo runs
//! and 8x8 co-runs of the pair matrix. After the 8 solo profiles, which
//! every record's features start with, the other 1 072 jobs (one record
//! or one pair-matrix run each) are a flat list on `tracon_core::par`'s
//! pool, assembled in input order, so the testbed is the same bits for any
//! worker count. Per-benchmark jobs could not balance: compile's and
//! freqmine's records are about a third of the campaign each. The calling
//! thread then trains the 16 models (about 12 ms). See DESIGN §7 for the
//! measured times.

use crate::perf::PerfTable;
use crate::snapshot;
use std::collections::HashMap;
use tracon_core::{
    par, AppModelSet, AppProfile, Characteristics, ModelKind, Monitor, MonitorConfig, Predictor,
    TrainingData,
};
use tracon_vmsim::{
    apps, AppModel, Benchmark, Engine, HostConfig, PairMatrix, PairRun, ProfileRecord, ProfileSet,
    Profiler,
};

/// Configuration of the testbed construction.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Host configuration for the profiling runs.
    pub host: HostConfig,
    /// Time-scale applied to every benchmark (1.0 = full length; tests
    /// use ~0.05 for speed — interference ratios are scale-invariant).
    pub time_scale: f64,
    /// Model family used for the deployed predictor.
    pub model_kind: ModelKind,
    /// Sets the stride through the 125 calibration workloads: every
    /// `ceil(125 / calibration_points)`-th one is profiled against, so
    /// the count can fall short of this number (45 gives 42, 30 gives 25;
    /// 125 or more = all).
    pub calibration_points: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl TestbedConfig {
    /// Full-fidelity campaign (experiments).
    pub fn full() -> Self {
        TestbedConfig {
            host: HostConfig::testbed(),
            time_scale: 1.0,
            model_kind: ModelKind::Nonlinear,
            calibration_points: 125,
            seed: 0x7EAC0,
        }
    }

    /// Reduced campaign for fast tests: shortened benchmarks and a
    /// stride-sampled calibration grid.
    pub fn small() -> Self {
        TestbedConfig {
            host: HostConfig::testbed(),
            time_scale: 0.08,
            model_kind: ModelKind::Nonlinear,
            calibration_points: 30,
            seed: 0x7EAC0,
        }
    }
}

/// Everything the data-center simulation needs.
pub struct Testbed {
    /// The prediction module (profiles + trained models per application).
    pub predictor: Predictor,
    /// The measured pair-performance statistics the simulator replays.
    pub perf: PerfTable,
    /// Canonical monitor characteristics per application (solo profile).
    pub app_chars: HashMap<String, Characteristics>,
    /// Raw profiling sets (kept for the model-accuracy experiments).
    pub profiles: Vec<ProfileSet>,
}

fn to_characteristics(o: &tracon_vmsim::VmObservation) -> Characteristics {
    Characteristics::new(o.read_rps, o.write_rps, o.cpu_util, o.dom0_util)
}

/// Converts a vmsim profile set into core training data for a response.
pub fn training_data(set: &ProfileSet, response: tracon_core::Response) -> TrainingData {
    let mut data = TrainingData::default();
    for r in &set.records {
        let y = match response {
            tracon_core::Response::Runtime => r.runtime,
            tracon_core::Response::Iops => r.iops,
        };
        data.push(r.features, y);
    }
    data
}

/// Builds the stride-sampled calibration workload list.
pub fn calibration_workloads(points: usize) -> Vec<AppModel> {
    let grid = apps::calibration_grid();
    if points >= grid.len() {
        return grid;
    }
    let stride = (grid.len() as f64 / points as f64).ceil() as usize;
    grid.into_iter().step_by(stride.max(1)).collect()
}

/// The deployed runtime and IOPS models of one application, trained on
/// its profile set.
fn train_models(set: &ProfileSet, model_kind: ModelKind) -> AppModelSet {
    let model = |response| {
        tracon_core::train_model_scaled(
            model_kind,
            &training_data(set, response),
            tracon_core::ResponseScale::for_response(response),
        )
    };
    AppModelSet {
        runtime: model(tracon_core::Response::Runtime),
        iops: model(tracon_core::Response::Iops),
    }
}

/// One run of the profiling campaign after the solo profiles: benchmark
/// `i`'s record against background `k`, or the pair matrix's run of
/// benchmark `i` alone (`None`) or against `j`.
enum Job {
    Record(usize, usize),
    Pair(usize, Option<usize>),
}

/// What a [`Job`] measured: only what its record or matrix entry keeps.
enum Run {
    Record(ProfileRecord),
    Pair(PairRun),
}

impl Run {
    fn into_record(self) -> ProfileRecord {
        match self {
            Run::Record(r) => r,
            Run::Pair(_) => unreachable!("the records come first"),
        }
    }

    fn into_pair(self) -> PairRun {
        match self {
            Run::Pair(r) => r,
            Run::Record(_) => unreachable!("the pair matrix's runs come last"),
        }
    }
}

impl Testbed {
    /// Runs the full profiling campaign and trains the models.
    pub fn build(cfg: &TestbedConfig) -> Self {
        let models: Vec<AppModel> = Benchmark::ALL
            .iter()
            .map(|b| b.model().time_scaled(cfg.time_scale))
            .collect();
        let backgrounds = calibration_workloads(cfg.calibration_points);
        let profiler = Profiler::new(Engine::new(cfg.host));
        let profile_seed = |i: usize| cfg.seed.wrapping_add(10_000 * (i as u64 + 1));
        let pair_seed = cfg.seed.wrapping_add(99);
        let (n, nb) = (models.len(), backgrounds.len());

        // Every record's features start with its benchmark's solo
        // profile, so those eight runs go first. Every other run is
        // independent of the rest: the records, benchmark by benchmark,
        // then the pair matrix's solo runs and co-runs, in one flat list
        // that the pool hands out in order and returns in order.
        let solos = par::map((0..n).collect(), |i| {
            profiler.solo(&models[i], profile_seed(i))
        });
        let jobs = (0..n * nb)
            .map(|r| Job::Record(r / nb, r % nb))
            .chain((0..n).map(|i| Job::Pair(i, None)))
            .chain((0..n * n).map(|c| Job::Pair(c / n, Some(c % n))));
        let mut done = par::map(jobs.collect(), |job| match job {
            Job::Record(i, k) => {
                let seed = Profiler::record_seed(profile_seed(i), k);
                Run::Record(profiler.record(&models[i], &solos[i].0, &backgrounds[k], seed))
            }
            Job::Pair(i, j) => Run::Pair(profiler.pair_run(&models, i, j, pair_seed)),
        })
        .into_iter();

        let sets: Vec<ProfileSet> = solos
            .into_iter()
            .zip(&models)
            .map(|((solo, solo_runtime, solo_iops), app)| ProfileSet {
                target: app.name.clone(),
                solo,
                solo_runtime,
                solo_iops,
                records: done.by_ref().take(nb).map(Run::into_record).collect(),
            })
            .collect();
        let pair_runs: Vec<PairRun> = done.map(Run::into_pair).collect();
        let pair = PairMatrix::from_runs(&models, &pair_runs);
        drop(pair_runs);

        // Training stays on this thread, after the pool's results are
        // unpacked and freed: trained in the workers, each thread's
        // allocator arena would keep its own training working set.
        let trained = sets
            .into_iter()
            .map(|set| {
                let models = train_models(&set, cfg.model_kind);
                (set, models)
            })
            .collect();
        Self::assemble(trained, PerfTable::from_pair_matrix(&pair))
    }

    /// Assembles the predictor around each application's profile set and
    /// trained models, registering them in the order given.
    fn assemble(trained: Vec<(ProfileSet, AppModelSet)>, perf: PerfTable) -> Self {
        let mut predictor = Predictor::new();
        let mut app_chars = HashMap::new();
        let mut profiles = Vec::with_capacity(trained.len());
        for (set, models) in trained {
            let solo = to_characteristics(&set.solo);
            predictor.add_app(
                AppProfile {
                    name: set.target.clone(),
                    solo,
                    solo_runtime: set.solo_runtime,
                    solo_iops: set.solo_iops,
                },
                models,
            );
            app_chars.insert(set.target.clone(), solo);
            profiles.push(set);
        }
        Testbed {
            predictor,
            perf,
            app_chars,
            profiles,
        }
    }

    /// Application names in pair-table index order.
    pub fn app_names(&self) -> &[String] {
        &self.perf.names
    }

    /// TRACON's monitor over this testbed's applications: `kind` models
    /// rebuilt online, each app's windows seeded with its profiling data.
    pub fn monitor(&self, kind: ModelKind, cfg: MonitorConfig) -> Monitor {
        let seed = |response| -> Vec<TrainingData> {
            self.profiles
                .iter()
                .map(|set| training_data(set, response))
                .collect()
        };
        Monitor::new(
            &self.predictor,
            self.app_names(),
            kind,
            &seed(tracon_core::Response::Runtime),
            &seed(tracon_core::Response::Iops),
            cfg,
        )
    }

    /// Serializes the measured campaign data (profiles + pair matrix) to
    /// JSON. Models are not serialized — they retrain from the profiles in
    /// milliseconds on [`Testbed::from_snapshot_json`] — so a snapshot
    /// decouples the expensive profiling campaign from everything built
    /// on top of it.
    pub fn snapshot_json(&self) -> String {
        snapshot::encode(&self.profiles, &self.perf)
    }

    /// Rebuilds a testbed from [`Testbed::snapshot_json`] output,
    /// retraining the models with the given family.
    ///
    /// # Errors
    /// Names the offending field when `json` is not a valid snapshot:
    /// not JSON, a missing or ill-typed field, an array of the wrong
    /// length, or a `null` where a statistic belongs.
    pub fn from_snapshot_json(json: &str, model_kind: ModelKind) -> Result<Self, String> {
        let (profiles, perf) = snapshot::decode(json)?;
        let trained = profiles
            .into_iter()
            .map(|set| {
                let models = train_models(&set, model_kind);
                (set, models)
            })
            .collect();
        Ok(Self::assemble(trained, perf))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The small testbed is expensive enough that the test suite builds
    /// it once and shares it.
    pub(crate) fn shared() -> &'static Testbed {
        static TB: OnceLock<Testbed> = OnceLock::new();
        TB.get_or_init(|| Testbed::build(&TestbedConfig::small()))
    }

    #[test]
    fn builds_with_all_apps() {
        let tb = shared();
        assert_eq!(tb.perf.n_apps(), 8);
        assert_eq!(tb.profiles.len(), 8);
        for b in Benchmark::ALL {
            assert!(tb.predictor.knows(b.name()), "missing {}", b.name());
        }
    }

    #[test]
    fn pair_table_shows_io_interference() {
        let tb = shared();
        let pos = |n: &str| tb.perf.names.iter().position(|x| x == n).unwrap();
        let (video, email) = (pos("video"), pos("email"));
        // Two I/O-heavy apps hurt each other far more than an I/O-heavy
        // app paired with a light one.
        assert!(
            tb.perf.slowdown(video, video) > 1.5 * tb.perf.slowdown(video, email),
            "video|video {} vs video|email {}",
            tb.perf.slowdown(video, video),
            tb.perf.slowdown(video, email)
        );
    }

    #[test]
    fn predictor_orders_neighbours_sensibly() {
        let tb = shared();
        let video_chars = tb.app_chars["video"];
        let email_chars = tb.app_chars["email"];
        let rt_heavy = tb.predictor.predict_runtime("dedup", &video_chars);
        let rt_light = tb.predictor.predict_runtime("dedup", &email_chars);
        assert!(
            rt_heavy > rt_light,
            "dedup next to video ({rt_heavy}) should be slower than next to email ({rt_light})"
        );
    }

    #[test]
    fn calibration_sampling_strides() {
        assert_eq!(calibration_workloads(125).len(), 125);
        // Every third and every fifth workload: fewer than asked for.
        assert_eq!(calibration_workloads(45).len(), 42);
        assert_eq!(calibration_workloads(30).len(), 25);
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let tb = shared();
        let json = tb.snapshot_json();
        let tb2 = Testbed::from_snapshot_json(&json, ModelKind::Nonlinear).unwrap();
        assert_eq!(tb2.perf.names, tb.perf.names);
        // The same measured statistics to the bit: `{}` of an `f64`
        // prints the shortest digits that parse back to it.
        let same = |a: f64, b: f64| assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        for a in 0..8 {
            same(tb2.perf.solo_runtime(a), tb.perf.solo_runtime(a));
            same(tb2.perf.solo_iops(a), tb.perf.solo_iops(a));
            for b in 0..8 {
                same(tb2.perf.runtime(a, b), tb.perf.runtime(a, b));
                same(tb2.perf.iops(a, b), tb.perf.iops(a, b));
            }
        }
        // Models retrained on identical data predict identically.
        let bg = tb.app_chars["video"];
        same(
            tb2.predictor.predict_runtime("dedup", &bg),
            tb.predictor.predict_runtime("dedup", &bg),
        );
        assert_eq!(tb2.snapshot_json(), json);
    }

    /// Two applications as `tracon profile` wrote them while the
    /// snapshot came from derive-generated code: floats always carry a
    /// fraction or exponent, and `perf` ends in the redundant `id_index`.
    const DERIVED_ERA_SNAPSHOT: &str = r#"{"profiles":[
      {"target":"io","solo":{"read_rps":200.0,"write_rps":50.0,"cpu_util":0.3,"dom0_util":0.12},
       "solo_runtime":100.0,"solo_iops":250.0,"records":[
        {"target":"io","background":"cpu","features":[200.0,50.0,0.3,0.12,1.0,0.5,0.9,0.01],
         "background_observed":[1.0,0.5,0.88,0.01],"runtime":120.0,"iops":170.5},
        {"target":"io","background":"io","features":[200.0,50.0,0.3,0.12,200.0,50.0,0.3,0.12],
         "background_observed":[61.5,12.25,0.2,0.05],"runtime":800.0,"iops":25.0}]},
      {"target":"cpu","solo":{"read_rps":1.0,"write_rps":0.5,"cpu_util":0.9,"dom0_util":0.01},
       "solo_runtime":90.0,"solo_iops":1.5,"records":[
        {"target":"cpu","background":"io","features":[1.0,0.5,0.9,0.01,200.0,50.0,0.3,0.12],
         "background_observed":[180.0,45.0,0.28,0.11],"runtime":95.0,"iops":1.4},
        {"target":"cpu","background":"cpu","features":[1.0,0.5,0.9,0.01,1.0,0.5,0.9,0.01],
         "background_observed":[0.5,0.25,0.5,0.005],"runtime":180.0,"iops":7e-1}]}],
     "perf":{"names":["io","cpu"],"solo_runtime":[100.0,90.0],"solo_iops":[250.0,1.5],
      "runtime":[800.0,120.0,95.0,180.0],"iops":[25.0,170.5,1.4,0.7],"id_index":[1,0]}}"#;

    #[test]
    fn snapshot_from_the_derive_generated_writer_still_loads() {
        let tb = Testbed::from_snapshot_json(DERIVED_ERA_SNAPSHOT, ModelKind::Wmm).unwrap();
        assert_eq!(tb.perf.names, ["io", "cpu"]);
        assert_eq!(tb.perf.runtime(0, 0), 800.0);
        assert_eq!(tb.perf.iops(1, 1), 0.7);
        // `id_index` is recomputed, not read: "cpu" sorts first.
        let ids = tracon_core::AppRegistry::from_names(tb.perf.names.iter().cloned());
        assert_eq!(tb.perf.index_of_id(ids.expect_id("cpu")), 1);
        assert_eq!(tb.profiles[1].records[0].background_observed[0], 180.0);
        assert!(tb.predictor.knows("io") && tb.predictor.knows("cpu"));
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let reject = |doc: &str, field: &str| {
            let err = Testbed::from_snapshot_json(doc, ModelKind::Wmm)
                .err()
                .unwrap_or_else(|| panic!("accepted a snapshot with a bad {field}"));
            assert!(err.contains(field), "error for {field} reads: {err}");
        };
        reject("{not json", "not JSON");
        reject("[]", "profiles");
        reject(r#"{"profiles":[]}"#, "perf");
        // (text of the good document, its replacement, the field the error names)
        #[rustfmt::skip]
        let edits = [
            (r#""solo_iops":250.0,"#, "", "profiles[0].solo_iops"),
            (r#""target":"cpu","solo""#, r#""target":7,"solo""#, "profiles[1].target"),
            (r#""dom0_util":0.12}"#, r#""dom0_util":"x"}"#, "profiles[0].solo.dom0_util"),
            ("0.9,0.01],", "0.9],", "profiles[0].records[0].features"),
            ("[61.5,", "[0.0,61.5,", "profiles[0].records[1].background_observed"),
            (r#""runtime":95.0"#, r#""runtime":null"#, "profiles[1].records[0].runtime"),
            (r#""records":["#, r#""records":[],"was":["#, "profiles[0].records"),
            (r#"["io","cpu"]"#, r#"["io","cpu","net"]"#, "perf.solo_runtime"),
            ("[250.0,1.5]", "[250.0]", "perf.solo_iops"),
            ("[800.0,120.0,95.0,180.0]", "[800.0,120.0,95.0]", "perf.runtime"),
            ("[25.0,170.5,1.4,0.7]", "[25.0,null,1.4,0.7]", "perf.iops"),
        ];
        for (from, to, field) in edits {
            assert!(DERIVED_ERA_SNAPSHOT.contains(from), "{from}");
            reject(&DERIVED_ERA_SNAPSHOT.replacen(from, to, 1), field);
        }
    }

    #[test]
    fn training_data_extraction() {
        let tb = shared();
        let set = &tb.profiles[0];
        let rt = training_data(set, tracon_core::Response::Runtime);
        let io = training_data(set, tracon_core::Response::Iops);
        assert_eq!(rt.len(), set.records.len());
        assert_eq!(io.len(), set.records.len());
        assert!(rt.responses.iter().all(|&y| y > 0.0));
    }
}
