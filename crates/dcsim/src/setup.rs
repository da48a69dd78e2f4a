//! End-to-end testbed construction: runs the profiling campaign on the
//! virtualized-host simulator, trains the interference models, and
//! packages everything the data-center simulation needs (predictor +
//! measured pair-performance table).
//!
//! The full campaign is 1 205 co-run engine runs: a solo run of each of
//! the 8 applications, one observation of each of the 125 calibration
//! workloads, a co-run of each application against each workload, plus
//! the 8 solo runs and 8x8 co-runs of the pair matrix. No calibration
//! workload has jitter, so no seed moves its observation and every
//! application's record takes the one observation (a jittered background
//! is observed in each record with the record's seed). After the solo
//! profiles and the observations, which every record's features start
//! with, the 1 000 records and then the pair matrix's 72 runs are each a
//! flat list of single-run jobs on `tracon_core::par`'s pool, assembled in
//! input order, so the testbed is the same bits for any worker count.
//! Per-benchmark jobs could not balance: compile's and freqmine's records
//! are about a third of the campaign each. The calling thread then trains
//! the 16 models (about 12 ms). See DESIGN §7 for the measured times.

use crate::perf::PerfTable;
use crate::snapshot;
use std::collections::HashMap;
use tracon_core::{
    par, AppModelSet, AppProfile, Characteristics, ModelKind, Monitor, MonitorConfig, Predictor,
    TrainingData,
};
use tracon_vmsim::{
    apps, AppModel, Benchmark, Engine, HostConfig, PairMatrix, ProfileSet, Profiler,
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

/// The profiling campaign of [`Testbed::build`]: each of `models`
/// profiled against every background (the training sets, in model
/// order), then the pair matrix over `models`. The sets are what
/// [`Profiler::profile`] gives each model with its seed, bit for bit.
fn campaign(
    profiler: &Profiler,
    models: &[AppModel],
    backgrounds: &[AppModel],
    seed: u64,
) -> (Vec<ProfileSet>, PairMatrix) {
    let profile_seed = |i: usize| seed.wrapping_add(10_000 * (i as u64 + 1));
    let record_seed = |i: usize, k: usize| Profiler::record_seed(profile_seed(i), k);
    let (n, nb) = (models.len(), backgrounds.len());

    // Every record's features start with its benchmark's solo profile and
    // its background's, so those runs go first. A background without
    // jitter draws nothing from its seed, so it is observed once, with the
    // first benchmark's record seed, and every benchmark's record takes
    // that observation; a jittered one is observed in each record with the
    // record's own seed.
    let solos = par::map((0..n).collect(), |i| {
        profiler.solo(&models[i], profile_seed(i))
    });
    let observed = par::map((0..nb).collect(), |k| {
        let bg = &backgrounds[k];
        (bg.jitter == 0.0).then(|| profiler.background_profile(bg, record_seed(0, k)))
    });
    // Every other run is independent of the rest: the records, benchmark
    // by benchmark, then the pair matrix's solo runs and co-runs, each a
    // flat list that the pool hands out in order and returns in order.
    let mut records = par::map((0..n * nb).collect(), |r| {
        let (i, k) = (r / nb, r % nb);
        let (bg, seed) = (&backgrounds[k], record_seed(i, k));
        let bg_profile = observed[k].unwrap_or_else(|| profiler.background_profile(bg, seed));
        profiler.record(&models[i], &solos[i].0, bg, &bg_profile, seed)
    })
    .into_iter();
    let cells = (0..n)
        .map(|i| (i, None))
        .chain((0..n * n).map(|c| (c / n, Some(c % n))));
    let pair_runs = par::map(cells.collect(), |(i, j)| {
        profiler.pair_run(models, i, j, seed.wrapping_add(99))
    });

    let sets = solos
        .into_iter()
        .zip(models)
        .map(|((solo, solo_runtime, solo_iops), app)| ProfileSet {
            target: app.name.clone(),
            solo,
            solo_runtime,
            solo_iops,
            records: records.by_ref().take(nb).collect(),
        })
        .collect();
    (sets, PairMatrix::from_runs(models, &pair_runs))
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
        let (sets, pair) = campaign(&profiler, &models, &backgrounds, cfg.seed);

        // Training stays on this thread, after the pool's results are
        // unpacked and freed: trained in the workers, each thread's
        // allocator arena would keep its own training working set.
        Self::assemble(sets, PerfTable::from_pair_matrix(&pair), cfg.model_kind)
    }

    /// Packages the profile sets and the pair table, with `model_kind`
    /// models trained on the profiles.
    fn assemble(profiles: Vec<ProfileSet>, perf: PerfTable, model_kind: ModelKind) -> Self {
        let app_chars = profiles
            .iter()
            .map(|set| (set.target.clone(), to_characteristics(&set.solo)))
            .collect();
        let mut testbed = Testbed {
            predictor: Predictor::new(),
            perf,
            app_chars,
            profiles,
        };
        testbed.predictor = testbed.train_predictor(model_kind);
        testbed
    }

    /// A prediction module over this testbed's profiles: each
    /// application's runtime and IOPS models trained with `kind`,
    /// registered in profile order. The deployed predictor is this with
    /// the testbed's own family; the Fig 4 comparison trains the others
    /// without re-running the profiling campaign.
    pub fn train_predictor(&self, kind: ModelKind) -> Predictor {
        let mut predictor = Predictor::new();
        for set in &self.profiles {
            let model = |response| {
                tracon_core::train_model_scaled(
                    kind,
                    &training_data(set, response),
                    tracon_core::ResponseScale::for_response(response),
                )
            };
            let models = AppModelSet {
                runtime: model(tracon_core::Response::Runtime),
                iops: model(tracon_core::Response::Iops),
            };
            let profile = AppProfile {
                name: set.target.clone(),
                solo: to_characteristics(&set.solo),
                solo_runtime: set.solo_runtime,
                solo_iops: set.solo_iops,
            };
            predictor.add_app(profile, models);
        }
        predictor
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
        Ok(Self::assemble(profiles, perf, model_kind))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tracon_vmsim::apps::{calc, seq_read};
    use tracon_vmsim::ProfileRecord;

    /// The small testbed is expensive enough that the test suite builds
    /// it once and shares it.
    pub(crate) fn shared() -> &'static Testbed {
        static TB: OnceLock<Testbed> = OnceLock::new();
        TB.get_or_init(|| Testbed::build(&TestbedConfig::small()))
    }

    /// A background without jitter is observed once for every benchmark
    /// and a jittered one once per record, with the record's seed, so
    /// its observations differ between two benchmarks' records. Either
    /// way each set is what `Profiler::profile` gives, bit for bit.
    #[test]
    fn campaign_observes_a_jittered_background_once_per_record() {
        let profiler = Profiler::new(Engine::new(HostConfig::testbed()));
        let models = [calc(), seq_read()].map(|app| app.time_scaled(0.05));
        let plain = apps::synthetic(0.5, 0.5, 0.5);
        let backgrounds = [plain.clone(), plain.with_jitter(0.2)];
        let seed = 7;
        let (sets, _) = campaign(&profiler, &models, &backgrounds, seed);
        let observed = |set: &ProfileSet, k: usize| set.records[k].features[4..].to_vec();
        assert_eq!(observed(&sets[0], 0), observed(&sets[1], 0));
        assert_ne!(observed(&sets[0], 1), observed(&sets[1], 1));
        let bits = |r: &ProfileRecord| {
            let fields = r.features.iter().chain(&r.background_observed);
            let mut bits: Vec<u64> = fields.map(|x| x.to_bits()).collect();
            bits.extend([r.runtime.to_bits(), r.iops.to_bits()]);
            bits
        };
        for (i, set) in sets.iter().enumerate() {
            let profile_seed = seed.wrapping_add(10_000 * (i as u64 + 1));
            let reference = profiler.profile(&models[i], &backgrounds, profile_seed);
            for (got, want) in set.records.iter().zip(&reference.records) {
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{} vs {}",
                    got.target,
                    got.background
                );
            }
        }
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
    fn train_predictor_trains_every_family_and_redeploys_the_same_bits() {
        let tb = shared();
        let neighbour = tb.app_chars["video"];
        for kind in [ModelKind::Wmm, ModelKind::Linear, ModelKind::Nonlinear] {
            let p = tb.train_predictor(kind);
            for b in Benchmark::ALL {
                let rt = p.predict_runtime(b.name(), &neighbour);
                assert!(rt.is_finite() && rt > 0.0, "{kind:?} {}: {rt}", b.name());
            }
        }
        // The testbed's own family retrains the deployed predictor.
        let again = tb.train_predictor(ModelKind::Nonlinear);
        for b in Benchmark::ALL {
            assert_eq!(
                again.predict_runtime(b.name(), &neighbour).to_bits(),
                tb.predictor.predict_runtime(b.name(), &neighbour).to_bits()
            );
        }
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
