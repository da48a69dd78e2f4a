//! End-to-end testbed construction: runs the profiling campaign on the
//! virtualized-host simulator, trains the interference models, and
//! packages everything the data-center simulation needs (predictor +
//! measured pair-performance table).
//!
//! Building the full campaign (8 applications x 126 calibration
//! workloads, plus the 8x8 pair matrix) takes a few seconds in release
//! mode; the profiling runs are spread across scoped threads, one per
//! benchmark.

use crate::perf::PerfTable;
use std::collections::HashMap;
use tracon_core::{AppModelSet, AppProfile, Characteristics, ModelKind, Predictor, TrainingData};
use tracon_vmsim::{apps, AppModel, Benchmark, Engine, HostConfig, ProfileSet, Profiler};

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
    /// How many of the 125 calibration workloads to profile against
    /// (stride-sampled; 125 = all).
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

    /// Chooses a different deployed model family.
    pub fn with_model(mut self, kind: ModelKind) -> Self {
        self.model_kind = kind;
        self
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

impl Testbed {
    /// Runs the full profiling campaign and trains the models.
    pub fn build(cfg: &TestbedConfig) -> Self {
        let models: Vec<AppModel> = Benchmark::ALL
            .iter()
            .map(|b| b.model().time_scaled(cfg.time_scale))
            .collect();
        let backgrounds = calibration_workloads(cfg.calibration_points);

        // Profile each benchmark against the calibration grid, one thread
        // per benchmark (the campaign is embarrassingly parallel).
        let profiler = Profiler::new(Engine::new(cfg.host));
        let mut profiles: Vec<Option<ProfileSet>> = (0..models.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, (slot, app)) in profiles.iter_mut().zip(&models).enumerate() {
                let profiler = &profiler;
                let backgrounds = &backgrounds;
                let seed = cfg.seed.wrapping_add(10_000 * (i as u64 + 1));
                scope.spawn(move || {
                    *slot = Some(profiler.profile(app, backgrounds, seed));
                });
            }
        });
        let profiles: Vec<ProfileSet> = profiles.into_iter().map(|p| p.unwrap()).collect();

        // Measure the 8x8 pair matrix the simulator replays.
        let pair = profiler.pair_matrix(&models, cfg.seed.wrapping_add(99));
        let perf = PerfTable::from_pair_matrix(&pair);

        // Train the deployed models and assemble the predictor.
        let mut predictor = Predictor::new();
        let mut app_chars = HashMap::new();
        for set in &profiles {
            let runtime_data = training_data(set, tracon_core::Response::Runtime);
            let iops_data = training_data(set, tracon_core::Response::Iops);
            let runtime = tracon_core::train_model_scaled(
                cfg.model_kind,
                &runtime_data,
                tracon_core::ResponseScale::for_response(tracon_core::Response::Runtime),
            );
            let iops = tracon_core::train_model_scaled(
                cfg.model_kind,
                &iops_data,
                tracon_core::ResponseScale::for_response(tracon_core::Response::Iops),
            );
            let solo = to_characteristics(&set.solo);
            predictor.add_app(
                AppProfile {
                    name: set.target.clone(),
                    solo,
                    solo_runtime: set.solo_runtime,
                    solo_iops: set.solo_iops,
                },
                AppModelSet { runtime, iops },
            );
            app_chars.insert(set.target.clone(), solo);
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

    /// Serializes the measured campaign data (profiles + pair matrix) to
    /// JSON. Models are not serialized — they retrain from the profiles in
    /// milliseconds on [`Testbed::from_snapshot_json`] — so a snapshot
    /// decouples the expensive profiling campaign from everything built
    /// on top of it.
    pub fn snapshot_json(&self) -> String {
        let snap = TestbedSnapshot {
            profiles: self.profiles.clone(),
            perf: self.perf.clone(),
        };
        serde_json::to_string(&snap).expect("testbed snapshot serialization cannot fail")
    }

    /// Rebuilds a testbed from [`Testbed::snapshot_json`] output,
    /// retraining the models with the given family.
    ///
    /// # Errors
    /// Returns a serde error message when the JSON is not a valid
    /// snapshot.
    pub fn from_snapshot_json(json: &str, model_kind: ModelKind) -> Result<Self, String> {
        let snap: TestbedSnapshot = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let mut predictor = Predictor::new();
        let mut app_chars = HashMap::new();
        for set in &snap.profiles {
            let runtime = tracon_core::train_model_scaled(
                model_kind,
                &training_data(set, tracon_core::Response::Runtime),
                tracon_core::ResponseScale::for_response(tracon_core::Response::Runtime),
            );
            let iops = tracon_core::train_model_scaled(
                model_kind,
                &training_data(set, tracon_core::Response::Iops),
                tracon_core::ResponseScale::for_response(tracon_core::Response::Iops),
            );
            let solo = to_characteristics(&set.solo);
            predictor.add_app(
                AppProfile {
                    name: set.target.clone(),
                    solo,
                    solo_runtime: set.solo_runtime,
                    solo_iops: set.solo_iops,
                },
                AppModelSet { runtime, iops },
            );
            app_chars.insert(set.target.clone(), solo);
        }
        Ok(Testbed {
            predictor,
            perf: snap.perf,
            app_chars,
            profiles: snap.profiles,
        })
    }
}

/// Serializable form of a testbed's measured data.
#[derive(serde::Serialize, serde::Deserialize)]
struct TestbedSnapshot {
    profiles: Vec<ProfileSet>,
    perf: PerfTable,
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
        let some = calibration_workloads(30);
        assert!(some.len() >= 25 && some.len() <= 45, "{}", some.len());
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let tb = shared();
        let json = tb.snapshot_json();
        let tb2 = Testbed::from_snapshot_json(&json, ModelKind::Nonlinear).unwrap();
        assert_eq!(tb2.perf.n_apps(), tb.perf.n_apps());
        // Same measured statistics (up to JSON float formatting).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs());
        for a in 0..8 {
            assert!(close(tb2.perf.solo_runtime(a), tb.perf.solo_runtime(a)));
            for b in 0..8 {
                assert!(close(tb2.perf.runtime(a, b), tb.perf.runtime(a, b)));
            }
        }
        // Retrained models agree on predictions.
        let bg = tb.app_chars["video"];
        let p1 = tb.predictor.predict_runtime("dedup", &bg);
        let p2 = tb2.predictor.predict_runtime("dedup", &bg);
        assert!(close(p1, p2), "{p1} vs {p2}");
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(Testbed::from_snapshot_json("{not json", ModelKind::Wmm).is_err());
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
