//! Interference profiling: runs a target application against a set of
//! background workloads and records the model training data (features and
//! responses), plus the pairwise benchmark interference matrix the
//! data-center simulator replays.

use crate::app::AppModel;
use crate::engine::{CoRunOutcome, Engine, VmObservation};

/// One profiled observation: the features TRACON's models consume and the
/// measured responses.
#[derive(Debug, Clone)]
pub struct ProfileRecord {
    /// Name of the target application (runs in VM1).
    pub target: String,
    /// Name of the background workload (runs in VM2).
    pub background: String,
    /// Model features: the target's solo-profile characteristics followed
    /// by the background's solo-profile characteristics —
    /// `[r1, w1, c1, d1, r2, w2, c2, d2]`. Profiles (rather than co-run
    /// throttled observations) keep training and prediction queries in
    /// the same feature distribution: the scheduler scores a candidate
    /// pairing from the two applications' stored profiles (paper Fig 2:
    /// the prediction module consumes "the application profiles and the
    /// machine status").
    pub features: [f64; 8],
    /// The background's characteristics as actually observed during this
    /// co-run (kept for diagnostics and the monitor experiments).
    pub background_observed: [f64; 4],
    /// Measured runtime of the target under this interference, seconds.
    pub runtime: f64,
    /// Measured average IOPS of the target under this interference.
    pub iops: f64,
}

impl ProfileRecord {
    /// The feature vector as a `Vec` (for the model-fitting APIs).
    pub fn features_vec(&self) -> Vec<f64> {
        self.features.to_vec()
    }
}

/// A complete training set for one target application.
#[derive(Debug, Clone)]
pub struct ProfileSet {
    /// Target application name.
    pub target: String,
    /// The target's solo characteristics (profile stored by TRACON).
    pub solo: VmObservation,
    /// The target's solo runtime, seconds.
    pub solo_runtime: f64,
    /// The target's solo IOPS.
    pub solo_iops: f64,
    /// One record per background workload.
    pub records: Vec<ProfileRecord>,
}

impl ProfileSet {
    /// Feature rows for model fitting.
    pub fn feature_rows(&self) -> Vec<Vec<f64>> {
        self.records.iter().map(|r| r.features_vec()).collect()
    }

    /// Runtime responses aligned with [`ProfileSet::feature_rows`].
    pub fn runtimes(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.runtime).collect()
    }

    /// IOPS responses aligned with [`ProfileSet::feature_rows`].
    pub fn iops(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.iops).collect()
    }
}

/// The measured pairwise interference matrix over a benchmark suite:
/// steady-state runtime and IOPS of each application when co-located with
/// each possible neighbour (or an idle VM). The data-center simulator
/// replays these measurements, exactly as the paper's simulator replays
/// its testbed measurements.
#[derive(Debug, Clone)]
pub struct PairMatrix {
    /// Application names, indexed by the matrix axes.
    pub names: Vec<String>,
    /// Solo runtime per application, seconds.
    pub solo_runtime: Vec<f64>,
    /// Solo IOPS per application.
    pub solo_iops: Vec<f64>,
    /// Solo characteristics per application.
    pub solo_obs: Vec<VmObservation>,
    /// `runtime[i][j]`: steady-state runtime of app `i` co-located with a
    /// continuously-running app `j`.
    pub runtime: Vec<Vec<f64>>,
    /// `iops[i][j]`: steady-state IOPS of app `i` co-located with app `j`.
    pub iops: Vec<Vec<f64>>,
    /// `observed[i][j]`: characteristics of app `i` while co-located with
    /// app `j`.
    pub observed: Vec<Vec<VmObservation>>,
}

impl PairMatrix {
    /// Number of applications covered.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the matrix covers no applications.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Progress-rate factor of app `i` when co-located with app `j`
    /// (1.0 = no interference, 0.1 = ten times slower).
    pub fn rate_factor(&self, i: usize, j: usize) -> f64 {
        self.solo_runtime[i] / self.runtime[i][j]
    }

    /// Slowdown of app `i` under neighbour `j` relative to running alone.
    pub fn slowdown(&self, i: usize, j: usize) -> f64 {
        self.runtime[i][j] / self.solo_runtime[i]
    }

    /// Index of an application by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// The profiling harness around a co-run engine.
#[derive(Debug, Clone)]
pub struct Profiler {
    engine: Engine,
}

impl Profiler {
    /// Creates a profiler over the given engine.
    pub fn new(engine: Engine) -> Self {
        Profiler { engine }
    }

    /// Borrow the underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs the target alone and returns `(observation, runtime, iops)`.
    pub fn solo(&self, target: &AppModel, seed: u64) -> (VmObservation, f64, f64) {
        let out = self.engine.solo_run(target, seed);
        (out.observed[0], out.runtime[0], out.iops[0])
    }

    /// Measures the solo-profile characteristics of a background
    /// workload (endless backgrounds are observed for a fixed window).
    pub fn background_profile(&self, bg: &AppModel, seed: u64) -> VmObservation {
        if bg.endless {
            self.engine.observe_endless(bg, 60.0, seed)
        } else {
            self.engine.solo_run(bg, seed).observed[0]
        }
    }

    /// Profiles `target` against every background workload, producing a
    /// training set. Backgrounds must be endless (the synthetic
    /// calibration workloads are); finite backgrounds are converted with
    /// [`AppModel::as_endless`] so the measurement captures steady-state
    /// interference.
    pub fn profile(
        &self,
        target: &AppModel,
        backgrounds: &[AppModel],
        base_seed: u64,
    ) -> ProfileSet {
        let (solo, solo_runtime, solo_iops) = self.solo(target, base_seed);
        let mut records = Vec::with_capacity(backgrounds.len());
        for (k, bg) in backgrounds.iter().enumerate() {
            let seed = base_seed.wrapping_add(k as u64 + 1);
            let bg_profile = self.background_profile(bg, seed);
            let bg_run = if bg.endless {
                bg.clone()
            } else {
                bg.as_endless()
            };
            let out = self.engine.co_run(target, &bg_run, seed);
            records.push(Self::record_from(target, bg, &solo, &bg_profile, &out));
        }
        ProfileSet {
            target: target.name.clone(),
            solo,
            solo_runtime,
            solo_iops,
            records,
        }
    }

    fn record_from(
        target: &AppModel,
        bg: &AppModel,
        solo: &VmObservation,
        bg_profile: &VmObservation,
        out: &CoRunOutcome,
    ) -> ProfileRecord {
        let observed = out.observed[1];
        ProfileRecord {
            target: target.name.clone(),
            background: bg.name.clone(),
            features: [
                solo.read_rps,
                solo.write_rps,
                solo.cpu_util,
                solo.dom0_util,
                bg_profile.read_rps,
                bg_profile.write_rps,
                bg_profile.cpu_util,
                bg_profile.dom0_util,
            ],
            background_observed: observed.as_features(),
            runtime: out.runtime[0],
            iops: out.iops[0],
        }
    }

    /// Profiles the target against a single background, returning the
    /// joint feature vector and the measured `(runtime, iops)` responses.
    /// `solo` is the target's stored solo profile (measure it once with
    /// [`Profiler::solo`]). Used by the online-learning experiments that
    /// stream observations one at a time.
    pub fn profile_one(
        &self,
        target: &AppModel,
        solo: &VmObservation,
        bg: &AppModel,
        seed: u64,
    ) -> ([f64; 8], f64, f64) {
        let bg_profile = self.background_profile(bg, seed);
        let bg_run = if bg.endless {
            bg.clone()
        } else {
            bg.as_endless()
        };
        let out = self.engine.co_run(target, &bg_run, seed);
        let record = Self::record_from(target, bg, solo, &bg_profile, &out);
        (record.features, record.runtime, record.iops)
    }

    /// Measures the full pairwise interference matrix over `apps`. Entry
    /// `(i, j)` runs app `i` to completion against an endless loop of app
    /// `j`, capturing the steady-state co-located performance the
    /// data-center simulator replays.
    pub fn pair_matrix(&self, apps: &[AppModel], base_seed: u64) -> PairMatrix {
        let n = apps.len();
        let mut names = Vec::with_capacity(n);
        let mut solo_runtime = Vec::with_capacity(n);
        let mut solo_iops = Vec::with_capacity(n);
        let mut solo_obs = Vec::with_capacity(n);
        for (i, a) in apps.iter().enumerate() {
            let (obs, rt, io) = self.solo(a, base_seed.wrapping_add(i as u64));
            names.push(a.name.clone());
            solo_runtime.push(rt);
            solo_iops.push(io);
            solo_obs.push(obs);
        }
        let mut runtime = vec![vec![0.0; n]; n];
        let mut iops = vec![vec![0.0; n]; n];
        let mut observed = vec![vec![VmObservation::default(); n]; n];
        for i in 0..n {
            for j in 0..n {
                let seed = base_seed.wrapping_add(1000 + (i * n + j) as u64);
                let out = self.engine.co_run(&apps[i], &apps[j].as_endless(), seed);
                runtime[i][j] = out.runtime[0];
                iops[i][j] = out.iops[0];
                observed[i][j] = out.observed[0];
            }
        }
        PairMatrix {
            names,
            solo_runtime,
            solo_iops,
            solo_obs,
            runtime,
            iops,
            observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::config::HostConfig;

    fn profiler() -> Profiler {
        Profiler::new(Engine::new(HostConfig::testbed()))
    }

    #[test]
    fn solo_profile_of_seqread() {
        let p = profiler();
        let (obs, rt, iops) = p.solo(&apps::seq_read(), 1);
        assert!(rt > 250.0 && rt < 350.0);
        assert!(iops > 200.0);
        assert!(obs.read_rps > 200.0);
        assert!(obs.write_rps < 1.0);
    }

    #[test]
    fn profile_against_small_grid() {
        let p = profiler();
        let target = apps::seq_read().time_scaled(0.2);
        let bgs = vec![
            apps::synthetic(0.0, 0.0, 0.0),
            apps::synthetic(1.0, 0.0, 0.0),
            apps::synthetic(0.0, 1.0, 1.0),
        ];
        let set = p.profile(&target, &bgs, 7);
        assert_eq!(set.records.len(), 3);
        // Idle background: runtime near solo. I/O heavy: much slower.
        let idle_rt = set.records[0].runtime;
        let io_rt = set.records[2].runtime;
        assert!(io_rt > 3.0 * idle_rt, "idle={idle_rt} io={io_rt}");
        // Features: first four entries equal the solo characteristics.
        assert!((set.records[1].features[0] - set.solo.read_rps).abs() < 1e-9);
        // Background characteristics differ across backgrounds.
        assert!(set.records[1].features[6] > set.records[0].features[6]);
    }

    #[test]
    fn pair_matrix_structure() {
        let p = profiler();
        // Two cheap apps for speed.
        let a = apps::calc().time_scaled(0.1);
        let b = apps::seq_read().time_scaled(0.1);
        let m = p.pair_matrix(&[a, b], 3);
        assert_eq!(m.len(), 2);
        // calc vs calc doubles; seqread vs seqread collapses much harder.
        assert!(
            (1.8..2.2).contains(&m.slowdown(0, 0)),
            "calc slowdown {}",
            m.slowdown(0, 0)
        );
        assert!(
            m.slowdown(1, 1) > 5.0,
            "seqread slowdown {}",
            m.slowdown(1, 1)
        );
        // rate_factor is the reciprocal view.
        let rf = m.rate_factor(1, 1);
        assert!((rf * m.slowdown(1, 1) - 1.0).abs() < 1e-9);
        assert_eq!(m.index_of("calc"), Some(0));
        assert_eq!(m.index_of("nope"), None);
    }
}
