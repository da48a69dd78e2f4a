//! Interference profiling: runs a target application against a set of
//! background workloads and records the model training data (features and
//! responses), plus the pairwise benchmark interference matrix the
//! data-center simulator replays.

use crate::app::AppModel;
use crate::engine::{Engine, VmObservation};

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
}

/// What one run of the pair matrix measures of its first application.
#[derive(Debug, Clone, Copy)]
pub struct PairRun {
    /// Runtime, seconds.
    pub runtime: f64,
    /// Average IOPS.
    pub iops: f64,
    /// Observed characteristics.
    pub observed: VmObservation,
}

impl PairMatrix {
    /// Assembles the matrix over `apps` from its runs: each app's solo
    /// run, in app order, then the co-runs in row-major order (app `i`
    /// against `j` at `n + i * n + j`).
    ///
    /// # Panics
    /// Panics unless there are `n` solo runs and `n * n` co-runs.
    pub fn from_runs(apps: &[AppModel], runs: &[PairRun]) -> Self {
        let n = apps.len();
        assert_eq!(
            runs.len(),
            n + n * n,
            "one solo run per application and one co-run per ordered pair"
        );
        let (solos, cells) = runs.split_at(n);
        fn rows<T>(cells: &[PairRun], n: usize, f: impl Fn(&PairRun) -> T) -> Vec<Vec<T>> {
            cells
                .chunks(n.max(1))
                .map(|row| row.iter().map(&f).collect())
                .collect()
        }
        PairMatrix {
            names: apps.iter().map(|a| a.name.clone()).collect(),
            solo_runtime: solos.iter().map(|r| r.runtime).collect(),
            solo_iops: solos.iter().map(|r| r.iops).collect(),
            solo_obs: solos.iter().map(|r| r.observed).collect(),
            runtime: rows(cells, n, |r| r.runtime),
            iops: rows(cells, n, |r| r.iops),
            observed: rows(cells, n, |r| r.observed),
        }
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
    /// The seed moves the result only through the background's jitter:
    /// without jitter every seed gives the same bits.
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
    /// interference. The solo run takes `base_seed` and background `k`
    /// [`Profiler::record_seed`]`(base_seed, k)`, for its observation and
    /// its co-run alike.
    pub fn profile(
        &self,
        target: &AppModel,
        backgrounds: &[AppModel],
        base_seed: u64,
    ) -> ProfileSet {
        let (solo, solo_runtime, solo_iops) = self.solo(target, base_seed);
        let records = backgrounds
            .iter()
            .enumerate()
            .map(|(k, bg)| {
                let seed = Self::record_seed(base_seed, k);
                self.record(target, &solo, bg, &self.background_profile(bg, seed), seed)
            })
            .collect();
        ProfileSet {
            target: target.name.clone(),
            solo,
            solo_runtime,
            solo_iops,
            records,
        }
    }

    /// The seed [`Profiler::profile`] gives its `k`-th background.
    pub fn record_seed(base_seed: u64, k: usize) -> u64 {
        base_seed.wrapping_add(k as u64 + 1)
    }

    /// One record of a training set: `target`, whose stored solo profile
    /// is `solo` (measure it once with [`Profiler::solo`]), co-run with
    /// `seed` against one background, whose solo profile is `bg_profile`
    /// (measure it with [`Profiler::background_profile`]). Each call is
    /// independent of every other, so a campaign can spread its records
    /// over threads.
    pub fn record(
        &self,
        target: &AppModel,
        solo: &VmObservation,
        bg: &AppModel,
        bg_profile: &VmObservation,
        seed: u64,
    ) -> ProfileRecord {
        let out = if bg.endless {
            self.engine.co_run(target, bg, seed)
        } else {
            self.engine.co_run(target, &bg.as_endless(), seed)
        };
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
            background_observed: out.observed[1].as_features(),
            runtime: out.runtime[0],
            iops: out.iops[0],
        }
    }

    /// Profiles the target against a single background, returning the
    /// joint feature vector and the measured `(runtime, iops)` responses:
    /// the background observed and then co-run with `seed`, as in
    /// [`Profiler::profile`], without the names. Used by the
    /// online-learning experiments that stream observations one at a
    /// time.
    pub fn profile_one(
        &self,
        target: &AppModel,
        solo: &VmObservation,
        bg: &AppModel,
        seed: u64,
    ) -> ([f64; 8], f64, f64) {
        let record = self.record(target, solo, bg, &self.background_profile(bg, seed), seed);
        (record.features, record.runtime, record.iops)
    }

    /// Measures the full pairwise interference matrix over `apps`. Entry
    /// `(i, j)` runs app `i` to completion against an endless loop of app
    /// `j`, capturing the steady-state co-located performance the
    /// data-center simulator replays. Every run is a [`Profiler::pair_run`].
    pub fn pair_matrix(&self, apps: &[AppModel], base_seed: u64) -> PairMatrix {
        let n = apps.len();
        let solos = (0..n).map(|i| self.pair_run(apps, i, None, base_seed));
        let cells = (0..n * n).map(|c| self.pair_run(apps, c / n, Some(c % n), base_seed));
        PairMatrix::from_runs(apps, &solos.chain(cells).collect::<Vec<_>>())
    }

    /// One run of [`Profiler::pair_matrix`]`(apps, base_seed)`: app `i`
    /// alone when `neighbour` is `None`, or against an endless loop of
    /// app `j` when it is `Some(j)`.
    /// Each call is independent of every other, so a campaign can spread
    /// the matrix over threads and assemble it with
    /// [`PairMatrix::from_runs`].
    pub fn pair_run(
        &self,
        apps: &[AppModel],
        i: usize,
        neighbour: Option<usize>,
        base_seed: u64,
    ) -> PairRun {
        let out = match neighbour {
            None => self
                .engine
                .solo_run(&apps[i], base_seed.wrapping_add(i as u64)),
            Some(j) => {
                let seed = base_seed.wrapping_add(1000 + (i * apps.len() + j) as u64);
                self.engine.co_run(&apps[i], &apps[j].as_endless(), seed)
            }
        };
        PairRun {
            runtime: out.runtime[0],
            iops: out.iops[0],
            observed: out.observed[0],
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

    /// The campaign observes each calibration background once for every
    /// benchmark, which is sound only because no seed moves the
    /// observation of one.
    #[test]
    fn calibration_backgrounds_observe_the_same_bits_at_any_seed() {
        let p = profiler();
        for bg in apps::calibration_grid() {
            let [a, b] = [1, 0x5EED_0000_0001].map(|seed| p.background_profile(&bg, seed));
            assert_eq!(
                a.as_features().map(f64::to_bits),
                b.as_features().map(f64::to_bits),
                "{}",
                bg.name
            );
        }
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
        assert_eq!(m.names[0], "calc");
        // calc vs calc doubles; seqread vs seqread collapses much harder.
        let slowdown = |i: usize| m.runtime[i][i] / m.solo_runtime[i];
        assert!((1.8..2.2).contains(&slowdown(0)), "calc {}", slowdown(0));
        assert!(slowdown(1) > 5.0, "seqread {}", slowdown(1));
    }
}
