//! The prediction module the schedulers query (paper Fig 2): given a
//! candidate task and the observed state of a VM's co-located neighbour,
//! predict the task's runtime or IOPS from the per-application
//! interference models.

use crate::characteristics::{joint_features, Characteristics};
use crate::interner::{AppId, AppRegistry, ClassKey};
use crate::model::InterferenceModel;
use crate::sched::FreeClass;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The stored profile of an application (built by the profiling campaign).
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Application name.
    pub name: String,
    /// Characteristics measured when running alone.
    pub solo: Characteristics,
    /// Runtime when running alone, seconds.
    pub solo_runtime: f64,
    /// IOPS when running alone.
    pub solo_iops: f64,
}

/// Runtime and IOPS models for one application, shared with whoever
/// trained them (the monitor rebuilding them online, for one).
#[derive(Clone)]
pub struct AppModelSet {
    /// Predicts the application's runtime from joint characteristics.
    pub runtime: Arc<dyn InterferenceModel>,
    /// Predicts the application's IOPS from joint characteristics.
    pub iops: Arc<dyn InterferenceModel>,
}

/// The prediction module: per-application profiles and trained models.
/// Cloning shares the models, so a copy is cheap.
#[derive(Clone, Default)]
pub struct Predictor {
    profiles: HashMap<String, AppProfile>,
    models: HashMap<String, AppModelSet>,
    registry: Arc<AppRegistry>,
}

impl Predictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Predictor::default()
    }

    /// Registers an application's profile and trained models.
    pub fn add_app(&mut self, profile: AppProfile, models: AppModelSet) {
        let name = profile.name.clone();
        self.profiles.insert(name.clone(), profile);
        self.models.insert(name, models);
        self.registry = Arc::new(AppRegistry::from_names(self.profiles.keys().cloned()));
    }

    /// The interned id registry over the registered application names
    /// (rebuilt on every [`Predictor::add_app`]; ids are assigned in
    /// lexicographic name order).
    pub fn registry(&self) -> &Arc<AppRegistry> {
        &self.registry
    }

    /// Names of the registered applications, in id (lexicographic) order.
    pub fn app_names(&self) -> Vec<&str> {
        self.registry.names().iter().map(|s| s.as_str()).collect()
    }

    /// The stored profile of an application.
    ///
    /// # Panics
    /// Panics when the application is unknown.
    pub fn profile(&self, app: &str) -> &AppProfile {
        self.profiles
            .get(app)
            .unwrap_or_else(|| panic!("unknown application '{app}'"))
    }

    /// The models registered for `app`, shared with whoever else holds
    /// them.
    ///
    /// # Panics
    /// Panics when `app` is unknown.
    pub fn models(&self, app: &str) -> &AppModelSet {
        self.models
            .get(app)
            .unwrap_or_else(|| panic!("unknown application '{app}'"))
    }

    /// The stored profile behind an interned id.
    pub fn profile_of(&self, id: AppId) -> &AppProfile {
        self.profile(self.registry.name(id))
    }

    /// Whether an application has been registered.
    pub fn knows(&self, app: &str) -> bool {
        self.profiles.contains_key(app)
    }

    /// Predicted runtime of `app` when its VM's neighbour exhibits the
    /// given characteristics. Predictions are clamped to
    /// `[solo, 30 x solo]`: interference can only slow an application
    /// down, and the clamp bounds the damage of extrapolation outside the
    /// profiled region (the worst slowdown the paper measures is ~16x).
    pub fn predict_runtime(&self, app: &str, background: &Characteristics) -> f64 {
        let p = self.profile(app);
        let m = &self.models[app];
        let y = m.runtime.predict(&joint_features(&p.solo, background));
        let floor = p.solo_runtime.max(1e-6);
        y.clamp(floor, 30.0 * floor)
    }

    /// Predicted IOPS of `app` under the given neighbour characteristics,
    /// clamped to `[0, solo_iops]`.
    pub fn predict_iops(&self, app: &str, background: &Characteristics) -> f64 {
        let p = self.profile(app);
        let m = &self.models[app];
        let y = m.iops.predict(&joint_features(&p.solo, background));
        y.clamp(0.0, p.solo_iops.max(1e-6))
    }

    /// Predicted runtime of `app` when co-located with `other` (using the
    /// other application's solo profile as the background) — the pairing
    /// score MIBS uses to pick its second candidate.
    pub fn predict_pair_runtime(&self, app: &str, other: &str) -> f64 {
        let bg = self.profile(other).solo;
        self.predict_runtime(app, &bg)
    }

    /// Predicted IOPS of `app` when co-located with `other`.
    pub fn predict_pair_iops(&self, app: &str, other: &str) -> f64 {
        let bg = self.profile(other).solo;
        self.predict_iops(app, &bg)
    }
}

/// The optimization goal of a scheduler (paper Section 4.4: MIBS_RT
/// minimizes total runtime, MIBS_IO maximizes total IOPS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize total runtime.
    MinRuntime,
    /// Maximize total I/O throughput.
    MaxIops,
}

impl Objective {
    /// Display suffix matching the paper (RT / IO).
    pub fn suffix(&self) -> &'static str {
        match self {
            Objective::MinRuntime => "RT",
            Objective::MaxIops => "IO",
        }
    }
}

/// Sentinel bit pattern marking an unfilled dense-table entry. It decodes
/// to a NaN, which no clamped prediction can produce.
const EMPTY: u64 = u64::MAX;

/// A scoring facade over the predictor: lower scores are better under
/// either objective.
///
/// Scores are keyed by `(AppId, ClassKey)`. Solo scores and pairwise
/// interference scores are precomputed into dense `[n]` / `[n x n]`
/// tables at construction; placement scores for single-neighbour classes
/// fill a dense `[n x n]` atomic table on first use (the idle class is
/// served from the solo table). Only classes with two or more neighbours
/// — which exist only when machines host three or more VM slots — fall
/// back to a locked hash map. After warm-up a score lookup is one array
/// load and performs no heap allocation, and the policy is `Sync`, so
/// parallel schedulers can share it. The policy holds its own copy of
/// the predictor, whose models it shares with the original.
pub struct ScoringPolicy {
    predictor: Predictor,
    /// The goal this policy optimizes.
    pub objective: Objective,
    registry: Arc<AppRegistry>,
    n_apps: usize,
    /// `[n]` — score of each app on an idle machine.
    solo: Vec<f64>,
    /// `[n x n]` — mutual interference excess of each app pair.
    pair: Vec<f64>,
    /// `[n x n]` — lazily filled score of (app, single-neighbour class),
    /// stored as `f64` bits; [`EMPTY`] marks an unfilled entry. Races are
    /// benign: every filler computes the same deterministic value.
    dense: Vec<AtomicU64>,
    /// Fallback for classes with >= 2 neighbours (3+ slots per machine).
    multi: RwLock<HashMap<(u16, u64), f64>>,
}

impl ScoringPolicy {
    /// Creates a scoring policy for the given objective, precomputing the
    /// solo and pair tables. All score caches start cold.
    pub fn new(predictor: &Predictor, objective: Objective) -> Self {
        let registry = Arc::clone(predictor.registry());
        let n = registry.len();
        let mut policy = ScoringPolicy {
            predictor: predictor.clone(),
            objective,
            registry,
            n_apps: n,
            solo: Vec::with_capacity(n),
            pair: Vec::with_capacity(n * n),
            dense: (0..n * n).map(|_| AtomicU64::new(EMPTY)).collect(),
            multi: RwLock::new(HashMap::new()),
        };
        let idle = Characteristics::idle();
        for a in policy.registry.ids() {
            let s = policy.raw_score(a, &idle);
            policy.solo.push(s);
        }
        for a in policy.registry.ids() {
            for b in policy.registry.ids() {
                let s = policy.raw_pair_score(a, b);
                policy.pair.push(s);
            }
        }
        policy
    }

    /// The registry scores are keyed by.
    pub fn registry(&self) -> &Arc<AppRegistry> {
        &self.registry
    }

    fn raw_score(&self, app: AppId, background: &Characteristics) -> f64 {
        let name = self.registry.name(app);
        match self.objective {
            Objective::MinRuntime => self.predictor.predict_runtime(name, background),
            Objective::MaxIops => -self.predictor.predict_iops(name, background),
        }
    }

    fn raw_pair_score(&self, app: AppId, other: AppId) -> f64 {
        let a_name = self.registry.name(app);
        let b_name = self.registry.name(other);
        match self.objective {
            Objective::MinRuntime => {
                let a = self.predictor.predict_pair_runtime(a_name, b_name)
                    - self.predictor.profile(a_name).solo_runtime;
                let b = self.predictor.predict_pair_runtime(b_name, a_name)
                    - self.predictor.profile(b_name).solo_runtime;
                a + b
            }
            Objective::MaxIops => {
                let a = self.predictor.profile(a_name).solo_iops
                    - self.predictor.predict_pair_iops(a_name, b_name);
                let b = self.predictor.profile(b_name).solo_iops
                    - self.predictor.predict_pair_iops(b_name, a_name);
                a + b
            }
        }
    }

    /// Score of placing `app` on a VM of neighbour class `key` with the
    /// given observed characteristics. Lower is better. `key` must
    /// uniquely identify `background` (it is the memoization key).
    pub fn score(&self, app: AppId, key: ClassKey, background: &Characteristics) -> f64 {
        if key.is_idle() {
            return self.solo[app.index()];
        }
        if let Some(nb) = key.single() {
            let slot = &self.dense[app.index() * self.n_apps + nb.index()];
            let bits = slot.load(Ordering::Relaxed);
            if bits != EMPTY {
                return f64::from_bits(bits);
            }
            let v = self.raw_score(app, background);
            slot.store(v.to_bits(), Ordering::Relaxed);
            return v;
        }
        let mkey = (app.0, key.bits());
        if let Some(&v) = self.multi.read().expect("score cache poisoned").get(&mkey) {
            return v;
        }
        let v = self.raw_score(app, background);
        self.multi
            .write()
            .expect("score cache poisoned")
            .insert(mkey, v);
        v
    }

    /// Pairwise *interference* score of co-locating `app` with `other`
    /// (the first "Min" of the Min-Min heuristic): the predicted combined
    /// cost of the pairing **in excess of running the two applications
    /// apart** — predicted mutual runtime inflation under `MinRuntime`,
    /// combined IOPS loss under `MaxIops`. Scoring the excess (rather
    /// than the absolute runtime) is what "least interference with
    /// candidate 1" means: a short task is not a good partner merely for
    /// being short.
    pub fn pair_score(&self, app: AppId, other: AppId) -> f64 {
        self.pair[app.index() * self.n_apps + other.index()]
    }

    /// Score of placing `app` on an idle machine (its best case).
    pub fn solo_score(&self, app: AppId) -> f64 {
        self.solo[app.index()]
    }

    /// Interference *excess* of a placement: how much worse this slot is
    /// for `app` than an idle machine (always >= 0 up to model noise).
    /// This is the "score" the Min-Min pairing minimizes — using the
    /// absolute score instead would make short tasks look like good fits
    /// for every slot.
    pub fn excess_score(&self, app: AppId, key: ClassKey, background: &Characteristics) -> f64 {
        self.score(app, key, background) - self.solo[app.index()]
    }

    /// [`ScoringPolicy::score`] of a listed free class.
    pub fn class_score(&self, app: AppId, class: &FreeClass) -> f64 {
        self.score(app, class.key, &class.background)
    }

    /// Number of applications in the registry — the length of the batch
    /// schedulers' per-class excess rows.
    pub fn n_apps(&self) -> usize {
        self.n_apps
    }

    /// Number of memoized placement scores (diagnostics): filled dense
    /// entries plus multi-neighbour fallback entries. The precomputed
    /// solo/pair tables are not counted.
    pub fn cache_len(&self) -> usize {
        let dense = self
            .dense
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY)
            .count();
        dense + self.multi.read().expect("score cache poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::N_JOINT;
    use crate::model::{InterferenceModel, ModelKind};

    /// A stub model: runtime grows with the background's total request
    /// rate; IOPS shrinks with it.
    struct StubRuntime;
    impl InterferenceModel for StubRuntime {
        fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
            100.0 + f[4] + f[5]
        }
        fn kind(&self) -> ModelKind {
            ModelKind::Linear
        }
        fn n_terms(&self) -> usize {
            2
        }
    }
    struct StubIops;
    impl InterferenceModel for StubIops {
        fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
            200.0 - 0.5 * (f[4] + f[5])
        }
        fn kind(&self) -> ModelKind {
            ModelKind::Linear
        }
        fn n_terms(&self) -> usize {
            2
        }
    }

    fn predictor() -> Predictor {
        let mut p = Predictor::new();
        for (name, reads) in [("app_a", 50.0), ("app_b", 150.0)] {
            p.add_app(
                AppProfile {
                    name: name.to_string(),
                    solo: Characteristics::new(reads, 10.0, 0.5, 0.05),
                    solo_runtime: 100.0,
                    solo_iops: 200.0,
                },
                AppModelSet {
                    runtime: Arc::new(StubRuntime),
                    iops: Arc::new(StubIops),
                },
            );
        }
        p
    }

    #[test]
    fn predictions_respond_to_background() {
        let p = predictor();
        let idle = Characteristics::idle();
        let busy = Characteristics::new(300.0, 100.0, 0.9, 0.2);
        assert!(p.predict_runtime("app_a", &busy) > p.predict_runtime("app_a", &idle));
        assert!(p.predict_iops("app_a", &busy) < p.predict_iops("app_a", &idle));
    }

    #[test]
    fn iops_clamped_to_solo() {
        let p = predictor();
        let idle = Characteristics::idle();
        assert!(p.predict_iops("app_a", &idle) <= 200.0);
    }

    #[test]
    fn pair_prediction_uses_other_profile() {
        let p = predictor();
        // app_b's profile has higher reads, so pairing with it predicts a
        // longer runtime than pairing with app_a.
        let with_a = p.predict_pair_runtime("app_a", "app_a");
        let with_b = p.predict_pair_runtime("app_a", "app_b");
        assert!(with_b > with_a);
    }

    #[test]
    fn registry_assigns_sorted_ids() {
        let p = predictor();
        assert_eq!(p.app_names(), vec!["app_a", "app_b"]);
        assert_eq!(p.registry().expect_id("app_a"), AppId(0));
        assert_eq!(p.registry().expect_id("app_b"), AppId(1));
        assert_eq!(p.profile_of(AppId(1)).name, "app_b");
    }

    #[test]
    fn scoring_policy_objectives() {
        let p = predictor();
        let rt = ScoringPolicy::new(&p, Objective::MinRuntime);
        let io = ScoringPolicy::new(&p, Objective::MaxIops);
        let a = p.registry().expect_id("app_a");
        let b = p.registry().expect_id("app_b");
        let busy_key = ClassKey::from_neighbours([b]);
        let busy = p.profile("app_b").solo;
        // Lower is better under both objectives.
        assert!(
            rt.score(a, ClassKey::IDLE, &Characteristics::idle()) < rt.score(a, busy_key, &busy)
        );
        assert!(
            io.score(a, ClassKey::IDLE, &Characteristics::idle()) < io.score(a, busy_key, &busy)
        );
    }

    #[test]
    fn scores_are_cached_by_key() {
        let p = predictor();
        let rt = ScoringPolicy::new(&p, Objective::MinRuntime);
        let a = p.registry().expect_id("app_a");
        let b = p.registry().expect_id("app_b");
        let key_a = ClassKey::from_neighbours([a]);
        let key_b = ClassKey::from_neighbours([b]);
        let bg = Characteristics::new(300.0, 100.0, 0.9, 0.2);
        assert_eq!(rt.cache_len(), 0);
        rt.score(a, key_b, &bg);
        rt.score(a, key_b, &bg);
        rt.score(b, key_a, &bg);
        assert_eq!(rt.cache_len(), 2);
        // Idle scores come from the precomputed solo table, not the cache.
        rt.score(a, ClassKey::IDLE, &Characteristics::idle());
        assert_eq!(rt.cache_len(), 2);
    }

    #[test]
    fn excess_and_pair_scores_match_definitions() {
        let p = predictor();
        let rt = ScoringPolicy::new(&p, Objective::MinRuntime);
        let a = p.registry().expect_id("app_a");
        let b = p.registry().expect_id("app_b");
        let key_b = ClassKey::from_neighbours([b]);
        let bg = p.profile("app_b").solo;
        let excess = rt.excess_score(a, key_b, &bg);
        assert!((excess - (rt.score(a, key_b, &bg) - rt.solo_score(a))).abs() < 1e-12);
        let expected_pair = (p.predict_pair_runtime("app_a", "app_b") - 100.0)
            + (p.predict_pair_runtime("app_b", "app_a") - 100.0);
        assert!((rt.pair_score(a, b) - expected_pair).abs() < 1e-12);
    }

    #[test]
    fn scoring_policy_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ScoringPolicy>();
    }

    #[test]
    #[should_panic(expected = "unknown application")]
    fn unknown_app_panics() {
        predictor().profile("nope");
    }
}
