//! The task & resource monitor's model-adaptation loop (paper Sections 3
//! and 4.6).
//!
//! TRACON tracks the prediction error of the deployed interference model.
//! When the environment changes (the paper's example: the same host
//! switched from local disks to iSCSI storage), errors surge; the monitor
//! detects the drift (mean shift / variance surge), gradually replaces
//! the oldest training data with fresh observations, and rebuilds the
//! model every `rebuild_every` new data points (160 in the paper).
//!
//! After the initial fit, [`AdaptiveModel::rebuild`] is the only place a
//! monitored model is trained. The model is shared ([`AdaptiveModel::model`]): a predictor
//! built from it scores with exactly the model whose error the monitor
//! measures, until the next rebuild replaces it. The monitor keeps no
//! per-observation history; [`AdaptiveModel::observe`] returns each error.
//!
//! [`Monitor`] is the loop over every application: a runtime and an IOPS
//! [`AdaptiveModel`] per app, fed one realized completion at a time, and
//! after a rebuild a predictor over the monitors' own models. The
//! simulator and the `tracond` daemon both drive this one type; the
//! simulator adapts it to its event kernel.

use crate::characteristics::{joint_features, Characteristics, N_JOINT};
use crate::model::{
    relative_error, training::train_model_scaled, InterferenceModel, ModelKind, Response,
    ResponseScale, TrainingData,
};
use crate::predictor::{AppModelSet, AppProfile, Predictor};
use std::collections::VecDeque;
use std::sync::Arc;
use tracon_stats::{DriftDetector, DriftKind, SlidingWindow};

/// Configuration of the adaptive model.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Capacity of the rolling training window (paper: 500 initial points).
    pub window_capacity: usize,
    /// Rebuild the model after this many new observations (paper: 160).
    pub rebuild_every: usize,
    /// Size of the recent-error window the drift detector inspects.
    pub drift_window: usize,
    /// Mean-shift threshold in reference standard deviations.
    pub mean_threshold: f64,
    /// Variance-surge multiplier.
    pub var_threshold: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_capacity: 500,
            rebuild_every: 160,
            drift_window: 40,
            mean_threshold: 3.0,
            var_threshold: 6.0,
        }
    }
}

/// Outcome of feeding one observation to the adaptive model.
#[derive(Debug, Clone, Copy)]
pub struct ObserveOutcome {
    /// The model's prediction for the observation.
    pub predicted: f64,
    /// Relative prediction error against the actual response.
    pub error: f64,
    /// Drift detected on the recent error window, if any.
    pub drift: Option<DriftKind>,
    /// Whether this observation triggered a model rebuild.
    pub rebuilt: bool,
}

/// An interference model that adapts online as the monitor streams in new
/// observations.
pub struct AdaptiveModel {
    kind: ModelKind,
    scale: ResponseScale,
    cfg: MonitorConfig,
    window: VecDeque<([f64; N_JOINT], f64)>,
    model: Arc<dyn InterferenceModel>,
    new_since_rebuild: usize,
    rebuilds: usize,
    drifts: usize,
    recent_errors: SlidingWindow,
    detector: DriftDetector,
}

impl AdaptiveModel {
    /// Trains the initial model on `initial` data and calibrates the
    /// drift detector on the initial model's training-set errors.
    ///
    /// # Panics
    /// Panics when `initial` is empty or the config is degenerate.
    pub fn new(kind: ModelKind, initial: &TrainingData, cfg: MonitorConfig) -> Self {
        Self::new_scaled(kind, ResponseScale::Linear, initial, cfg)
    }

    /// Like [`AdaptiveModel::new`] but fitting on the given response
    /// scale (use [`ResponseScale::Reciprocal`] for IOPS models).
    pub fn new_scaled(
        kind: ModelKind,
        scale: ResponseScale,
        initial: &TrainingData,
        cfg: MonitorConfig,
    ) -> Self {
        assert!(!initial.is_empty(), "adaptive model needs initial data");
        assert!(cfg.rebuild_every >= 1 && cfg.window_capacity >= 1);
        let model = train_model_scaled(kind, initial, scale);
        let reference_errors: Vec<f64> = initial
            .features
            .iter()
            .zip(&initial.responses)
            .map(|(f, &y)| relative_error(model.predict(f), y))
            .collect();
        let detector =
            DriftDetector::from_reference(&reference_errors, cfg.mean_threshold, cfg.var_threshold);
        let mut window = VecDeque::with_capacity(cfg.window_capacity);
        // Seed the rolling window with (the tail of) the initial data.
        let skip = initial.len().saturating_sub(cfg.window_capacity);
        for (f, &y) in initial.features.iter().zip(&initial.responses).skip(skip) {
            window.push_back((*f, y));
        }
        AdaptiveModel {
            kind,
            scale,
            cfg,
            window,
            model,
            new_since_rebuild: 0,
            rebuilds: 0,
            drifts: 0,
            recent_errors: SlidingWindow::new(cfg.drift_window),
            detector,
        }
    }

    /// Predicts a response without recording anything.
    pub fn predict(&self, features: &[f64; N_JOINT]) -> f64 {
        self.model.predict(features)
    }

    /// The model as of the last rebuild, shared rather than copied.
    pub fn model(&self) -> &Arc<dyn InterferenceModel> {
        &self.model
    }

    /// Feeds one observation: records the prediction error, replaces the
    /// oldest window entry, and rebuilds the model when `rebuild_every`
    /// new observations have accumulated.
    pub fn observe(&mut self, features: [f64; N_JOINT], actual: f64) -> ObserveOutcome {
        let predicted = self.model.predict(&features);
        let error = relative_error(predicted, actual);
        self.recent_errors.push(error);

        let drift = if self.recent_errors.is_full() {
            self.detector.check(&self.recent_errors)
        } else {
            None
        };
        self.drifts += usize::from(drift.is_some());

        // Gradually replace the old training data with the new.
        if self.window.len() >= self.cfg.window_capacity {
            self.window.pop_front();
        }
        self.window.push_back((features, actual));
        self.new_since_rebuild += 1;

        let mut rebuilt = false;
        if self.new_since_rebuild >= self.cfg.rebuild_every {
            self.rebuild();
            rebuilt = true;
        }

        ObserveOutcome {
            predicted,
            error,
            drift,
            rebuilt,
        }
    }

    /// Forces an immediate rebuild on the current window.
    pub fn rebuild(&mut self) {
        let mut data = TrainingData::default();
        for (f, y) in &self.window {
            data.push(*f, *y);
        }
        self.model = train_model_scaled(self.kind, &data, self.scale);
        self.new_since_rebuild = 0;
        self.rebuilds += 1;
    }

    /// Number of rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Number of observations on which drift was detected.
    pub fn drifts(&self) -> usize {
        self.drifts
    }

    /// Model family in use.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }
}

/// The task & resource monitor's loop over every application (paper
/// Section 4.6): each realized completion feeds the app's runtime and
/// IOPS [`AdaptiveModel`]s, and once a rebuild fires,
/// [`Monitor::take_predictor`] hands out a predictor over the monitors'
/// own models. A swap trains nothing: each app is scored with the model
/// its monitor last rebuilt, the one whose error the monitor measures.
pub struct Monitor {
    names: Vec<String>,
    profiles: Vec<AppProfile>,
    rt: Vec<AdaptiveModel>,
    io: Vec<AdaptiveModel>,
    observed: usize,
    rebuilt_since_export: bool,
    predictor_swaps: usize,
}

impl Monitor {
    /// Creates the monitor over the applications in `names` (pair-table
    /// index order). `base` supplies the solo profiles; `initial_rt` /
    /// `initial_io` seed each application's window (the profiling data,
    /// or a distillation of a stale deployed model); `kind` is the model
    /// family rebuilt online.
    ///
    /// # Panics
    /// Panics when an initial training set is empty or `base` does not
    /// know an application.
    pub fn new(
        base: &Predictor,
        names: &[String],
        kind: ModelKind,
        initial_rt: &[TrainingData],
        initial_io: &[TrainingData],
        cfg: MonitorConfig,
    ) -> Self {
        assert_eq!(names.len(), initial_rt.len());
        assert_eq!(names.len(), initial_io.len());
        let models = |initial: &[TrainingData], response| {
            let scale = ResponseScale::for_response(response);
            initial
                .iter()
                .map(|d| AdaptiveModel::new_scaled(kind, scale, d, cfg))
                .collect()
        };
        Monitor {
            names: names.to_vec(),
            profiles: names.iter().map(|n| base.profile(n).clone()).collect(),
            rt: models(initial_rt, Response::Runtime),
            io: models(initial_io, Response::Iops),
            observed: 0,
            rebuilt_since_export: false,
            predictor_swaps: 0,
        }
    }

    /// The joint features of app `app_idx` next to `neighbor` (idle when
    /// `None`).
    fn features(&self, app_idx: usize, neighbor: Option<usize>) -> [f64; N_JOINT] {
        let bg = neighbor.map_or(Characteristics::idle(), |n| self.profiles[n].solo);
        joint_features(&self.profiles[app_idx].solo, &bg)
    }

    /// Feeds one realized completion of app `app_idx` to its monitors.
    /// `neighbor` is the co-located application's pair-table index when
    /// the task started, or `None` for a solo run. Returns whether this
    /// observation triggered a model rebuild.
    pub fn record(
        &mut self,
        app_idx: usize,
        neighbor: Option<usize>,
        runtime: f64,
        avg_iops: f64,
    ) -> bool {
        let features = self.features(app_idx, neighbor);
        let rt_out = self.rt[app_idx].observe(features, runtime);
        let io_out = self.io[app_idx].observe(features, avg_iops);
        self.observed += 1;
        let rebuilt = rt_out.rebuilt || io_out.rebuilt;
        self.rebuilt_since_export |= rebuilt;
        rebuilt
    }

    /// Predicts the runtime of app `app_idx` next to `neighbor` (idle
    /// when `None`) with the *current* adapted model — what the scheduler
    /// would be told right now.
    pub fn predict_runtime(&self, app_idx: usize, neighbor: Option<usize>) -> f64 {
        self.rt[app_idx].predict(&self.features(app_idx, neighbor))
    }

    /// A predictor over the monitors' current models, shared, not
    /// retrained: it predicts exactly what the monitors do.
    pub fn export_predictor(&self) -> Predictor {
        let mut p = Predictor::new();
        for ((profile, rt), io) in self.profiles.iter().zip(&self.rt).zip(&self.io) {
            p.add_app(
                profile.clone(),
                AppModelSet {
                    runtime: rt.model().clone(),
                    iops: io.model().clone(),
                },
            );
        }
        p
    }

    /// The predictor to swap in, once per rebuild: `Some` when a model
    /// was rebuilt since the last call (counted as a predictor swap),
    /// `None` otherwise.
    pub fn take_predictor(&mut self) -> Option<Predictor> {
        if !std::mem::take(&mut self.rebuilt_since_export) {
            return None;
        }
        self.predictor_swaps += 1;
        Some(self.export_predictor())
    }

    /// The solo characteristics of an application, as the monitor sees
    /// them.
    pub fn solo_chars(&self, app_idx: usize) -> Characteristics {
        self.profiles[app_idx].solo
    }

    /// Application names in pair-table index order.
    pub fn app_names(&self) -> &[String] {
        &self.names
    }

    /// Completions observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Total rebuilds across all per-app models. The runtime and IOPS
    /// models of an app rebuild together, so a completion that fires a
    /// rebuild adds 2.
    pub fn total_rebuilds(&self) -> usize {
        self.rt.iter().chain(&self.io).map(|m| m.rebuilds()).sum()
    }

    /// Total drift events detected across all per-app models.
    pub fn total_drifts(&self) -> usize {
        self.rt.iter().chain(&self.io).map(|m| m.drifts()).sum()
    }

    /// Predictors handed out by [`Monitor::take_predictor`] so far.
    pub fn predictor_swaps(&self) -> usize {
        self.predictor_swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::ChaCha12;

    /// Environment A: y = 10 + 20 x0 x4. Environment B (drifted):
    /// y = 40 + 60 x0 x4 — same structure, very different scale.
    fn gen(rng: &mut ChaCha12, env_b: bool) -> ([f64; 8], f64) {
        let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 1.0));
        let y = if env_b {
            40.0 + 60.0 * f[0] * f[4] + rng.range_f64(-0.5, 0.5)
        } else {
            10.0 + 20.0 * f[0] * f[4] + rng.range_f64(-0.5, 0.5)
        };
        (f, y)
    }

    fn initial_data(n: usize, seed: u64) -> TrainingData {
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut d = TrainingData::default();
        for _ in 0..n {
            let (f, y) = gen(&mut rng, false);
            d.push(f, y);
        }
        d
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            window_capacity: 300,
            rebuild_every: 80,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn stable_environment_keeps_low_error() {
        let mut am = AdaptiveModel::new(ModelKind::Nonlinear, &initial_data(300, 1), cfg());
        let mut rng = ChaCha12::seed_from_u64(2);
        let mut errors = Vec::new();
        for _ in 0..100 {
            let (f, y) = gen(&mut rng, false);
            errors.push(am.observe(f, y).error);
        }
        let mean = tracon_stats::mean(&errors);
        assert!(mean < 0.1, "mean error in stable env = {mean}");
    }

    #[test]
    fn detects_drift_and_recovers() {
        let mut am = AdaptiveModel::new(ModelKind::Nonlinear, &initial_data(300, 3), cfg());
        let mut rng = ChaCha12::seed_from_u64(4);
        // Switch the environment: errors surge.
        let mut early = Vec::new();
        for _ in 0..60 {
            let (f, y) = gen(&mut rng, true);
            early.push(am.observe(f, y).error);
        }
        assert!(
            tracon_stats::mean(&early) > 0.3,
            "no surge: {}",
            tracon_stats::mean(&early)
        );
        assert!(am.drifts() > 0, "drift not detected");

        // Keep streaming: after several rebuilds the window is mostly new
        // data and the error returns to the pre-drift level.
        for _ in 0..500 {
            let (f, y) = gen(&mut rng, true);
            am.observe(f, y);
        }
        assert!(am.rebuilds() >= 4, "rebuilds = {}", am.rebuilds());
        let mut late = Vec::new();
        for _ in 0..80 {
            let (f, y) = gen(&mut rng, true);
            late.push(am.observe(f, y).error);
        }
        let late_mean = tracon_stats::mean(&late);
        assert!(
            late_mean < 0.1,
            "did not recover: late mean error = {late_mean}"
        );
    }

    #[test]
    fn rebuild_counter_follows_interval() {
        let mut am = AdaptiveModel::new(ModelKind::Linear, &initial_data(200, 5), cfg());
        let mut rng = ChaCha12::seed_from_u64(6);
        let mut rebuild_points = Vec::new();
        for i in 0..240 {
            let (f, y) = gen(&mut rng, false);
            if am.observe(f, y).rebuilt {
                rebuild_points.push(i);
            }
        }
        assert_eq!(rebuild_points, vec![79, 159, 239]);
        assert_eq!(am.rebuilds(), 3);
    }

    #[test]
    fn observe_reports_the_deployed_models_error() {
        let mut am = AdaptiveModel::new(ModelKind::Wmm, &initial_data(100, 7), cfg());
        let mut rng = ChaCha12::seed_from_u64(8);
        for _ in 0..10 {
            let (f, y) = gen(&mut rng, false);
            let expected = relative_error(am.predict(&f), y);
            assert_eq!(am.observe(f, y).error.to_bits(), expected.to_bits());
        }
        assert_eq!(am.kind(), ModelKind::Wmm);
    }

    /// `n` observations of an app with solo profile `solo` against random
    /// backgrounds: runtime 100 s plus a read-rate penalty.
    fn data(solo: &Characteristics, n: usize, seed: u64) -> TrainingData {
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut d = TrainingData::default();
        for _ in 0..n {
            let bg: [f64; 4] = std::array::from_fn(|_| rng.range_f64(0.0, 100.0));
            let f = joint_features(solo, &Characteristics::from_array(bg));
            d.push(f, 100.0 + 0.5 * bg[0] + rng.range_f64(-1.0, 1.0));
        }
        d
    }

    #[test]
    fn swap_scores_with_the_monitors_models() {
        let names = ["a".to_string(), "b".to_string()];
        let solos = [
            Characteristics::new(60.0, 5.0, 0.4, 0.1),
            Characteristics::new(20.0, 30.0, 0.7, 0.2),
        ];
        let initial: Vec<TrainingData> = (0..2).map(|i| data(&solos[i], 40, i as u64)).collect();
        let mut base = Predictor::new();
        for (name, (solo, d)) in names.iter().zip(solos.iter().zip(&initial)) {
            let profile = AppProfile {
                name: name.clone(),
                solo: *solo,
                solo_runtime: 50.0,
                solo_iops: 50.0,
            };
            let models = AppModelSet {
                runtime: crate::train_model(ModelKind::Linear, d),
                iops: crate::train_model(ModelKind::Linear, d),
            };
            base.add_app(profile, models);
        }
        let cfg = MonitorConfig {
            window_capacity: 40,
            rebuild_every: 10,
            ..MonitorConfig::default()
        };
        let mut monitor = Monitor::new(&base, &names, ModelKind::Linear, &initial, &initial, cfg);
        // App a rebuilds on its tenth completion; app b then completes three
        // tasks far slower than it was trained on, and does not rebuild.
        let rebuilt: Vec<bool> = (0..10)
            .map(|_| monitor.record(0, Some(1), 150.0, 40.0))
            .collect();
        assert_eq!(rebuilt.iter().filter(|&&r| r).count(), 1);
        for _ in 0..3 {
            assert!(!monitor.record(1, Some(0), 400.0, 10.0));
        }
        let swapped = monitor.take_predictor().expect("a rebuild fired");
        assert!(monitor.take_predictor().is_none(), "one swap per rebuild");
        assert_eq!(monitor.predictor_swaps(), 1);
        for (app, nb) in [(0, Some(1)), (1, Some(0)), (1, None)] {
            let bg = nb.map_or(Characteristics::idle(), |n| monitor.solo_chars(n));
            let scored = swapped.predict_runtime(&names[app], &bg);
            let monitored = monitor.predict_runtime(app, nb);
            // Inside the predictor's [solo, 30 x solo] clamp.
            assert!(
                monitored > 50.0 && monitored < 1500.0,
                "clamp binds: {monitored}"
            );
            assert_eq!(
                scored.to_bits(),
                monitored.to_bits(),
                "app {app} next to {nb:?}"
            );
        }
        assert_eq!(
            monitor.total_rebuilds(),
            2,
            "a's runtime and IOPS models only"
        );
    }
}
