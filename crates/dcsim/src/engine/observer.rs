//! The observer layer: hooks the event kernel calls as the simulation
//! unfolds. The kernel itself only moves time forward and keeps the slot
//! state consistent — everything *about* a run (metrics, observation
//! streams, online model adaptation) is an observer.

use super::TaskObservation;
use crate::perf::IDLE;
use tracon_core::{
    AdaptiveModel, AppModelSet, AppProfile, Characteristics, ModelKind, MonitorConfig, Predictor,
    Response, ResponseScale, TrainingData, VmRef,
};

/// A task arrival (admitted or refused).
#[derive(Debug, Clone, Copy)]
pub struct ArrivalInfo {
    /// Simulation time of the arrival.
    pub time: f64,
    /// Index into the arrival trace.
    pub trace_idx: usize,
    /// Application (pair-table) index of the arriving task.
    pub app_idx: usize,
}

/// A task placement onto a VM slot.
#[derive(Debug, Clone, Copy)]
pub struct PlacementInfo {
    /// Simulation time of the placement.
    pub time: f64,
    /// The chosen slot.
    pub vm: VmRef,
    /// Task id (its index in the arrival trace).
    pub task_id: u64,
    /// Application index of the placed task.
    pub app_idx: usize,
    /// Application index of the neighbour resident at placement (or
    /// [`IDLE`]).
    pub neighbor_at_start: usize,
    /// Queueing delay: placement time minus arrival time.
    pub wait: f64,
}

/// A task completion with its realized measurements.
#[derive(Debug, Clone, Copy)]
pub struct CompletionInfo {
    /// Simulation time of the completion.
    pub time: f64,
    /// The slot that freed up.
    pub vm: VmRef,
    /// Application index of the completed task.
    pub app_idx: usize,
    /// Application index of the neighbour resident when the task started
    /// (or [`IDLE`]) — the state the placement prediction was made
    /// against.
    pub neighbor_at_start: usize,
    /// Realized runtime, seconds.
    pub runtime: f64,
    /// Realized average IOPS.
    pub avg_iops: f64,
}

/// A machine crash injected by a [`FaultPlan`](crate::faults::FaultPlan).
#[derive(Debug, Clone, Copy)]
pub struct MachineCrashInfo {
    /// Simulation time of the crash.
    pub time: f64,
    /// The machine that went down.
    pub machine: usize,
    /// Tasks that were in flight on the machine (all lose their
    /// progress).
    pub evicted: usize,
    /// How many of those re-entered the admission queue (the rest
    /// exhausted their attempts and were abandoned).
    pub requeued: usize,
}

/// One failed task execution (per-task fault or abandonment).
#[derive(Debug, Clone, Copy)]
pub struct TaskFailureInfo {
    /// Simulation time of the failure.
    pub time: f64,
    /// The slot the execution ran on.
    pub vm: VmRef,
    /// Task id (its index in the arrival trace).
    pub task_id: u64,
    /// Application index of the task.
    pub app_idx: usize,
    /// Which execution failed (0-based).
    pub attempt: u32,
    /// Whether the task exhausted its attempts and leaves the system.
    pub abandoned: bool,
}

/// Observes a simulation as it runs. All hooks default to no-ops, so an
/// observer only implements what it cares about. The unit type `()` is
/// the null observer.
pub trait SimObserver {
    /// An arrival was admitted to the queue.
    fn on_arrival(&mut self, _info: &ArrivalInfo) {}
    /// An arrival was refused (bounded admission queue was full).
    fn on_refusal(&mut self, _info: &ArrivalInfo) {}
    /// The scheduler ran and made `n_assigned` assignments.
    fn on_dispatch(&mut self, _time: f64, _n_assigned: usize) {}
    /// A task was placed onto a slot.
    fn on_placement(&mut self, _info: &PlacementInfo) {}
    /// A task completed.
    fn on_completion(&mut self, _info: &CompletionInfo) {}
    /// A machine crashed (fault injection), evicting its residents.
    fn on_machine_crash(&mut self, _info: &MachineCrashInfo) {}
    /// A crashed machine recovered and its slots are placeable again.
    fn on_machine_recover(&mut self, _time: f64, _machine: usize) {}
    /// A task execution failed (fault injection); the task was requeued
    /// unless `info.abandoned`.
    fn on_task_failure(&mut self, _info: &TaskFailureInfo) {}
    /// Polled by the kernel after every event: return a predictor to swap
    /// the scheduler's scoring policy mid-run (online model adaptation).
    /// Return `None` to keep the current one.
    fn updated_predictor(&mut self) -> Option<Predictor> {
        None
    }
}

/// The null observer.
impl SimObserver for () {}

/// Built-in observer accumulating the [`super::SimResult`] totals.
#[derive(Debug, Default)]
pub(crate) struct MetricsObserver {
    pub(crate) completed: usize,
    pub(crate) refused: usize,
    pub(crate) total_runtime: f64,
    pub(crate) total_iops: f64,
    pub(crate) makespan: f64,
    pub(crate) machine_crashes: usize,
    pub(crate) machine_recoveries: usize,
    pub(crate) task_failures: usize,
    pub(crate) requeues: usize,
    pub(crate) abandoned: usize,
    wait_sum: f64,
    wait_count: usize,
}

impl MetricsObserver {
    pub(crate) fn mean_wait(&self) -> f64 {
        if self.wait_count > 0 {
            self.wait_sum / self.wait_count as f64
        } else {
            0.0
        }
    }
}

impl SimObserver for MetricsObserver {
    fn on_refusal(&mut self, _info: &ArrivalInfo) {
        self.refused += 1;
    }

    fn on_placement(&mut self, info: &PlacementInfo) {
        self.wait_sum += info.wait;
        self.wait_count += 1;
    }

    fn on_completion(&mut self, info: &CompletionInfo) {
        self.completed += 1;
        self.total_runtime += info.runtime;
        self.total_iops += info.avg_iops;
        self.makespan = self.makespan.max(info.time);
    }

    fn on_machine_crash(&mut self, info: &MachineCrashInfo) {
        self.machine_crashes += 1;
        self.requeues += info.requeued;
        self.abandoned += info.evicted - info.requeued;
    }

    fn on_machine_recover(&mut self, _time: f64, _machine: usize) {
        self.machine_recoveries += 1;
    }

    fn on_task_failure(&mut self, info: &TaskFailureInfo) {
        self.task_failures += 1;
        if info.abandoned {
            self.abandoned += 1;
        } else {
            self.requeues += 1;
        }
    }
}

/// The joint feature vector the prediction module would have used for a
/// task: its own solo profile followed by the neighbour's (zeros when the
/// sibling slot was idle).
fn joint_features(app_features: &[[f64; 4]], app_idx: usize, neighbor: usize) -> [f64; 8] {
    let t = app_features[app_idx];
    let nb = if neighbor == IDLE {
        [0.0; 4]
    } else {
        app_features[neighbor]
    };
    [t[0], t[1], t[2], t[3], nb[0], nb[1], nb[2], nb[3]]
}

/// Built-in observer recording the monitor's feedback stream: one
/// [`TaskObservation`] per completion.
pub(crate) struct ObservationCollector {
    app_features: Vec<[f64; 4]>,
    observations: Vec<TaskObservation>,
}

impl ObservationCollector {
    pub(crate) fn new(app_features: Vec<[f64; 4]>) -> Self {
        ObservationCollector {
            app_features,
            observations: Vec::new(),
        }
    }

    pub(crate) fn into_observations(self) -> Vec<TaskObservation> {
        self.observations
    }
}

impl SimObserver for ObservationCollector {
    fn on_completion(&mut self, info: &CompletionInfo) {
        self.observations.push(TaskObservation {
            features: joint_features(&self.app_features, info.app_idx, info.neighbor_at_start),
            runtime: info.runtime,
            iops: info.avg_iops,
        });
    }
}

/// Online model adaptation as an observer (paper Section 4.6): every
/// completion is fed to per-application [`AdaptiveModel`]s for runtime
/// and IOPS; whenever a monitor rebuild fires, the next
/// [`SimObserver::updated_predictor`] poll hands the kernel a predictor
/// over the monitors' own models, and the scheduler starts scoring
/// against them *mid-run* — no simulation restart, no post-hoc replay.
/// A swap trains nothing: each app is scored with the model its monitor
/// last rebuilt, the one whose error the monitor measures.
pub struct AdaptiveObserver {
    names: Vec<String>,
    profiles: Vec<AppProfile>,
    app_features: Vec<[f64; 4]>,
    rt: Vec<AdaptiveModel>,
    io: Vec<AdaptiveModel>,
    observed: usize,
    rebuilt_since_export: bool,
    predictor_swaps: usize,
}

impl AdaptiveObserver {
    /// Creates the observer over the applications in `names` (pair-table
    /// index order). `base` supplies the solo profiles; `initial_rt` /
    /// `initial_io` seed each application's monitor window (typically
    /// distilled from the stale deployed model); `kind` is the model
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
        let profiles: Vec<AppProfile> = names.iter().map(|n| base.profile(n).clone()).collect();
        let app_features: Vec<[f64; 4]> = profiles.iter().map(|p| p.solo.as_array()).collect();
        let rt = initial_rt
            .iter()
            .map(|d| {
                AdaptiveModel::new_scaled(
                    kind,
                    ResponseScale::for_response(Response::Runtime),
                    d,
                    cfg,
                )
            })
            .collect();
        let io = initial_io
            .iter()
            .map(|d| {
                AdaptiveModel::new_scaled(kind, ResponseScale::for_response(Response::Iops), d, cfg)
            })
            .collect();
        AdaptiveObserver {
            names: names.to_vec(),
            profiles,
            app_features,
            rt,
            io,
            observed: 0,
            rebuilt_since_export: false,
            predictor_swaps: 0,
        }
    }

    /// Predicts the runtime of app `app_idx` next to `neighbor` (or
    /// [`IDLE`]) with the *current* adapted model — what the scheduler
    /// would be told right now.
    pub fn predict_runtime(&self, app_idx: usize, neighbor: usize) -> f64 {
        self.rt[app_idx].predict(&joint_features(&self.app_features, app_idx, neighbor))
    }

    /// Completions observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Total monitor rebuilds across all per-app models.
    pub fn total_rebuilds(&self) -> usize {
        self.rt.iter().chain(&self.io).map(|m| m.rebuilds()).sum()
    }

    /// Total drift events detected across all per-app models.
    pub fn total_drifts(&self) -> usize {
        self.rt.iter().chain(&self.io).map(|m| m.drifts()).sum()
    }

    /// How many times the kernel swapped the scoring predictor on this
    /// observer's behalf.
    pub fn predictor_swaps(&self) -> usize {
        self.predictor_swaps
    }

    /// A predictor over the monitors' current models, shared, not
    /// retrained: it predicts exactly what the monitors do.
    pub fn export_predictor(&self) -> Predictor {
        let mut p = Predictor::new();
        for (i, profile) in self.profiles.iter().enumerate() {
            p.add_app(
                profile.clone(),
                AppModelSet {
                    runtime: self.rt[i].model().clone(),
                    iops: self.io[i].model().clone(),
                },
            );
        }
        p
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

    /// Feeds one realized completion into the per-app monitors, outside
    /// the [`SimObserver`] callback path. `neighbor` is the co-located
    /// application's pair-table index, or `None` for a solo run. Returns
    /// whether this observation triggered a model rebuild. This is the
    /// entry point for live (wall-clock) traffic sources such as the
    /// tracond daemon, which have no `CompletionInfo` to hand.
    pub fn record(
        &mut self,
        app_idx: usize,
        neighbor: Option<usize>,
        runtime: f64,
        avg_iops: f64,
    ) -> bool {
        let neighbor = neighbor.unwrap_or(crate::perf::IDLE);
        let features = joint_features(&self.app_features, app_idx, neighbor);
        let rt_out = self.rt[app_idx].observe(features, runtime);
        let io_out = self.io[app_idx].observe(features, avg_iops);
        self.observed += 1;
        let rebuilt = rt_out.rebuilt || io_out.rebuilt;
        if rebuilt {
            self.rebuilt_since_export = true;
        }
        rebuilt
    }
}

impl SimObserver for AdaptiveObserver {
    fn on_completion(&mut self, info: &CompletionInfo) {
        let neighbor = if info.neighbor_at_start == crate::perf::IDLE {
            None
        } else {
            Some(info.neighbor_at_start)
        };
        self.record(info.app_idx, neighbor, info.runtime, info.avg_iops);
    }

    fn updated_predictor(&mut self) -> Option<Predictor> {
        if !self.rebuilt_since_export {
            return None;
        }
        self.rebuilt_since_export = false;
        self.predictor_swaps += 1;
        Some(self.export_predictor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_core::train_model;
    use tracon_stats::prng::ChaCha12;

    /// `n` observations of an app with solo profile `solo` against random
    /// backgrounds: runtime 100 s plus a read-rate penalty.
    fn data(solo: &Characteristics, n: usize, seed: u64) -> TrainingData {
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut d = TrainingData::default();
        for _ in 0..n {
            let bg: [f64; 4] = std::array::from_fn(|_| rng.range_f64(0.0, 100.0));
            let f = tracon_core::joint_features(solo, &Characteristics::from_array(bg));
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
                runtime: train_model(ModelKind::Linear, d),
                iops: train_model(ModelKind::Linear, d),
            };
            base.add_app(profile, models);
        }
        let cfg = MonitorConfig {
            window_capacity: 40,
            rebuild_every: 10,
            ..MonitorConfig::default()
        };
        let mut obs =
            AdaptiveObserver::new(&base, &names, ModelKind::Linear, &initial, &initial, cfg);
        // App a rebuilds on its tenth completion; app b then completes three
        // tasks far slower than it was trained on, and does not rebuild.
        let rebuilt: Vec<bool> = (0..10)
            .map(|_| obs.record(0, Some(1), 150.0, 40.0))
            .collect();
        assert_eq!(rebuilt.iter().filter(|&&r| r).count(), 1);
        for _ in 0..3 {
            assert!(!obs.record(1, Some(0), 400.0, 10.0));
        }
        let swapped = obs.updated_predictor().expect("a rebuild fired");
        for (app, nb) in [(0, 1), (1, 0), (1, IDLE)] {
            let bg = if nb == IDLE {
                Characteristics::idle()
            } else {
                obs.solo_chars(nb)
            };
            let scored = swapped.predict_runtime(&names[app], &bg);
            let monitored = obs.predict_runtime(app, nb);
            // Inside the predictor's [solo, 30 x solo] clamp.
            assert!(
                monitored > 50.0 && monitored < 1500.0,
                "clamp binds: {monitored}"
            );
            assert_eq!(
                scored.to_bits(),
                monitored.to_bits(),
                "app {app} next to {nb}"
            );
        }
        assert_eq!(obs.total_rebuilds(), 2, "a's runtime and IOPS models only");
    }
}
