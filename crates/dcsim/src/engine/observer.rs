//! The observer layer: hooks the event kernel calls as the simulation
//! unfolds. The kernel itself only moves time forward and keeps the slot
//! state consistent — everything *about* a run (metrics, online model
//! adaptation) is an observer.

use crate::perf::IDLE;
use tracon_core::{Monitor, Predictor, VmRef};

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
}

/// The neighbour a completed task started next to, `None` for [`IDLE`].
fn neighbor(info: &CompletionInfo) -> Option<usize> {
    (info.neighbor_at_start != IDLE).then_some(info.neighbor_at_start)
}

/// Online model adaptation (paper Section 4.6): the task & resource
/// [`Monitor`] attached to the kernel. Every completion feeds it, and
/// after a rebuild the next poll hands the kernel the monitors' own
/// predictor, so the scheduler scores against them *mid-run*.
impl SimObserver for Monitor {
    fn on_completion(&mut self, info: &CompletionInfo) {
        self.record(info.app_idx, neighbor(info), info.runtime, info.avg_iops);
    }

    fn updated_predictor(&mut self) -> Option<Predictor> {
        self.take_predictor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_core::{
        joint_features, train_model, AppModelSet, AppProfile, Characteristics, ModelKind,
        MonitorConfig, TrainingData,
    };
    use tracon_stats::prng::ChaCha12;

    /// A monitor over three apps whose linear models were trained on
    /// "runtime 100 s plus a read-rate penalty", rebuilding every 8
    /// observations.
    fn monitor() -> Monitor {
        let names: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let mut rng = ChaCha12::seed_from_u64(1);
        let mut chars =
            || Characteristics::from_array(std::array::from_fn(|_| rng.range_f64(0.0, 60.0)));
        let mut base = Predictor::new();
        let mut initial = Vec::new();
        for name in &names {
            let solo = chars();
            let mut d = TrainingData::default();
            for _ in 0..30 {
                let bg = chars();
                d.push(joint_features(&solo, &bg), 100.0 + bg.read_rps);
            }
            let profile = AppProfile {
                name: name.clone(),
                solo,
                solo_runtime: 50.0,
                solo_iops: 50.0,
            };
            let models = AppModelSet {
                runtime: train_model(ModelKind::Linear, &d),
                iops: train_model(ModelKind::Linear, &d),
            };
            base.add_app(profile, models);
            initial.push(d);
        }
        let cfg = MonitorConfig {
            window_capacity: 30,
            rebuild_every: 8,
            drift_window: 10,
            ..MonitorConfig::default()
        };
        Monitor::new(&base, &names, ModelKind::Linear, &initial, &initial, cfg)
    }

    /// The simulator and `tracond` drive one loop: a completion stream fed
    /// through the kernel's hooks (an idle neighbour is [`IDLE`]) and the
    /// same stream fed through [`Monitor::record`] (idle is `None`) leave
    /// equal counters and swap in bit-identical predictors.
    #[test]
    fn the_kernel_adapter_feeds_the_loop_record_feeds() {
        let (mut kernel, mut direct) = (monitor(), monitor());
        let (mut from_kernel, mut from_record) = (None, None);
        let mut handed = [0, 0];
        let mut rng = ChaCha12::seed_from_u64(2);
        let mut solo_runs = 0;
        for i in 0..240 {
            let app_idx = rng.range_usize(0, 3);
            let nb = rng.range_usize(0, 4);
            let neighbor = (nb < 3).then_some(nb);
            solo_runs += usize::from(neighbor.is_none());
            // The environment shifts halfway: runtimes triple.
            let runtime = (100.0 + rng.range_f64(0.0, 60.0)) * if i < 120 { 1.0 } else { 3.0 };
            let avg_iops = rng.range_f64(10.0, 90.0);
            kernel.on_completion(&CompletionInfo {
                time: i as f64,
                vm: VmRef {
                    machine: 0,
                    slot: 0,
                },
                app_idx,
                neighbor_at_start: neighbor.unwrap_or(IDLE),
                runtime,
                avg_iops,
            });
            direct.record(app_idx, neighbor, runtime, avg_iops);
            // The kernel polls after every event; tracond after a rebuild.
            if let Some(p) = kernel.updated_predictor() {
                from_kernel = Some(p);
                handed[0] += 1;
            }
            if let Some(p) = direct.take_predictor() {
                from_record = Some(p);
                handed[1] += 1;
            }
        }
        assert!(solo_runs > 0, "the stream has idle neighbours");
        let counters = |m: &Monitor| {
            [
                m.observed(),
                m.total_rebuilds(),
                m.total_drifts(),
                m.predictor_swaps(),
            ]
        };
        assert_eq!(counters(&kernel), counters(&direct));
        assert_eq!(
            handed,
            [kernel.predictor_swaps(); 2],
            "one predictor per swap"
        );
        assert!(
            counters(&kernel).iter().all(|&c| c > 0),
            "every counter moves: {:?}",
            counters(&kernel)
        );
        let (from_kernel, from_record) = (from_kernel.unwrap(), from_record.unwrap());
        for app in 0..3 {
            let name = &kernel.app_names()[app];
            for nb in [Some(0), Some(1), Some(2), None] {
                let bg = nb.map_or(Characteristics::idle(), |n| kernel.solo_chars(n));
                let predictions = [
                    from_kernel.predict_runtime(name, &bg),
                    from_record.predict_runtime(name, &bg),
                    from_kernel.predict_iops(name, &bg),
                    from_record.predict_iops(name, &bg),
                ];
                assert_eq!(
                    predictions[0].to_bits(),
                    predictions[1].to_bits(),
                    "{name} next to {nb:?}"
                );
                assert_eq!(
                    predictions[2].to_bits(),
                    predictions[3].to_bits(),
                    "{name} next to {nb:?}"
                );
                assert_eq!(
                    kernel.predict_runtime(app, nb).to_bits(),
                    direct.predict_runtime(app, nb).to_bits()
                );
            }
        }
    }
}
