//! Interference-aware scheduling (paper Section 3.2): the FIFO baseline
//! and the three TRACON schedulers — MIOS (online, Algorithm 1), MIBS
//! (batch Min-Min pairing, Algorithm 2), and MIX (best-head batch,
//! Algorithm 3) — each optimizing either total runtime or total IOPS —
//! and the [`gate`] that decides when they run and what they see.

pub mod ablation;
pub mod cluster;
pub mod fifo;
pub mod gate;
pub mod mibs;
pub mod mios;
pub mod mix;

pub use ablation::{MibsAblation, MibsVariant};
pub use cluster::{ClusterState, FreeClass, Resident, VmRef};
pub use fifo::Fifo;
pub use mibs::Mibs;
pub use mios::Mios;
pub use mix::Mix;

use crate::interner::AppId;
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// A schedulable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Unique task id.
    pub id: u64,
    /// The application the task runs (interned via the cluster's
    /// [`crate::interner::AppRegistry`]).
    pub app: AppId,
}

impl Task {
    /// Creates a task.
    pub fn new(id: u64, app: AppId) -> Self {
        Task { id, app }
    }
}

/// One scheduling decision.
#[derive(Debug, Clone, Copy)]
pub struct Assignment {
    /// The assigned task.
    pub task: Task,
    /// The chosen VM slot.
    pub vm: VmRef,
    /// Predicted score of the placement at decision time (lower better).
    pub predicted_score: f64,
}

/// A scheduling algorithm. `schedule` drains as much of the queue as the
/// cluster's free slots allow, applying its placements to `cluster` and
/// returning them; tasks that cannot be placed remain queued.
pub trait Scheduler {
    /// Scheduler name, e.g. "MIBS_RT(8)".
    fn name(&self) -> String;

    /// The batch window: how many of the oldest queued tasks one call
    /// sees, and how many the [`gate`] waits for (`None` for the online
    /// schedulers, which see the whole queue and dispatch eagerly).
    fn window(&self) -> Option<usize> {
        None
    }

    /// Schedules queued tasks onto the cluster.
    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment>;
}

/// Places a single task on the best free slot according to the scoring
/// policy (the body of Algorithm 1, shared by MIOS, MIBS, and MIX).
/// Returns `None` when the cluster is full. Allocation-free: classes are
/// scanned straight off the free index. Public so out-of-process callers
/// (the tracond service tests) can replay a placement sequence against
/// the exact per-arrival rule the schedulers use.
pub fn place_best(
    task: Task,
    cluster: &mut ClusterState,
    scoring: &ScoringPolicy<'_>,
) -> Option<Assignment> {
    let mut best: Option<(f64, VmRef)> = None;
    for class in cluster.free_class_iter() {
        let score = scoring.class_score(task.app, &class);
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, class.example));
        }
    }
    let (score, vm) = best?;
    cluster.place(
        vm,
        Resident {
            task_id: task.id,
            app: task.app,
        },
    );
    Some(Assignment {
        task,
        vm,
        predicted_score: score,
    })
}

/// [`place_best`] with caller-owned scratch: the free classes are listed
/// once into `classes` and scored as one contiguous row in `scores`, so
/// the minimum search is a flat array walk with no per-candidate scoring
/// indirection. Bit-identical to [`place_best`] — same class order, same
/// score values, same first-strict-minimum rule — but reusable buffers
/// make it the right entry point for hot callers like MIX's head search.
pub fn place_best_with(
    task: Task,
    cluster: &mut ClusterState,
    scoring: &ScoringPolicy<'_>,
    classes: &mut Vec<FreeClass>,
    scores: &mut Vec<f64>,
) -> Option<Assignment> {
    cluster.free_classes_into(classes);
    scoring.scores_into(task.app, classes, scores);
    let mut best: Option<(f64, usize)> = None;
    for (ci, &score) in scores.iter().enumerate() {
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, ci));
        }
    }
    let (score, ci) = best?;
    let vm = classes[ci].example;
    cluster.place(
        vm,
        Resident {
            task_id: task.id,
            app: task.app,
        },
    );
    Some(Assignment {
        task,
        vm,
        predicted_score: score,
    })
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for scheduler tests: a tiny synthetic "world" with
    //! two application types — `io` tasks interfere badly with each other
    //! while `cpu` tasks are benign — so the interference-aware schedulers
    //! have an unambiguous right answer to find.

    use crate::characteristics::{Characteristics, N_JOINT};
    use crate::interner::{AppId, AppRegistry};
    use crate::model::{InterferenceModel, ModelKind};
    use crate::predictor::{AppModelSet, AppProfile, Predictor};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Runtime model: base 100 s plus a penalty proportional to the
    /// product of the two VMs' read rates (mimicking disk-stream mixing).
    struct PairwiseRuntime;
    impl InterferenceModel for PairwiseRuntime {
        fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
            100.0 + 0.02 * f[0] * f[4]
        }
        fn kind(&self) -> ModelKind {
            ModelKind::Nonlinear
        }
        fn n_terms(&self) -> usize {
            1
        }
    }

    /// IOPS model: solo IOPS shrunk by the same product interaction.
    struct PairwiseIops;
    impl InterferenceModel for PairwiseIops {
        fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
            (f[0] + f[1]) / (1.0 + 0.0002 * f[0] * f[4])
        }
        fn kind(&self) -> ModelKind {
            ModelKind::Nonlinear
        }
        fn n_terms(&self) -> usize {
            1
        }
    }

    /// Characteristics: `io` reads at 200/s, `cpu` barely at all.
    pub fn app_chars() -> HashMap<String, Characteristics> {
        let mut m = HashMap::new();
        m.insert("io".to_string(), Characteristics::new(200.0, 0.0, 0.3, 0.1));
        m.insert("cpu".to_string(), Characteristics::new(5.0, 0.0, 1.0, 0.01));
        m
    }

    /// The registry every fixture agrees on (built from the sorted app
    /// names, exactly as `ClusterState::new` and `Predictor` derive it).
    pub fn registry() -> Arc<AppRegistry> {
        Arc::new(AppRegistry::from_names(app_chars().into_keys()))
    }

    /// The interned id of a fixture application.
    pub fn aid(name: &str) -> AppId {
        registry().expect_id(name)
    }

    /// A task running the named fixture application.
    pub fn task(id: u64, name: &str) -> super::Task {
        super::Task::new(id, aid(name))
    }

    /// A resident running the named fixture application.
    pub fn resident(task_id: u64, name: &str) -> super::Resident {
        super::Resident {
            task_id,
            app: aid(name),
        }
    }

    /// Runtime model under which every pair runs at solo speed.
    struct Benign;
    impl InterferenceModel for Benign {
        fn predict(&self, _f: &[f64; N_JOINT]) -> f64 {
            100.0
        }
        fn kind(&self) -> ModelKind {
            ModelKind::Nonlinear
        }
        fn n_terms(&self) -> usize {
            1
        }
    }

    /// A predictor over the two synthetic apps.
    pub fn predictor() -> Predictor {
        predictor_with(|| Box::new(PairwiseRuntime))
    }

    /// The two apps with no runtime interference: every excess and both
    /// fragilities are exactly 0, so only window order breaks ties.
    pub fn benign_predictor() -> Predictor {
        predictor_with(|| Box::new(Benign))
    }

    fn predictor_with(runtime: fn() -> Box<dyn InterferenceModel>) -> Predictor {
        let mut p = Predictor::new();
        for (name, c) in app_chars() {
            let solo_runtime = 100.0;
            let solo_iops = c.read_rps + c.write_rps;
            p.add_app(
                AppProfile {
                    name: name.clone(),
                    solo: c,
                    solo_runtime,
                    solo_iops,
                },
                AppModelSet {
                    runtime: runtime(),
                    iops: Box::new(PairwiseIops),
                },
            );
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};

    #[test]
    fn place_best_avoids_interfering_neighbour() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        // Machine 0 hosts an io task; machine 1 is idle.
        cluster.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            resident(1, "io"),
        );
        let a = place_best(task(2, "io"), &mut cluster, &scoring).unwrap();
        assert_eq!(
            a.vm.machine, 1,
            "io task should avoid the io-occupied machine"
        );
    }

    #[test]
    fn place_best_pairs_cpu_with_io() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        cluster.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            resident(1, "io"),
        );
        // A cpu task is indifferent-ish but must not fail; any free slot ok.
        let a = place_best(task(2, "cpu"), &mut cluster, &scoring).unwrap();
        assert!(cluster.resident(a.vm).is_some());
    }

    #[test]
    fn place_best_full_cluster_returns_none() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 1, app_chars());
        assert!(place_best(task(1, "io"), &mut cluster, &scoring).is_some());
        assert!(place_best(task(2, "io"), &mut cluster, &scoring).is_none());
    }
}
