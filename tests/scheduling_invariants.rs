//! Seeded property tests of the scheduling layer: whatever the task mix,
//! cluster shape, and objective, the schedulers must produce structurally
//! valid assignments and the cluster state must stay consistent.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use tracon::core::characteristics::N_JOINT;
use tracon::core::{
    AppModelSet, AppProfile, AppRegistry, Characteristics, ClusterState, Fifo, InterferenceModel,
    Mibs, Mios, Mix, ModelKind, Objective, Predictor, Resident, Scheduler, ScoringPolicy, Task,
    VmRef,
};
use tracon::stats::prng::{check_cases, ChaCha12};

/// Deterministic synthetic interference model.
struct SynthModel {
    base: f64,
}

impl InterferenceModel for SynthModel {
    fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
        self.base + 0.01 * f[0] * f[4] + 20.0 * f[2] * f[6] + 0.05 * f[1] * f[5]
    }
    fn kind(&self) -> ModelKind {
        ModelKind::Nonlinear
    }
    fn n_terms(&self) -> usize {
        3
    }
}

fn world(n_apps: usize) -> (Predictor, HashMap<String, Characteristics>) {
    let mut predictor = Predictor::new();
    let mut chars = HashMap::new();
    for i in 0..n_apps {
        let name = format!("app{i}");
        let c = Characteristics::new(
            20.0 + 40.0 * i as f64,
            3.0 * i as f64,
            0.1 + 0.8 * (i as f64 / n_apps.max(1) as f64),
            0.02 * i as f64,
        );
        predictor.add_app(
            AppProfile {
                name: name.clone(),
                solo: c,
                solo_runtime: 120.0,
                solo_iops: (c.total_rps()).max(1.0),
            },
            AppModelSet {
                runtime: Box::new(SynthModel { base: 120.0 }),
                iops: Box::new(SynthModel { base: 10.0 }),
            },
        );
        chars.insert(name, c);
    }
    (predictor, chars)
}

/// Between `len.start` and `len.end - 1` indices below `bound`.
fn picks(rng: &mut ChaCha12, len: Range<usize>, bound: usize) -> Vec<usize> {
    (0..rng.range_usize(len.start, len.end))
        .map(|_| rng.range_usize(0, bound))
        .collect()
}

fn build_scheduler(idx: usize, window: usize) -> Box<dyn Scheduler> {
    match idx {
        0 => Box::new(Fifo),
        1 => Box::new(Mios),
        2 => Box::new(Mibs::new(window)),
        _ => Box::new(Mix::new(window)),
    }
}

/// Every scheduler: no slot double-booked, assignments within bounds,
/// placed + leftover == submitted, and the cluster's free count drops
/// by exactly the number of assignments.
#[test]
fn assignments_are_structurally_valid() {
    check_cases(0..64, |rng| {
        let sched_idx = rng.range_usize(0, 4);
        let n_machines = rng.range_usize(1, 12);
        let n_tasks = rng.range_usize(0, 40);
        let n_apps = rng.range_usize(1, 6);
        let objective_io = rng.next_u64() & 1 == 1;
        let app_picks = picks(rng, 0..40, 6);
        let (predictor, chars) = world(n_apps);
        let objective = if objective_io {
            Objective::MaxIops
        } else {
            Objective::MinRuntime
        };
        let scoring = ScoringPolicy::new(&predictor, objective);
        let mut cluster = ClusterState::new(n_machines, 2, chars);
        let registry = cluster.registry().clone();
        let free_before = cluster.n_free();
        let mut queue: VecDeque<Task> = (0..n_tasks)
            .map(|i| {
                let app = app_picks.get(i).copied().unwrap_or(0) % n_apps;
                Task::new(i as u64, registry.expect_id(&format!("app{app}")))
            })
            .collect();
        let submitted = queue.len();

        let mut scheduler = build_scheduler(sched_idx, submitted.max(1));
        let out = scheduler.schedule(&mut queue, &mut cluster, &scoring);

        // Structural validity.
        let mut seen_slots = HashSet::new();
        let mut seen_tasks = HashSet::new();
        for a in &out {
            assert!(a.vm.machine < n_machines);
            assert!(a.vm.slot < 2);
            assert!(seen_slots.insert(a.vm), "slot double-booked: {:?}", a.vm);
            assert!(seen_tasks.insert(a.task.id), "task scheduled twice");
            assert!(a.predicted_score.is_finite());
            // The cluster actually holds the resident.
            let r = cluster
                .resident(a.vm)
                .expect("assigned slot must be occupied");
            assert_eq!(r.task_id, a.task.id);
        }
        // Conservation.
        assert_eq!(out.len() + queue.len(), submitted);
        assert_eq!(cluster.n_free(), free_before - out.len());
        // Work conservation: tasks remain queued only when the cluster
        // filled up.
        if !queue.is_empty() {
            assert_eq!(cluster.n_free(), 0, "tasks queued while slots free");
        }
    });
}

/// Cluster state stays consistent under arbitrary place/clear
/// sequences: free-class counts always sum to the free-slot count and
/// every key matches its members' neighbour sets.
#[test]
fn cluster_state_is_consistent() {
    check_cases(0..64, |rng| {
        let n_machines = rng.range_usize(1, 8);
        let ops: Vec<(usize, bool, usize)> = (0..rng.range_usize(0, 60))
            .map(|_| {
                (
                    rng.range_usize(0, 16),
                    rng.next_u64() & 1 == 1,
                    rng.range_usize(0, 4),
                )
            })
            .collect();
        let (_, chars) = world(4);
        let mut cluster = ClusterState::new(n_machines, 2, chars);
        let registry = cluster.registry().clone();
        let n_slots = cluster.n_slots();
        for (raw, place, app) in ops {
            let slot_idx = raw % n_slots;
            let vm = VmRef {
                machine: slot_idx / 2,
                slot: slot_idx % 2,
            };
            if place && cluster.resident(vm).is_none() {
                let app_id = registry.expect_id(&format!("app{app}"));
                cluster.place(
                    vm,
                    Resident {
                        task_id: raw as u64,
                        app: app_id,
                    },
                );
            } else if !place && cluster.resident(vm).is_some() {
                cluster.clear(vm);
            }
            let class_total: usize = cluster.free_classes().iter().map(|c| c.count).sum();
            assert_eq!(class_total, cluster.n_free());
            let occupied = cluster.occupied().count();
            assert_eq!(occupied + cluster.n_free(), n_slots);
        }
    });
}

/// MIX never produces a worse total predicted score than MIBS on the
/// same inputs (it evaluates MIBS's plan among its candidates).
#[test]
fn mix_no_worse_than_mibs() {
    check_cases(0..64, |rng| {
        let n_machines = rng.range_usize(1, 6);
        let picks = picks(rng, 1..12, 4);
        let (predictor, chars) = world(4);
        let scoring = ScoringPolicy::new(&predictor, Objective::MinRuntime);
        let registry = AppRegistry::from_names(chars.keys().cloned());
        let tasks: Vec<Task> = picks
            .iter()
            .enumerate()
            .map(|(i, &a)| Task::new(i as u64, registry.expect_id(&format!("app{a}"))))
            .collect();

        let mut c1 = ClusterState::new(n_machines, 2, chars.clone());
        let mut q1: VecDeque<Task> = tasks.clone().into();
        let mibs = Mibs::new(tasks.len()).schedule(&mut q1, &mut c1, &scoring);

        let mut c2 = ClusterState::new(n_machines, 2, chars);
        let mut q2: VecDeque<Task> = tasks.into();
        let mix = Mix::new(q2.len()).schedule(&mut q2, &mut c2, &scoring);

        let total =
            |v: &[tracon::core::Assignment]| -> f64 { v.iter().map(|a| a.predicted_score).sum() };
        assert!(mix.len() >= mibs.len());
        if mix.len() == mibs.len() {
            assert!(total(&mix) <= total(&mibs) + 1e-6);
        }
    });
}
