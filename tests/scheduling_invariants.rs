//! Seeded property tests of the scheduling layer: whatever the task mix,
//! cluster shape, and objective, the schedulers must produce structurally
//! valid assignments and the cluster state must stay consistent.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use tracon::core::characteristics::N_JOINT;
use tracon::core::sched::{apply, gate, FreeTable};
use tracon::core::{
    AppId, AppModelSet, AppProfile, AppRegistry, Characteristics, ClassKey, ClusterState, Fifo,
    InterferenceModel, MachineClass, Mibs, MibsAblation, MibsVariant, Mios, Mix, ModelKind,
    Objective, Predictor, Resident, Scheduler, ScoringPolicy, Task, VmRef,
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
                runtime: Arc::new(SynthModel { base: 120.0 }),
                iops: Arc::new(SynthModel { base: 10.0 }),
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

/// Schedulers `0..8`: FIFO, MIOS, MIBS, MIX, then the four MIBS
/// ablations.
fn build_scheduler(idx: usize, window: usize) -> Box<dyn Scheduler> {
    match idx {
        0 => Box::new(Fifo),
        1 => Box::new(Mios::default()),
        2 => Box::new(Mibs::new(window)),
        3 => Box::new(Mix::new(window)),
        _ => Box::new(MibsAblation::new(MibsVariant::ALL[idx - 4], window)),
    }
}

/// Every scheduler, on 1–5 slots per machine: no slot double-booked,
/// assignments within bounds, placed + leftover == submitted, and the
/// cluster's free count drops by exactly the number of assignments.
#[test]
fn assignments_are_structurally_valid() {
    check_cases(0..128, |rng| {
        let sched_idx = rng.range_usize(0, 8);
        let spm = rng.range_usize(1, 6);
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
        let mut cluster = ClusterState::new(n_machines, spm, chars);
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
            assert!(a.vm.slot < spm);
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

/// The free index `ClusterState` kept before its bitsets, rebuilt
/// literally from the residents `occupied()` reports: every free slot of
/// an up machine under `(neighbour-class key, machine-class index)`.
fn free_model(c: &ClusterState) -> BTreeMap<(ClassKey, u16), BTreeSet<VmRef>> {
    let residents: HashMap<VmRef, AppId> = c.occupied().map(|(vm, r)| (vm, r.app)).collect();
    let mut model: BTreeMap<_, BTreeSet<VmRef>> = BTreeMap::new();
    for machine in (0..c.n_machines()).filter(|&m| !c.is_down(m)) {
        let on = |slot| residents.get(&VmRef { machine, slot });
        for slot in (0..c.slots_per_machine()).filter(|&s| on(s).is_none()) {
            let neighbours = (0..c.slots_per_machine()).filter(|&s| s != slot);
            let key = ClassKey::from_neighbours(neighbours.filter_map(on).copied());
            let mclass = c.machine_class_index(machine);
            model
                .entry((key, mclass))
                .or_default()
                .insert(VmRef { machine, slot });
        }
    }
    model
}

fn bits(c: &Characteristics) -> [u64; 5] {
    [c.read_rps, c.write_rps, c.cpu_util, c.dom0_util, c.net_mbps].map(f64::to_bits)
}

/// A class's neighbours combined in key order: the background every slot
/// of the class reports, whichever machine and slot order holds them.
fn key_background(c: &ClusterState, key: ClassKey) -> Characteristics {
    key.ids()
        .map(|id| c.app_chars(c.registry().name(id)))
        .fold(Characteristics::idle(), |bg, n| bg.combine(&n))
}

/// Every read of the free index agrees with [`free_model`]: the class
/// listing (order, key, machine class, example, count, background bits),
/// `first_free`, `n_free`, and — through the dispatch gate, the one
/// caller of `has_idle_machine` — whether an entirely idle machine exists.
fn assert_matches_model(c: &ClusterState) {
    let model = free_model(c);
    let listed = c.free_classes();
    assert_eq!(listed.len(), model.len(), "live classes");
    for (cl, (&(key, mclass), slots)) in listed.iter().zip(&model) {
        assert_eq!((cl.key, cl.mclass), (key, mclass));
        assert_eq!(cl.example, *slots.first().unwrap());
        assert_eq!(cl.count, slots.len());
        assert_eq!(bits(&cl.background), bits(&key_background(c, key)));
    }
    let n_free: usize = model.values().map(BTreeSet::len).sum();
    assert_eq!(c.n_free(), n_free);
    assert_eq!(c.first_free(), model.values().flatten().min().copied());
    let idle_machine = model.keys().any(|&(key, _)| key == ClassKey::IDLE);
    let fires = n_free > 0 && (idle_machine || n_free >= 2);
    assert_eq!(gate::ready(Some(usize::MAX), 1, c, false), fires);
}

/// The free index against [`free_model`] after every op of random
/// place/clear/set_down/set_up sequences, on 1–5 slots per machine and
/// homogeneous or heterogeneous machine classes.
#[test]
fn free_index_matches_btree_model() {
    check_cases(0..128, |rng| {
        // Up to 235 slots: class bitsets span up to four 64-bit words.
        let n_machines = rng.range_usize(1, 48);
        let spm = rng.range_usize(1, 6);
        let (_, chars) = world(4);
        let mut cluster = ClusterState::new(n_machines, spm, chars);
        if rng.next_u64() & 1 == 1 {
            let table = vec![
                MachineClass::local(),
                MachineClass::remote("iscsi", 1.5, 0.6, 100.0),
                MachineClass::remote("nfs", 2.0, 0.4, 50.0),
            ];
            let assignment = (0..n_machines)
                .map(|_| rng.range_usize(0, 3) as u16)
                .collect();
            cluster.set_machine_classes(table, assignment);
        }
        let registry = cluster.registry().clone();
        assert_matches_model(&cluster);
        for task_id in 0..rng.range_usize(0, 160) as u64 {
            let machine = rng.range_usize(0, n_machines);
            let vm = VmRef {
                machine,
                slot: rng.range_usize(0, spm),
            };
            let app = registry.expect_id(&format!("app{}", rng.range_usize(0, 4)));
            match rng.range_usize(0, 10) {
                0..=4 if !cluster.is_down(machine) && cluster.resident(vm).is_none() => {
                    cluster.place(vm, Resident { task_id, app })
                }
                5..=7 if cluster.resident(vm).is_some() => {
                    cluster.clear(vm);
                }
                8 if !cluster.is_down(machine) => {
                    cluster.set_down(machine);
                }
                9 if cluster.is_down(machine) => cluster.set_up(machine),
                _ => {}
            }
            assert_matches_model(&cluster);
        }
    });
    // The global first free slot is in a non-idle class on the last-listed
    // machine class, below every idle slot.
    let (_, chars) = world(2);
    let mut cluster = ClusterState::new(3, 2, chars);
    let remote = MachineClass::remote("iscsi", 1.5, 0.6, 100.0);
    cluster.set_machine_classes(vec![MachineClass::local(), remote], vec![1, 0, 0]);
    let app = cluster.registry().expect_id("app1");
    cluster.place(
        VmRef {
            machine: 0,
            slot: 0,
        },
        Resident { task_id: 0, app },
    );
    assert_matches_model(&cluster);
    assert_eq!(cluster.free_classes()[0].key, ClassKey::IDLE);
    assert_eq!(
        cluster.first_free(),
        Some(VmRef {
            machine: 0,
            slot: 1
        })
    );
}

/// The schedulers' free table equals a fresh listing of the cluster its
/// picks were applied to: order, key, machine class, count, background
/// bits, and the excess bits of every `priced` app (NaN for the other
/// apps; no row at all until an app is priced).
fn assert_table_matches(
    table: &FreeTable,
    c: &ClusterState,
    scoring: &ScoringPolicy,
    priced: &[AppId],
) {
    let listed = c.free_classes();
    assert_eq!(table.classes().len(), listed.len(), "table classes");
    for (ci, (t, cl)) in table.classes().iter().zip(&listed).enumerate() {
        assert_eq!((t.key, t.mclass, t.count), (cl.key, cl.mclass, cl.count));
        assert_eq!(bits(&t.background), bits(&cl.background));
        let excess = |app| match priced.contains(&app) {
            true => scoring.class_score(app, cl) - scoring.solo_score(app),
            false => f64::NAN,
        };
        let apps = c.registry().ids().filter(|_| !priced.is_empty());
        let row: Vec<u64> = apps.map(|app| excess(app).to_bits()).collect();
        let table_row: Vec<u64> = table.excess(ci).iter().map(|x| x.to_bits()).collect();
        assert_eq!(table_row, row, "excess row of class {ci}");
    }
}

/// Random pick sequences on a [`FreeTable`] listed from random clusters
/// (1–5 slots per machine, half heterogeneous, some machines down, some
/// slots taken), with random apps priced before and between picks. After
/// every `take` the same pick is applied to a copy of the cluster: it
/// must land on its class's lowest free slot with the class score the
/// table priced, and the table must match the copy's fresh listing.
#[test]
fn free_table_matches_listing() {
    check_cases(0..128, |rng| {
        let n_machines = rng.range_usize(1, 48);
        let spm = rng.range_usize(1, 6);
        let (predictor, chars) = world(4);
        let objective = if rng.next_u64() & 1 == 1 {
            Objective::MaxIops
        } else {
            Objective::MinRuntime
        };
        let mut scoring = ScoringPolicy::new(&predictor, objective);
        let mut cluster = ClusterState::new(n_machines, spm, chars);
        if rng.next_u64() & 1 == 1 {
            let table = vec![
                MachineClass::local(),
                MachineClass::remote("iscsi", 1.5, 0.6, 100.0),
                MachineClass::remote("nfs", 2.0, 0.4, 50.0),
            ];
            let assignment = (0..n_machines)
                .map(|_| rng.range_usize(0, 3) as u16)
                .collect();
            cluster.set_machine_classes(table.clone(), assignment);
            scoring = scoring.with_machine_classes(table, vec![0.0, 10.0, 25.0, 40.0]);
        }
        let registry = cluster.registry().clone();
        let app = |rng: &mut ChaCha12| registry.expect_id(&format!("app{}", rng.range_usize(0, 4)));
        for task_id in 0..rng.range_usize(0, n_machines * spm) as u64 {
            let machine = rng.range_usize(0, n_machines);
            let vm = VmRef {
                machine,
                slot: rng.range_usize(0, spm),
            };
            if cluster.is_down(machine) || cluster.resident(vm).is_some() {
                continue;
            }
            if rng.range_usize(0, 12) == 0 {
                cluster.set_down(machine);
            } else {
                cluster.place(
                    vm,
                    Resident {
                        task_id,
                        app: app(rng),
                    },
                );
            }
        }
        let mut table = FreeTable::default();
        table.list(&cluster);
        let mut applied = cluster.clone();
        let mut priced = Vec::new();
        assert_table_matches(&table, &applied, &scoring, &priced);
        for task_id in 1_000..1_000 + rng.range_usize(0, 2 * n_machines * spm) as u64 {
            if rng.range_usize(0, 3) == 0 {
                priced.push(app(rng));
                table.price(*priced.last().unwrap(), &scoring);
                assert_table_matches(&table, &applied, &scoring, &priced);
            }
            if table.classes().is_empty() {
                break;
            }
            let ci = rng.range_usize(0, table.classes().len());
            let class = applied.free_classes()[ci];
            let pick = table.take(ci, Task::new(task_id, app(rng)), &cluster, &scoring);
            let lowest = free_model(&applied)[&(class.key, class.mclass)]
                .first()
                .copied();
            let placed = apply(&mut applied, &[pick]);
            assert_eq!(Some(placed[0].vm), lowest);
            let score = scoring.class_score(pick.task.app, &class);
            assert_eq!(placed[0].predicted_score.to_bits(), score.to_bits());
            assert_table_matches(&table, &applied, &scoring, &priced);
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
