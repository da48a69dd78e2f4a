//! Equivalence proof for the interned hot path: a string-keyed reference
//! implementation of the scheduling stack — the pre-interning design,
//! with `"+"`-joined neighbour-class keys and name-keyed memoized scoring
//! — must produce byte-identical assignment streams to the shipped
//! `AppId`/lookup-table schedulers on random task mixes.
//!
//! The reference deliberately re-derives everything from application
//! *names*: class keys are sorted names joined with `'+'` (the idle class
//! is the empty string), free slots live in a `BTreeMap<String, _>`, and
//! scores are memoized per (name, class-string) through the predictor's
//! string API. Id assignment is lexicographic and packed class keys order
//! like the joined strings, so every tie-break must coincide — down to
//! the f64 bit pattern of each predicted score.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use tracon::core::characteristics::N_JOINT;
use tracon::core::{
    AppModelSet, AppProfile, Assignment, Characteristics, ClusterState, Fifo, InterferenceModel,
    Mibs, Mios, Mix, ModelKind, Objective, Predictor, Resident, Scheduler, ScoringPolicy, Task,
    VmRef,
};
use tracon::stats::prng::{check_cases, ChaCha12};

/// A synthetic world's interference shape: the prediction for the joint
/// features of (target, background) on top of the model's `base`.
type Shape = fn(&[f64; N_JOINT], f64) -> f64;

/// Smooth pairwise interference (same shape as the
/// scheduling-invariants fixture).
fn smooth(f: &[f64; N_JOINT], base: f64) -> f64 {
    base + 0.01 * f[0] * f[4] + 20.0 * f[2] * f[6] + 0.05 * f[1] * f[5]
}

/// [`smooth`] shifted below the solo runtime: the predictor clamps light
/// pairs to solo, so their excess is exactly 0 and several apps have a
/// fragility of exactly 0 — the benign ties window order settles.
fn clamped(f: &[f64; N_JOINT], base: f64) -> f64 {
    smooth(f, base) - 30.0
}

/// Steps of 0.5e-9 over the base: excess values sit half a `TIE_EPS`
/// apart, so "within the tie width" is not transitive.
fn half_eps_steps(f: &[f64; N_JOINT], base: f64) -> f64 {
    base + 0.5e-9 * (((f[0] + 2.0 * f[4] + f[1]) / 20.0).round() % 4.0)
}

/// Deterministic synthetic interference model.
struct SynthModel {
    shape: Shape,
    base: f64,
}

impl InterferenceModel for SynthModel {
    fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
        (self.shape)(f, self.base)
    }
    fn kind(&self) -> ModelKind {
        ModelKind::Nonlinear
    }
    fn n_terms(&self) -> usize {
        3
    }
}

fn world(shape: Shape, n_apps: usize) -> (Predictor, HashMap<String, Characteristics>) {
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
                runtime: Arc::new(SynthModel { shape, base: 120.0 }),
                iops: Arc::new(SynthModel { shape, base: 10.0 }),
            },
        );
        chars.insert(name, c);
    }
    (predictor, chars)
}

// ---------------------------------------------------------------------
// The string-keyed reference implementation (pre-interning behaviour).
// ---------------------------------------------------------------------

#[derive(Clone)]
struct RefTask {
    id: u64,
    app: String,
}

#[derive(Clone)]
struct RefAssignment {
    task_id: u64,
    vm: VmRef,
    predicted_score: f64,
}

struct RefClass {
    key: String,
    background: Characteristics,
    example: VmRef,
}

struct RefCluster {
    slots_per_machine: usize,
    machines: Vec<Vec<Option<RefTask>>>,
    chars: HashMap<String, Characteristics>,
    /// Free slots keyed by the sorted `'+'`-joined neighbour names; the
    /// idle class is the empty string (which sorts first, like the packed
    /// idle key).
    free: BTreeMap<String, BTreeSet<VmRef>>,
}

impl RefCluster {
    fn new(
        n_machines: usize,
        slots_per_machine: usize,
        chars: HashMap<String, Characteristics>,
    ) -> Self {
        let mut free: BTreeMap<String, BTreeSet<VmRef>> = BTreeMap::new();
        free.insert(
            String::new(),
            (0..n_machines)
                .flat_map(|m| {
                    (0..slots_per_machine).map(move |s| VmRef {
                        machine: m,
                        slot: s,
                    })
                })
                .collect(),
        );
        RefCluster {
            slots_per_machine,
            machines: vec![vec![None; slots_per_machine]; n_machines],
            chars,
            free,
        }
    }

    fn class_key(&self, machine: usize, slot: usize) -> String {
        let mut names: Vec<&str> = self.machines[machine]
            .iter()
            .enumerate()
            .filter(|(s, r)| *s != slot && r.is_some())
            .map(|(_, r)| r.as_ref().unwrap().app.as_str())
            .collect();
        names.sort_unstable();
        names.join("+")
    }

    fn background_of(&self, vm: VmRef) -> Characteristics {
        let mut bg = Characteristics::idle();
        for (s, r) in self.machines[vm.machine].iter().enumerate() {
            if s == vm.slot {
                continue;
            }
            if let Some(res) = r {
                bg = bg.combine(&self.chars[&res.app]);
            }
        }
        bg
    }

    fn n_free(&self) -> usize {
        self.free.values().map(|s| s.len()).sum()
    }

    fn free_classes(&self) -> Vec<RefClass> {
        self.free
            .iter()
            .filter(|(_, slots)| !slots.is_empty())
            .map(|(key, slots)| {
                let example = *slots.iter().next().unwrap();
                RefClass {
                    key: key.clone(),
                    background: self.background_of(example),
                    example,
                }
            })
            .collect()
    }

    fn first_free(&self) -> Option<VmRef> {
        self.free.values().flat_map(|s| s.iter()).min().copied()
    }

    fn remove_free(&mut self, vm: VmRef) {
        let key = self.class_key(vm.machine, vm.slot);
        if let Some(set) = self.free.get_mut(&key) {
            set.remove(&vm);
            if set.is_empty() {
                self.free.remove(&key);
            }
        }
    }

    fn add_free(&mut self, vm: VmRef) {
        let key = self.class_key(vm.machine, vm.slot);
        self.free.entry(key).or_default().insert(vm);
    }

    fn detach_free_siblings(&mut self, machine: usize, changed_slot: usize) {
        for s in 0..self.slots_per_machine {
            if s != changed_slot && self.machines[machine][s].is_none() {
                self.remove_free(VmRef { machine, slot: s });
            }
        }
    }

    fn attach_free_siblings(&mut self, machine: usize, changed_slot: usize) {
        for s in 0..self.slots_per_machine {
            if s != changed_slot && self.machines[machine][s].is_none() {
                self.add_free(VmRef { machine, slot: s });
            }
        }
    }

    fn place(&mut self, vm: VmRef, task: RefTask) {
        assert!(self.machines[vm.machine][vm.slot].is_none());
        self.remove_free(vm);
        self.detach_free_siblings(vm.machine, vm.slot);
        self.machines[vm.machine][vm.slot] = Some(task);
        self.attach_free_siblings(vm.machine, vm.slot);
    }

    fn clear(&mut self, vm: VmRef) {
        assert!(self.machines[vm.machine][vm.slot].is_some());
        self.detach_free_siblings(vm.machine, vm.slot);
        self.machines[vm.machine][vm.slot] = None;
        self.add_free(vm);
        self.attach_free_siblings(vm.machine, vm.slot);
    }
}

/// String-keyed scoring with per-(name, class) memoization — the legacy
/// `RefCell<HashMap>` design the lookup tables replaced.
struct RefScoring<'a> {
    predictor: &'a Predictor,
    objective: Objective,
    cache: RefCell<HashMap<(String, String), f64>>,
}

impl<'a> RefScoring<'a> {
    fn new(predictor: &'a Predictor, objective: Objective) -> Self {
        RefScoring {
            predictor,
            objective,
            cache: RefCell::new(HashMap::new()),
        }
    }

    fn raw_score(&self, app: &str, background: &Characteristics) -> f64 {
        match self.objective {
            Objective::MinRuntime => self.predictor.predict_runtime(app, background),
            Objective::MaxIops => -self.predictor.predict_iops(app, background),
        }
    }

    fn score(&self, app: &str, key: &str, background: &Characteristics) -> f64 {
        let cache_key = (app.to_string(), key.to_string());
        if let Some(&v) = self.cache.borrow().get(&cache_key) {
            return v;
        }
        let v = self.raw_score(app, background);
        self.cache.borrow_mut().insert(cache_key, v);
        v
    }

    fn solo_score(&self, app: &str) -> f64 {
        self.raw_score(app, &Characteristics::idle())
    }

    fn excess_score(&self, app: &str, key: &str, background: &Characteristics) -> f64 {
        self.score(app, key, background) - self.solo_score(app)
    }

    fn pair_score(&self, app: &str, other: &str) -> f64 {
        match self.objective {
            Objective::MinRuntime => {
                let a = self.predictor.predict_pair_runtime(app, other)
                    - self.predictor.profile(app).solo_runtime;
                let b = self.predictor.predict_pair_runtime(other, app)
                    - self.predictor.profile(other).solo_runtime;
                a + b
            }
            Objective::MaxIops => {
                let a = self.predictor.profile(app).solo_iops
                    - self.predictor.predict_pair_iops(app, other);
                let b = self.predictor.profile(other).solo_iops
                    - self.predictor.predict_pair_iops(other, app);
                a + b
            }
        }
    }
}

fn ref_place_best(
    task: RefTask,
    cluster: &mut RefCluster,
    scoring: &RefScoring<'_>,
) -> Option<RefAssignment> {
    let mut best: Option<(f64, VmRef)> = None;
    for class in cluster.free_classes() {
        let score = scoring.score(&task.app, &class.key, &class.background);
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, class.example));
        }
    }
    let (score, vm) = best?;
    let id = task.id;
    cluster.place(vm, task);
    Some(RefAssignment {
        task_id: id,
        vm,
        predicted_score: score,
    })
}

fn ref_fifo(
    queue: &mut VecDeque<RefTask>,
    cluster: &mut RefCluster,
    scoring: &RefScoring<'_>,
) -> Vec<RefAssignment> {
    let mut out = Vec::new();
    while let Some(vm) = cluster.first_free() {
        let Some(task) = queue.pop_front() else { break };
        let key = cluster.class_key(vm.machine, vm.slot);
        let bg = cluster.background_of(vm);
        let predicted_score = scoring.score(&task.app, &key, &bg);
        let id = task.id;
        cluster.place(vm, task);
        out.push(RefAssignment {
            task_id: id,
            vm,
            predicted_score,
        });
    }
    out
}

fn ref_mios(
    queue: &mut VecDeque<RefTask>,
    cluster: &mut RefCluster,
    scoring: &RefScoring<'_>,
) -> Vec<RefAssignment> {
    let mut out = Vec::new();
    while cluster.n_free() > 0 {
        let Some(task) = queue.pop_front() else { break };
        match ref_place_best(task, cluster, scoring) {
            Some(a) => out.push(a),
            None => break,
        }
    }
    out
}

fn ref_mibs(
    queue: &mut VecDeque<RefTask>,
    cluster: &mut RefCluster,
    scoring: &RefScoring<'_>,
) -> Vec<RefAssignment> {
    const TIE_EPS: f64 = 1e-9;
    let mut out = Vec::new();
    let mut window: Vec<RefTask> = queue.drain(..).collect();
    while !window.is_empty() && cluster.n_free() > 0 {
        let classes = cluster.free_classes();
        let mut best: Option<((f64, f64, usize), usize, usize)> = None;
        for (ti, t) in window.iter().enumerate() {
            let fragility = scoring.pair_score(&t.app, &t.app);
            for (ci, c) in classes.iter().enumerate() {
                let excess = scoring.excess_score(&t.app, &c.key, &c.background);
                let tie = if c.key.is_empty() {
                    -fragility
                } else {
                    f64::INFINITY
                };
                let key = (excess, tie, ti);
                let better = match &best {
                    None => true,
                    Some((bk, _, _)) => {
                        key.0 < bk.0 - TIE_EPS
                            || ((key.0 - bk.0).abs() <= TIE_EPS && (key.1, key.2) < (bk.1, bk.2))
                    }
                };
                if better {
                    best = Some((key, ti, ci));
                }
            }
        }
        let Some((_, ti, ci)) = best else { break };
        let task = window.swap_remove(ti);
        let class = &classes[ci];
        let score = scoring.score(&task.app, &class.key, &class.background);
        let vm = class.example;
        let id = task.id;
        cluster.place(vm, task);
        out.push(RefAssignment {
            task_id: id,
            vm,
            predicted_score: score,
        });
    }
    queue.extend(window);
    out
}

fn ref_mix(
    queue: &mut VecDeque<RefTask>,
    cluster: &mut RefCluster,
    scoring: &RefScoring<'_>,
) -> Vec<RefAssignment> {
    if queue.is_empty() || cluster.n_free() == 0 {
        return Vec::new();
    }
    let tasks: Vec<RefTask> = queue.iter().cloned().collect();
    let total = |v: &[RefAssignment]| -> f64 { v.iter().map(|a| a.predicted_score).sum() };
    let mut best: Option<(f64, Vec<RefAssignment>)> = None;
    for head in 0..tasks.len() {
        let Some(first) = ref_place_best(tasks[head].clone(), cluster, scoring) else {
            continue;
        };
        let mut placed = vec![first];
        let mut rest: VecDeque<RefTask> = tasks
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != head)
            .map(|(_, t)| t.clone())
            .collect();
        placed.extend(ref_mibs(&mut rest, cluster, scoring));
        for a in placed.iter().rev() {
            cluster.clear(a.vm);
        }
        let score = total(&placed);
        let better = match &best {
            None => true,
            Some((best_score, best_assignments)) => {
                placed.len() > best_assignments.len()
                    || (placed.len() == best_assignments.len() && score < *best_score)
            }
        };
        if better {
            best = Some((score, placed));
        }
    }
    let Some((_, assignments)) = best else {
        return Vec::new();
    };
    let by_id: HashMap<u64, &RefTask> = tasks.iter().map(|t| (t.id, t)).collect();
    for a in &assignments {
        cluster.place(a.vm, by_id[&a.task_id].clone());
    }
    let assigned_ids: HashSet<u64> = assignments.iter().map(|a| a.task_id).collect();
    queue.retain(|t| !assigned_ids.contains(&t.id));
    assignments
}

// ---------------------------------------------------------------------
// The comparison harness.
// ---------------------------------------------------------------------

fn assert_streams_equal(kind: &str, real: &[Assignment], reference: &[RefAssignment]) {
    assert_eq!(
        real.len(),
        reference.len(),
        "{kind}: placement counts differ"
    );
    for (a, b) in real.iter().zip(reference) {
        assert_eq!(a.task.id, b.task_id, "{kind}: task order differs");
        assert_eq!(
            a.vm, b.vm,
            "{kind}: slot choice differs for task {}",
            b.task_id
        );
        assert_eq!(
            a.predicted_score.to_bits(),
            b.predicted_score.to_bits(),
            "{kind}: score bits differ for task {} ({} vs {})",
            b.task_id,
            a.predicted_score,
            b.predicted_score
        );
    }
}

/// One equivalence case: a synthetic world, a cluster shape whose
/// `occupied` slots already host the given apps, and a window of apps.
struct Setup<'a> {
    shape: Shape,
    n_machines: usize,
    slots: usize,
    n_apps: usize,
    occupied: &'a [(VmRef, usize)],
    picks: &'a [usize],
    objective: Objective,
}

impl Setup<'_> {
    /// A case on an empty cluster of the smooth world.
    fn empty<'a>(
        n_machines: usize,
        slots: usize,
        n_apps: usize,
        picks: &'a [usize],
        objective: Objective,
    ) -> Setup<'a> {
        Setup {
            shape: smooth,
            n_machines,
            slots,
            n_apps,
            occupied: &[],
            picks,
            objective,
        }
    }
}

fn check_all_schedulers(case: &Setup<'_>) {
    let &Setup {
        shape,
        n_machines,
        slots,
        n_apps,
        occupied,
        picks,
        objective,
    } = case;
    let (predictor, chars) = world(shape, n_apps);
    let registry = {
        let c = ClusterState::new(n_machines, slots, chars.clone());
        c.registry().clone()
    };
    let name = |p: usize| format!("app{}", p % n_apps);
    let names: Vec<String> = picks.iter().map(|&p| name(p)).collect();
    // Residents get ids above every window task's.
    let residents = || (10_000u64..).zip(occupied);

    type RefSched =
        fn(&mut VecDeque<RefTask>, &mut RefCluster, &RefScoring<'_>) -> Vec<RefAssignment>;
    let window = picks.len().max(1);
    let cases: Vec<(&str, Box<dyn Scheduler>, RefSched)> = vec![
        ("FIFO", Box::new(Fifo), ref_fifo as RefSched),
        ("MIOS", Box::new(Mios::default()), ref_mios as RefSched),
        ("MIBS", Box::new(Mibs::new(window)), ref_mibs as RefSched),
        ("MIX", Box::new(Mix::new(window)), ref_mix as RefSched),
    ];

    for (kind, mut real_sched, ref_sched) in cases {
        let scoring = ScoringPolicy::new(&predictor, objective);
        let mut cluster = ClusterState::new(n_machines, slots, chars.clone());
        for (id, &(vm, app)) in residents() {
            let app = registry.expect_id(&name(app));
            cluster.place(vm, Resident { task_id: id, app });
        }
        let mut queue: VecDeque<Task> = names
            .iter()
            .enumerate()
            .map(|(i, n)| Task::new(i as u64, registry.expect_id(n)))
            .collect();
        let real = real_sched.schedule(&mut queue, &mut cluster, &scoring);

        let ref_scoring = RefScoring::new(&predictor, objective);
        let mut ref_cluster = RefCluster::new(n_machines, slots, chars.clone());
        for (id, &(vm, app)) in residents() {
            ref_cluster.place(vm, RefTask { id, app: name(app) });
        }
        let mut ref_queue: VecDeque<RefTask> = names
            .iter()
            .enumerate()
            .map(|(i, n)| RefTask {
                id: i as u64,
                app: n.clone(),
            })
            .collect();
        let reference = ref_sched(&mut ref_queue, &mut ref_cluster, &ref_scoring);

        assert_streams_equal(kind, &real, &reference);
        // Leftover queues must agree too (same ids, same order).
        let real_left: Vec<u64> = queue.iter().map(|t| t.id).collect();
        let ref_left: Vec<u64> = ref_queue.iter().map(|t| t.id).collect();
        assert_eq!(real_left, ref_left, "{kind}: leftover queues differ");
    }
}

/// Between `len.start` and `len.end - 1` indices below `bound`.
fn picks(rng: &mut ChaCha12, len: std::ops::Range<usize>, bound: usize) -> Vec<usize> {
    (0..rng.range_usize(len.start, len.end))
        .map(|_| rng.range_usize(0, bound))
        .collect()
}

/// The interned schedulers reproduce the string-keyed reference
/// byte-for-byte on random mixes, cluster shapes, and objectives.
#[test]
fn interned_schedulers_match_string_reference() {
    check_cases(0..48, |rng| {
        let n_machines = rng.range_usize(1, 7);
        let n_apps = rng.range_usize(1, 6);
        let objective_io = rng.next_u64() & 1 == 1;
        let picks = picks(rng, 0..16, 6);
        let objective = if objective_io {
            Objective::MaxIops
        } else {
            Objective::MinRuntime
        };
        check_all_schedulers(&Setup::empty(n_machines, 2, n_apps, &picks, objective));
    });
}

/// Same equivalence with three slots per machine, which exercises the
/// multi-neighbour (two-resident) class keys and the locked fallback
/// path of the score table.
#[test]
fn interned_schedulers_match_reference_three_slots() {
    check_cases(0..48, |rng| {
        let n_machines = rng.range_usize(1, 4);
        let n_apps = rng.range_usize(1, 4);
        let picks = picks(rng, 0..10, 4);
        check_all_schedulers(&Setup::empty(
            n_machines,
            3,
            n_apps,
            &picks,
            Objective::MinRuntime,
        ));
    });
}

/// The tie-heavy regime MIX's head sharing and MIBS's one-task-per-app
/// scan must survive: windows up to 32 over up to 64 partially occupied
/// machines, in worlds where the solo clamp makes excess and fragility
/// exactly 0 and where excess values sit 0.5e-9 apart, plus the smooth
/// one. The reference is the literal old MIBS and MIX.
#[test]
fn tie_heavy_windows_match_reference() {
    let shapes: [Shape; 3] = [clamped, half_eps_steps, smooth];
    check_cases(0..36, |rng| {
        let shape = shapes[rng.range_usize(0, shapes.len())];
        let n_machines = rng.range_usize(1, 65);
        let n_apps = rng.range_usize(2, 7);
        let objective = if rng.next_u64() & 1 == 1 {
            Objective::MaxIops
        } else {
            Objective::MinRuntime
        };
        let taken_permille = rng.range_usize(0, 1000);
        let mut occupied = Vec::new();
        for machine in 0..n_machines {
            for slot in 0..2 {
                if rng.range_usize(0, 1000) < taken_permille {
                    occupied.push((VmRef { machine, slot }, rng.range_usize(0, n_apps)));
                }
            }
        }
        let picks = picks(rng, 1..33, n_apps);
        check_all_schedulers(&Setup {
            shape,
            n_machines,
            slots: 2,
            n_apps,
            occupied: &occupied,
            picks: &picks,
            objective,
        });
    });
}
