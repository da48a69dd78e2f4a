//! Interference-aware scheduling (paper Section 3.2): the FIFO baseline
//! and the three TRACON schedulers — MIOS (online, Algorithm 1), MIBS
//! (batch Min-Min pairing, Algorithm 2), and MIX (best-head batch,
//! Algorithm 3) — each optimizing either total runtime or total IOPS —
//! the [`gate`] that decides when they run and what they see, and the
//! catalogue, [`SchedulerKind`], that names and builds them.
//!
//! Every scheduler but FIFO decides on a [`FreeTable`]: the cluster's
//! free classes, listed once per call and updated pick by pick. [`apply`]
//! commits the picks, and is the only code besides FIFO that places on
//! the [`ClusterState`]. FIFO takes the lowest free slot, which is not a
//! question about classes.

pub mod ablation;
pub mod cluster;
pub mod fifo;
pub mod gate;
pub mod kind;
pub mod mibs;
pub mod mios;
pub mod mix;

pub use ablation::{MibsAblation, MibsVariant};
pub use cluster::{ClusterState, FreeClass, Resident, VmRef};
pub use fifo::Fifo;
pub use kind::SchedulerKind;
pub use mibs::Mibs;
pub use mios::Mios;
pub use mix::Mix;

use crate::characteristics::Characteristics;
use crate::interner::{AppId, ClassKey};
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
/// returning them; tasks that cannot be placed remain queued. Every
/// scheduler but FIFO decides on a [`FreeTable`] and [`apply`] commits;
/// FIFO takes the lowest free slot.
pub trait Scheduler {
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
        scoring: &ScoringPolicy,
    ) -> Vec<Assignment>;
}

/// One class of a [`FreeTable`]: a [`FreeClass`] without an example slot.
/// Test hook, not public API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct TableClass {
    /// Packed neighbour-class key.
    pub key: ClassKey,
    /// [`ClusterState::background_of`] any slot of the class.
    pub background: Characteristics,
    /// How many free slots belong to the class.
    pub count: usize,
}

/// A scheduler's decision on a [`FreeTable`]: `task` goes to the
/// lowest free slot of class `key` when [`apply`] commits it.
/// Test hook, not public API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Pick {
    /// The placed task.
    pub task: Task,
    /// Neighbour-class key of the chosen class.
    pub key: ClassKey,
    /// Predicted score of the placement at decision time.
    pub score: f64,
}

/// What every scheduler but FIFO decides on instead of the live cluster:
/// its free classes, listed once, each with a row of interference excess
/// over the apps priced so far (an app is priced on every class once, and
/// a class entering the table is priced for every priced app). A pick of
/// app `a` on class `K` takes one machine of `K` (`slots_per_machine -
/// |K|` free slots) and moves the rest of that machine to `K + a`. That
/// depends only on the key, so after any picks the table
/// is what a fresh listing of the cluster with those picks [`apply`]-ed
/// would show, in the same order. Test hook, not public API.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct FreeTable {
    /// The classes, sorted by key like the cluster's listing.
    classes: Vec<TableClass>,
    /// Row `ci`, one entry per app, is each priced app's excess on
    /// `classes[ci]` (NaN for the others).
    excess: Vec<f64>,
    /// Which apps the rows price; empty, and the rows with it, until the
    /// first app is priced (MIOS never prices).
    priced: Vec<bool>,
    slots_per_machine: usize,
    /// Whether the rows hold the class score itself instead of the excess
    /// (MIBS's absolute-score ablation). Kept across listings.
    pub(super) absolute: bool,
}

/// An app's row entry on a class: its class score less its solo score
/// (its interference excess), or the class score itself when `absolute`.
fn excess_on(app: AppId, class: &TableClass, scoring: &ScoringPolicy, absolute: bool) -> f64 {
    let score = scoring.score(app, class.key, &class.background);
    match absolute {
        true => score,
        false => score - scoring.solo_score(app),
    }
}

impl FreeTable {
    /// Refills the table from the cluster's free-class listing, with no
    /// app priced.
    pub fn list(&mut self, cluster: &ClusterState) {
        self.classes.clear();
        self.excess.clear();
        self.priced.clear();
        self.slots_per_machine = cluster.slots_per_machine();
        let listed = cluster.free_class_iter().map(|c| TableClass {
            key: c.key,
            background: c.background,
            count: c.count,
        });
        self.classes.extend(listed);
    }

    /// Overwrites the table with `base`, reusing its buffers (one MIX
    /// head).
    fn copy_from(&mut self, base: &FreeTable) {
        self.classes.clone_from(&base.classes);
        self.excess.clone_from(&base.excess);
        self.priced.clone_from(&base.priced);
        self.slots_per_machine = base.slots_per_machine;
        self.absolute = base.absolute;
    }

    /// Prices `app` on every class, unless it is already.
    pub fn price(&mut self, app: AppId, scoring: &ScoringPolicy) {
        if self.priced.is_empty() {
            self.priced.resize(scoring.n_apps(), false);
            self.excess
                .resize(self.classes.len() * scoring.n_apps(), f64::NAN);
        }
        let (n, a) = (self.priced.len(), app.index());
        if !self.priced[a] {
            self.priced[a] = true;
            for (ci, class) in self.classes.iter().enumerate() {
                self.excess[ci * n + a] = excess_on(app, class, scoring, self.absolute);
            }
        }
    }

    fn insert(&mut self, at: usize, class: TableClass, scoring: &ScoringPolicy) {
        let n = self.priced.len();
        let row = self
            .priced
            .iter()
            .enumerate()
            .map(|(a, &priced)| match priced {
                true => excess_on(AppId(a as u16), &class, scoring, self.absolute),
                false => f64::NAN,
            });
        self.excess.splice(at * n..at * n, row);
        self.classes.insert(at, class);
    }

    /// The classes, in listing order.
    pub fn classes(&self) -> &[TableClass] {
        &self.classes
    }

    /// Every app's interference excess on class `ci` (its class score
    /// less its solo score; the class score on an absolute table), NaN
    /// for an app not priced; empty until an app is priced.
    pub fn excess(&self, ci: usize) -> &[f64] {
        let n = self.priced.len();
        &self.excess[ci * n..(ci + 1) * n]
    }

    /// The class MIOS's rule gives `app`, with its score: the first strict
    /// minimum of the class scores, in listing order.
    fn best_for(&self, app: AppId, scoring: &ScoringPolicy) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (ci, c) in self.classes.iter().enumerate() {
            let score = scoring.score(app, c.key, &c.background);
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((ci, score));
            }
        }
        best
    }

    /// The pick of class `ci` for `task` at class score `score`. The table
    /// stays as it is until [`FreeTable::advance`] moves it past the pick.
    fn pick(&self, ci: usize, task: Task, score: f64) -> Pick {
        let c = &self.classes[ci];
        Pick {
            task,
            key: c.key,
            score,
        }
    }

    /// Picks class `ci` for `task` and advances the table past it.
    pub fn take(
        &mut self,
        ci: usize,
        task: Task,
        cluster: &ClusterState,
        scoring: &ScoringPolicy,
    ) -> Pick {
        let c = &self.classes[ci];
        let score = scoring.score(task.app, c.key, &c.background);
        let pick = self.pick(ci, task, score);
        self.advance(ci, task.app, cluster, scoring);
        pick
    }

    /// Moves the table past a pick of class `ci` by `app`: takes one of the
    /// class's machines and moves that machine's other free slots to their
    /// new class. `cluster` only gives the background of a class the table
    /// has not held ([`ClusterState::class_background`] is a function of
    /// the key).
    fn advance(&mut self, ci: usize, app: AppId, cluster: &ClusterState, scoring: &ScoringPolicy) {
        let c = self.classes[ci];
        let freed = self.slots_per_machine - c.key.count();
        self.classes[ci].count -= freed;
        if self.classes[ci].count == 0 {
            self.classes.remove(ci);
            let n = self.priced.len();
            self.excess.drain(ci * n..(ci + 1) * n);
        }
        if freed > 1 {
            let (to, count) = (c.key.with(app), freed - 1);
            match self.classes.binary_search_by_key(&to, |k| k.key) {
                Ok(at) => self.classes[at].count += count,
                Err(at) => {
                    let background = cluster.class_background(to);
                    let class = TableClass {
                        key: to,
                        background,
                        count,
                    };
                    self.insert(at, class, scoring);
                }
            }
        }
    }
}

/// Commits picks in order, each on the lowest free slot of its class:
/// the `example` a fresh listing gives that class at that point. A
/// search on a table listed from `cluster` therefore places exactly where
/// placing each pick on its listed example would have. Test hook, not
/// public API.
///
/// # Panics
/// Panics when a pick names a class with no free slot.
#[doc(hidden)]
pub fn apply(cluster: &mut ClusterState, picks: &[Pick]) -> Vec<Assignment> {
    let commit = |p: &Pick| {
        let vm = cluster.first_free_in(p.key);
        let (task_id, app) = (p.task.id, p.task.app);
        cluster.place(vm, Resident { task_id, app });
        Assignment {
            task: p.task,
            vm,
            predicted_score: p.score,
        }
    };
    picks.iter().map(commit).collect()
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
        predictor_with(Arc::new(PairwiseRuntime))
    }

    /// The two apps with no runtime interference: every excess and both
    /// fragilities are exactly 0, so only window order breaks ties.
    pub fn benign_predictor() -> Predictor {
        predictor_with(Arc::new(Benign))
    }

    fn predictor_with(runtime: Arc<dyn InterferenceModel>) -> Predictor {
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
                    runtime: Arc::clone(&runtime),
                    iops: Arc::new(PairwiseIops),
                },
            );
        }
        p
    }
}
