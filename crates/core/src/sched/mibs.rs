//! Minimum Interference Batch Scheduler (paper Algorithm 2, built on the
//! Min-Min heuristic of Ibarra & Kim that the paper cites).
//!
//! The paper describes Min-Min as: "find a machine with the minimum score
//! for each task on the queue (the first 'Min'); among all task-machine
//! pairs, find the pair with the minimum score and assign the selected
//! task to its corresponding machine (the second 'Min'); repeat until the
//! queue is empty". We implement exactly that loop over the batch window
//! and the free-slot classes, with two deliberate choices:
//!
//! * **The score is the interference excess** — the predicted cost of the
//!   slot *over an idle machine*. Scoring absolute runtime would make
//!   every short task look like a perfect fit for every slot; scoring the
//!   excess selects the (task, slot) pair that genuinely interferes
//!   least, which is what "least interference with candidate 1" means.
//! * **Ties prefer the most self-interfering task** (and idle slots).
//!   When all free slots are idle every pairing has zero excess; letting
//!   the most fragile tasks claim machines first means the benign tasks
//!   are matched *to them* afterwards, instead of insensitive tasks
//!   consuming the benign partners that fragile tasks need.
//!
//! The head-candidate formulation in the paper's Algorithm 2 listing is a
//! special case that degrades to FIFO-like behaviour in the dynamic
//! scenario, where slots free up one at a time: the whole value of the
//! batch window is choosing *which* queued task fits the freed slot.
//!
//! Tasks of one app share a row, so a round first scans only each app's
//! earliest window task. That answer is kept when the round is
//! *certified*: the winner beats every other (app, class) candidate in
//! the scan's own comparison whichever of the two comes first, except
//! candidates of its own app with an identical key. A certified winner is
//! the same in any window order; otherwise the round rescans the whole
//! window, which is the plain Min-Min loop. [`super::Mix`] uses the same
//! certificate to skip heads whose answer it already knows.
//!
//! The rounds decide on a [`FreeTable`]: the free classes are listed once
//! per call, an app's excess is priced on them the first time a round
//! meets the app, and each pick updates the table instead of the cluster.
//! Only [`apply`] touches the cluster, placing each pick on its class's
//! lowest free slot.

use super::{apply, Assignment, ClusterState, FreeTable, MibsVariant, Pick, Scheduler, Task};
use crate::interner::{AppId, ClassKey};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// The batch scheduler. `queue_len` is its batch window (MIBS_2/4/8 in
/// the paper); the algorithm itself schedules whatever it is given.
#[derive(Debug, Clone)]
pub struct Mibs {
    /// The batch window [`Scheduler::window`] reports: the
    /// [`gate`](super::gate) waits for this many queued tasks and hands
    /// the scheduler at most this many.
    pub queue_len: usize,
    /// The table the rounds decide on: listed per call, or copied in per
    /// head by [`super::Mix`]. Tasks of one app share the app's excess,
    /// priced once per table, so a round after the first scores nothing
    /// it has not scored before.
    pub(super) table: FreeTable,
    /// The tasks left to place, in the order the rounds scan them.
    pub(super) window: Vec<Task>,
    /// The picks made on `table`, in order: [`apply`]'s input.
    pub(super) picks: Vec<Pick>,
    /// Scratch: which apps the window holds this round.
    seen: Vec<bool>,
    /// Whether ties on an idle class go to the most fragile app; off in
    /// the window-order ablation.
    fragility_ties: bool,
}

impl Mibs {
    /// Creates a MIBS scheduler with the given nominal batch size.
    pub fn new(queue_len: usize) -> Self {
        Mibs {
            queue_len,
            table: FreeTable::default(),
            window: Vec::new(),
            picks: Vec::new(),
            seen: Vec::new(),
            fragility_ties: true,
        }
    }

    /// The MIBS a scoring ablation runs: `AbsoluteScore` compares class
    /// scores instead of excesses, `NoFragilityTieBreak` breaks ties by
    /// window order alone, and any other variant gets the production rule.
    pub(crate) fn ablated(queue_len: usize, variant: MibsVariant) -> Self {
        let mut mibs = Mibs::new(queue_len);
        mibs.table.absolute = variant == MibsVariant::AbsoluteScore;
        mibs.fragility_ties = variant != MibsVariant::NoFragilityTieBreak;
        mibs
    }
}

impl Default for Mibs {
    fn default() -> Self {
        Mibs::new(8)
    }
}

/// Relative tie width for excess-score comparisons.
const TIE_EPS: f64 = 1e-9;

/// A candidate's `(excess, tie)` key in the double Min.
type Key = (f64, f64);

/// Whether candidate `c` displaces incumbent `b`: a lower excess beyond
/// `TIE_EPS`, else (within it) a lower tie key; `on_equal` settles an
/// equal tie key. The scan passes `false`: it walks the window in order,
/// so an equal key keeps the earlier candidate.
fn beats(c: Key, b: Key, on_equal: bool) -> bool {
    c.0 < b.0 - TIE_EPS || ((c.0 - b.0).abs() <= TIE_EPS && (c.1 < b.1 || (on_equal && c.1 == b.1)))
}

impl Mibs {
    /// The MIBS loop over `self.window` on `self.table`: picks window
    /// tasks until the window or the table's free slots run out, appending
    /// to `self.picks` and `swap_remove`-ing picked tasks from the window.
    /// `cluster` is the one the table was listed from.
    /// Returns whether every round was certified (no round at all
    /// counts), i.e. whether any window holding the same apps in any
    /// order would have made the same (app, class, slot) placements.
    pub(crate) fn fill(&mut self, cluster: &ClusterState, scoring: &ScoringPolicy) -> bool {
        let mut certified = true;
        while !self.window.is_empty() && !self.table.classes.is_empty() {
            self.seen.clear();
            self.seen.resize(scoring.n_apps(), false);
            let Some(mut pick) = self.scan(scoring, true) else {
                break;
            };
            if !self.certify(pick.0, self.window[pick.1].app, scoring) {
                certified = false;
                pick = self
                    .scan(scoring, false)
                    .expect("the window the first scan won on");
            }
            let (_, ti, ci) = pick;
            // `swap_remove` moves the window's last task into slot `ti`:
            // after the first placement, window order is not arrival order.
            let task = self.window.swap_remove(ti);
            self.picks.push(self.table.take(ci, task, cluster, scoring));
        }
        certified
    }

    /// One double-Min scan over (window task, table class) pairs; with
    /// `first_of_app` it visits only each app's earliest window task,
    /// marking the app seen and pricing it. Returns the winner's key,
    /// window index and class index.
    fn scan(&mut self, scoring: &ScoringPolicy, first_of_app: bool) -> Option<(Key, usize, usize)> {
        // Tie-breaking matters because on benign workloads almost
        // everything ties at zero excess:
        //  1. prefer idle machines (claiming one is never regrettable),
        //     and among those give the machine to the most *fragile*
        //     task — benign partners are then matched *to* it, instead
        //     of insensitive tasks consuming them;
        //  2. otherwise the first candidate in window order wins. That is
        //     the oldest task only in a call's first round: each placement
        //     `swap_remove`s the winner (see `fill`), so later rounds scan
        //     a permuted window. Always preferring fragile tasks would
        //     systematically prioritize the slowest applications and
        //     depress completed-task throughput under overload.
        let mut best: Option<(Key, usize, usize)> = None;
        for (ti, t) in self.window.iter().enumerate() {
            let a = t.app.index();
            if first_of_app {
                if self.seen[a] {
                    continue;
                }
                self.seen[a] = true;
                self.table.price(t.app, scoring);
            }
            let fragility = self.fragility(t.app, scoring);
            let n = self.table.priced.len();
            for (ci, c) in self.table.classes.iter().enumerate() {
                let key = (self.table.excess[ci * n + a], tie_key(c.key, fragility));
                if best.is_none_or(|(bk, _, _)| beats(key, bk, false)) {
                    best = Some((key, ti, ci));
                }
            }
        }
        best
    }

    /// Whether winner `w` (of app `app`) wins in every window order: for
    /// every candidate of the apps seen this round, `w` displaces it and
    /// it never displaces `w`, whichever comes first — unless it is
    /// `app`'s own with an identical key.
    fn certify(&self, w: Key, app: AppId, scoring: &ScoringPolicy) -> bool {
        let n = self.table.priced.len();
        (0..self.seen.len()).filter(|&a| self.seen[a]).all(|a| {
            let id = AppId(a as u16);
            let fragility = self.fragility(id, scoring);
            self.table.classes.iter().enumerate().all(|(ci, c)| {
                let x = (self.table.excess[ci * n + a], tie_key(c.key, fragility));
                (id == app && x == w) || (beats(w, x, false) && !beats(x, w, true))
            })
        })
    }

    /// What an app's idle-class tie key ranks by: its self-pairing score,
    /// or, without fragility ties, -inf, which gives idle classes the tie
    /// key of every other class.
    fn fragility(&self, app: AppId, scoring: &ScoringPolicy) -> f64 {
        match self.fragility_ties {
            true => scoring.pair_score(app, app),
            false => f64::NEG_INFINITY,
        }
    }
}

/// The tie key of a candidate: on an idle class the most fragile app
/// comes first; any other class ranks after every idle one.
fn tie_key(key: ClassKey, fragility: f64) -> f64 {
    if key.is_idle() {
        -fragility
    } else {
        f64::INFINITY
    }
}

impl Scheduler for Mibs {
    fn window(&self) -> Option<usize> {
        Some(self.queue_len)
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy,
    ) -> Vec<Assignment> {
        self.window = queue.drain(..).collect();
        self.table.list(cluster);
        self.picks.clear();
        self.fill(cluster, scoring);
        // Unplaced window tasks return to the caller's queue, in the
        // window's final (swap-permuted) order.
        queue.extend(std::mem::take(&mut self.window));
        apply(cluster, &self.picks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{aid, app_chars, benign_predictor, predictor, resident, task};

    #[test]
    fn pairs_io_with_cpu_on_full_batch() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> = VecDeque::from(vec![
            task(0, "io"),
            task(1, "io"),
            task(2, "cpu"),
            task(3, "cpu"),
        ]);
        let out = Mibs::new(4).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 4);
        let io = aid("io");
        for m in 0..2 {
            let io_count = out
                .iter()
                .filter(|a| a.vm.machine == m && a.task.app == io)
                .count();
            assert_eq!(io_count, 1, "machine {m} hosts {io_count} io tasks");
        }
    }

    #[test]
    fn fragile_tasks_claim_idle_slots_first() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        // Benign cpu tasks arrive first, but the io tasks must claim the
        // idle machines and receive the cpu tasks as partners.
        let mut queue: VecDeque<Task> = VecDeque::from(vec![
            task(0, "cpu"),
            task(1, "cpu"),
            task(2, "io"),
            task(3, "io"),
        ]);
        let out = Mibs::new(4).schedule(&mut queue, &mut cluster, &scoring);
        let io = aid("io");
        assert_eq!(
            out[0].task.app, io,
            "most fragile task must be placed first"
        );
        for m in 0..2 {
            let io_count = out
                .iter()
                .filter(|a| a.vm.machine == m && a.task.app == io)
                .count();
            assert_eq!(io_count, 1);
        }
    }

    #[test]
    fn single_free_slot_receives_best_fitting_task() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        // One slot already hosts an io task; the window holds [io, cpu].
        // The cpu task fits the freed slot better and must be selected
        // even though the io task arrived first.
        cluster.place(
            super::super::VmRef {
                machine: 0,
                slot: 0,
            },
            resident(99, "io"),
        );
        let mut queue: VecDeque<Task> = VecDeque::from(vec![task(0, "io"), task(1, "cpu")]);
        let out = Mibs::new(2).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].task.app, aid("cpu"));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].app, aid("io"));
    }

    #[test]
    fn odd_queue_schedules_leftover() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> =
            VecDeque::from(vec![task(0, "io"), task(1, "cpu"), task(2, "io")]);
        let out = Mibs::new(3).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 3);
        assert!(queue.is_empty());
    }

    /// Idle slots go to the fragile io tasks first and the cpu tasks then
    /// fill the io-neighbour slots: no winner ties another app's key, so
    /// every round keeps the one-task-per-app answer.
    #[test]
    fn distinct_keys_certify_every_round() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let cluster = ClusterState::new(2, 2, app_chars());
        let mut mibs = Mibs::new(4);
        mibs.window = vec![task(0, "cpu"), task(1, "cpu"), task(2, "io"), task(3, "io")];
        mibs.table.list(&cluster);
        assert!(mibs.fill(&cluster, &scoring));
        let order: Vec<u64> = mibs.picks.iter().map(|a| a.task.id).collect();
        assert_eq!(order, [2, 3, 0, 1]);
    }

    /// With no interference every candidate keys `(0, -0)`: io and cpu
    /// tie exactly, so the round is not certified and the full scan
    /// decides by window order.
    #[test]
    fn cross_app_tie_falls_back_to_the_full_scan() {
        let p = benign_predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let cluster = ClusterState::new(2, 2, app_chars());
        let mut mibs = Mibs::new(3);
        mibs.window = vec![task(0, "cpu"), task(1, "io"), task(2, "cpu")];
        mibs.table.list(&cluster);
        assert!(!mibs.fill(&cluster, &scoring));
        assert_eq!(mibs.picks[0].task.id, 0);
        assert_eq!(mibs.picks.len(), 3);
    }
}
