//! Minimum Interference miXed scheduler (paper Algorithm 3).
//!
//! MIX refuses to commit to MIBS's first answer: it "gives every job a
//! chance to be the first job in the queue when executing MIBS" — each
//! window task is tried as the forced first placement, MIBS schedules
//! the remainder, and the assignment set with the best total predicted
//! score is executed. The paper's point is that the small additional
//! gain rarely justifies the overhead.
//!
//! Heads of one app share a result when they can. If every round of a
//! head's MIBS pass was certified (see [`super::mibs`]), the winners did
//! not depend on window order, so a later head of the same app — same
//! forced placement, same apps left in another order — would replay the
//! same (app, class, slot) placements with the same score bits, and the
//! strict better-rule never takes a tie. Such heads are skipped.
//!
//! The search never touches the cluster. It lists the free classes once
//! per call into a [`FreeTable`], and each head runs its forced placement
//! and its MIBS pass on a copy of that table: a few classes with their
//! excess rows, whatever the cluster size. Only the winning head's picks
//! reach the cluster, through [`apply`].

use super::{apply, Assignment, ClusterState, FreeTable, Mibs, Pick, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::{HashSet, VecDeque};

/// The mixed scheduler.
#[derive(Debug, Clone)]
pub struct Mix {
    /// The batch window [`Scheduler::window`] reports: the
    /// [`gate`](super::gate) waits for this many queued tasks and hands
    /// the scheduler at most this many, so at most this many heads.
    pub queue_len: usize,
}

impl Mix {
    /// Creates a MIX scheduler with the given nominal batch size.
    pub fn new(queue_len: usize) -> Self {
        Mix { queue_len }
    }
}

impl Default for Mix {
    fn default() -> Self {
        Mix::new(8)
    }
}

impl Mix {
    /// The head search: leaves the best head's picks in `best` (empty if
    /// no head placed). Returns how many heads were evaluated.
    fn search(
        &self,
        tasks: &[Task],
        cluster: &ClusterState,
        scoring: &ScoringPolicy,
        best: &mut Vec<Pick>,
    ) -> usize {
        // One listing and one MIBS instance serve every head: each head
        // overwrites its table with the listing and replaces its picks and
        // window in place.
        let mut base = FreeTable::default();
        base.list(cluster);
        let mut mibs = Mibs::new(self.queue_len);
        let mut settled = vec![false; scoring.n_apps()];
        let (mut best_score, mut evaluated) = (0.0, 0);
        for (head, &task) in tasks.iter().enumerate() {
            if settled[task.app.index()] {
                continue;
            }
            // Force task `head` to be placed first (by MIOS's rule), then
            // let MIBS schedule the remainder.
            let Some((ci, score)) = base.best_for(task.app, scoring) else {
                continue;
            };
            evaluated += 1;
            mibs.table.copy_from(&base);
            mibs.table.advance(ci, task.app, cluster, scoring);
            mibs.picks.splice(.., [base.pick(ci, task, score)]);
            let rest = tasks[..head].iter().chain(&tasks[head + 1..]);
            mibs.window.splice(.., rest.copied());
            // A fully certified pass settles the app (module doc).
            settled[task.app.index()] = mibs.fill(cluster, scoring);
            // Once a pass has run a MIBS round, the window's apps are priced
            // on the listing, so later heads copy the rows instead of
            // pricing them again. A forced placement that takes the last
            // free machine (one free slot) leaves nothing to price.
            if mibs.picks.len() > 1 {
                tasks.iter().for_each(|t| base.price(t.app, scoring));
            }
            // Placement count first, then total score; ties keep the
            // earlier head.
            let placed = &mibs.picks;
            let score: f64 = placed.iter().map(|p| p.score).sum();
            if best.is_empty()
                || placed.len() > best.len()
                || (placed.len() == best.len() && score < best_score)
            {
                best.clone_from(placed);
                best_score = score;
            }
        }
        evaluated
    }
}

impl Scheduler for Mix {
    fn window(&self) -> Option<usize> {
        Some(self.queue_len)
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy,
    ) -> Vec<Assignment> {
        if queue.is_empty() || cluster.n_free() == 0 {
            return Vec::new();
        }
        let tasks: Vec<Task> = queue.iter().copied().collect();
        let mut picks = Vec::new();
        self.search(&tasks, cluster, scoring, &mut picks);
        // Commit the winning picks and drop their tasks from the queue.
        let assigned_ids: HashSet<u64> = picks.iter().map(|p| p.task.id).collect();
        queue.retain(|t| !assigned_ids.contains(&t.id));
        apply(cluster, &picks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{aid, app_chars, benign_predictor, predictor, resident, task};
    use crate::sched::{Resident, VmRef};

    #[test]
    fn never_worse_than_mibs() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let tasks = vec![task(0, "io"), task(1, "io"), task(2, "cpu"), task(3, "cpu")];

        let mut c1 = ClusterState::new(2, 2, app_chars());
        let mut q1: VecDeque<Task> = tasks.clone().into();
        let mibs_out = Mibs::new(4).schedule(&mut q1, &mut c1, &scoring);

        let mut c2 = ClusterState::new(2, 2, app_chars());
        let mut q2: VecDeque<Task> = tasks.into();
        let mix_out = Mix::new(4).schedule(&mut q2, &mut c2, &scoring);

        let total = |out: &[Assignment]| -> f64 { out.iter().map(|a| a.predicted_score).sum() };
        assert_eq!(mix_out.len(), mibs_out.len());
        assert!(total(&mix_out) <= total(&mibs_out) + 1e-9);
    }

    #[test]
    fn schedules_compatible_pair_on_tight_cluster() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        let mut queue: VecDeque<Task> =
            VecDeque::from(vec![task(0, "io"), task(1, "io"), task(2, "cpu")]);
        let out = Mix::new(3).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 2);
        let apps: Vec<&str> = out
            .iter()
            .map(|a| cluster.registry().name(a.task.app))
            .collect();
        assert!(
            apps.contains(&"cpu"),
            "MIX should schedule the cpu task: {apps:?}"
        );
        assert!(apps.contains(&"io"));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn drains_everything_when_capacity_allows() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MaxIops);
        let mut cluster = ClusterState::new(4, 2, app_chars());
        let mut queue: VecDeque<Task> = (0..6)
            .map(|i| task(i, if i < 3 { "io" } else { "cpu" }))
            .collect();
        let out = Mix::new(6).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 6);
        assert!(queue.is_empty());
        // io tasks spread over distinct machines.
        let io = aid("io");
        let mut io_machines: Vec<usize> = out
            .iter()
            .filter(|a| a.task.app == io)
            .map(|a| a.vm.machine)
            .collect();
        io_machines.sort_unstable();
        io_machines.dedup();
        assert_eq!(io_machines.len(), 3);
    }

    /// `apply` exactness: after the 8 head evaluations on a 64 x 2 cluster
    /// with residents, what is left is the starting cluster plus exactly
    /// the returned assignments — and the untouched cluster once it is
    /// full.
    #[test]
    fn head_search_leaves_only_the_returned_assignments_behind() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let app = |i: usize| ["io", "cpu"][i % 2];
        let mut cluster = ClusterState::new(64, 2, app_chars());
        // 7 free slots: two idle machines and three half-occupied ones.
        for (slot, occupied) in [(0, 62), (1, 59)] {
            for machine in 0..occupied {
                let id = 1000 + (2 * machine + slot) as u64;
                cluster.place(VmRef { machine, slot }, resident(id, app(machine + slot)));
            }
        }
        let mut expected = cluster.clone();
        let mut queue: VecDeque<Task> = (0..8).map(|i| task(i, app(i as usize))).collect();

        let out = Mix::new(8).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 7);
        assert_eq!(queue.len(), 1);
        for a in &out {
            let placed = Resident {
                task_id: a.task.id,
                app: a.task.app,
            };
            expected.place(a.vm, placed);
        }
        assert_eq!(format!("{cluster:?}"), format!("{expected:?}"));

        let left = queue.clone();
        assert!(Mix::new(8)
            .schedule(&mut queue, &mut cluster, &scoring)
            .is_empty());
        assert_eq!(queue, left);
        assert_eq!(format!("{cluster:?}"), format!("{expected:?}"));
    }

    /// Every MIBS pass certifies, so the first io head and the first cpu
    /// head settle their apps and the other two heads are skipped.
    #[test]
    fn certified_heads_settle_their_app() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let cluster = ClusterState::new(2, 2, app_chars());
        let tasks = [task(0, "io"), task(1, "io"), task(2, "cpu"), task(3, "cpu")];
        let mut best = Vec::new();
        assert_eq!(Mix::new(4).search(&tasks, &cluster, &scoring, &mut best), 2);
        assert_eq!(best.len(), 4);
    }

    /// With no interference io and cpu tie exactly in every pass, no head
    /// settles its app, and all four are evaluated.
    #[test]
    fn uncertified_heads_are_all_evaluated() {
        let p = benign_predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let cluster = ClusterState::new(2, 2, app_chars());
        let tasks = [task(0, "io"), task(1, "io"), task(2, "cpu"), task(3, "cpu")];
        let mut best = Vec::new();
        assert_eq!(Mix::new(4).search(&tasks, &cluster, &scoring, &mut best), 4);
        assert_eq!(best.len(), 4);
    }

    #[test]
    fn empty_inputs() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        let mut queue = VecDeque::new();
        assert!(Mix::new(8)
            .schedule(&mut queue, &mut cluster, &scoring)
            .is_empty());
    }
}
