//! Minimum Interference Online Scheduler (paper Algorithm 1).
//!
//! MIOS dispatches each incoming task immediately: it predicts the task's
//! performance on every available VM (one prediction per neighbour class)
//! and assigns the task to the VM with the best predicted score — the
//! minimum-completion-time heuristic applied to interference predictions.
//!
//! A call lists the free classes once into a [`FreeTable`] and places the
//! queued tasks in order on it: each takes the first class of least score,
//! and the table moves the rest of that machine to its new class before
//! the next task. Only [`apply`] touches the cluster, placing each pick on
//! its class's lowest free slot — the slot scoring the live cluster task
//! by task would have chosen.

use super::{apply, Assignment, ClusterState, FreeTable, Pick, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// The online scheduler.
#[derive(Debug, Default, Clone)]
pub struct Mios {
    /// The table a call decides on, listed once per call.
    table: FreeTable,
    /// The picks made on `table`, in order: [`apply`]'s input.
    picks: Vec<Pick>,
}

impl Scheduler for Mios {
    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy,
    ) -> Vec<Assignment> {
        self.table.list(cluster);
        self.picks.clear();
        // The table holds `free - picks` free slots after each pick.
        let free = cluster.n_free();
        while self.picks.len() < free {
            let Some(task) = queue.pop_front() else { break };
            let (ci, score) = self.table.best_for(task.app, scoring).expect("a class");
            self.picks.push(self.table.pick(ci, task, score));
            // The last pick leaves the table unmoved: nothing reads it again.
            if self.picks.len() < free && !queue.is_empty() {
                self.table.advance(ci, task.app, cluster, scoring);
            }
        }
        apply(cluster, &self.picks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{app_chars, predictor, resident, task};
    use crate::sched::VmRef;

    #[test]
    fn spreads_io_tasks_across_machines() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> = (0..2).map(|i| task(i, "io")).collect();
        let out = Mios::default().schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 2);
        assert_ne!(
            out[0].vm.machine, out[1].vm.machine,
            "two io tasks must land on different machines"
        );
    }

    /// An io task next to a resident io is the worst slot on offer: the
    /// task takes the idle machine, on its lowest slot.
    #[test]
    fn avoids_interfering_neighbour() {
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
        let mut queue = VecDeque::from(vec![task(2, "io")]);
        let out = Mios::default().schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(
            out[0].vm,
            VmRef {
                machine: 1,
                slot: 0
            },
            "io task should avoid the io-occupied machine"
        );
        assert_eq!(cluster.resident(out[0].vm).map(|r| r.task_id), Some(2));
    }

    #[test]
    fn pairs_io_with_cpu_when_forced() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        // io, io, io, cpu on a 2-machine cluster: the best arrangement
        // avoids an io+io machine only if the cpu task absorbs a slot —
        // but MIOS is greedy, so the third io task must co-locate with an
        // io task; the cpu task then joins the other io.
        let mut queue: VecDeque<Task> = VecDeque::from(vec![
            task(0, "io"),
            task(1, "io"),
            task(2, "io"),
            task(3, "cpu"),
        ]);
        let out = Mios::default().schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 4);
        assert_eq!(cluster.n_free(), 0);
        // Greedy cost of task 2 (io next to io) is visible in its score.
        assert!(out[2].predicted_score > out[0].predicted_score);
    }

    #[test]
    fn respects_objective() {
        let p = predictor();
        let io_scoring = ScoringPolicy::new(&p, Objective::MaxIops);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> = (0..2).map(|i| task(i, "io")).collect();
        let out = Mios::default().schedule(&mut queue, &mut cluster, &io_scoring);
        // Under MaxIops, io tasks also spread (their combined IOPS is
        // higher apart).
        assert_ne!(out[0].vm.machine, out[1].vm.machine);
    }

    #[test]
    fn stops_when_cluster_full() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 1, app_chars());
        let mut queue: VecDeque<Task> = (0..3).map(|i| task(i, "cpu")).collect();
        let out = Mios::default().schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 1);
        assert_eq!(queue.len(), 2);
    }
}
