//! When to call the scheduler, and what to hand it: the one dispatch gate
//! that the simulator's event loop and the daemon's shards both run.
//!
//! Batch schedulers wait until their queue window fills (the paper: "the
//! scheduling process takes place when the queue that holds the incoming
//! tasks is full") — the waiting both widens the pairing choice and lets
//! free slots accumulate so pairs can land together on one machine. A
//! batch scheduler also fires when its caller has nothing more to wait
//! for (`flush`: the simulator's trace is drained, the daemon is draining
//! or its oldest queued task is past the batch deadline), when an
//! entirely idle machine is available (placing there is never
//! regrettable; on machines of two or more slots the next rule already
//! covers it), or when at least two slots are free (a pairing
//! opportunity already exists, so waiting for more queue only burns
//! utilization — measurably ~5% of throughput on benign workloads). A
//! single free slot with a short queue waits for either more tasks
//! (choice) or another slot (pairing). Online schedulers (no window)
//! fire whenever there is a task and a free slot.
//!
//! Neither function reads a clock: time enters only through `flush`, so
//! virtual seconds and wall-clock milliseconds share the rule.

use super::{Assignment, ClusterState, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// Whether the scheduler should run now, for a scheduler whose
/// [`Scheduler::window`] is `window`, `queue_len` queued tasks, and
/// `flush` meaning "nothing more to wait for". Never true with an empty
/// queue or a full cluster.
pub fn ready(window: Option<usize>, queue_len: usize, cluster: &ClusterState, flush: bool) -> bool {
    queue_len > 0
        && cluster.n_free() > 0
        && match window {
            Some(w) => {
                queue_len >= w || flush || cluster.has_idle_machine() || cluster.n_free() >= 2
            }
            None => true,
        }
}

/// Runs the scheduler over (at most) its [`Scheduler::window`] oldest
/// queued tasks. Window tasks the scheduler leaves unassigned return to
/// the front of the queue in the order the scheduler leaves them: FIFO,
/// MIOS and MIX keep arrival order, but MIBS (and its Min-Min ablations)
/// `swap_remove` each placed task, so their leftovers come back
/// permuted. That is a known deviation from "oldest first", kept because
/// fixing it moves placements (ROADMAP, Figs 9–12 item).
pub fn dispatch(
    scheduler: &mut dyn Scheduler,
    queue: &mut VecDeque<Task>,
    cluster: &mut ClusterState,
    scoring: &ScoringPolicy,
) -> Vec<Assignment> {
    match scheduler.window() {
        Some(window) if queue.len() > window => {
            let mut head: VecDeque<Task> = queue.drain(..window).collect();
            let out = scheduler.schedule(&mut head, cluster, scoring);
            while let Some(t) = head.pop_back() {
                queue.push_front(t);
            }
            out
        }
        _ => scheduler.schedule(queue, cluster, scoring),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Objective;
    use crate::sched::test_support::{app_chars, predictor, resident, task};
    use crate::sched::{Fifo, Mibs, VmRef};

    /// A 2-machine cluster of `slots`-slot machines with `occupied`
    /// slots taken.
    fn cluster(slots: usize, occupied: &[(usize, usize)]) -> ClusterState {
        let mut c = ClusterState::new(2, slots, app_chars());
        for (i, &(machine, slot)) in occupied.iter().enumerate() {
            c.place(VmRef { machine, slot }, resident(i as u64, "io"));
        }
        c
    }

    /// `(window, queue_len, cluster, flush, expected, what)`.
    type Case<'a> = (Option<usize>, usize, &'a ClusterState, bool, bool, &'a str);

    #[test]
    fn ready_fires_on_each_trigger_and_only_past_both_guards() {
        // One free slot, on an idle machine: only the idle-machine rule.
        let idle_machine = cluster(1, &[(0, 0)]);
        let two_free = cluster(2, &[(0, 0), (1, 0)]); // 2 free, no idle machine
        let one_free = cluster(2, &[(0, 0), (0, 1), (1, 0)]); // the lone-slot case
        let full = cluster(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let w = Some(4);
        let rows: [Case; 11] = [
            (w, 4, &one_free, false, true, "window full"),
            (w, 3, &one_free, false, false, "window one short"),
            (w, 1, &one_free, true, true, "flush"),
            (w, 1, &one_free, false, false, "lone slot, short queue"),
            (w, 1, &idle_machine, false, true, "idle machine"),
            (w, 1, &two_free, false, true, "two free slots"),
            (None, 1, &one_free, false, true, "online"),
            (w, 0, &idle_machine, true, false, "empty queue"),
            (None, 0, &two_free, false, false, "empty queue, online"),
            (w, 4, &full, true, false, "full cluster"),
            (None, 1, &full, false, false, "full cluster, online"),
        ];
        for (window, queue_len, c, flush, expected, what) in rows {
            assert_eq!(ready(window, queue_len, c, flush), expected, "{what}");
        }
    }

    #[test]
    fn dispatch_hands_over_the_window_and_returns_leftovers_in_front() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        // One free slot, five queued tasks, a window of two: only tasks
        // 0 and 1 are candidates, and the unplaced one goes back first.
        let mut c = cluster(2, &[(0, 0), (0, 1), (1, 0)]);
        let mut queue: VecDeque<Task> = [(0, "io"), (1, "io"), (2, "cpu"), (3, "cpu"), (4, "cpu")]
            .iter()
            .map(|&(id, app)| task(id, app))
            .collect();
        let out = dispatch(&mut Mibs::new(2), &mut queue, &mut c, &scoring);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].task.id < 2,
            "placed {} from outside the window",
            out[0].task.id
        );
        let ids: Vec<u64> = queue.iter().map(|t| t.id).collect();
        assert_eq!(ids, [1 - out[0].task.id, 2, 3, 4]);
        // No window: the scheduler sees the whole queue.
        let mut c = cluster(2, &[]);
        let out = dispatch(&mut Fifo, &mut queue, &mut c, &scoring);
        assert_eq!(out.len(), 4);
        assert!(queue.is_empty());
    }
}
