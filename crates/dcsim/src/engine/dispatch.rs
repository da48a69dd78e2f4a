//! When and how the scheduler is invoked: the batch-window trigger logic
//! and the queue-window drain that limits what batch schedulers see.

use super::event::COINCIDENCE_EPS;
use std::collections::VecDeque;
use tracon_core::{Assignment, ClusterState, Scheduler, ScoringPolicy, Task};

/// Encapsulates the dispatch-trigger policy around a scheduler's batch
/// window (`None` for the online schedulers, which dispatch eagerly).
///
/// Batch schedulers wait until their queue window fills (the paper: "the
/// scheduling process takes place when the queue that holds the incoming
/// tasks is full") — the waiting both widens the pairing choice and lets
/// free slots accumulate so pairs can land together on one machine. A
/// batch scheduler also fires when the arrival trace is exhausted
/// (drain), when an entirely idle machine is available (placing there is
/// never regrettable), or when at least two slots are free (a pairing
/// opportunity already exists, so waiting for more queue only burns
/// utilization — measurably ~5% of throughput on benign workloads). A
/// single free slot with a short queue waits for either more tasks
/// (choice) or another slot (pairing).
///
/// The gate observes the event kernel only through `next_event_time` —
/// the `(time of the earliest pending event)` peek — so it works
/// unchanged over every [`KernelQueue`](super::event::KernelQueue)
/// backend and over the main loop's buffered coincidence groups.
pub(crate) struct DispatchPolicy {
    window: Option<usize>,
}

impl DispatchPolicy {
    pub fn new(window: Option<usize>) -> Self {
        DispatchPolicy { window }
    }

    /// Whether the batch window is satisfied (always true for online
    /// schedulers). `next_event_time == None` means the arrival trace is
    /// exhausted and nothing is running, so the queue must drain.
    fn window_ready(
        &self,
        queue_len: usize,
        next_event_time: Option<f64>,
        cluster: &ClusterState,
    ) -> bool {
        match self.window {
            Some(w) => {
                queue_len >= w
                    || next_event_time.is_none()
                    || cluster.has_idle_machine()
                    || cluster.n_free() >= 2
            }
            None => true,
        }
    }

    /// The full dispatch gate. Simultaneous events (a static batch
    /// arriving at t = 0, or a machine's two slots completing together)
    /// must all be processed before the scheduler runs, or a batch
    /// scheduler would see its window one task at a time — hence the
    /// [`COINCIDENCE_EPS`] hold-off when the next event is at `now`.
    pub fn should_dispatch(
        &self,
        schedule_needed: bool,
        now: f64,
        next_event_time: Option<f64>,
        queue: &VecDeque<Task>,
        cluster: &ClusterState,
    ) -> bool {
        schedule_needed
            && self.window_ready(queue.len(), next_event_time, cluster)
            && !next_event_time.is_some_and(|t| (t - now).abs() < COINCIDENCE_EPS)
            && !queue.is_empty()
            && cluster.n_free() > 0
    }

    /// Runs the scheduler over (at most) its queue window. Window tasks
    /// the scheduler leaves unassigned return to the front of the queue
    /// in the order the scheduler leaves them: FIFO, MIOS and MIX keep
    /// arrival order, but MIBS (and its Min-Min ablations) `swap_remove`
    /// each placed task, so their leftovers come back permuted. That is
    /// a known deviation from "oldest first", kept because fixing it
    /// moves placements (ROADMAP, Figs 9–12 item).
    pub fn dispatch(
        &self,
        scheduler: &mut dyn Scheduler,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment> {
        match self.window {
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
}
