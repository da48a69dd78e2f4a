//! The FIFO baseline scheduler: tasks are allocated to virtual machines
//! in first-in, first-out order, ignoring interference entirely.

use super::{Assignment, ClusterState, Resident, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// First-in-first-out placement onto the first free slot.
#[derive(Debug, Default, Clone)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> String {
        "FIFO".to_string()
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy,
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        while let Some(vm) = cluster.first_free() {
            let Some(task) = queue.pop_front() else { break };
            // Record the score the policy would have predicted, purely for
            // diagnostics — FIFO does not use it.
            let (key, background) = cluster.class_of(vm);
            let predicted_score = scoring.score(task.app, key, &background);
            cluster.place(
                vm,
                Resident {
                    task_id: task.id,
                    app: task.app,
                },
            );
            out.push(Assignment {
                task,
                vm,
                predicted_score,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{app_chars, predictor, task};
    use crate::sched::VmRef;

    #[test]
    fn fills_slots_in_order() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> = (0..3)
            .map(|i| task(i, if i % 2 == 0 { "io" } else { "cpu" }))
            .collect();
        let out = Fifo.schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 3);
        assert!(queue.is_empty());
        // FIFO packs machine 0 first: tasks 0 and 1 are co-located there.
        assert_eq!(
            out[0].vm,
            VmRef {
                machine: 0,
                slot: 0
            }
        );
        assert_eq!(
            out[1].vm,
            VmRef {
                machine: 0,
                slot: 1
            }
        );
        assert_eq!(
            out[2].vm,
            VmRef {
                machine: 1,
                slot: 0
            }
        );
    }

    #[test]
    fn leaves_overflow_queued() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        let mut queue: VecDeque<Task> = (0..5).map(|i| task(i, "io")).collect();
        let out = Fifo.schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 2);
        assert_eq!(queue.len(), 3);
        assert_eq!(cluster.n_free(), 0);
    }

    #[test]
    fn name() {
        assert_eq!(Fifo.name(), "FIFO");
    }
}
