//! MIBS design-decision ablations.
//!
//! The production [`Mibs`](super::Mibs) makes three deliberate choices
//! (see its module docs): it scores (task, slot) pairs by *interference
//! excess*, breaks ties toward fragile tasks on idle machines, and runs
//! the Min-Min double-minimum over the whole window. Each variant here
//! disables one choice so the ablation experiment can quantify what the
//! choice contributes; `HeadFirst` is the paper's Algorithm 2 listing
//! taken literally.

use super::{place_best, Assignment, ClusterState, FreeClass, Resident, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// Which MIBS ingredient to ablate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MibsVariant {
    /// Min-Min over (task, class) pairs scored by the *absolute*
    /// predicted score instead of the interference excess — short tasks
    /// then look like good fits for every slot.
    AbsoluteScore,
    /// The production scoring but with plain window-order tie-breaking —
    /// fragile tasks no longer claim idle machines first.
    NoFragilityTieBreak,
    /// The paper's Algorithm 2 listing taken literally: candidate 1 is
    /// the queue head (placed by MIOS); candidate 2 is the remaining task
    /// with the least pairwise interference, also placed by MIOS.
    HeadFirst,
    /// Uniformly random (deterministic, seeded by task ids) placement —
    /// a second baseline besides FIFO.
    Random,
}

impl MibsVariant {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MibsVariant::AbsoluteScore => "MIBS[abs-score]",
            MibsVariant::NoFragilityTieBreak => "MIBS[no-fragility]",
            MibsVariant::HeadFirst => "MIBS[head-first]",
            MibsVariant::Random => "RANDOM",
        }
    }

    /// All ablation variants.
    pub const ALL: [MibsVariant; 4] = [
        MibsVariant::AbsoluteScore,
        MibsVariant::NoFragilityTieBreak,
        MibsVariant::HeadFirst,
        MibsVariant::Random,
    ];
}

/// An ablated MIBS.
#[derive(Debug, Clone)]
pub struct MibsAblation {
    /// The ingredient being ablated.
    pub variant: MibsVariant,
    /// The batch window, as for [`Mibs`](super::Mibs).
    pub window: usize,
}

impl MibsAblation {
    /// Creates the ablated scheduler with the given batch window.
    pub fn new(variant: MibsVariant, window: usize) -> Self {
        MibsAblation { variant, window }
    }

    fn schedule_minmin(
        &self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
        use_excess: bool,
        fragility_ties: bool,
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut window: Vec<Task> = queue.drain(..).collect();
        let mut classes: Vec<FreeClass> = Vec::new();
        const TIE_EPS: f64 = 1e-9;
        while !window.is_empty() && cluster.n_free() > 0 {
            cluster.free_classes_into(&mut classes);
            let mut best: Option<((f64, f64, usize), usize, usize)> = None;
            for (ti, t) in window.iter().enumerate() {
                let fragility = if fragility_ties {
                    scoring.pair_score(t.app, t.app)
                } else {
                    0.0
                };
                for (ci, c) in classes.iter().enumerate() {
                    let score = if use_excess {
                        scoring.excess_class_score(t.app, c)
                    } else {
                        scoring.class_score(t.app, c)
                    };
                    let tie = if fragility_ties && c.key.is_idle() {
                        -fragility
                    } else {
                        f64::INFINITY
                    };
                    let key = (score, tie, ti);
                    let better = match &best {
                        None => true,
                        Some((bk, _, _)) => {
                            key.0 < bk.0 - TIE_EPS
                                || ((key.0 - bk.0).abs() <= TIE_EPS
                                    && (key.1, key.2) < (bk.1, bk.2))
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
            let score = scoring.class_score(task.app, class);
            let vm = class.example;
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
                predicted_score: score,
            });
        }
        queue.extend(window);
        out
    }

    fn schedule_head_first(
        &self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        while !queue.is_empty() && cluster.n_free() > 0 {
            let candidate_1 = queue.pop_front().expect("non-empty");
            let c1_app = candidate_1.app;
            match place_best(candidate_1, cluster, scoring) {
                Some(a) => out.push(a),
                None => break,
            }
            if queue.is_empty() || cluster.n_free() == 0 {
                break;
            }
            let mut best_idx = 0usize;
            let mut best_score = f64::INFINITY;
            for (i, t) in queue.iter().enumerate() {
                let s = scoring.pair_score(t.app, c1_app);
                if s < best_score {
                    best_score = s;
                    best_idx = i;
                }
            }
            let candidate_2 = queue.remove(best_idx).expect("index in range");
            match place_best(candidate_2, cluster, scoring) {
                Some(a) => out.push(a),
                None => break,
            }
        }
        out
    }

    fn schedule_random(
        &self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment> {
        // Deterministic pseudo-random slot choice keyed by the task id.
        let mut out = Vec::new();
        let mut classes: Vec<FreeClass> = Vec::new();
        while cluster.n_free() > 0 {
            let Some(task) = queue.pop_front() else { break };
            cluster.free_classes_into(&mut classes);
            let pick = (task.id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) as usize)
                % classes.len();
            let class = &classes[pick];
            let score = scoring.class_score(task.app, class);
            let vm = class.example;
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
                predicted_score: score,
            });
        }
        out
    }
}

impl Scheduler for MibsAblation {
    fn name(&self) -> String {
        self.variant.name().to_string()
    }

    fn window(&self) -> Option<usize> {
        Some(self.window)
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment> {
        match self.variant {
            MibsVariant::AbsoluteScore => {
                self.schedule_minmin(queue, cluster, scoring, false, true)
            }
            MibsVariant::NoFragilityTieBreak => {
                self.schedule_minmin(queue, cluster, scoring, true, false)
            }
            MibsVariant::HeadFirst => self.schedule_head_first(queue, cluster, scoring),
            MibsVariant::Random => self.schedule_random(queue, cluster, scoring),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{aid, app_chars, predictor, task};

    fn run_variant(variant: MibsVariant, tasks: &[(&str, u64)]) -> Vec<Assignment> {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> = tasks.iter().map(|(a, i)| task(*i, a)).collect();
        MibsAblation::new(variant, tasks.len()).schedule(&mut queue, &mut cluster, &scoring)
    }

    #[test]
    fn all_variants_place_everything_when_capacity_allows() {
        let tasks = [("io", 0), ("io", 1), ("cpu", 2), ("cpu", 3)];
        for v in MibsVariant::ALL {
            let out = run_variant(v, &tasks);
            assert_eq!(out.len(), 4, "{} placed {}", v.name(), out.len());
            // No slot double-booked.
            let mut seen = std::collections::HashSet::new();
            for a in &out {
                assert!(seen.insert(a.vm), "{} double-booked {:?}", v.name(), a.vm);
            }
        }
    }

    #[test]
    fn head_first_still_separates_obvious_pairs() {
        // With the io tasks leading the queue, even the literal Algorithm 2
        // avoids io+io machines on this easy instance.
        let out = run_variant(
            MibsVariant::HeadFirst,
            &[("io", 0), ("cpu", 1), ("io", 2), ("cpu", 3)],
        );
        let io = aid("io");
        for m in 0..2 {
            let io_count = out
                .iter()
                .filter(|a| a.vm.machine == m && a.task.app == io)
                .count();
            assert!(io_count <= 1, "machine {m} has {io_count} io tasks");
        }
    }

    #[test]
    fn random_is_deterministic() {
        let tasks = [("io", 7), ("cpu", 8), ("io", 9)];
        let a = run_variant(MibsVariant::Random, &tasks);
        let b = run_variant(MibsVariant::Random, &tasks);
        let slots_a: Vec<_> = a.iter().map(|x| x.vm).collect();
        let slots_b: Vec<_> = b.iter().map(|x| x.vm).collect();
        assert_eq!(slots_a, slots_b);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            MibsVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), MibsVariant::ALL.len());
    }
}
