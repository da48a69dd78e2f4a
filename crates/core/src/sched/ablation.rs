//! MIBS design-decision ablations.
//!
//! The production [`Mibs`] makes three deliberate choices (see its module
//! docs): it scores (task, slot) pairs by *interference excess*, breaks
//! ties toward fragile tasks on idle machines, and runs the Min-Min
//! double-minimum over the whole window. Each variant here disables one
//! choice so the ablation experiment can quantify what the choice
//! contributes; `HeadFirst` is the paper's Algorithm 2 listing taken
//! literally.
//!
//! Every variant decides on a [`FreeTable`](super::FreeTable) and commits
//! through [`apply`]. The two scoring ablations are MIBS itself with
//! another comparison (`Mibs::ablated`); `HeadFirst` and `RANDOM` are
//! small pickers on MIBS's table.

use super::{apply, Assignment, ClusterState, Mibs, Scheduler, Task};
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
    /// The MIBS a scoring ablation runs, and whose table and picks the
    /// pickers use.
    mibs: Mibs,
}

impl MibsAblation {
    /// Creates the ablated scheduler with the given batch window.
    pub fn new(variant: MibsVariant, window: usize) -> Self {
        let mibs = Mibs::ablated(window, variant);
        MibsAblation { variant, mibs }
    }
}

/// Algorithm 2 taken literally: the queue head by MIOS's rule, then the
/// remaining task that interferes least with it (the first strict
/// minimum of the pair scores), also by MIOS's rule.
fn head_first(
    queue: &mut VecDeque<Task>,
    mibs: &mut Mibs,
    cluster: &ClusterState,
    scoring: &ScoringPolicy,
) {
    let (table, picks) = (&mut mibs.table, &mut mibs.picks);
    while !table.classes().is_empty() {
        let Some(head) = queue.pop_front() else { break };
        let (ci, _) = table.best_for(head.app, scoring).expect("a class");
        picks.push(table.take(ci, head, cluster, scoring));
        if queue.is_empty() || table.classes().is_empty() {
            break;
        }
        let mut best = (f64::INFINITY, 0);
        for (i, t) in queue.iter().enumerate() {
            let s = scoring.pair_score(t.app, head.app);
            if s < best.0 {
                best = (s, i);
            }
        }
        let partner = queue.remove(best.1).expect("index in range");
        let (ci, _) = table.best_for(partner.app, scoring).expect("a class");
        picks.push(table.take(ci, partner, cluster, scoring));
    }
}

/// Each task in queue order on a class drawn from its id: a deterministic
/// second baseline beside FIFO.
fn random(
    queue: &mut VecDeque<Task>,
    mibs: &mut Mibs,
    cluster: &ClusterState,
    scoring: &ScoringPolicy,
) {
    let (table, picks) = (&mut mibs.table, &mut mibs.picks);
    while !table.classes().is_empty() {
        let Some(task) = queue.pop_front() else { break };
        let draw = task.id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) as usize;
        let ci = draw % table.classes().len();
        picks.push(table.take(ci, task, cluster, scoring));
    }
}

impl Scheduler for MibsAblation {
    fn window(&self) -> Option<usize> {
        Some(self.mibs.queue_len)
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy,
    ) -> Vec<Assignment> {
        let picker = match self.variant {
            MibsVariant::HeadFirst => head_first,
            MibsVariant::Random => random,
            _ => return self.mibs.schedule(queue, cluster, scoring),
        };
        self.mibs.table.list(cluster);
        self.mibs.picks.clear();
        picker(queue, &mut self.mibs, cluster, scoring);
        apply(cluster, &self.mibs.picks)
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
