//! Fig 10: normalized throughput of MIBS for different arrival rates and
//! queue lengths (2, 4, 8).
//!
//! Paper shape: normalized throughput improves as λ increases; a longer
//! queue beats a shorter one (at λ = 100, MIBS_8 is ~10% above MIBS_4 and
//! MIBS_2); the medium mix benefits most.

use super::sweep::{dynamic_sweep, render_points, DynamicPoint, HORIZON_S, MACHINES};
use crate::arrival::WorkloadMix;
use crate::engine::SchedulerKind;
use crate::setup::Testbed;

/// Queue lengths compared (paper: 2, 4, 8).
pub const QUEUE_LENGTHS: [usize; 3] = [2, 4, 8];

/// The Fig 10 result.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// All swept points.
    pub points: Vec<DynamicPoint>,
}

/// Runs the Fig 10 sweep over the medium mix (the paper's emphasis) for
/// the given λ values.
pub fn run(
    testbed: &Testbed,
    lambdas: &[f64],
    machines: usize,
    repetitions: u64,
    seed: u64,
) -> Fig10 {
    let schedulers: Vec<SchedulerKind> = QUEUE_LENGTHS
        .iter()
        .map(|&l| SchedulerKind::Mibs(l))
        .collect();
    Fig10 {
        points: dynamic_sweep(
            testbed,
            machines,
            lambdas,
            &[WorkloadMix::Medium],
            &schedulers,
            HORIZON_S,
            repetitions,
            seed,
        ),
    }
}

impl Fig10 {
    /// Renders the figure's series.
    pub fn render(&self) -> String {
        render_points(
            &format!("Fig 10: MIBS queue lengths vs lambda ({MACHINES} machines, medium mix)"),
            &self.points,
        )
    }

    /// Mean normalized throughput of a queue length across the sweep.
    pub fn series_mean(&self, queue_len: usize) -> f64 {
        let xs: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.scheduler == SchedulerKind::Mibs(queue_len))
            .map(|p| p.normalized_throughput.mean)
            .collect();
        tracon_stats::mean(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    #[test]
    fn longer_queue_not_worse_under_load() {
        let tb = shared();
        let fig = run(tb, &[40.0], 8, 3, 17);
        let q8 = fig.series_mean(8);
        let q2 = fig.series_mean(2);
        assert!(
            q8 >= q2 - 0.05,
            "longer queue should not lose: MIBS_8 {q8} vs MIBS_2 {q2}"
        );
    }
}
