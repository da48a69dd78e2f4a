//! Fig 12: normalized throughput of MIBS for different machine counts and
//! queue lengths (2, 4, 8) at a fixed high arrival rate.
//!
//! Paper shape: as in Fig 10, a longer queue sustains a higher normalized
//! throughput across cluster sizes.

use super::fig10::QUEUE_LENGTHS;
use super::fig11::LAMBDA;
use super::sweep::{dynamic_sweep, render_points, DynamicPoint, HORIZON_S};
use crate::arrival::WorkloadMix;
use crate::engine::SchedulerKind;
use crate::setup::Testbed;

/// The Fig 12 result.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// All swept points.
    pub points: Vec<DynamicPoint>,
}

/// Runs the Fig 12 sweep (medium mix).
pub fn run(
    testbed: &Testbed,
    machine_counts: &[usize],
    lambda: f64,
    repetitions: u64,
    seed: u64,
) -> Fig12 {
    let schedulers: Vec<SchedulerKind> = QUEUE_LENGTHS
        .iter()
        .map(|&l| SchedulerKind::Mibs(l))
        .collect();
    let mut points = Vec::new();
    for &machines in machine_counts {
        points.extend(dynamic_sweep(
            testbed,
            machines,
            &[lambda],
            &[WorkloadMix::Medium],
            &schedulers,
            HORIZON_S,
            repetitions,
            seed.wrapping_add(machines as u64 * 31),
        ));
    }
    Fig12 { points }
}

impl Fig12 {
    /// Renders the figure's series.
    pub fn render(&self) -> String {
        render_points(
            &format!("Fig 12: MIBS queue lengths vs machines (lambda = {LAMBDA}/min, medium mix)"),
            &self.points,
        )
    }

    /// Mean normalized throughput of a queue length across sizes.
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
    fn queue_length_ordering_under_saturation() {
        let tb = shared();
        let fig = run(tb, &[8], 40.0, 3, 37);
        let q8 = fig.series_mean(8);
        let q2 = fig.series_mean(2);
        assert!(q8 >= q2 - 0.05, "MIBS_8 {q8} vs MIBS_2 {q2}");
        assert_eq!(fig.points.len(), 3);
    }
}
