//! Fig 11: scalability — normalized throughputs of MIBS_8, MIOS, and
//! MIX_8 as the cluster grows from 8 to 1,024 machines at a fixed high
//! arrival rate.
//!
//! Paper shape: MIBS_8's throughput is close to MIX_8's and the gap
//! narrows with machine count; MIOS improves the least. (The paper's
//! 10,000-machine sidebar is a `tracon simulate --machines 10000` run;
//! see EXPERIMENTS.md.)

use super::fig9::SCHEDULERS;
use super::sweep::{dynamic_sweep, render_points, DynamicPoint, HORIZON_S};
use crate::arrival::WorkloadMix;
use crate::engine::SchedulerKind;
use crate::setup::Testbed;

/// Machine counts swept (paper: 8 to 1,024).
pub const MACHINE_COUNTS: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];

/// Fixed arrival rate for the sweep, tasks/minute. (Rescaled with the
/// testbed time scale like the Fig 9 λ axis; saturates the small clusters
/// and approaches capacity at 1,024 machines, as in the paper at
/// λ = 1,000.)
pub const LAMBDA: f64 = 500.0;

/// The Fig 11 result.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// All swept points.
    pub points: Vec<DynamicPoint>,
}

/// Runs the Fig 11 sweep (medium mix, as in the scalability discussion).
pub fn run(
    testbed: &Testbed,
    machine_counts: &[usize],
    lambda: f64,
    repetitions: u64,
    seed: u64,
) -> Fig11 {
    let mut points = Vec::new();
    for &machines in machine_counts {
        points.extend(dynamic_sweep(
            testbed,
            machines,
            &[lambda],
            &[WorkloadMix::Medium],
            &SCHEDULERS,
            HORIZON_S,
            repetitions,
            seed.wrapping_add(machines as u64),
        ));
    }
    Fig11 { points }
}

impl Fig11 {
    /// Renders the figure's series.
    pub fn render(&self) -> String {
        render_points(
            &format!(
                "Fig 11: normalized throughput vs machines (lambda = {LAMBDA}/min, medium mix)"
            ),
            &self.points,
        )
    }

    /// Normalized throughput for a (scheduler, machines) pair.
    pub fn point(&self, scheduler: SchedulerKind, machines: usize) -> Option<&DynamicPoint> {
        self.points
            .iter()
            .find(|p| p.scheduler == scheduler && p.machines == machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    #[test]
    fn sweep_produces_all_points() {
        let tb = shared();
        let fig = run(tb, &[8, 16], 30.0, 2, 23);
        assert_eq!(fig.points.len(), 6);
        for p in &fig.points {
            assert!(p.normalized_throughput.mean > 0.5);
            assert!(p.completed > 0.0);
        }
    }

    #[test]
    fn mibs_tracks_mix_under_saturation() {
        let tb = shared();
        let fig = run(tb, &[8], 40.0, 3, 29);
        let mibs = fig.point(SchedulerKind::Mibs(8), 8).unwrap();
        let mix = fig.point(SchedulerKind::Mix(8), 8).unwrap();
        // Paper: MIBS_8's throughput is close to MIX_8's.
        assert!(
            (mibs.normalized_throughput.mean - mix.normalized_throughput.mean).abs() < 0.25,
            "MIBS {} vs MIX {}",
            mibs.normalized_throughput.mean,
            mix.normalized_throughput.mean
        );
    }
}
