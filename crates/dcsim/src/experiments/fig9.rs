//! Fig 9: dynamic workloads — normalized throughput (completed tasks
//! relative to FIFO) of MIBS_8, MIOS, and MIX_8 as the Poisson arrival
//! rate λ grows, for the light / medium / heavy mixes on 64 machines
//! over a 10-hour horizon.
//!
//! Paper shape: at small λ all schedulers match FIFO (the data center is
//! mostly idle); as λ grows the interference-aware schedulers pull ahead;
//! MIX_8 is best with MIBS_8 very close behind and MIOS last; the medium
//! mix gives the highest normalized throughputs.

use super::sweep::{render_points, DynamicPoint, HORIZON_S, MACHINES};
// Re-exported for callers that reach the sweep through the fig9 path
// (e.g. the determinism integration test).
pub use super::sweep::dynamic_sweep;
use crate::arrival::WorkloadMix;
use crate::engine::SchedulerKind;
use crate::setup::Testbed;

/// Default λ sweep, tasks per minute. (Our simulated benchmarks are
/// time-scaled, so the λ axis is proportionally rescaled relative to the
/// paper's; the saturation point of the 64-machine cluster falls inside
/// the sweep exactly as in Fig 9.)
pub const LAMBDAS: [f64; 6] = [5.0, 10.0, 20.0, 40.0, 60.0, 80.0];

/// The Fig 9 result.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// All swept points.
    pub points: Vec<DynamicPoint>,
}

/// Schedulers compared in Fig 9 (paper: MIBS_8, MIOS, MIX_8).
pub const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Mibs(8),
    SchedulerKind::Mios,
    SchedulerKind::Mix(8),
];

/// Runs the Fig 9 sweep.
pub fn run(
    testbed: &Testbed,
    lambdas: &[f64],
    machines: usize,
    repetitions: u64,
    seed: u64,
) -> Fig9 {
    Fig9 {
        points: dynamic_sweep(
            testbed,
            machines,
            lambdas,
            &WorkloadMix::INTENSITY_MIXES,
            &SCHEDULERS,
            HORIZON_S,
            repetitions,
            seed,
        ),
    }
}

impl Fig9 {
    /// Renders the figure's series.
    pub fn render(&self) -> String {
        render_points(
            &format!("Fig 9: normalized throughput vs lambda ({MACHINES} machines, 10 h)"),
            &self.points,
        )
    }

    /// Normalized throughput for a specific point.
    pub fn point(
        &self,
        mix: WorkloadMix,
        scheduler: SchedulerKind,
        lambda: f64,
    ) -> Option<&DynamicPoint> {
        self.points
            .iter()
            .find(|p| p.mix == mix && p.scheduler == scheduler && p.lambda == lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    #[test]
    fn low_lambda_all_schedulers_similar() {
        let tb = shared();
        // Tiny load on 16 machines: everything completes under every
        // scheduler, so normalized throughput ~= 1.
        let fig = Fig9 {
            points: dynamic_sweep(
                tb,
                16,
                &[2.0],
                &[WorkloadMix::Medium],
                &SCHEDULERS,
                3600.0 * 4.0,
                2,
                3,
            ),
        };
        for p in &fig.points {
            assert!(
                (p.normalized_throughput.mean - 1.0).abs() < 0.05,
                "{} at low lambda: {}",
                p.scheduler,
                p.normalized_throughput.mean
            );
        }
    }

    #[test]
    fn saturation_favors_interference_aware() {
        let tb = shared();
        let points = dynamic_sweep(
            tb,
            8,
            &[40.0],
            &[WorkloadMix::Medium],
            &[SchedulerKind::Mibs(8)],
            3600.0 * 3.0,
            3,
            11,
        );
        let mibs = &points[0];
        // With the reduced test testbed the dynamic gain is small; the
        // full-fidelity sweep (`--fidelity full`) shows the Fig 9 separation.
        // Here MIBS must at least not lose materially to FIFO.
        assert!(
            mibs.normalized_throughput.mean >= 0.95,
            "MIBS_8 under saturation: {}",
            mibs.normalized_throughput.mean
        );
    }
}
