//! Regenerates the golden `SimResult` fingerprints pinned by the
//! workspace test `tests/golden_engine.rs`.
//!
//! ```text
//! cargo run --release -p tracon-dcsim --example golden_gen
//! ```
//!
//! Paste the emitted constants over `GOLDEN_TESTBED` / `GOLDEN` in the
//! test whenever the engine is *intentionally* changed in a
//! behaviour-visible way. The fixtures cover two static batches (6 and
//! 64 machines) and a Poisson trace, every [`SchedulerKind`], and both
//! objectives, so any accidental change to event ordering, progress
//! rescaling, or dispatch triggering shows up as a bit-level mismatch.

use tracon_core::{MibsVariant, Objective};
use tracon_dcsim::arrival::{poisson_trace, static_batch, ArrivalEvent, WorkloadMix};
use tracon_dcsim::{SchedulerKind, Simulation, Testbed, TestbedConfig};

/// Every scheduler kind the simulator accepts (window 8 for the batchers).
pub fn all_kinds() -> Vec<SchedulerKind> {
    let mut kinds = vec![
        SchedulerKind::Fifo,
        SchedulerKind::Mios,
        SchedulerKind::Mibs(8),
        SchedulerKind::Mix(8),
    ];
    kinds.extend(MibsVariant::ALL.map(|v| SchedulerKind::Ablation(v, 8)));
    kinds
}

/// The fixture scenarios, mirrored by `tests/golden_engine.rs`.
fn scenarios() -> Vec<(&'static str, usize, Vec<ArrivalEvent>, Option<f64>)> {
    vec![
        ("static", 6, static_batch(24, WorkloadMix::Medium, 7), None),
        (
            "poisson",
            4,
            poisson_trace(40.0, 1800.0, WorkloadMix::Uniform, 11),
            Some(1800.0),
        ),
        (
            "static64",
            64,
            static_batch(192, WorkloadMix::Medium, 13),
            None,
        ),
    ]
}

/// FNV-1a over the measured pair-runtime bits: names the testbed the
/// pins belong to.
fn testbed_digest(tb: &Testbed) -> u64 {
    let n = tb.perf.n_apps();
    (0..n * n).fold(0xcbf2_9ce4_8422_2325, |h, i| {
        (h ^ tb.perf.runtime(i / n, i % n).to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() {
    let tb = Testbed::build(&TestbedConfig::small());
    println!("const GOLDEN_TESTBED: u64 = {:#018x};", testbed_digest(&tb));
    println!("const GOLDEN: &[GoldenRow] = &[");
    for (scenario, machines, trace, horizon) in scenarios() {
        for kind in all_kinds() {
            for objective in [Objective::MinRuntime, Objective::MaxIops] {
                let r = Simulation::new(&tb, machines, kind)
                    .with_objective(objective)
                    .run(&trace, horizon);
                println!(
                    "    (\"{scenario}\", \"{}\", \"{}\", {}, {}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
                    r.scheduler,
                    objective.suffix(),
                    r.completed,
                    r.refused,
                    r.total_runtime.to_bits(),
                    r.total_iops.to_bits(),
                    r.makespan.to_bits(),
                    r.mean_wait.to_bits(),
                );
            }
        }
    }
    println!("];");
}
