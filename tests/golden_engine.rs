//! Golden-equivalence tests for the event-kernel / observer split: the
//! observer layer must be a pure tap on the kernel, so instrumenting a
//! run can never change its outcome, and the kernel itself must be
//! bit-deterministic. The fixture matrix covers two static batches (6
//! and 64 machines) and a Poisson trace, every [`SchedulerKind`], and
//! both objectives — any accidental change to event ordering, progress
//! rescaling, or dispatch triggering shows up as a bit-level mismatch.

use std::sync::OnceLock;
use tracon::core::{MibsVariant, Objective};
use tracon::dcsim::arrival::{poisson_trace, static_batch, ArrivalEvent, WorkloadMix};
use tracon::dcsim::engine::{ArrivalInfo, CompletionInfo, PlacementInfo, SimObserver};
use tracon::dcsim::{QueueBackend, SchedulerKind, SimResult, Simulation, Testbed, TestbedConfig};

/// `(scenario, scheduler, objective, completed, refused, total_runtime,
/// total_iops, makespan, mean_wait)` — float fields as raw bits.
type GoldenRow = (
    &'static str,
    &'static str,
    &'static str,
    usize,
    usize,
    u64,
    u64,
    u64,
    u64,
);

/// [`testbed_digest`] of the testbed the pins below were generated on:
/// the seeded profiling campaign of `TestbedConfig::small()`, which is
/// the same on every host.
const GOLDEN_TESTBED: u64 = 0x83623bcd30f7c4b7;

/// Pinned fingerprints: the output of
/// `cargo run --release -p tracon-dcsim --example golden_gen`, which
/// prints both constants; paste it over them whenever the engine is
/// *intentionally* changed in a behaviour-visible way. These rows were
/// generated while MIX still searched 32+ machine clusters on one cluster
/// copy per head across worker threads, so `static64`'s `MIX_8` rows
/// witness that the search on a free-class table, which only the winning
/// head's picks leave, places bit-identically.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = &[
    ("static", "FIFO", "RT", 24, 0, 0x4093d4b02a4f7820, 0x409202fa4ac22ecb, 0x4060a88cebff7f72, 0x403c286a61718221),
    ("static", "FIFO", "IO", 24, 0, 0x4093d4b02a4f7820, 0x409202fa4ac22ecb, 0x4060a88cebff7f72, 0x403c286a61718221),
    ("static", "MIOS", "RT", 24, 0, 0x4093c4a07ad1aec1, 0x40923d21ddcce2bc, 0x405e2671cab359d9, 0x403abaa0b0d10874),
    ("static", "MIOS", "IO", 24, 0, 0x4092ff13cc76158b, 0x40933d59671312aa, 0x405dbe9a2db7bc20, 0x403b4dab9422902f),
    ("static", "MIBS_8", "RT", 24, 0, 0x40912ed0bda07a18, 0x409841164fefc414, 0x40614b8953d61f64, 0x403f0e6e34a930ab),
    ("static", "MIBS_8", "IO", 24, 0, 0x4090aaea9a8cf03a, 0x40991f7869a5ab77, 0x405cb280ae26d633, 0x403d89b0e4d94b68),
    ("static", "MIX_8", "RT", 24, 0, 0x40912ed0bda07a18, 0x409841164fefc414, 0x40614b8953d61f64, 0x403f0e6e34a930ab),
    ("static", "MIX_8", "IO", 24, 0, 0x409055a20fd50c84, 0x40985037b283e8b7, 0x405e88d737ac0d84, 0x403d89b0e4d94b68),
    ("static", "MIBS[abs-score]", "RT", 24, 0, 0x409161a2a4a5e9f2, 0x40982109c972dda2, 0x406009f4e5de2f76, 0x403f6267aa4bd7e0),
    ("static", "MIBS[abs-score]", "IO", 24, 0, 0x40918ea1f5d23b9f, 0x4096ce1dc4551f2b, 0x4060b0ce946132b8, 0x404038fbfe27c32c),
    ("static", "MIBS[no-fragility]", "RT", 24, 0, 0x4090f6165aa855cb, 0x4098f6c3a44190c8, 0x40602237cf05d2b2, 0x403e633772074548),
    ("static", "MIBS[no-fragility]", "IO", 24, 0, 0x40918285f4dd491c, 0x4097939d11b98c37, 0x4060fe1140180b4b, 0x403e31e3e7ca5ba3),
    ("static", "MIBS[head-first]", "RT", 24, 0, 0x4091f9e04ee8f883, 0x40959d676f439604, 0x4061210ae5e07518, 0x403e1d905c207adc),
    ("static", "MIBS[head-first]", "IO", 24, 0, 0x4091f9e04ee8f883, 0x40959d676f439604, 0x4061210ae5e07518, 0x403e1d905c207adc),
    ("static", "RANDOM", "RT", 24, 0, 0x4091c18901e7de68, 0x409747bfbd39f560, 0x40647940cfdb3a22, 0x403ef52aafcf9b0f),
    ("static", "RANDOM", "IO", 24, 0, 0x4091c18901e7de68, 0x409747bfbd39f560, 0x40647940cfdb3a22, 0x403ef52aafcf9b0f),
    ("poisson", "FIFO", "RT", 183, 0, 0x40cb0a9168ed67b2, 0x40c2dadc3c80886b, 0x409c178c75fdf1ce, 0x40872cb1aeb6ac47),
    ("poisson", "FIFO", "IO", 183, 0, 0x40cb0a9168ed67b2, 0x40c2dadc3c80886b, 0x409c178c75fdf1ce, 0x40872cb1aeb6ac47),
    ("poisson", "MIOS", "RT", 180, 0, 0x40caa339219a4ee9, 0x40c216ba056f7789, 0x409bc6b369e67079, 0x40865047c6c5a766),
    ("poisson", "MIOS", "IO", 180, 0, 0x40caa339219a4ee9, 0x40c216ba056f7789, 0x409bc6b369e67079, 0x40865047c6c5a766),
    ("poisson", "MIBS_8", "RT", 184, 0, 0x40cb2b2d6f2b7f6c, 0x40c21869a190900a, 0x409c0d9a4f7ea21f, 0x40854489930dd883),
    ("poisson", "MIBS_8", "IO", 185, 0, 0x40cb2e281f3bc93c, 0x40c2233bd859b618, 0x409c1a35db1bc0a1, 0x408565d54fa35731),
    ("poisson", "MIX_8", "RT", 184, 0, 0x40cb2b2d6f2b7f6c, 0x40c21869a190900a, 0x409c0d9a4f7ea21f, 0x408569a97771b8a4),
    ("poisson", "MIX_8", "IO", 176, 0, 0x40cac565f04a47e4, 0x40c1999a02ef0fa7, 0x409bf95a40fe2c87, 0x4086742b237613eb),
    ("poisson", "MIBS[abs-score]", "RT", 184, 0, 0x40cb2b2d6f2b7f6c, 0x40c21869a190900a, 0x409c0d9a4f7ea21f, 0x40854489930dd883),
    ("poisson", "MIBS[abs-score]", "IO", 176, 0, 0x40cac565f04a47e4, 0x40c1999a02ef0fa7, 0x409bf95a40fe2c87, 0x4086638ab34b3816),
    ("poisson", "MIBS[no-fragility]", "RT", 184, 0, 0x40cb2b2d6f2b7f6c, 0x40c21869a190900a, 0x409c0d9a4f7ea21f, 0x40854489930dd883),
    ("poisson", "MIBS[no-fragility]", "IO", 185, 0, 0x40cb2e281f3bc93c, 0x40c2233bd859b618, 0x409c1a35db1bc0a1, 0x408565d54fa35731),
    ("poisson", "MIBS[head-first]", "RT", 177, 0, 0x40cab72bf50ee6ac, 0x40c1a4557f07699c, 0x409c1e04591e0832, 0x408648da5bca50b5),
    ("poisson", "MIBS[head-first]", "IO", 177, 0, 0x40cab72bf50ee6ac, 0x40c1a4557f07699c, 0x409c1e04591e0832, 0x408648da5bca50b5),
    ("poisson", "RANDOM", "RT", 182, 0, 0x40cb3de34cf149df, 0x40c1e04ff01e330b, 0x409c1ef02242575e, 0x408705ef86e11d84),
    ("poisson", "RANDOM", "IO", 182, 0, 0x40cb3de34cf149df, 0x40c1e04ff01e330b, 0x409c1ef02242575e, 0x408705ef86e11d84),
    ("static64", "FIFO", "RT", 192, 0, 0x40c5486f018a43f6, 0x40c393957fb2e498, 0x4065dad49260d35d, 0x402d533dc8b58618),
    ("static64", "FIFO", "IO", 192, 0, 0x40c5486f018a43f6, 0x40c393957fb2e498, 0x4065dad49260d35d, 0x402d533dc8b58618),
    ("static64", "MIOS", "RT", 192, 0, 0x40c4a2be7a766be4, 0x40c4758ab277eb70, 0x4065dad49260d35d, 0x402c21423e358a6c),
    ("static64", "MIOS", "IO", 192, 0, 0x40c3d096e1a33e30, 0x40c51bcd19833b8b, 0x4064138ce00068c2, 0x402c8b082637ca87),
    ("static64", "MIBS_8", "RT", 192, 0, 0x40c25ed8f5a80f22, 0x40c7c576a53a3b76, 0x4065fba213829b68, 0x404b4a7e5bbf85fd),
    ("static64", "MIBS_8", "IO", 192, 0, 0x40beda57d67cb824, 0x40cd3875ec2ae67d, 0x4069308af2dc182f, 0x404d581f2038735c),
    ("static64", "MIX_8", "RT", 192, 0, 0x40c154afca810fc2, 0x40ca1bce9fce3d03, 0x4069c7d02e651a95, 0x404bbfb3f6a38361),
    ("static64", "MIX_8", "IO", 192, 0, 0x40be44fa449231f8, 0x40cd784635d8c4bf, 0x4064035ac06bbcc7, 0x404d5a01095fbadb),
    ("static64", "MIBS[abs-score]", "RT", 192, 0, 0x40c18ba2a64c5662, 0x40c9b8d9f0f05c0c, 0x406a4ab3016aa654, 0x404bc38efd027220),
    ("static64", "MIBS[abs-score]", "IO", 192, 0, 0x40bedf01a038dcd0, 0x40ccf1aeafe997bd, 0x4065bf5f9f4b234e, 0x404d597dd6d44c4c),
    ("static64", "MIBS[no-fragility]", "RT", 192, 0, 0x40c2422fa6f63724, 0x40c7ca48997bf75f, 0x4065ee2c43928c96, 0x404b58132f103d13),
    ("static64", "MIBS[no-fragility]", "IO", 192, 0, 0x40beb1b9ad34cd5c, 0x40cd4714950e825e, 0x40643d53e23ced63, 0x404d5901aa139653),
    ("static64", "MIBS[head-first]", "RT", 192, 0, 0x40bd6dfd409b2165, 0x40cf197c686e09f1, 0x4063fdcd04a3de34, 0x404d535c3ec16e21),
    ("static64", "MIBS[head-first]", "IO", 192, 0, 0x40bf378632a56493, 0x40cce98bb3f20bbc, 0x40690e3bfbb1ad69, 0x404d56a7b36d891f),
    ("static64", "RANDOM", "RT", 192, 0, 0x40c4edeb1d881f89, 0x40c450518632e40c, 0x406f01afe60c658c, 0x404e11def912b64b),
    ("static64", "RANDOM", "IO", 192, 0, 0x40c4edeb1d881f89, 0x40c450518632e40c, 0x406f01afe60c658c, 0x404e11def912b64b),
];

fn testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| Testbed::build(&TestbedConfig::small()))
}

/// FNV-1a over the measured pair-runtime bits, mirroring `golden_gen`.
fn testbed_digest(tb: &Testbed) -> u64 {
    let n = tb.perf.n_apps();
    (0..n * n).fold(0xcbf2_9ce4_8422_2325, |h, i| {
        (h ^ tb.perf.runtime(i / n, i % n).to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every scheduler kind the simulator accepts (window 8 for the
/// batchers), mirroring `golden_gen`.
fn all_kinds() -> Vec<SchedulerKind> {
    let mut kinds = vec![
        SchedulerKind::Fifo,
        SchedulerKind::Mios,
        SchedulerKind::Mibs(8),
        SchedulerKind::Mix(8),
    ];
    kinds.extend(MibsVariant::ALL.map(|v| SchedulerKind::Ablation(v, 8)));
    kinds
}

/// The fixture scenarios, mirroring `golden_gen`.
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

/// Rows in the matrix: scenarios x 8 scheduler kinds x 2 objectives.
const MATRIX_ROWS: usize = 3 * 8 * 2;

/// `(completed, refused, total_runtime, total_iops, makespan, mean_wait)`,
/// float fields as raw bits.
type Fingerprint = (usize, usize, u64, u64, u64, u64);

fn fingerprint(r: &SimResult) -> Fingerprint {
    (
        r.completed,
        r.refused,
        r.total_runtime.to_bits(),
        r.total_iops.to_bits(),
        r.makespan.to_bits(),
        r.mean_wait.to_bits(),
    )
}

/// An observer that exercises every hook (so the instrumented code path
/// is fully live) without feeding anything back into the kernel.
#[derive(Default)]
struct Counting {
    arrivals: usize,
    refusals: usize,
    placements: usize,
    completions: usize,
    dispatched: usize,
}

impl SimObserver for Counting {
    fn on_arrival(&mut self, _info: &ArrivalInfo) {
        self.arrivals += 1;
    }
    fn on_refusal(&mut self, _info: &ArrivalInfo) {
        self.refusals += 1;
    }
    fn on_dispatch(&mut self, _time: f64, n_assigned: usize) {
        self.dispatched += n_assigned;
    }
    fn on_placement(&mut self, _info: &PlacementInfo) {
        self.placements += 1;
    }
    fn on_completion(&mut self, _info: &CompletionInfo) {
        self.completions += 1;
    }
}

#[test]
fn observed_runs_match_bare_runs_bit_for_bit() {
    let tb = testbed();
    for (scenario, machines, trace, horizon) in scenarios() {
        for kind in all_kinds() {
            for objective in [Objective::MinRuntime, Objective::MaxIops] {
                let sim = Simulation::new(tb, machines, kind).with_objective(objective);
                let bare = sim.run(&trace, horizon);
                let mut obs = Counting::default();
                let tapped = sim.run_with_observer(&trace, horizon, &mut obs);
                let ctx = format!("{scenario}/{}/{}", bare.scheduler, objective.suffix());
                assert_eq!(
                    fingerprint(&bare),
                    fingerprint(&tapped),
                    "observer tap perturbed the run: {ctx}"
                );
                assert_eq!(obs.completions, tapped.completed, "{ctx}");
                assert_eq!(obs.refusals, tapped.refused, "{ctx}");
                assert_eq!(
                    obs.arrivals + obs.refusals,
                    tapped.arrived,
                    "every trace arrival is admitted or refused: {ctx}"
                );
                assert_eq!(
                    obs.dispatched, obs.placements,
                    "every dispatched assignment becomes a placement: {ctx}"
                );
                assert!(obs.placements >= obs.completions, "{ctx}");
            }
        }
    }
}

/// An observer that records the full decision streams of a run:
/// placements and completions with every field reduced to raw bits, so
/// two runs compare byte-for-byte.
#[derive(Default)]
struct Recording {
    /// `(time, machine, slot, task_id, app_idx, neighbor_at_start, wait)`.
    placements: Vec<(u64, usize, usize, u64, usize, usize, u64)>,
    /// `(time, machine, slot, app_idx, runtime, avg_iops)`.
    completions: Vec<(u64, usize, usize, usize, u64, u64)>,
}

impl SimObserver for Recording {
    fn on_placement(&mut self, info: &PlacementInfo) {
        self.placements.push((
            info.time.to_bits(),
            info.vm.machine,
            info.vm.slot,
            info.task_id,
            info.app_idx,
            info.neighbor_at_start,
            info.wait.to_bits(),
        ));
    }
    fn on_completion(&mut self, info: &CompletionInfo) {
        self.completions.push((
            info.time.to_bits(),
            info.vm.machine,
            info.vm.slot,
            info.app_idx,
            info.runtime.to_bits(),
            info.avg_iops.to_bits(),
        ));
    }
}

/// The tentpole gate for the timing-wheel kernel: over the full matrix
/// (3 scenarios x 8 scheduler kinds x 2 objectives) the wheel and
/// the reference binary heap must produce byte-identical placement and
/// completion streams — the optimization is not allowed to change a
/// single scheduling decision.
#[test]
fn timing_wheel_matches_binary_heap_bit_for_bit() {
    let tb = testbed();
    let mut rows = 0;
    for (scenario, machines, trace, horizon) in scenarios() {
        for kind in all_kinds() {
            for objective in [Objective::MinRuntime, Objective::MaxIops] {
                let mut heap_obs = Recording::default();
                let heap = Simulation::new(tb, machines, kind)
                    .with_objective(objective)
                    .with_queue_backend(QueueBackend::BinaryHeap)
                    .run_with_observer(&trace, horizon, &mut heap_obs);
                let mut wheel_obs = Recording::default();
                let wheel = Simulation::new(tb, machines, kind)
                    .with_objective(objective)
                    .with_queue_backend(QueueBackend::TimingWheel)
                    .run_with_observer(&trace, horizon, &mut wheel_obs);
                let ctx = format!("{scenario}/{}/{}", heap.scheduler, objective.suffix());
                assert_eq!(
                    heap_obs.placements, wheel_obs.placements,
                    "placement streams diverged: {ctx}"
                );
                assert_eq!(
                    heap_obs.completions, wheel_obs.completions,
                    "completion streams diverged: {ctx}"
                );
                assert_eq!(fingerprint(&heap), fingerprint(&wheel), "{ctx}");
                assert_eq!(
                    heap.events_processed, wheel.events_processed,
                    "kernel event counts diverged: {ctx}"
                );
                rows += 1;
            }
        }
    }
    assert_eq!(rows, MATRIX_ROWS, "the golden matrix must cover every row");
}

/// `(scheduler, fingerprint)` of the fill-regime run below, recorded at
/// `2304ac7`, before MIX shared work across heads.
#[rustfmt::skip]
const FILL_REGIME: &[(&str, Fingerprint)] = &[
    ("FIFO", (768, 0, 0x40e526d6d50022ff, 0x40e329b5f43fc025, 0x406a45f36b5bccda, 0x402d46553bf519bf)),
    ("MIBS_32", (768, 0, 0x40e267ba9f5a1584, 0x40e773e30b07202d, 0x40699696b75cb3ac, 0x4049e09ca45dce38)),
    ("MIX_32", (768, 0, 0x40e26acff68f0a94, 0x40e7722868e1f6cd, 0x4069f3f5461e8bf8, 0x4049e07dc7397507)),
];

/// The benchmark's `sim-batch` shape at a quarter of its size: a static
/// medium-mix batch of 768 tasks on 256 x 2. The first dispatches are fill
/// calls (32 placements into hundreds of idle slots), the regime where
/// MIX runs 32 full MIBS passes per call; the rest free a slot or two at
/// a time.
#[test]
fn fill_regime_matches_pins() {
    let tb = testbed();
    let trace = static_batch(768, WorkloadMix::Medium, 17);
    let got: Vec<_> = [
        SchedulerKind::Fifo,
        SchedulerKind::Mibs(32),
        SchedulerKind::Mix(32),
    ]
    .into_iter()
    .map(|kind| {
        let r = Simulation::new(tb, 256, kind).run(&trace, None);
        (r.scheduler.clone(), fingerprint(&r))
    })
    .collect();
    let want: Vec<_> = FILL_REGIME
        .iter()
        .map(|(name, f)| (name.to_string(), *f))
        .collect();
    assert_eq!(got, want, "fill-regime placements drifted");
}

#[test]
fn engine_fingerprints_are_reproducible_and_match_pins() {
    let tb = testbed();
    let digest = testbed_digest(tb);
    assert!(
        digest == GOLDEN_TESTBED,
        "testbed digest {digest:#018x} is not GOLDEN_TESTBED {GOLDEN_TESTBED:#018x}: \
         the profiling campaign changed, so no pin below applies"
    );
    for (scenario, machines, trace, horizon) in scenarios() {
        for kind in all_kinds() {
            for objective in [Objective::MinRuntime, Objective::MaxIops] {
                let sim = Simulation::new(tb, machines, kind).with_objective(objective);
                let a = sim.run(&trace, horizon);
                let b = sim.run(&trace, horizon);
                let ctx = format!("{scenario}/{}/{}", a.scheduler, objective.suffix());
                assert_eq!(
                    fingerprint(&a),
                    fingerprint(&b),
                    "kernel not deterministic: {ctx}"
                );
                let row = GOLDEN
                    .iter()
                    .find(|g| g.0 == scenario && g.1 == a.scheduler && g.2 == objective.suffix())
                    .unwrap_or_else(|| panic!("no pinned row for {ctx}"));
                assert_eq!(
                    (a.completed, a.refused),
                    (row.3, row.4),
                    "pinned counts drifted: {ctx}"
                );
                assert_eq!(
                    (
                        a.total_runtime.to_bits(),
                        a.total_iops.to_bits(),
                        a.makespan.to_bits(),
                        a.mean_wait.to_bits()
                    ),
                    (row.5, row.6, row.7, row.8),
                    "pinned totals drifted: {ctx}"
                );
            }
        }
    }
}
