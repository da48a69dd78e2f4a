//! Replays what the dcsim kernel reports through its observer hooks and
//! holds it to two rules the golden matrices cannot see, because they pin
//! bits, not meaning:
//!
//! * **Dispatch.** An online scheduler (FIFO, MIOS) places while a task
//!   is queued and a slot is free, so no instant may end with both. An
//!   instant is a run of reports each within [`COINCIDENCE_EPS`] of the
//!   last: the kernel holds its dispatch gate until the instant's last
//!   event.
//! * **Physics.** A slow integrator replays placements and completions.
//!   Each task progresses piecewise at `PerfTable::rate(app, neighbour)`,
//!   where the neighbour follows the kernel's rule (the sibling with the
//!   highest solo IOPS, the lowest slot on a tie) over the occupancy the
//!   log implies, and every placement or completion on a machine
//!   rescales the tasks beside it. Each completion must belong to its
//!   slot's occupant and land where that occupant's progress reaches 1;
//!   busy slot-seconds fit in the cluster; every arrival is completed,
//!   refused or unfinished.
//!
//! Both use only the kernel's observer hooks.

use std::sync::OnceLock;
use tracon::core::{MibsVariant, ModelKind, Monitor, MonitorConfig, Objective, Predictor};
use tracon::dcsim::arrival::{poisson_trace, static_batch, ArrivalEvent, WorkloadMix};
use tracon::dcsim::engine::{
    ArrivalInfo, CompletionInfo, PlacementInfo, SimObserver, COINCIDENCE_EPS,
};
use tracon::dcsim::experiments::sweep::{FIG11, QUEUE_CAPACITY};
use tracon::dcsim::{PerfTable, IDLE};
use tracon::{SchedulerKind, SimResult, Simulation, Testbed, TestbedConfig};

fn testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| Testbed::build(&TestbedConfig::small()))
}

/// One kernel report, in the order the kernel made it.
#[derive(Debug, Clone, Copy)]
enum Record {
    Arrival(f64),
    Refusal(f64),
    Placement(PlacementInfo),
    Completion(CompletionInfo),
}

impl Record {
    fn time(&self) -> f64 {
        match self {
            Record::Arrival(t) | Record::Refusal(t) => *t,
            Record::Placement(p) => p.time,
            Record::Completion(c) => c.time,
        }
    }
}

/// Records every report of a run.
#[derive(Default)]
struct Log(Vec<Record>);

impl SimObserver for Log {
    fn on_arrival(&mut self, info: &ArrivalInfo) {
        self.0.push(Record::Arrival(info.time));
    }
    fn on_refusal(&mut self, info: &ArrivalInfo) {
        self.0.push(Record::Refusal(info.time));
    }
    fn on_placement(&mut self, info: &PlacementInfo) {
        self.0.push(Record::Placement(*info));
    }
    fn on_completion(&mut self, info: &CompletionInfo) {
        self.0.push(Record::Completion(*info));
    }
}

/// Records a run with TRACON's monitor attached: every hook reaches
/// both, and the monitor's rebuilt predictors reach the kernel.
struct Monitored {
    log: Log,
    monitor: Monitor,
    swaps: usize,
}

impl SimObserver for Monitored {
    fn on_arrival(&mut self, info: &ArrivalInfo) {
        self.log.on_arrival(info);
        self.monitor.on_arrival(info);
    }
    fn on_refusal(&mut self, info: &ArrivalInfo) {
        self.log.on_refusal(info);
        self.monitor.on_refusal(info);
    }
    fn on_placement(&mut self, info: &PlacementInfo) {
        self.log.on_placement(info);
        self.monitor.on_placement(info);
    }
    fn on_completion(&mut self, info: &CompletionInfo) {
        self.log.on_completion(info);
        self.monitor.on_completion(info);
    }
    fn updated_predictor(&mut self) -> Option<Predictor> {
        let p = self.monitor.updated_predictor();
        self.swaps += usize::from(p.is_some());
        p
    }
}

/// A trace on a cluster of the small testbed, run to a horizon.
struct Scenario {
    name: String,
    machines: usize,
    trace: Vec<ArrivalEvent>,
    horizon: Option<f64>,
}

impl Scenario {
    fn new(name: &str, machines: usize, trace: Vec<ArrivalEvent>, horizon: Option<f64>) -> Self {
        Scenario {
            name: name.to_string(),
            machines,
            trace,
            horizon,
        }
    }

    /// The scenario under `kind` and `objective`.
    fn run(&self, kind: SchedulerKind, objective: Objective) -> Run<'_> {
        Run {
            name: format!("{}/{kind}/{}", self.name, objective.suffix()),
            scenario: self,
            sim: Simulation::new(testbed(), self.machines, kind).with_objective(objective),
        }
    }
}

/// A run to replay.
struct Run<'s> {
    name: String,
    scenario: &'s Scenario,
    sim: Simulation<'static>,
}

impl Run<'_> {
    fn n_slots(&self) -> usize {
        self.sim.n_machines * self.sim.slots_per_machine
    }

    fn record(&self) -> (SimResult, Vec<Record>) {
        let mut log = Log::default();
        let Scenario { trace, horizon, .. } = self.scenario;
        let r = self.sim.run_with_observer(trace, *horizon, &mut log);
        (r, log.0)
    }
}

/// The times of the instants that ended with a queued task beside a free
/// slot.
fn queued_beside_free(log: &[Record], n_slots: usize) -> Vec<f64> {
    let (mut queued, mut busy) = (0usize, 0usize);
    let mut found = Vec::new();
    for (i, r) in log.iter().enumerate() {
        match r {
            Record::Arrival(_) => queued += 1,
            Record::Refusal(_) => {}
            Record::Placement(_) => {
                queued -= 1;
                busy += 1;
            }
            Record::Completion(_) => busy -= 1,
        }
        let ends = log
            .get(i + 1)
            .is_none_or(|next| next.time() - r.time() >= COINCIDENCE_EPS);
        if ends && queued > 0 && busy < n_slots {
            found.push(r.time());
        }
    }
    found
}

/// A task in flight, as the integrator sees it.
#[derive(Debug, Clone, Copy)]
struct Flight {
    task_id: u64,
    app: usize,
    neighbor_at_start: usize,
    start: f64,
    /// Completed fraction of the work, as of `last`.
    progress: f64,
    /// Work fraction per second against the current neighbour.
    rate: f64,
    last: f64,
}

/// The slow integrator: one slot table, advanced report by report.
struct Replay<'p> {
    perf: &'p PerfTable,
    spm: usize,
    slots: Vec<Option<Flight>>,
}

impl Replay<'_> {
    /// The app of `slot`'s neighbour on `machine`: the sibling with the
    /// highest solo IOPS, the lowest slot on a tie, or [`IDLE`].
    fn neighbour(&self, machine: usize, slot: usize) -> usize {
        let siblings = (0..self.spm).filter(|&s| s != slot);
        let apps = siblings.filter_map(|s| self.slots[machine * self.spm + s].map(|f| f.app));
        apps.fold(None, |best: Option<usize>, app| match best {
            Some(b) if self.perf.solo_iops(app) <= self.perf.solo_iops(b) => Some(b),
            _ => Some(app),
        })
        .unwrap_or(IDLE)
    }

    /// Advances every task on `machine` to `t` at its current rate.
    fn bank(&mut self, machine: usize, t: f64) {
        for f in self.slots[machine * self.spm..][..self.spm]
            .iter_mut()
            .flatten()
        {
            f.progress += f.rate * (t - f.last);
            f.last = t;
        }
    }

    /// Re-rates every task on `machine` against its current neighbour.
    fn rerate(&mut self, machine: usize) {
        for slot in 0..self.spm {
            let nb = self.neighbour(machine, slot);
            if let Some(f) = &mut self.slots[machine * self.spm + slot] {
                f.rate = self.perf.rate(f.app, nb);
            }
        }
    }
}

/// Replays `log` and checks the physics. The scenario's horizon ends the
/// busy time of the tasks still running (the last report's time when it
/// has none).
fn check_physics(run: &Run, result: &SimResult, log: &[Record]) {
    let ctx = &run.name;
    let perf = &testbed().perf;
    let spm = run.sim.slots_per_machine;
    let mut replay = Replay {
        perf,
        spm,
        slots: vec![None; run.n_slots()],
    };
    let (mut arrived, mut refused, mut placed, mut completed) = (0, 0, 0, 0);
    let mut busy_s = 0.0;
    let mut now = 0.0;
    for r in log {
        assert!(r.time() >= now, "{ctx}: time runs back at {r:?}");
        now = r.time();
        match *r {
            Record::Arrival(_) => arrived += 1,
            Record::Refusal(_) => refused += 1,
            Record::Placement(p) => {
                let at = p.vm.machine * spm + p.vm.slot;
                assert!(replay.slots[at].is_none(), "{ctx}: {p:?} onto a busy slot");
                let nb = replay.neighbour(p.vm.machine, p.vm.slot);
                assert_eq!(p.neighbor_at_start, nb, "{ctx}: {p:?}");
                replay.bank(p.vm.machine, now);
                replay.slots[at] = Some(Flight {
                    task_id: p.task_id,
                    app: p.app_idx,
                    neighbor_at_start: nb,
                    start: now,
                    progress: 0.0,
                    rate: 0.0,
                    last: now,
                });
                replay.rerate(p.vm.machine);
                placed += 1;
            }
            Record::Completion(c) => {
                let at = c.vm.machine * spm + c.vm.slot;
                let f = replay.slots[at].unwrap_or_else(|| panic!("{ctx}: {c:?} on a free slot"));
                assert_eq!(
                    (c.app_idx, c.neighbor_at_start, c.runtime.to_bits()),
                    (f.app, f.neighbor_at_start, (now - f.start).to_bits()),
                    "{ctx}: {c:?} is not task {}'s, which runs there",
                    f.task_id
                );
                replay.bank(c.vm.machine, now);
                let progress = replay.slots[at].take().expect("occupied").progress;
                assert!(
                    (progress - 1.0).abs() <= 1e-9,
                    "{ctx}: task {} completed at t = {now} with progress {progress}",
                    f.task_id
                );
                replay.rerate(c.vm.machine);
                busy_s += c.runtime;
                completed += 1;
            }
        }
    }
    let end = run.scenario.horizon.unwrap_or(now);
    for f in replay.slots.iter().flatten() {
        busy_s += end - f.start;
    }
    let capacity = run.n_slots() as f64 * end;
    assert!(
        busy_s <= capacity * (1.0 + 1e-12),
        "{ctx}: {busy_s} busy slot-seconds in {capacity}"
    );
    assert_eq!(
        (result.completed, result.refused),
        (completed, refused),
        "{ctx}"
    );
    let (queued, running) = (arrived - placed, placed - completed);
    let unseen = run.scenario.trace.len() - arrived - refused;
    assert_eq!(
        result.arrived,
        result.completed + result.refused + queued + running + unseen,
        "{ctx}: arrived != completed + refused + unfinished"
    );
    assert_eq!(result.unfinished(), queued + running + unseen, "{ctx}");
}

/// Every scheduler kind (window 8 for the batchers) under both
/// objectives, as in `golden_engine.rs`.
fn golden_kinds() -> Vec<(SchedulerKind, Objective)> {
    let mut kinds = vec![
        SchedulerKind::Fifo,
        SchedulerKind::Mios,
        SchedulerKind::Mibs(8),
        SchedulerKind::Mix(8),
    ];
    kinds.extend(MibsVariant::ALL.map(|v| SchedulerKind::Ablation(v, 8)));
    let objectives = [Objective::MinRuntime, Objective::MaxIops];
    kinds
        .into_iter()
        .flat_map(|k| objectives.map(|o| (k, o)))
        .collect()
}

/// The golden matrix's scenarios.
fn golden_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("static", 6, static_batch(24, WorkloadMix::Medium, 7), None),
        Scenario::new(
            "poisson",
            4,
            poisson_trace(40.0, 1800.0, WorkloadMix::Uniform, 11),
            Some(1800.0),
        ),
        Scenario::new(
            "static64",
            64,
            static_batch(192, WorkloadMix::Medium, 13),
            None,
        ),
    ]
}

/// The traces of `determinism.rs`'s dynamic sweep, seeded by the sweep's
/// own `Figure::trace_seed` (Fig 11's seed step), on its 4 and 6
/// machines.
fn sweep_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for machines in [4, 6] {
        for mix in [WorkloadMix::Light, WorkloadMix::Medium] {
            for lambda in [6.0, 12.0] {
                for rep in 0..2u64 {
                    let seed = FIG11.trace_seed(17, machines, mix, lambda, rep);
                    let trace = poisson_trace(lambda, 1800.0, mix, seed);
                    let name = format!("sweep {machines} {mix:?} {lambda}/{rep}");
                    scenarios.push(Scenario::new(&name, machines, trace, Some(1800.0)));
                }
            }
        }
    }
    scenarios
}

/// FIFO and MIOS leave no queued task beside a free slot at the end of
/// an instant: on the golden Poisson trace, and over three 64-machine
/// Poisson hours at 300 tasks a minute.
#[test]
fn online_schedulers_never_end_an_instant_with_a_queued_task_beside_a_free_slot() {
    let golden = poisson_trace(40.0, 1800.0, WorkloadMix::Uniform, 11);
    let mut scenarios = vec![Scenario::new("poisson", 4, golden, Some(1800.0))];
    for seed in 1..=3 {
        let trace = poisson_trace(300.0, 3600.0, WorkloadMix::Medium, seed);
        scenarios.push(Scenario::new(
            &format!("hour {seed}"),
            64,
            trace,
            Some(3600.0),
        ));
    }
    for scenario in &scenarios {
        for kind in [SchedulerKind::Fifo, SchedulerKind::Mios] {
            let run = scenario.run(kind, Objective::MinRuntime);
            let (_, log) = run.record();
            let found = queued_beside_free(&log, run.n_slots());
            assert!(
                found.is_empty(),
                "{}: {} instants end with a queued task beside a free slot, first at t = {}",
                run.name,
                found.len(),
                found[0]
            );
        }
    }
}

/// The kernel's completions are where a slow integrator puts them: on
/// every golden scenario under every scheduler kind and objective, on
/// the fill regime `golden_engine.rs` pins (768 tasks on 256 x 2 under
/// FIFO and the window-32 batchers), on the determinism sweep's cells (FIFO and the window-4 batchers behind
/// its bounded admission queue), and on a run whose predictor the
/// monitor swaps mid-run.
#[test]
fn completions_land_where_the_replayed_progress_reaches_one() {
    for scenario in &golden_scenarios() {
        for (kind, objective) in golden_kinds() {
            let run = scenario.run(kind, objective);
            let (result, log) = run.record();
            check_physics(&run, &result, &log);
        }
    }
    let fill = Scenario::new(
        "fill",
        256,
        static_batch(768, WorkloadMix::Medium, 17),
        None,
    );
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Mibs(32),
        SchedulerKind::Mix(32),
    ] {
        let run = fill.run(kind, Objective::MinRuntime);
        let (result, log) = run.record();
        check_physics(&run, &result, &log);
    }
    for scenario in &sweep_scenarios() {
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::Mibs(4),
            SchedulerKind::Mix(4),
        ] {
            let mut run = scenario.run(kind, Objective::MinRuntime);
            run.sim.queue_capacity = Some(QUEUE_CAPACITY);
            let (result, log) = run.record();
            check_physics(&run, &result, &log);
        }
    }
    let cfg = MonitorConfig {
        rebuild_every: 8,
        ..MonitorConfig::default()
    };
    let trace = poisson_trace(40.0, 1800.0, WorkloadMix::Uniform, 11);
    let scenario = Scenario::new("monitored", 16, trace, Some(1800.0));
    let run = scenario.run(SchedulerKind::Mios, Objective::MinRuntime);
    let mut obs = Monitored {
        log: Log::default(),
        monitor: testbed().monitor(ModelKind::Wmm, cfg),
        swaps: 0,
    };
    let result = run
        .sim
        .run_with_observer(&scenario.trace, scenario.horizon, &mut obs);
    assert!(obs.swaps > 0, "the monitor never swapped the predictor");
    check_physics(&run, &result, &obs.log.0);
}
