//! The two simulator workloads. Both drive `Simulation::run` over one
//! seeded trace on 1024 machines x 2 slots; they differ in which layer
//! carries the time. `sim-dynamic` feeds Poisson arrivals to the online
//! schedulers, which cost under a microsecond per task, so the event
//! kernel does the work. `sim-batch` drops the whole trace at t = 0 on
//! the batch schedulers, so scoring and MIX's head search do.

use crate::prng::Prng;
use crate::report::{mean, median, percentile, Report};
use crate::sizes::SimSizes;
use crate::trace::Trace;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tracon_core::{ClusterState, Objective, Predictor, Resident, ScoringPolicy, Task, VmRef};
use tracon_dcsim::engine::queue_roundtrip_checksum;
use tracon_dcsim::{
    normalized_throughput, speedup, ArrivalEvent, QueueBackend, SchedulerKind, SimObserver,
    SimResult, Simulation, Testbed,
};

/// One simulator workload: its traces and the schedulers run over each.
pub struct SimPlan {
    dynamic: bool,
    machines: usize,
    /// FIFO first (the baseline), the scheduler `gain_vs_fifo` compares
    /// against it last.
    kinds: Vec<SchedulerKind>,
    /// A repetition runs every scheduler over every trace.
    traces: Vec<Vec<ArrivalEvent>>,
    horizon: Option<f64>,
    /// The traced pass stamps the clock on one event in this many.
    sample_every: u64,
}

impl SimPlan {
    /// `sim-dynamic`: Poisson arrivals at a fixed rate over a fixed
    /// simulated horizon, medium mix; the same trace under FIFO and MIOS.
    pub fn dynamic(sizes: &SimSizes, seed: u64) -> SimPlan {
        let mut prng = Prng::new(seed, 1);
        let rate_per_s = sizes.dynamic_lambda_per_min / 60.0;
        let mut trace = Vec::with_capacity((rate_per_s * sizes.dynamic_horizon_s * 1.05) as usize);
        let mut t = 0.0;
        loop {
            t += prng.exponential(rate_per_s);
            if t >= sizes.dynamic_horizon_s {
                break;
            }
            trace.push(ArrivalEvent {
                time: t,
                app_idx: prng.medium_mix_app(),
            });
        }
        SimPlan {
            dynamic: true,
            machines: sizes.machines,
            kinds: vec![SchedulerKind::Fifo, SchedulerKind::Mios],
            traces: vec![trace],
            horizon: Some(sizes.dynamic_horizon_s),
            sample_every: 8,
        }
    }

    /// `sim-batch`: every task present at t = 0 (Fig 8 style), run to
    /// drain under FIFO, MIBS(32) and MIX(32), in several seeded orders.
    pub fn batch(sizes: &SimSizes, seed: u64) -> SimPlan {
        let mut prng = Prng::new(seed, 2);
        let traces = (0..sizes.batch_orders)
            .map(|_| {
                prng.medium_mix_batch(sizes.batch_tasks)
                    .into_iter()
                    .map(|app_idx| ArrivalEvent { time: 0.0, app_idx })
                    .collect()
            })
            .collect();
        SimPlan {
            dynamic: false,
            machines: sizes.machines,
            kinds: vec![
                SchedulerKind::Fifo,
                SchedulerKind::Mibs(sizes.window),
                SchedulerKind::Mix(sizes.window),
            ],
            traces,
            horizon: None,
            // Dispatches are few and long here; stamp every one.
            sample_every: 1,
        }
    }
}

/// The fields of a result that a correct simulator reproduces exactly.
fn fingerprint(r: &SimResult) -> [u64; 8] {
    [
        r.arrived as u64,
        r.completed as u64,
        r.refused as u64,
        r.events_processed as u64,
        r.total_runtime.to_bits(),
        r.total_iops.to_bits(),
        r.makespan.to_bits(),
        r.mean_wait.to_bits(),
    ]
}

/// FNV-1a over every result's fingerprint: one printable number that a
/// simulator-only speed-up must leave unchanged for a given seed.
fn digest(results: &[SimResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in results.iter().flat_map(fingerprint) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The traced pass's tap on the kernel: counts dispatches and, on a
/// sample of events, times the scheduler. The kernel polls
/// `updated_predictor` once per event, after handling it and right
/// before its dispatch gate, and calls `on_dispatch` right after the
/// scheduler returns; the interval between the two holds the gate and
/// the scheduler call, so it bounds scheduler time from above.
struct LayerObserver {
    sample_every: u64,
    events: u64,
    armed: bool,
    since: Instant,
    sampled_busy: Duration,
    calls: u64,
    placed: u64,
}

impl LayerObserver {
    fn new(sample_every: u64) -> LayerObserver {
        LayerObserver {
            sample_every,
            events: 0,
            armed: false,
            since: Instant::now(),
            sampled_busy: Duration::ZERO,
            calls: 0,
            placed: 0,
        }
    }

    fn trigger(&mut self) {
        self.events += 1;
        self.armed = self.events.is_multiple_of(self.sample_every);
        if self.armed {
            self.since = Instant::now();
        }
    }

    fn busy_s_upper(&self) -> f64 {
        self.sampled_busy.as_secs_f64() * self.sample_every as f64
    }
}

impl SimObserver for LayerObserver {
    fn updated_predictor(&mut self) -> Option<Predictor> {
        self.trigger();
        None
    }
    fn on_dispatch(&mut self, _time: f64, n_assigned: usize) {
        self.calls += 1;
        self.placed += n_assigned as u64;
        if self.armed {
            self.sampled_busy += self.since.elapsed();
            self.armed = false;
        }
    }
}

/// One repetition: every scheduler of the plan over every trace, once;
/// trace by trace, the schedulers in the plan's order.
struct Rep {
    results: Vec<SimResult>,
    host_s: Vec<f64>,
    observers: Vec<LayerObserver>,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.host_s.iter().sum()
    }
    fn completed(&self) -> usize {
        self.results.iter().map(|r| r.completed).sum()
    }
}

fn run_rep(plan: &SimPlan, tb: &Testbed, traced: bool) -> Rep {
    let mut rep = Rep {
        results: Vec::new(),
        host_s: Vec::new(),
        observers: Vec::new(),
    };
    for trace in &plan.traces {
        for &kind in &plan.kinds {
            let sim = Simulation::new(tb, plan.machines, kind);
            let mut tap = traced.then(|| LayerObserver::new(plan.sample_every));
            let t = Instant::now();
            let result = match &mut tap {
                Some(obs) => sim.run_with_observer(trace, plan.horizon, obs),
                None => sim.run(trace, plan.horizon),
            };
            rep.host_s.push(t.elapsed().as_secs_f64());
            rep.observers.extend(tap);
            rep.results.push(result);
        }
    }
    rep
}

/// Whole repetitions until `budget_s` of host time is used: the work of
/// a repetition is fixed, only their number follows the clock. With
/// `alternate`, every second repetition is traced, so the two kinds see
/// the same drift of the host; then there are at least eight, because
/// `trace.overhead_share` is a ratio of two medians and a median of two
/// repetitions read up to 0.1 for an observer that costs a thousandth.
fn run_reps(plan: &SimPlan, tb: &Testbed, budget_s: f64, alternate: bool) -> Vec<Rep> {
    let start = Instant::now();
    let at_least = if alternate { 8 } else { 2 };
    let mut reps = Vec::new();
    while reps.len() < at_least || start.elapsed().as_secs_f64() < budget_s {
        reps.push(run_rep(plan, tb, alternate && reps.len() % 2 == 1));
    }
    reps
}

/// The results of the plan's last scheduler, one per trace.
fn last_kind<'a>(plan: &SimPlan, results: &'a [SimResult]) -> impl Iterator<Item = &'a SimResult> {
    results.chunks(plan.kinds.len()).filter_map(<[_]>::last)
}

/// The last scheduler's gain over FIFO on each trace; the smallest is
/// held against 1, the mean is reported.
fn gains_vs_fifo(plan: &SimPlan, results: &[SimResult]) -> Vec<f64> {
    results
        .chunks(plan.kinds.len())
        .map(|of_trace| {
            let (fifo, other) = (&of_trace[0], &of_trace[of_trace.len() - 1]);
            if plan.dynamic {
                normalized_throughput(fifo, other)
            } else {
                speedup(fifo, other)
            }
        })
        .collect()
}

/// Output checks on one repetition: nothing lost, and every result equal
/// to the reference bit for bit (so traced and untraced runs are too).
fn check_rep(plan: &SimPlan, reference: &[SimResult], rep: &Rep, what: &str, report: &mut Report) {
    for (r, expect) in rep.results.iter().zip(reference) {
        report.attempted += r.arrived as u64;
        let accounted = r.completed + r.refused + r.abandoned;
        report.check(
            accounted <= r.arrived && r.arrived == accounted + r.unfinished(),
            || format!("{what} {}: arrivals not conserved", r.scheduler),
        );
        // No admission bound and no fault plan: nothing may be lost, and
        // a static batch runs until every task has completed.
        report.failed += (r.refused + r.abandoned) as u64;
        if !plan.dynamic {
            report.failed += r.unfinished() as u64;
        }
        report.check(fingerprint(r) == fingerprint(expect), || {
            format!("{what} {}: result differs from the first run", r.scheduler)
        });
    }
}

/// Completed tasks per host second of a repetition whose every step (one
/// scheduler over one trace) took its quiet time: the 10th percentile of
/// that step's host seconds over the repetitions. It is `quiet_rate`'s
/// statistic taken step by step, so a burst of the host's neighbours
/// spoils the step it hit and not the repetition around it.
fn quiet_tasks_per_s(reps: &[Rep]) -> f64 {
    let steps = reps[0].host_s.len();
    let quiet_s: f64 = (0..steps)
        .map(|i| {
            let of_step: Vec<f64> = reps.iter().map(|r| r.host_s[i]).collect();
            percentile(&of_step, 0.10)
        })
        .sum();
    reps[0].completed() as f64 / quiet_s
}

/// Completed tasks per host second of each repetition.
fn rates<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Vec<f64> {
    reps.into_iter()
        .map(|r| r.completed() as f64 / r.wall_s())
        .collect()
}

/// The untraced pass: a warm-up repetition that also fixes the reference
/// results (returned), then timed repetitions for `budget_s`.
pub fn measure(plan: &SimPlan, tb: &Testbed, budget_s: f64, report: &mut Report) -> Vec<SimResult> {
    let reference = run_rep(plan, tb, false).results;
    let gains = gains_vs_fifo(plan, &reference);
    report.check(gains.iter().all(|g| *g >= 1.0), || {
        format!("gain_vs_fifo {gains:?} has a value < 1")
    });
    let reps = run_reps(plan, tb, budget_s, false);
    for rep in &reps {
        check_rep(plan, &reference, rep, "untraced", report);
    }
    let rates = rates(&reps);
    eprintln!(
        "sim: {} repetitions of {} traces of {} tasks x {} schedulers, result digest {:016x}",
        reps.len(),
        plan.traces.len(),
        plan.traces[0].len(),
        plan.kinds.len(),
        digest(&reference)
    );
    eprintln!("pieces rep_tasks_per_s {rates:?}");
    for rep in &reps {
        eprintln!("pieces rep_step_s {:?}", rep.host_s);
    }
    report.push("ops_per_s", quiet_tasks_per_s(&reps), "1/s");
    report.push("ops_per_s_median", median(&rates), "1/s");
    report.push("gain_vs_fifo", mean(&gains), "ratio");
    reference
}

/// The traced pass: the same repetitions with the kernel tapped, then
/// the isolated layer measurements that explain them.
pub fn layers(
    plan: &SimPlan,
    tb: &Testbed,
    budget_s: f64,
    reference: &[SimResult],
    seed: u64,
    trace: &mut Trace,
    report: &mut Report,
) {
    let (all, _) = trace.span("dcsim.engine.run_alternating", |_| {
        run_reps(plan, tb, budget_s, true)
    });
    for rep in &all {
        check_rep(plan, reference, rep, "alternating", report);
    }
    let (reps, plain): (Vec<&Rep>, Vec<&Rep>) = all.iter().partition(|r| !r.observers.is_empty());
    report.push(
        "trace.overhead_share",
        (1.0 - median(&rates(reps.iter().copied())) / median(&rates(plain))).max(0.0),
        "ratio",
    );

    // Per-repetition layer numbers, medians over the traced repetitions.
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<f64>>());
    let events = |r: &Rep| r.results.iter().map(|s| s.events_processed).sum::<usize>() as f64;
    let wall_s = per_rep(&|r| r.wall_s());
    let busy_s = per_rep(&|r| r.observers.iter().map(|o| o.busy_s_upper()).sum());
    let calls = per_rep(&|r| r.observers.iter().map(|o| o.calls).sum::<u64>() as f64);
    let placed = per_rep(&|r| r.observers.iter().map(|o| o.placed).sum::<u64>() as f64);
    let n_events = per_rep(&events);
    report.push("core.sched.calls", calls, "count");
    report.push(
        "core.sched.placed_per_call",
        placed / calls.max(1.0),
        "ratio",
    );
    report.push("core.sched.busy_s_upper", busy_s, "s");
    report.push("core.sched.busy_share", busy_s / wall_s, "ratio");
    report.push(
        "core.sched.last_kind_wall_share",
        per_rep(&|r| {
            let of_last = r.host_s.chunks(plan.kinds.len()).filter_map(<[_]>::last);
            of_last.sum::<f64>() / r.wall_s()
        }),
        "ratio",
    );
    report.push("dcsim.engine.events_per_s", n_events / wall_s, "1/s");
    report.push(
        "dcsim.engine.events_per_task",
        n_events / per_rep(&|r| r.completed() as f64),
        "ratio",
    );
    let of_last = |f: fn(&SimResult) -> f64| -> f64 {
        mean(&last_kind(plan, reference).map(f).collect::<Vec<f64>>())
    };
    let makespan_s = of_last(|r| r.makespan);
    report.push("dcsim.engine.mean_wait_s", of_last(|r| r.mean_wait), "s");
    report.push("dcsim.engine.makespan_s", makespan_s, "s");

    // The event queue alone: a push and a pop per event, over a monotone
    // stream of event times at this workload's mean spacing (the kernel
    // is fed its trace in time order).
    let mut prng = Prng::new(seed, 3);
    let n_times = 200_000;
    let gap_rate = n_times as f64 / plan.horizon.unwrap_or(makespan_s);
    let mut t = 0.0;
    let times: Vec<f64> = (0..n_times)
        .map(|_| {
            t += prng.exponential(gap_rate);
            t
        })
        .collect();
    let (queue_ns, _) = trace.span("dcsim.engine.queue", |_| {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            black_box(queue_roundtrip_checksum(
                black_box(&times),
                QueueBackend::TimingWheel,
            ));
            samples.push(t.elapsed().as_secs_f64() * 1e9 / times.len() as f64);
        }
        median(&samples)
    });
    let queue_s = queue_ns * 1e-9 * n_events;

    // What the tap itself costs per event, so it can be subtracted.
    let observer_ns = {
        let mut obs = LayerObserver::new(plan.sample_every);
        let rounds = 1_000_000u32;
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(obs.updated_predictor());
            obs.on_dispatch(0.0, 1);
        }
        black_box(obs.calls);
        t.elapsed().as_secs_f64() * 1e9 / f64::from(rounds)
    };
    let self_s = wall_s - busy_s - queue_s - observer_ns * 1e-9 * n_events;
    report.push("dcsim.engine.queue_ns", queue_ns, "ns");
    report.push("dcsim.engine.queue_share", queue_s / wall_s, "ratio");
    report.push("dcsim.engine.observer_ns", observer_ns, "ns");
    report.push("dcsim.engine.self_s_est", self_s, "s");
    report.push("dcsim.engine.self_share", self_s / wall_s, "ratio");

    trace.span("core.sched.replay", |_| {
        sched_replay(plan, tb, seed, report)
    });
}

/// Each scheduler in isolation at this cluster size: fill the cluster,
/// then repeatedly free one seeded slot and call `schedule()` on a full
/// window — the steady state of a saturated run, without the kernel.
fn sched_replay(plan: &SimPlan, tb: &Testbed, seed: u64, report: &mut Report) {
    const WINDOW: usize = 32;
    let scoring = ScoringPolicy::new(&tb.predictor, Objective::MinRuntime);
    let names = tb.app_names();
    let replay = |kind: SchedulerKind, calls: usize| -> f64 {
        let mut prng = Prng::new(seed, 4);
        let mut cluster = ClusterState::new(plan.machines, 2, tb.app_chars.clone());
        let ids: Vec<_> = names
            .iter()
            .map(|n| cluster.registry().expect_id(n))
            .collect();
        let mut next_id = 0u64;
        let mut draw = |prng: &mut Prng| {
            next_id += 1;
            Task::new(next_id, ids[prng.medium_mix_app()])
        };
        // Fill by direct placement so every scheduler starts from the
        // same full cluster.
        for machine in 0..plan.machines {
            for slot in 0..2 {
                let task = draw(&mut prng);
                cluster.place(
                    VmRef { machine, slot },
                    Resident {
                        task_id: task.id,
                        app: task.app,
                    },
                );
            }
        }
        let mut scheduler = kind.build();
        let mut queue: VecDeque<Task> = (0..WINDOW).map(|_| draw(&mut prng)).collect();
        let mut samples = Vec::with_capacity(calls);
        for _ in 0..calls {
            let vm = VmRef {
                machine: prng.below(plan.machines),
                slot: prng.below(2),
            };
            cluster.clear(vm);
            let t = Instant::now();
            let placed = scheduler.schedule(&mut queue, &mut cluster, &scoring);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(placed.len(), 1, "one free slot takes exactly one task");
            while queue.len() < WINDOW {
                queue.push_back(draw(&mut prng));
            }
        }
        median(&samples)
    };
    let fifo = replay(SchedulerKind::Fifo, 2000);
    let mios = replay(SchedulerKind::Mios, 2000);
    let mibs = replay(SchedulerKind::Mibs(WINDOW), 2000);
    let mix = replay(SchedulerKind::Mix(WINDOW), 200);
    report.push("core.sched.fifo_call_us", fifo, "us");
    report.push("core.sched.mios_call_us", mios, "us");
    report.push("core.sched.mibs32_call_us", mibs, "us");
    report.push("core.sched.mix32_call_us", mix, "us");
    report.push("core.sched.mix32_head_us", mix / WINDOW as f64, "us");
    report.push("core.sched.mix_over_mibs", mix / mibs, "ratio");

    // One class score, the unit every scheduler above is built from:
    // a half-empty cluster has the widest spread of free classes.
    let mut prng = Prng::new(seed, 5);
    let mut cluster = ClusterState::new(plan.machines, 2, tb.app_chars.clone());
    let ids: Vec<_> = names
        .iter()
        .map(|n| cluster.registry().expect_id(n))
        .collect();
    for machine in (0..plan.machines).step_by(2) {
        cluster.place(
            VmRef { machine, slot: 0 },
            Resident {
                task_id: machine as u64,
                app: ids[prng.medium_mix_app()],
            },
        );
    }
    let classes = cluster.free_classes();
    let rounds = 20_000;
    let t = Instant::now();
    let mut sum = 0.0;
    for i in 0..rounds {
        let app = ids[i % ids.len()];
        for class in &classes {
            sum += scoring.class_score(black_box(app), class);
        }
    }
    black_box(sum);
    report.push(
        "core.predictor.score_ns",
        t.elapsed().as_secs_f64() * 1e9 / (rounds * classes.len()) as f64,
        "ns",
    );
}
