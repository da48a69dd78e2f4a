//! CLI subcommand implementations. Each returns `Ok(output)` to print or
//! `Err(message)` for usage/runtime errors, so the logic is unit-testable
//! without spawning processes.

use crate::args::Args;
use std::fmt::Write as _;
use tracon_core::{Characteristics, ModelKind, Objective, SchedulerKind};
use tracon_dcsim::arrival::{poisson_trace, WorkloadMix};
use tracon_dcsim::experiments::registry::{find, Experiment, REGISTRY};
use tracon_dcsim::{Simulation, Testbed, TestbedConfig};
use tracon_vmsim::{Benchmark, HostConfig};

/// Top-level usage text.
pub const USAGE: &str = "\
tracon — interference-aware scheduling for data-intensive applications (SC'11)

USAGE:
  tracon <command> [options]

COMMANDS:
  profile    Run the profiling campaign and save a testbed snapshot
             --out FILE [--points N=125] [--time-scale F=0.25] [--seed N]
  inspect    Print a snapshot's pair-interference matrix and solo stats
             --testbed FILE
  predict    Predict runtime/IOPS of an app next to a neighbour
             --testbed FILE --app NAME [--neighbor NAME] [--model wmm|lm|nlm]
  schedule   Schedule a task list onto a cluster and show the placements
             --testbed FILE --tasks a,b,c --machines N
             [--scheduler fifo|mios|mibs[:W]|mix[:W]]  (W defaults to the
                           number of tasks) [--objective rt|io]
  simulate   Run a dynamic data-center simulation
             --testbed FILE --machines N --lambda TASKS/MIN [--hours H=10]
             [--mix light|medium|heavy|uniform] [--seed N]
             [--scheduler fifo|mios|mibs[:W]|mix[:W]=mibs] [--window W=8]
             [--compare]  (run MIOS, MIBS, and MIX side by side instead of
                           the single --scheduler, normalized against FIFO)
  experiment Run a registered paper experiment end to end
             NAME... | all | --list   [--fidelity small|quick|full]  (default
             small; full matches the paper-scale figures: `all` takes ~21 s
             and ext_adaptive 0.3 s on a 2-vCPU Xeon)
  serve      Run tracond, the online scheduling daemon, until drained
             [--port N=0] [--http-port N=0] [--machines N=4] [--slots N=2]
             [--shards N=1]  (scheduler shards behind one connection
                           reactor; each owns a machine slice and WAL file)
             [--scheduler fifo|mios|mibs[:W]|mix[:W]=mios]  (W defaults to 8)
             [--queue-cap N=64] [--rebuild-every N]
             [--wal DIR]  (persist admissions to an fsync'd write-ahead log
                           and recover queue/counters on restart)
             [--replica-of HOST:PORT]  (boot as a warm follower of a running
                           leader: pull WAL frames, refuse mutations with
                           not_leader, and self-promote when the leader's
                           lease lapses; requires --wal)
             [--repl-poll-ms N=50]  (below the 1500 ms lease TTL)
             [--lease-ms N=30000] [--lease-per-s-ms N=2000]
             [--max-attempts N=5] [--backoff-ms N=100]
             [--testbed FILE | --points N=6 --time-scale F=0.05 --seed N]
  submit     Submit tasks to a running tracond and print the placements
             --addr HOST:PORT --app NAME [--count N=1]
  loadgen    Drive a running tracond with Poisson load; exits nonzero unless
             the verdict is PASS: every conservation check held, its work
             settled (work other clients left is not its to settle), and
             every acked task it did not orphan ended completed
             --addr HOST:PORT[,HOST:PORT...]  (a failover list: a lost
                           connection or a not_leader refusal reconnects to
                           the named leader, then walks the list, so a
                           restarted or promoted daemon may answer on
                           another port)
             [--requests N=100 (200 with --chaos)] [--lambda TASKS/MIN=60]
             [--mix light|medium|heavy|uniform] [--mode open|closed]
             [--concurrency N=8] [--seed N] [--idle-conns N=0]
             [--quick]    (compress the pacing: 500 arrivals span about a
                           second instead of 25 s, plus backpressure waits)
             [--settle-timeout-ms N=30000] bounds the final wait for all work
                           to reach a terminal state, and a closed run's wait
                           for a free slot;
             [--reconnect-timeout-ms N=15000] bounds one reconnect;
             [--failpoints SPEC] arms server-side fault injection over the
                           fail verb for the run, e.g.
                           wal.append.sync=err%50;seed=7 — the report pairs
                           faults injected with faults observed;
             [--chaos]    (the same run plus sabotage: killed connections,
                           garbage and oversized lines, partial frames, and
                           every 7th placed task orphaned. Orphans come back
                           only when their lease lapses, so serve's
                           --lease-ms plus predicted seconds x
                           --lease-per-s-ms must sit well below the settle
                           timeout (CI: --lease-ms 1000 --lease-per-s-ms 0).
                           Without --chaos a run also fails on any reply it
                           cannot place)
  drain      Ask a running tracond to stop admitting work and exit when idle
             --addr HOST:PORT
  apps       List the benchmark suite
  help       Show this message
";

fn model_kind(name: &str) -> Result<ModelKind, String> {
    match name {
        "wmm" => Ok(ModelKind::Wmm),
        "lm" => Ok(ModelKind::Linear),
        "nlm" => Ok(ModelKind::Nonlinear),
        other => Err(format!("unknown model '{other}' (wmm, lm, nlm)")),
    }
}

/// The batch window a bare `mibs` or `mix` takes in `simulate` (unless
/// `--window` says otherwise) and in `serve`.
const DEFAULT_WINDOW: usize = 8;

fn mix(name: &str) -> Result<WorkloadMix, String> {
    match name {
        "light" => Ok(WorkloadMix::Light),
        "medium" => Ok(WorkloadMix::Medium),
        "heavy" => Ok(WorkloadMix::Heavy),
        "uniform" => Ok(WorkloadMix::Uniform),
        other => Err(format!(
            "unknown mix '{other}' (light, medium, heavy, uniform)"
        )),
    }
}

fn objective(name: &str) -> Result<Objective, String> {
    match name {
        "rt" => Ok(Objective::MinRuntime),
        "io" => Ok(Objective::MaxIops),
        other => Err(format!("unknown objective '{other}' (rt, io)")),
    }
}

fn load_testbed(args: &Args) -> Result<Testbed, String> {
    let path = args.require("testbed")?;
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read testbed '{path}': {e}"))?;
    let kind = model_kind(args.get_or("model", "nlm"))?;
    Testbed::from_snapshot_json(&json, kind)
}

/// `tracon profile`
pub fn profile(args: &Args) -> Result<String, String> {
    let out_path = args.require("out")?;
    let points: usize = args.num_or("points", 125)?;
    let time_scale: f64 = args.num_or("time-scale", 0.25)?;
    let seed: u64 = args.num_or("seed", 0x7EAC0)?;
    if time_scale <= 0.0 {
        return Err("--time-scale must be positive".into());
    }
    let cfg = TestbedConfig {
        host: HostConfig::testbed(),
        time_scale,
        model_kind: ModelKind::Nonlinear,
        calibration_points: points,
        seed,
    };
    eprintln!("profiling 8 benchmarks against {points} calibration workloads ...");
    let tb = Testbed::build(&cfg);
    std::fs::write(out_path, tb.snapshot_json())
        .map_err(|e| format!("cannot write '{out_path}': {e}"))?;
    Ok(format!(
        "saved testbed snapshot to {out_path} ({} apps, {} profile records)",
        tb.perf.n_apps(),
        tb.profiles.iter().map(|p| p.records.len()).sum::<usize>()
    ))
}

/// `tracon inspect`
pub fn inspect(args: &Args) -> Result<String, String> {
    let tb = load_testbed(args)?;
    let mut out = String::new();
    writeln!(out, "applications ({}):", tb.perf.n_apps()).unwrap();
    writeln!(
        out,
        "{:10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "name", "runtime(s)", "IOPS", "reads/s", "writes/s", "cpu"
    )
    .unwrap();
    for (i, name) in tb.perf.names.iter().enumerate() {
        let c = tb.app_chars[name];
        writeln!(
            out,
            "{:10} {:>10.1} {:>10.1} {:>8.1} {:>8.1} {:>8.2}",
            name,
            tb.perf.solo_runtime(i),
            tb.perf.solo_iops(i),
            c.read_rps,
            c.write_rps,
            c.cpu_util
        )
        .unwrap();
    }
    writeln!(out, "\npair slowdowns (row app next to column app):").unwrap();
    write!(out, "{:10}", "").unwrap();
    for name in &tb.perf.names {
        write!(out, " {:>8}", &name[..name.len().min(8)]).unwrap();
    }
    writeln!(out).unwrap();
    for (a, name) in tb.perf.names.iter().enumerate() {
        write!(out, "{name:10}").unwrap();
        for b in 0..tb.perf.n_apps() {
            write!(out, " {:>8.2}", tb.perf.slowdown(a, b)).unwrap();
        }
        writeln!(out).unwrap();
    }
    Ok(out)
}

/// `tracon predict`
pub fn predict(args: &Args) -> Result<String, String> {
    let tb = load_testbed(args)?;
    let app = args.require("app")?;
    if !tb.predictor.knows(app) {
        return Err(format!("unknown application '{app}' (see `tracon apps`)"));
    }
    let mut out = String::new();
    match args.options.get("neighbor") {
        Some(nb) => {
            if !tb.predictor.knows(nb) {
                return Err(format!("unknown neighbour '{nb}'"));
            }
            let rt = tb.predictor.predict_pair_runtime(app, nb);
            let io = tb.predictor.predict_pair_iops(app, nb);
            let solo_rt = tb.predictor.profile(app).solo_runtime;
            writeln!(
                out,
                "{app} next to {nb}: runtime {rt:.1} s ({:.2}x solo), IOPS {io:.1}",
                rt / solo_rt
            )
            .unwrap();
        }
        None => {
            writeln!(out, "predicted runtime of {app} next to each neighbour:").unwrap();
            let idle = Characteristics::idle();
            writeln!(
                out,
                "  {:10} {:>10.1} s (idle)",
                "-",
                tb.predictor.predict_runtime(app, &idle)
            )
            .unwrap();
            for nb in tb.perf.names.clone() {
                let rt = tb.predictor.predict_pair_runtime(app, &nb);
                writeln!(out, "  {nb:10} {rt:>10.1} s").unwrap();
            }
        }
    }
    Ok(out)
}

/// `tracon schedule`
pub fn schedule(args: &Args) -> Result<String, String> {
    let tb = load_testbed(args)?;
    let machines: usize = args.num_or("machines", 4)?;
    if machines == 0 {
        return Err("--machines must be positive".into());
    }
    let tasks_arg = args
        .options
        .get("tasks")
        .cloned()
        .or_else(|| {
            if args.positionals.is_empty() {
                None
            } else {
                Some(args.positionals.join(","))
            }
        })
        .ok_or("missing --tasks a,b,c")?;
    let names: Vec<&str> = tasks_arg.split(',').filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        return Err("empty task list".into());
    }
    for n in &names {
        if !tb.predictor.knows(n) {
            return Err(format!("unknown application '{n}' (see `tracon apps`)"));
        }
    }
    let kind = SchedulerKind::parse(args.get_or("scheduler", "mibs"), names.len())?;
    let obj = objective(args.get_or("objective", "rt"))?;

    use std::collections::VecDeque;
    use tracon_core::{ClusterState, ScoringPolicy, Task};
    let scoring = ScoringPolicy::new(&tb.predictor, obj);
    let mut cluster = ClusterState::new(machines, 2, tb.app_chars.clone());
    let registry = cluster.registry().clone();
    let mut queue: VecDeque<Task> = names
        .iter()
        .enumerate()
        .map(|(i, n)| Task::new(i as u64, registry.expect_id(n)))
        .collect();
    let assignments = kind.build().schedule(&mut queue, &mut cluster, &scoring);

    let mut out = String::new();
    writeln!(
        out,
        "{kind} placed {} of {} tasks:",
        assignments.len(),
        names.len()
    )
    .unwrap();
    let mut per_machine: Vec<Vec<String>> = vec![Vec::new(); machines];
    for a in &assignments {
        per_machine[a.vm.machine].push(registry.name(a.task.app).to_string());
    }
    for (m, apps) in per_machine.iter().enumerate() {
        if !apps.is_empty() {
            writeln!(out, "  machine {m:3}: {}", apps.join(" + ")).unwrap();
        }
    }
    if !queue.is_empty() {
        let left: Vec<&str> = queue.iter().map(|t| registry.name(t.app)).collect();
        writeln!(out, "  queued (cluster full): {}", left.join(", ")).unwrap();
    }
    Ok(out)
}

/// `tracon simulate`
pub fn simulate(args: &Args) -> Result<String, String> {
    let machines: usize = args.num_or("machines", 64)?;
    let lambda: f64 = args.num_or("lambda", 40.0)?;
    let hours: f64 = args.num_or("hours", 10.0)?;
    let seed: u64 = args.num_or("seed", 42)?;
    if machines == 0 || lambda <= 0.0 || hours <= 0.0 {
        return Err("--machines, --lambda, and --hours must be positive".into());
    }
    let window: usize = args.num_or("window", DEFAULT_WINDOW)?;
    let kind = SchedulerKind::parse(args.get_or("scheduler", "mibs"), window)?;
    // `--compare` runs the three TRACON schedulers; otherwise just the
    // chosen one.
    let kinds = if args.flag("compare") {
        ["mios", "mibs", "mix"]
            .map(|name| SchedulerKind::parse(name, window))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
    } else {
        vec![kind]
    };
    let obj = objective(args.get_or("objective", "rt"))?;
    let workload = mix(args.get_or("mix", "medium"))?;
    let tb = load_testbed(args)?;

    let horizon = hours * 3600.0;
    let trace = poisson_trace(lambda, horizon, workload, seed);
    let fifo = Simulation::new(&tb, machines, SchedulerKind::Fifo).run(&trace, Some(horizon));

    let mut out = String::new();
    writeln!(
        out,
        "{} machines, {} mix, lambda {lambda}/min, {hours} h, {} arrivals",
        machines,
        workload.name(),
        trace.len()
    )
    .unwrap();
    writeln!(
        out,
        "  {:10} completed {:6}  mean wait {:7.0} s",
        "FIFO", fifo.completed, fifo.mean_wait
    )
    .unwrap();
    for k in kinds {
        let r = Simulation::new(&tb, machines, k)
            .with_objective(obj)
            .run(&trace, Some(horizon));
        writeln!(
            out,
            "  {:10} completed {:6}  mean wait {:7.0} s  (normalized throughput {:.3})",
            r.scheduler,
            r.completed,
            r.mean_wait,
            r.completed as f64 / fifo.completed.max(1) as f64
        )
        .unwrap();
    }
    Ok(out)
}

/// Resolves `tracon experiment` positionals — names, comma lists, and
/// `all` for every registered experiment — before anything runs, so a
/// typo costs nothing.
fn resolve_experiments(positionals: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut exps = Vec::new();
    for name in positionals.iter().flat_map(|p| p.split(',')) {
        match name {
            "" => {}
            "all" => exps.extend(REGISTRY),
            _ => exps.push(find(name).ok_or_else(|| {
                format!("unknown experiment '{name}' (try `tracon experiment --list`)")
            })?),
        }
    }
    Ok(exps)
}

/// `tracon experiment`
pub fn experiment(args: &Args) -> Result<String, String> {
    use tracon_dcsim::experiments::registry::TestbedCache;
    use tracon_dcsim::experiments::ExperimentConfig;

    if args.flag("list") {
        let mut out = String::new();
        writeln!(out, "registered experiments ({}):", REGISTRY.len()).unwrap();
        for exp in REGISTRY {
            writeln!(out, "  {:12} {}", exp.name, exp.description).unwrap();
        }
        writeln!(out, "  {:12} every experiment above, in that order", "all").unwrap();
        return Ok(out);
    }

    let cfg = match args.get_or("fidelity", "small") {
        "small" => ExperimentConfig::small(),
        "quick" => ExperimentConfig::quick(),
        "full" => ExperimentConfig::full(),
        other => return Err(format!("unknown fidelity '{other}' (small, quick, full)")),
    };
    if args.positionals.is_empty() {
        return Err("missing experiment name (try `tracon experiment --list`)".into());
    }
    let exps = resolve_experiments(&args.positionals)?;

    // One cache for the whole invocation: the profiled testbed is built at
    // most once no matter how many experiments share it.
    let cache = TestbedCache::new(&cfg);
    let mut out = String::new();
    for (i, exp) in exps.into_iter().enumerate() {
        if i > 0 {
            writeln!(out).unwrap();
        }
        writeln!(out, "==== {}: {} ====", exp.name, exp.description).unwrap();
        out.push_str(&(exp.run)(&cfg, &cache));
    }
    Ok(out)
}

/// Builds the testbed a daemon or client command runs against: a saved
/// snapshot when `--testbed` is given, otherwise a fast synthetic
/// profiling campaign (the e2e-test scale: 6 points at 0.05 time scale).
fn serve_testbed(args: &Args) -> Result<Testbed, String> {
    if args.options.contains_key("testbed") {
        return load_testbed(args);
    }
    let points: usize = args.num_or("points", 6)?;
    let time_scale: f64 = args.num_or("time-scale", 0.05)?;
    let seed: u64 = args.num_or("seed", 0x7EAC0)?;
    if points == 0 || time_scale <= 0.0 {
        return Err("--points and --time-scale must be positive".into());
    }
    eprintln!("profiling a synthetic testbed ({points} calibration points) ...");
    Ok(Testbed::build(&TestbedConfig {
        host: HostConfig::testbed(),
        time_scale,
        model_kind: ModelKind::Nonlinear,
        calibration_points: points,
        seed,
    }))
}

/// `tracon serve` — boot tracond and block until it drains or is shut
/// down over the protocol.
pub fn serve(args: &Args) -> Result<String, String> {
    use tracon_serve::repl::REPL_TTL_MS;
    use tracon_serve::{daemon, NetConfig, ServeConfig};

    let machines: usize = args.num_or("machines", 4)?;
    let slots: usize = args.num_or("slots", 2)?;
    if machines == 0 || slots == 0 {
        return Err("--machines and --slots must be positive".into());
    }
    let shards: usize = args.num_or("shards", 1)?;
    if shards == 0 || shards > machines {
        return Err(format!(
            "--shards must be 1..=--machines (got {shards} shards over {machines} machines)"
        ));
    }
    let sched = SchedulerKind::parse(args.get_or("scheduler", "mios"), DEFAULT_WINDOW)?;
    let kind = model_kind(args.get_or("model", "wmm"))?;
    let queue_capacity: usize = args.num_or("queue-cap", 64)?;
    if queue_capacity == 0 {
        return Err("--queue-cap must be positive".into());
    }
    let mut monitor = tracon_core::MonitorConfig::default();
    monitor.rebuild_every = args.num_or("rebuild-every", monitor.rebuild_every)?;
    let max_attempts: u32 = args.num_or("max-attempts", 5)?;
    if max_attempts == 0 {
        return Err("--max-attempts must be positive".into());
    }
    let replica_of = args.options.get("replica-of").cloned();
    if replica_of.is_some() && !args.options.contains_key("wal") {
        return Err(
            "--replica-of requires --wal DIR (the follower persists shipped frames)".into(),
        );
    }
    let repl_poll_ms: u64 = args.num_or("repl-poll-ms", 50)?;
    if repl_poll_ms == 0 {
        return Err("--repl-poll-ms must be positive".into());
    }
    if repl_poll_ms >= REPL_TTL_MS {
        return Err(format!(
            "--repl-poll-ms ({repl_poll_ms}) must be below the {REPL_TTL_MS} ms lease TTL \
             or the follower can never renew the lease"
        ));
    }
    let cfg = ServeConfig {
        machines,
        slots_per_machine: slots,
        scheduler: sched,
        model_kind: kind,
        queue_capacity,
        lease_base_ms: args.num_or("lease-ms", 30_000)?,
        lease_per_predicted_s_ms: args.num_or("lease-per-s-ms", 2_000)?,
        max_attempts,
        backoff_base_ms: args.num_or("backoff-ms", 100)?,
        wal_dir: args.options.get("wal").map(std::path::PathBuf::from),
        wal_snapshot_every: args.num_or("wal-snapshot-every", 4_096)?,
        monitor,
        shards,
        replica_of,
        repl_poll_ms,
    };
    let net = NetConfig {
        addr: format!("127.0.0.1:{}", args.num_or::<u16>("port", 0)?),
        http_addr: format!("127.0.0.1:{}", args.num_or::<u16>("http-port", 0)?),
    };
    let tb = serve_testbed(args)?;
    let handle = daemon::start(&tb, cfg, net).map_err(|e| format!("cannot start daemon: {e}"))?;
    // Announce the resolved ports eagerly — scripts and tests read them
    // before the daemon exits.
    println!(
        "tracond listening on {} (protocol) and {} (http)",
        handle.addr, handle.http_addr
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let metrics = std::sync::Arc::clone(handle.metrics());
    handle.join();
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    Ok(format!(
        "tracond stopped: {} admitted, {} rejected, {} completed, {} requeued, \
         {} dead-lettered, {} rebuilds, {} swaps\n",
        metrics.admissions.load(relaxed),
        metrics.rejections.load(relaxed),
        metrics.completions.load(relaxed),
        metrics.requeues.load(relaxed),
        metrics.dead_letters.load(relaxed),
        metrics.rebuilds.load(relaxed),
        metrics.predictor_swaps.load(relaxed),
    ))
}

/// `tracon submit`
pub fn submit(args: &Args) -> Result<String, String> {
    use tracon_serve::{Client, Reply, Request};

    let addr = args.require("addr")?;
    let app = args
        .options
        .get("app")
        .cloned()
        .or_else(|| args.positionals.first().cloned())
        .ok_or("missing --app NAME (see `tracon apps`)")?;
    let count: usize = args.num_or("count", 1)?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut out = String::new();
    for _ in 0..count.max(1) {
        let reply = client
            .request(Request::Submit {
                app: app.clone(),
                demand: None,
            })
            .map_err(|e| format!("submit failed: {e}"))?;
        match reply {
            Reply::Ok { result, .. } => {
                let task = result.get("task").and_then(|v| v.as_u64()).unwrap_or(0);
                match result.get("state").and_then(|v| v.as_str()) {
                    Some("placed") => {
                        let machine = result.get("machine").and_then(|v| v.as_u64()).unwrap_or(0);
                        let slot = result.get("slot").and_then(|v| v.as_u64()).unwrap_or(0);
                        let rt = result
                            .get("predicted_runtime")
                            .and_then(|v| v.as_f64())
                            .unwrap_or(f64::NAN);
                        writeln!(
                            out,
                            "task {task}: {app} placed on machine {machine} slot {slot} \
                             (predicted runtime {rt:.1} s)"
                        )
                        .unwrap();
                    }
                    _ => {
                        let depth = result.get("depth").and_then(|v| v.as_u64()).unwrap_or(0);
                        writeln!(out, "task {task}: {app} queued (depth {depth})").unwrap();
                    }
                }
            }
            Reply::Error {
                kind,
                message,
                retry_after_ms,
                ..
            } => {
                let hint = retry_after_ms
                    .map(|ms| format!(" (retry after {ms} ms)"))
                    .unwrap_or_default();
                return Err(format!(
                    "daemon rejected submit ({}): {message}{hint}",
                    kind.as_str()
                ));
            }
        }
    }
    Ok(out)
}

/// `tracon drain`
pub fn drain(args: &Args) -> Result<String, String> {
    use tracon_serve::{Client, Reply, Request};

    let addr = args.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match client
        .request(Request::Drain)
        .map_err(|e| format!("drain failed: {e}"))?
    {
        Reply::Ok { result, .. } => {
            let queued = result.get("queued").and_then(|v| v.as_u64()).unwrap_or(0);
            let running = result.get("running").and_then(|v| v.as_u64()).unwrap_or(0);
            Ok(format!(
                "draining: {queued} queued, {running} running; daemon exits when both reach 0\n"
            ))
        }
        Reply::Error { kind, message, .. } => Err(format!(
            "daemon rejected drain ({}): {message}",
            kind.as_str()
        )),
    }
}

/// `tracon loadgen`
pub fn loadgen(args: &Args) -> Result<String, String> {
    use tracon_serve::loadgen::{run as run_loadgen, LoadMode, LoadgenConfig};

    // A comma-separated failover list: the first entry is dialled first,
    // the rest in order when a not_leader redirect (or a dead daemon)
    // forces a reconnect.
    let addrs: Vec<String> = args
        .require("addr")?
        .split(',')
        .filter(|a| !a.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        return Err("--addr needs at least one HOST:PORT".into());
    }
    let mode = match args.get_or("mode", "open") {
        "open" => LoadMode::Open,
        "closed" => LoadMode::Closed,
        other => return Err(format!("unknown mode '{other}' (open, closed)")),
    };
    let chaos = args.flag("chaos");
    let defaults = LoadgenConfig::default();
    // Chaos runs keep their own request count and seed by default.
    let (requests, seed) = if chaos {
        (200, 0xC4A0)
    } else {
        (defaults.requests, defaults.seed)
    };
    let cfg = LoadgenConfig {
        addrs,
        requests: args.num_or("requests", requests)?,
        lambda_per_min: args.num_or("lambda", defaults.lambda_per_min)?,
        mix: mix(args.get_or("mix", "medium"))?,
        mode,
        concurrency: args.num_or("concurrency", defaults.concurrency)?,
        seed: args.num_or("seed", seed)?,
        quick: args.flag("quick"),
        idle_conns: args.num_or("idle-conns", defaults.idle_conns)?,
        chaos,
        settle_timeout_ms: args.num_or("settle-timeout-ms", defaults.settle_timeout_ms)?,
        reconnect_timeout_ms: args.num_or("reconnect-timeout-ms", defaults.reconnect_timeout_ms)?,
        failpoints: args.get("failpoints").map(str::to_string),
    };
    if cfg.requests == 0 || cfg.lambda_per_min <= 0.0 {
        return Err("--requests and --lambda must be positive".into());
    }
    let report = run_loadgen(&cfg)?;
    if !report.passed() {
        return Err(format!("loadgen run failed:\n{}", report.render()));
    }
    Ok(report.render())
}

/// `tracon apps`
pub fn apps(_args: &Args) -> Result<String, String> {
    let mut out = String::new();
    writeln!(out, "benchmark suite (Table 3 of the paper):").unwrap();
    for b in Benchmark::ALL {
        let m = b.model();
        writeln!(
            out,
            "  {:10} rank {}  nominal runtime {:>5.0} s  nominal IOPS {:>5.0}",
            b.name(),
            b.io_rank(),
            m.nominal_runtime(),
            m.nominal_iops()
        )
        .unwrap();
    }
    Ok(out)
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<String, String> {
    // `schedule` and `experiment` consume positionals (task/experiment
    // names); `submit` accepts a bare app name. Everything else must
    // reject stragglers so typos surface.
    match args.command.as_deref() {
        Some("schedule") | Some("experiment") | Some("submit") => {}
        _ => args.reject_positionals()?,
    }
    match args.command.as_deref() {
        Some("profile") => profile(args),
        Some("inspect") => inspect(args),
        Some("predict") => predict(args),
        Some("schedule") => schedule(args),
        Some("simulate") => simulate(args),
        Some("experiment") => experiment(args),
        Some("apps") => apps(args),
        Some("serve") => serve(args),
        Some("submit") => submit(args),
        Some("loadgen") => loadgen(args),
        Some("drain") => drain(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn parse_str(s: &str) -> Args {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&parse_str("help")).unwrap().contains("USAGE"));
        assert!(run(&parse_str("")).unwrap().contains("USAGE"));
        let err = run(&parse_str("frobnicate")).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn apps_lists_all_eight() {
        let out = apps(&parse_str("apps")).unwrap();
        for b in Benchmark::ALL {
            assert!(out.contains(b.name()), "missing {}", b.name());
        }
    }

    #[test]
    fn parser_helpers_reject_garbage() {
        assert!(model_kind("nlm").is_ok());
        assert!(model_kind("resnet").is_err());
        assert!(mix("heavy").is_ok());
        assert!(mix("spicy").is_err());
        assert!(objective("io").is_ok());
        assert!(objective("latency").is_err());
    }

    /// `simulate`, `schedule` and `serve` spell schedulers through one
    /// catalogue, which refuses a zero window before anything is loaded
    /// or started.
    #[test]
    fn a_zero_window_is_refused_by_every_command() {
        let err = simulate(&parse_str("simulate --window 0")).unwrap_err();
        assert!(err.contains("window must be positive"), "{err}");
        let err =
            simulate(&parse_str("simulate --scheduler fifo --window 0 --compare")).unwrap_err();
        assert!(err.contains("window must be positive"), "{err}");
        let err = serve(&parse_str("serve --scheduler mix:0")).unwrap_err();
        assert!(err.contains("window must be positive"), "{err}");
        let err = serve(&parse_str("serve --scheduler mibs:x")).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        let err = simulate(&parse_str("simulate --scheduler sjf")).unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
    }

    #[test]
    fn predict_requires_testbed() {
        let err = predict(&parse_str("predict --app dedup")).unwrap_err();
        assert!(err.contains("testbed"), "{err}");
    }

    #[test]
    fn simulate_validates_numbers() {
        let err =
            simulate(&parse_str("simulate --testbed /nonexistent --machines 64")).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn experiment_list_names_every_driver() {
        let out = experiment(&parse_str("experiment --list")).unwrap();
        for exp in REGISTRY {
            assert!(out.contains(exp.name), "missing {}", exp.name);
        }
        // `all` is listed and stands for the whole registry, in order,
        // wherever it appears in a name list.
        assert!(out.contains("\n  all "), "{out}");
        let names = |spec: &str| -> Vec<&str> {
            let exps = resolve_experiments(&[spec.to_string()]).unwrap();
            exps.iter().map(|e| e.name).collect()
        };
        let every: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names("all"), every);
        assert_eq!(names("fig4,all")[1..], every[..]);
    }

    #[test]
    fn experiment_rejects_unknowns() {
        let err = experiment(&parse_str("experiment fig99")).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        // Names are resolved before anything runs: the typo is reported
        // at once, not after the fifteen experiments ahead of it.
        let err = experiment(&parse_str("experiment all,fig99")).unwrap_err();
        assert!(err.contains("unknown experiment 'fig99'"), "{err}");
        let err = experiment(&parse_str("experiment fig9 --fidelity huge")).unwrap_err();
        assert!(err.contains("unknown fidelity"), "{err}");
        let err = experiment(&parse_str("experiment")).unwrap_err();
        assert!(err.contains("missing experiment name"), "{err}");
    }

    #[test]
    fn experiment_runs_a_testbed_free_driver() {
        let out = experiment(&parse_str("experiment ext_storage")).unwrap();
        assert!(out.contains("==== ext_storage"), "{out}");
        assert!(out.contains("SATA disk"), "{out}");
    }

    #[test]
    fn stray_positionals_are_rejected_not_ignored() {
        let err = run(&parse_str("simulate extra --machines 4")).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        assert!(err.contains("'extra'"), "{err}");
        // Commands that consume positionals still work through run().
        assert!(run(&parse_str("experiment --list")).is_ok());
    }

    #[test]
    fn service_commands_validate_before_touching_the_network() {
        let err = submit(&parse_str("submit --app dedup")).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = submit(&parse_str("submit --addr 127.0.0.1:1")).unwrap_err();
        assert!(err.contains("--app"), "{err}");
        let err = loadgen(&parse_str("loadgen")).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = drain(&parse_str("drain")).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = serve(&parse_str("serve --scheduler sjf")).unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
        let err = serve(&parse_str("serve --queue-cap 0")).unwrap_err();
        assert!(err.contains("queue-cap"), "{err}");
        let err = loadgen(&parse_str("loadgen --addr 127.0.0.1:1 --mode bursty")).unwrap_err();
        assert!(err.contains("unknown mode"), "{err}");
        let err = serve(&parse_str("serve --max-attempts 0")).unwrap_err();
        assert!(err.contains("max-attempts"), "{err}");
        let err = serve(&parse_str("serve --shards 0")).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = serve(&parse_str("serve --machines 4 --shards 5")).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = loadgen(&parse_str(
            "loadgen --chaos --addr 127.0.0.1:1 --requests 0",
        ))
        .unwrap_err();
        assert!(err.contains("--requests"), "{err}");
    }

    #[test]
    fn replica_flags_validate_before_touching_the_network() {
        let err = serve(&parse_str("serve --replica-of 127.0.0.1:1")).unwrap_err();
        assert!(err.contains("--replica-of requires --wal"), "{err}");
        let err = serve(&parse_str(
            "serve --replica-of 127.0.0.1:1 --wal /tmp/x --repl-poll-ms 0",
        ))
        .unwrap_err();
        assert!(err.contains("must be positive"), "{err}");
        let err = serve(&parse_str(
            "serve --replica-of 127.0.0.1:1 --wal /tmp/x --repl-poll-ms 1500",
        ))
        .unwrap_err();
        assert!(err.contains("below the 1500 ms lease TTL"), "{err}");
        // An empty --addr list is rejected before any connect.
        let err = loadgen(&parse_str("loadgen --addr ,")).unwrap_err();
        assert!(err.contains("at least one HOST:PORT"), "{err}");
    }

    #[test]
    fn drain_reports_connection_failures_as_errors() {
        // Port 1 is never listening; the error must be a message, not a
        // panic or a silent success.
        let err = drain(&parse_str("drain --addr 127.0.0.1:1")).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn end_to_end_profile_inspect_predict_schedule() {
        // A tiny campaign written to a temp file, then consumed by the
        // other subcommands.
        let dir = std::env::temp_dir().join(format!("tracon-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tb.json");
        let path_s = path.to_str().unwrap().to_string();

        let out = profile(&parse_str(&format!(
            "profile --out {path_s} --points 6 --time-scale 0.05 --seed 1"
        )))
        .unwrap();
        assert!(out.contains("saved testbed snapshot"), "{out}");

        let out = inspect(&parse_str(&format!("inspect --testbed {path_s}"))).unwrap();
        assert!(out.contains("pair slowdowns"));
        assert!(out.contains("video"));

        let out = predict(&parse_str(&format!(
            "predict --testbed {path_s} --app dedup --neighbor video"
        )))
        .unwrap();
        assert!(out.contains("dedup next to video"), "{out}");

        let out = schedule(&parse_str(&format!(
            "schedule --testbed {path_s} --tasks video,email,dedup,web --machines 2"
        )))
        .unwrap();
        assert!(out.contains("placed 4 of 4"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
