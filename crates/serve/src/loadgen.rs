//! Open- and closed-loop load generation against a live tracond.
//!
//! The generator drives one protocol connection from a single-threaded
//! event loop over a binary heap of due actions: submit an arrival, poll a
//! queued task, or report a completion. Arrivals come from the same
//! seeded Poisson process the simulator uses ([`tracon_dcsim::poisson_n`]),
//! mapped onto wall-clock time by the pacing profile. Because the daemon has
//! no task executor — clients *report* completions — the generator
//! synthesizes one per placed task from the daemon's own predicted
//! runtime plus seeded jitter, holding it for a scaled-down wall delay
//! first. Backpressure rejections are retried after the daemon's
//! `retry_after_ms` hint, so a finished run has admitted and completed
//! every request or it reports the loss.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use tracon_dcsim::{poisson_n, WorkloadMix};
use tracon_stats::percentile;
use tracon_stats::prng::ChaCha12;

use crate::client::Client;
use crate::json::Value;
use crate::proto::{ErrorKind, Reply, Request};

/// Whether arrivals follow a fixed schedule or track completions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Fixed Poisson arrival schedule, regardless of daemon progress.
    Open,
    /// At most `concurrency` requests in flight; a completion triggers
    /// the next submit.
    Closed,
}

/// Generator knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Daemon submission address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Additional daemon addresses in failover order. On a `not_leader`
    /// refusal the generator reconnects to the redirect hint (or walks
    /// this list) and retries, up to a bounded number of failovers.
    pub addrs: Vec<String>,
    /// Total requests to push through.
    pub requests: usize,
    /// Poisson arrival rate, tasks per minute (open mode).
    pub lambda_per_min: f64,
    /// Application mix for sampled arrivals.
    pub mix: WorkloadMix,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// In-flight bound for closed mode.
    pub concurrency: usize,
    /// Seed for arrivals and synthesized measurements.
    pub seed: u64,
    /// Compress the arrival schedule and the synthetic execution delays
    /// so a 500-request run finishes in seconds (`--quick`).
    pub quick: bool,
    /// Extra idle TCP connections held open (but silent) for the whole
    /// run — exercises the reactor's many-connections path.
    pub idle_conns: usize,
}

/// How a run maps the virtual trace onto wall-clock time.
struct Pacing {
    /// Wall seconds per virtual arrival second (open mode compresses the
    /// trace with values < 1).
    arrival_scale: f64,
    /// Wall milliseconds of synthetic "execution" per predicted virtual
    /// second before a completion is reported.
    task_ms_per_s: f64,
    /// Cap on the synthetic execution delay.
    max_task_ms: u64,
    /// Poll interval while a task sits in the daemon's queue.
    poll_ms: u64,
}

/// The default pacing profile.
const PACING: Pacing = Pacing {
    arrival_scale: 0.05,
    task_ms_per_s: 5.0,
    max_task_ms: 60,
    poll_ms: 10,
};

/// The `quick` pacing profile.
const QUICK_PACING: Pacing = Pacing {
    arrival_scale: 0.002,
    task_ms_per_s: 2.0,
    max_task_ms: 40,
    poll_ms: 5,
};

/// What a finished run observed.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests the generator set out to push.
    pub requests: usize,
    /// Requests admitted by the daemon.
    pub admitted: usize,
    /// Backpressure rejections absorbed (each was retried).
    pub backpressure_retries: usize,
    /// Completions acknowledged by the daemon.
    pub completed: usize,
    /// Admitted tasks never completed — must be zero for a clean run.
    pub lost: usize,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
    /// Completions per wall second.
    pub throughput_per_s: f64,
    /// Client-observed submit→completion sojourn percentiles (ms).
    pub sojourn_ms: SojournStats,
}

/// Latency percentiles in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct SojournStats {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LoadgenReport {
    /// Render the human-readable summary the CLI prints.
    pub fn render(&self) -> String {
        format!(
            "loadgen: {} requests, {} admitted ({} backpressure retries), {} completed, {} lost\n\
             wall {:.2} s, throughput {:.1} tasks/s\n\
             sojourn ms: p50 {:.1}  p95 {:.1}  p99 {:.1}  max {:.1}\n",
            self.requests,
            self.admitted,
            self.backpressure_retries,
            self.completed,
            self.lost,
            self.wall_s,
            self.throughput_per_s,
            self.sojourn_ms.p50,
            self.sojourn_ms.p95,
            self.sojourn_ms.p99,
            self.sojourn_ms.max,
        )
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Submit(usize),
    Poll(u64),
    Complete(u64),
}

impl Action {
    fn verb(&self) -> &'static str {
        match self {
            Action::Submit(_) => "submit",
            Action::Poll(_) => "poll",
            Action::Complete(_) => "complete",
        }
    }
}

/// Upper bound on `not_leader` failovers one clean-path run absorbs
/// before giving up (a redirect loop means the cluster is misconfigured).
const MAX_FAILOVERS: usize = 8;

/// Connect to the first of `preferred` (a `not_leader` hint), then
/// `addrs`, that answers, walking them again every 50 ms until `budget_ms`
/// has passed: a promotion or a restart in progress needs a moment before
/// the new leader listens. Counts each success in `connects`.
fn reconnect(
    preferred: Option<&str>,
    addrs: &[String],
    budget_ms: u64,
    connects: &mut usize,
) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_millis(budget_ms.max(1));
    loop {
        for addr in preferred
            .into_iter()
            .chain(addrs.iter().map(String::as_str))
        {
            if let Ok(client) = Client::connect_with_timeout(addr, Duration::from_millis(500)) {
                *connects += 1;
                return Ok(client);
            }
        }
        if Instant::now() > deadline {
            return Err(format!("no daemon reachable at any of {addrs:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

struct InFlight {
    submitted_us: u64,
    predicted_runtime: f64,
}

/// Run the generator to completion. Errors are protocol or transport
/// failures; a clean return still requires checking `lost == 0`.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.requests == 0 {
        return Err("loadgen needs at least one request".to_string());
    }
    let mut client =
        Client::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    // Idle-connection ballast: connected, never written to, dropped at
    // the end of the run. The reactor must hold these without a thread
    // (or a ulimit's worth of stacks) each.
    let mut ballast = Vec::with_capacity(cfg.idle_conns);
    for i in 0..cfg.idle_conns {
        let conn = std::net::TcpStream::connect(&cfg.addr).map_err(|e| {
            format!(
                "idle conn {i}/{}: connect {}: {e}",
                cfg.idle_conns, cfg.addr
            )
        })?;
        ballast.push(conn);
    }
    // The daemon's status reply carries the profiled application list in
    // pair-table order, which is exactly the index space `poisson_n`
    // samples over.
    let apps = fetch_apps(&mut client)?;
    if apps.is_empty() {
        return Err("daemon reports no profiled applications".to_string());
    }
    let pace = if cfg.quick { QUICK_PACING } else { PACING };
    let arrivals = poisson_n(cfg.lambda_per_min, cfg.requests, cfg.mix, cfg.seed);
    let mut rng = ChaCha12::seed_from_u64(cfg.seed ^ 0x5EED_CAFE);

    let mut heap: BinaryHeap<Reverse<(u64, u64, Action)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut push = |heap: &mut BinaryHeap<_>, due_us: u64, action: Action| {
        seq += 1;
        heap.push(Reverse((due_us, seq, action)));
    };
    let mut next_arrival;
    match cfg.mode {
        LoadMode::Open => {
            for (i, arrival) in arrivals.iter().enumerate() {
                let due = (arrival.time * pace.arrival_scale * 1e6).max(0.0) as u64;
                push(&mut heap, due, Action::Submit(i));
            }
            next_arrival = arrivals.len();
        }
        LoadMode::Closed => {
            let burst = cfg.concurrency.max(1).min(cfg.requests);
            for i in 0..burst {
                push(&mut heap, i as u64 * 1_000, Action::Submit(i));
            }
            next_arrival = burst;
        }
    }

    let start = Instant::now();
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut sojourns_ms: Vec<f64> = Vec::new();
    let mut admitted = 0usize;
    let mut completed = 0usize;
    let mut retries = 0usize;
    let mut failovers = 0usize;

    // The primary, then the failover list.
    let addrs: Vec<String> = std::iter::once(&cfg.addr)
        .chain(&cfg.addrs)
        .cloned()
        .collect();

    while let Some(Reverse((due_us, _, action))) = heap.pop() {
        let now_us = start.elapsed().as_micros() as u64;
        if due_us > now_us {
            std::thread::sleep(Duration::from_micros(due_us - now_us));
        }
        let request = match &action {
            Action::Submit(i) => Request::Submit {
                app: apps[arrivals[*i].app_idx % apps.len()].clone(),
                demand: None,
            },
            Action::Poll(task) => Request::TaskInfo { task: *task },
            Action::Complete(task) => {
                let entry = in_flight
                    .get(task)
                    .ok_or_else(|| format!("completion for unknown in-flight task {task}"))?;
                completion(&mut rng, *task, entry.predicted_runtime)
            }
        };
        let sent_us = start.elapsed().as_micros() as u64;
        let reply = client
            .request(request)
            .map_err(|e| format!("{}: {e}", action.verb()))?;
        // Any refused request goes again, to the leader the refusal
        // names (a poll after its usual pause).
        if let Reply::Error {
            kind: ErrorKind::NotLeader,
            leader,
            ..
        } = reply
        {
            if failovers >= MAX_FAILOVERS {
                return Err(format!(
                    "gave up after {MAX_FAILOVERS} not-leader failovers; no stable leader"
                ));
            }
            let hint = leader.and_then(|h| h.leader_addr);
            client = reconnect(hint.as_deref(), &addrs, 5_000, &mut failovers)?;
            let pause_us = match action {
                Action::Poll(_) => pace.poll_ms * 1_000,
                _ => 0,
            };
            let now = start.elapsed().as_micros() as u64;
            push(&mut heap, now + pause_us, action);
            continue;
        }
        let now = start.elapsed().as_micros() as u64;
        match (action, reply) {
            (Action::Submit(_), Reply::Ok { result, .. }) => {
                admitted += 1;
                let task = result
                    .get("task")
                    .and_then(Value::as_u64)
                    .ok_or("submit reply without task id")?;
                let predicted = result
                    .get("predicted_runtime")
                    .and_then(Value::as_f64)
                    .unwrap_or(1.0);
                in_flight.insert(
                    task,
                    InFlight {
                        submitted_us: sent_us,
                        predicted_runtime: predicted,
                    },
                );
                if result.get("state").and_then(Value::as_str) == Some("placed") {
                    push(
                        &mut heap,
                        now + exec_us(&pace, predicted),
                        Action::Complete(task),
                    );
                } else {
                    push(&mut heap, now + pace.poll_ms * 1_000, Action::Poll(task));
                }
            }
            (
                Action::Submit(i),
                Reply::Error {
                    kind: ErrorKind::Backpressure,
                    retry_after_ms,
                    ..
                },
            ) => {
                retries += 1;
                let delay_ms = retry_after_ms.unwrap_or(50).max(1);
                push(&mut heap, now + delay_ms * 1_000, Action::Submit(i));
            }
            (Action::Submit(_), Reply::Error { kind, message, .. }) => {
                return Err(format!("submit rejected ({}): {message}", kind.as_str()))
            }
            (Action::Poll(task), Reply::Ok { result, .. }) => {
                match result.get("state").and_then(Value::as_str) {
                    Some("running") => {
                        let predicted = result
                            .get("predicted_runtime")
                            .and_then(Value::as_f64)
                            .or_else(|| in_flight.get(&task).map(|f| f.predicted_runtime))
                            .unwrap_or(1.0);
                        if let Some(entry) = in_flight.get_mut(&task) {
                            entry.predicted_runtime = predicted;
                        }
                        push(
                            &mut heap,
                            now + exec_us(&pace, predicted),
                            Action::Complete(task),
                        );
                    }
                    Some("queued") => {
                        push(&mut heap, now + pace.poll_ms * 1_000, Action::Poll(task))
                    }
                    other => {
                        return Err(format!(
                            "task {task} in unexpected state {other:?} while polling"
                        ))
                    }
                }
            }
            (Action::Poll(task), Reply::Error { .. }) => {
                return Err(format!("poll of task {task} failed"))
            }
            (Action::Complete(task), Reply::Ok { .. }) => {
                completed += 1;
                if let Some(entry) = in_flight.remove(&task) {
                    sojourns_ms.push((now - entry.submitted_us) as f64 / 1_000.0);
                }
                if cfg.mode == LoadMode::Closed && next_arrival < cfg.requests {
                    push(&mut heap, now, Action::Submit(next_arrival));
                    next_arrival += 1;
                }
            }
            (Action::Complete(task), Reply::Error { kind, message, .. }) => {
                return Err(format!(
                    "completion of task {task} rejected ({}): {message}",
                    kind.as_str()
                ))
            }
        }
    }

    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let sojourn_ms = if sojourns_ms.is_empty() {
        SojournStats {
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    } else {
        SojournStats {
            p50: percentile(&sojourns_ms, 50.0),
            p95: percentile(&sojourns_ms, 95.0),
            p99: percentile(&sojourns_ms, 99.0),
            max: sojourns_ms.iter().copied().fold(0.0, f64::max),
        }
    };
    Ok(LoadgenReport {
        requests: cfg.requests,
        admitted,
        backpressure_retries: retries,
        completed,
        lost: admitted.saturating_sub(completed),
        wall_s,
        throughput_per_s: completed as f64 / wall_s,
        sojourn_ms,
    })
}

/// The completion report for `task`: the predicted runtime within ±15 %
/// (floored at 50 ms) and an IOPS figure in 40..240, in that draw order.
fn completion(rng: &mut ChaCha12, task: u64, predicted_runtime_s: f64) -> Request {
    let runtime = predicted_runtime_s.max(0.05) * rng.range_f64(0.85, 1.15);
    let iops = rng.range_f64(40.0, 240.0);
    Request::Complete {
        task,
        runtime,
        iops,
    }
}

fn exec_us(pace: &Pacing, predicted_runtime_s: f64) -> u64 {
    let ms = (predicted_runtime_s.max(0.0) * pace.task_ms_per_s).min(pace.max_task_ms as f64);
    (ms * 1_000.0) as u64
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// Knobs for the adversarial load mode (`tracon loadgen --chaos`).
///
/// Instead of maximizing clean throughput, chaos mode attacks the daemon
/// while submitting real work: it kills its own connections, abandons
/// partial frames, injects garbage and oversized lines, deliberately
/// orphans placed tasks so the lease machinery must reclaim them, and
/// tolerates the daemon itself dying mid-run by failing over across
/// `addrs` (a restarted daemon recovers from its WAL, possibly on a new
/// port). Throughout and at the end it checks the task-conservation
/// invariant from the daemon's own `status` counters: every admitted task
/// is exactly one of queued/delayed/running/completed/dead-lettered.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Daemon addresses in failover order; reconnects try each in turn.
    pub addrs: Vec<String>,
    /// Submits to attempt.
    pub requests: usize,
    /// Seed for app choice, measurements, and probe scheduling.
    pub seed: u64,
    /// How long to wait at the end for the daemon to settle (all
    /// non-terminal tasks resolved by completion or dead-lettering).
    pub settle_timeout_ms: u64,
    /// Total time budget for one reconnect (covers a daemon restart).
    pub reconnect_timeout_ms: u64,
    /// Failpoint spec (`site[@scope]=action[*count][%permille];…`) armed
    /// on the daemon over the `fail` control verb before the storm and
    /// disarmed after; the report then pairs server-side injected faults
    /// with the faults the client observed. `None` leaves the registry
    /// alone.
    pub failpoints: Option<String>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            addrs: Vec::new(),
            requests: 200,
            seed: 0xC4A0,
            settle_timeout_ms: 30_000,
            reconnect_timeout_ms: 15_000,
            failpoints: None,
        }
    }
}

/// Kill and re-open the connection every this many submits.
const KILL_EVERY: usize = 17;
/// Send a garbage (non-JSON) line every this many submits.
const GARBAGE_EVERY: usize = 13;
/// Abandon a partial frame and kill the connection every this many
/// submits.
const PARTIAL_EVERY: usize = 29;
/// Send an oversized (>64 KiB) line every this many submits.
const OVERSIZED_EVERY: usize = 41;
/// Orphan (never complete) every this many placed tasks, leaving them to
/// the daemon's lease expiry / dead-letter machinery.
const ORPHAN_EVERY: usize = 7;

/// What a chaos run observed. `conservation_violations == 0`, `settled`
/// and every acked task the client did not orphan ending `completed` are
/// the pass criteria; everything else is color.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Submits acknowledged (admitted) by the daemon.
    pub acked_submits: usize,
    /// Submits whose reply was lost to a dead connection; the daemon may
    /// or may not have admitted them (they are never retried — the
    /// server-side invariant covers both outcomes).
    pub ambiguous_submits: usize,
    /// Backpressure rejections (not retried in chaos mode).
    pub backpressure: usize,
    /// Completions acknowledged.
    pub completions_acked: usize,
    /// Completions refused (task no longer running: lease expired or the
    /// daemon restarted and requeued it) — expected under chaos.
    pub completion_refusals: usize,
    /// Completion replies lost to a dead connection.
    pub ambiguous_completes: usize,
    /// Placed tasks deliberately never completed.
    pub orphaned: usize,
    /// Tasks queued at submit that the client completed once a later
    /// `task` poll found them running.
    pub late_completions: usize,
    /// Acked tasks the client did not orphan that ended dead-lettered
    /// or were still outstanding at the deadline.
    pub unfinished: usize,
    /// Acked tasks the answering daemon does not know: a leader acked
    /// them and died before its follower pulled them.
    pub unknown: usize,
    /// Garbage lines sent and answered with a structured error.
    pub garbage_probes: usize,
    /// Oversized lines sent and answered with `frame-too-large`.
    pub oversized_probes: usize,
    /// Partial frames abandoned mid-write.
    pub partial_frames: usize,
    /// Connections killed by the generator.
    pub connection_kills: usize,
    /// Successful (re)connects, including the first.
    pub reconnects: usize,
    /// `not_leader` refusals absorbed by reconnecting to the hinted (or
    /// next listed) address — expected when a follower takes over.
    pub not_leader_redirects: usize,
    /// Probe replies that were not the expected structured error.
    pub unexpected_replies: usize,
    /// Conservation checks performed against `status`.
    pub conservation_checks: usize,
    /// Checks where admitted != completed+dead_lettered+queued+delayed+running.
    pub conservation_violations: usize,
    /// Whether all work reached a terminal state within the settle window.
    pub settled: bool,
    /// Final daemon counters (admitted, completed, dead-lettered).
    pub final_counts: (u64, u64, u64),
    /// Failpoint sites armed on the daemon at the start of the run.
    pub failpoints_armed: usize,
    /// Faults the daemon reported injecting (its `fail status` counter at
    /// the end of the run; 0 when no spec was armed or the armed node
    /// died before it could be asked).
    pub faults_injected: u64,
}

impl ChaosReport {
    /// Whether the run satisfied the invariant, fully settled and
    /// completed every acked task it did not orphan. A task the answering
    /// daemon does not know is forgiven only after a failover redirected
    /// the client: replication is asynchronous, so a leader's last acks
    /// can die with it (DESIGN §9); on one daemon an acked task is
    /// durable and must be known.
    pub fn passed(&self) -> bool {
        self.conservation_violations == 0
            && self.settled
            && self.conservation_checks > 0
            && self.unfinished == 0
            && (self.unknown == 0 || self.not_leader_redirects > 0)
    }

    /// Faults the *client* observed: replies lost to dead connections
    /// plus refused completions — the visible fallout of whatever the
    /// injected faults (and the generator's own sabotage) broke.
    pub fn faults_observed(&self) -> usize {
        self.ambiguous_submits + self.ambiguous_completes + self.completion_refusals
    }

    /// Render the human-readable summary the CLI prints.
    pub fn render(&self) -> String {
        let failpoint_line = if self.failpoints_armed > 0 {
            format!(
                "failpoints: {} sites armed, {} faults injected server-side, \
                 {} faults observed client-side\n",
                self.failpoints_armed,
                self.faults_injected,
                self.faults_observed(),
            )
        } else {
            String::new()
        };
        let (admitted, completed, dead_lettered) = self.final_counts;
        let unsettled_line = if self.settled {
            String::new()
        } else {
            format!(
                "unsettled: {} tasks outstanding at the deadline (admitted - completed - \
                 dead-lettered); a leased task waits for its lease to expire (serve's \
                 --lease-ms plus --lease-per-s-ms per predicted second)\n",
                admitted.saturating_sub(completed + dead_lettered),
            )
        };
        format!(
            "chaos: {} submits acked ({} ambiguous, {} backpressure), \
             {} completions ({} refused, {} ambiguous, {} after queueing), {} orphaned\n\
             acked and not orphaned: {} unfinished (dead-lettered or outstanding), \
             {} unknown to the answering daemon\n\
             probes: {} garbage, {} oversized, {} partial frames, {} kills, {} reconnects, \
             {} not-leader redirects, {} unexpected replies\n\
             {failpoint_line}conservation: {}/{} checks ok, settled: {} \
             (admitted {admitted}, completed {completed}, dead-lettered {dead_lettered})\n\
             {unsettled_line}verdict: {}\n",
            self.acked_submits,
            self.ambiguous_submits,
            self.backpressure,
            self.completions_acked,
            self.completion_refusals,
            self.ambiguous_completes,
            self.late_completions,
            self.orphaned,
            self.unfinished,
            self.unknown,
            self.garbage_probes,
            self.oversized_probes,
            self.partial_frames,
            self.connection_kills,
            self.reconnects,
            self.not_leader_redirects,
            self.unexpected_replies,
            self.conservation_checks - self.conservation_violations,
            self.conservation_checks,
            self.settled,
            if self.passed() { "PASS" } else { "FAIL" },
        )
    }
}

/// One parsed `status` reply, server-side counters only.
struct WireStatus {
    queued: u64,
    delayed: u64,
    running: u64,
    completed: u64,
    dead_lettered: u64,
    admitted: u64,
}

impl WireStatus {
    fn conserved(&self) -> bool {
        self.admitted
            == self.completed + self.dead_lettered + self.queued + self.delayed + self.running
    }

    fn outstanding(&self) -> u64 {
        self.queued + self.delayed + self.running
    }
}

/// Reconnect after a lost reply or a `not_leader` refusal, trying the
/// leader the refusal named (`leader`, remembered in `leader_hint`)
/// first.
fn reconnect_to(
    cfg: &ChaosConfig,
    client: &mut Client,
    leader: Option<String>,
    leader_hint: &mut Option<String>,
    report: &mut ChaosReport,
) -> Result<(), String> {
    if leader.is_some() {
        *leader_hint = leader;
    }
    *client = reconnect(
        leader_hint.as_deref(),
        &cfg.addrs,
        cfg.reconnect_timeout_ms,
        &mut report.reconnects,
    )?;
    Ok(())
}

/// Report one synthesized completion; `Ok(true)` when the daemon acked
/// it. A `not_leader` refusal redirects to the believed leader and
/// retries the completion exactly once; a second refusal ends this try
/// (a promoted leader requeued the task, so the old lease is gone — the
/// task is chased again once it runs). A lost reply is an ambiguous
/// completion and costs a reconnect.
fn chaos_complete(
    cfg: &ChaosConfig,
    client: &mut Client,
    complete: Request,
    leader_hint: &mut Option<String>,
    report: &mut ChaosReport,
) -> Result<bool, String> {
    let reply = match client.request(complete.clone()) {
        Ok(Reply::Error {
            kind: ErrorKind::NotLeader,
            leader,
            ..
        }) => {
            report.not_leader_redirects += 1;
            let leader = leader.and_then(|h| h.leader_addr);
            reconnect_to(cfg, client, leader, leader_hint, report)?;
            client.request(complete)
        }
        reply => reply,
    };
    match reply {
        Ok(Reply::Ok { .. }) => report.completions_acked += 1,
        Ok(Reply::Error { .. }) => report.completion_refusals += 1,
        Err(_) => {
            report.ambiguous_completes += 1;
            reconnect_to(cfg, client, None, leader_hint, report)?;
        }
    }
    Ok(matches!(reply, Ok(Reply::Ok { .. })))
}

/// One pass over the acked tasks the client still owes a completion
/// (queued at submit, or whose completion was refused or lost): asks
/// `task` for each, completes the ones running, and drops the ones that
/// ended. A task the daemon does not know is counted and dropped; so is
/// a dead-lettered one.
fn chase(
    cfg: &ChaosConfig,
    client: &mut Client,
    owed: &mut Vec<u64>,
    rng: &mut ChaCha12,
    leader_hint: &mut Option<String>,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let mut i = 0;
    while i < owed.len() {
        let task = owed[i];
        let ended = match client.request(Request::TaskInfo { task }) {
            Ok(Reply::Ok { result, .. }) => match result.get("state").and_then(Value::as_str) {
                Some("completed") => true,
                Some("dead_lettered") => {
                    report.unfinished += 1;
                    true
                }
                Some("running") => {
                    let predicted = result.get("predicted_runtime").and_then(Value::as_f64);
                    let complete = completion(rng, task, predicted.unwrap_or(1.0));
                    let acked = chaos_complete(cfg, client, complete, leader_hint, report)?;
                    report.late_completions += usize::from(acked);
                    acked
                }
                _ => false,
            },
            Ok(Reply::Error {
                kind: ErrorKind::UnknownTask,
                ..
            }) => {
                report.unknown += 1;
                true
            }
            Ok(Reply::Error {
                kind: ErrorKind::NotLeader,
                leader,
                ..
            }) => {
                report.not_leader_redirects += 1;
                let leader = leader.and_then(|h| h.leader_addr);
                reconnect_to(cfg, client, leader, leader_hint, report)?;
                false
            }
            Ok(Reply::Error { .. }) => false,
            Err(_) => {
                reconnect_to(cfg, client, None, leader_hint, report)?;
                false
            }
        };
        if ended {
            owed.swap_remove(i);
        } else {
            i += 1;
        }
    }
    Ok(())
}

fn wire_status(client: &mut Client) -> Result<WireStatus, String> {
    let reply = client
        .request(Request::Status)
        .map_err(|e| format!("status: {e}"))?;
    let Reply::Ok { result, .. } = reply else {
        return Err("status request failed".to_string());
    };
    let field = |key: &str| -> Result<u64, String> {
        result
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("status reply missing '{key}'"))
    };
    Ok(WireStatus {
        queued: field("queued")?,
        delayed: field("delayed")?,
        running: field("running")?,
        completed: field("completed")?,
        dead_lettered: field("dead_lettered")?,
        admitted: field("admitted")?,
    })
}

/// Run the chaos generator. A transport-level `Err` means the daemon
/// stayed unreachable past the failover budget; an `Ok` report must still
/// be checked with [`ChaosReport::passed`].
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    if cfg.addrs.is_empty() {
        return Err("chaos mode needs at least one daemon address".to_string());
    }
    if cfg.requests == 0 {
        return Err("chaos mode needs at least one request".to_string());
    }
    let mut report = ChaosReport::default();
    // The address a `not_leader` refusal pointed at; reconnects try it
    // before walking the configured list.
    let mut leader_hint: Option<String> = None;
    macro_rules! reconnect {
        () => {
            reconnect(
                leader_hint.as_deref(),
                &cfg.addrs,
                cfg.reconnect_timeout_ms,
                &mut report.reconnects,
            )?
        };
    }
    let mut client = reconnect!();
    let apps = fetch_apps(&mut client)?;
    if apps.is_empty() {
        return Err("daemon reports no profiled applications".to_string());
    }
    // Arm server-side failpoints before the storm begins. A rejected spec
    // is a usage error, not chaos: fail loudly.
    if let Some(spec) = &cfg.failpoints {
        let reply = client
            .request(Request::Fail {
                action: "arm".to_string(),
                spec: Some(spec.clone()),
            })
            .map_err(|e| format!("failpoint arm: {e}"))?;
        match reply {
            Reply::Ok { result, .. } => {
                report.failpoints_armed =
                    result.get("armed").and_then(Value::as_u64).unwrap_or(0) as usize;
            }
            Reply::Error { message, .. } => {
                return Err(format!("failpoint arm rejected: {message}"));
            }
        }
    }
    let mut rng = ChaCha12::seed_from_u64(cfg.seed);
    // Placed tasks awaiting a synthesized completion: (task, predicted_runtime).
    let mut pending: Vec<(u64, f64)> = Vec::new();
    // Acked tasks to chase with `task` until they run (see `chase`).
    let mut owed: Vec<u64> = Vec::new();
    macro_rules! chase {
        () => {
            chase(
                cfg,
                &mut client,
                &mut owed,
                &mut rng,
                &mut leader_hint,
                &mut report,
            )?
        };
    }
    let mut placed_seen = 0usize;

    let every = |n: usize, i: usize| i % n == n - 1;
    for i in 0..cfg.requests {
        if every(KILL_EVERY, i) {
            report.connection_kills += 1;
            client = reconnect!();
        }
        if every(PARTIAL_EVERY, i) {
            // Leave a torn frame on the wire, then vanish.
            let _ = client.send_raw_bytes(b"{\"v\":2,\"op\":\"subm");
            report.partial_frames += 1;
            report.connection_kills += 1;
            client = reconnect!();
        }
        if every(GARBAGE_EVERY, i) {
            match client.raw_roundtrip("\u{1}garbage ][ not json \u{7f}") {
                Ok(line) => {
                    report.garbage_probes += 1;
                    if !matches!(crate::proto::decode_reply(&line), Ok(Reply::Error { .. })) {
                        report.unexpected_replies += 1;
                    }
                }
                Err(_) => {
                    client = reconnect!();
                }
            }
        }
        if every(OVERSIZED_EVERY, i) {
            let big = "x".repeat(80 * 1024);
            match client.raw_roundtrip(&big) {
                Ok(line) => {
                    report.oversized_probes += 1;
                    let ok = matches!(
                        crate::proto::decode_reply(&line),
                        Ok(Reply::Error {
                            kind: ErrorKind::FrameTooLarge,
                            ..
                        })
                    );
                    if !ok {
                        report.unexpected_replies += 1;
                    }
                }
                Err(_) => {
                    client = reconnect!();
                }
            }
        }

        let app = apps[rng.range_usize(0, apps.len())].clone();
        match client.request(Request::Submit { app, demand: None }) {
            Ok(Reply::Ok { result, .. }) => {
                report.acked_submits += 1;
                let placed = result.get("state").and_then(Value::as_str) == Some("placed");
                match result.get("task").and_then(Value::as_u64) {
                    // Queued: it runs once a slot frees, and is chased.
                    Some(task) if !placed => owed.push(task),
                    Some(task) => {
                        placed_seen += 1;
                        if every(ORPHAN_EVERY, placed_seen - 1) {
                            // Never complete this one: the lease must
                            // reclaim it (requeue, then dead-letter).
                            report.orphaned += 1;
                        } else {
                            let predicted = result
                                .get("predicted_runtime")
                                .and_then(Value::as_f64)
                                .unwrap_or(1.0);
                            pending.push((task, predicted));
                        }
                    }
                    None => {}
                }
            }
            Ok(Reply::Error {
                kind: ErrorKind::Backpressure,
                ..
            }) => report.backpressure += 1,
            Ok(Reply::Error {
                kind: ErrorKind::Draining,
                ..
            }) => break,
            Ok(Reply::Error {
                kind: ErrorKind::NotLeader,
                leader,
                ..
            }) => {
                // This node is a follower or has been fenced by a
                // promotion. Chase the hint; the refused submit is not
                // retried (it was unambiguously not admitted).
                report.not_leader_redirects += 1;
                if let Some(addr) = leader.and_then(|h| h.leader_addr) {
                    leader_hint = Some(addr);
                }
                client = reconnect!();
            }
            Ok(Reply::Error { .. }) => report.unexpected_replies += 1,
            Err(_) => {
                // The reply is gone; the admission may have landed. Never
                // retried — the server-side invariant covers both fates.
                report.ambiguous_submits += 1;
                client = reconnect!();
            }
        }

        // Keep completions flowing so the cluster does not clog: report
        // all but the freshest couple, which stay in flight as churn.
        while pending.len() > 2 {
            let (task, predicted) = pending.remove(0);
            let complete = completion(&mut rng, task, predicted);
            if !chaos_complete(cfg, &mut client, complete, &mut leader_hint, &mut report)? {
                owed.push(task);
            }
        }
        // A queued task runs once a slot frees, under a lease as short
        // as the daemon's: chase it after every submit.
        chase!();

        if i % 10 == 9 {
            match wire_status(&mut client) {
                Ok(st) => {
                    report.conservation_checks += 1;
                    if !st.conserved() {
                        report.conservation_violations += 1;
                    }
                }
                Err(_) => {
                    client = reconnect!();
                }
            }
        }
    }

    // Flush remaining completions.
    for (task, predicted) in pending.drain(..) {
        let complete = completion(&mut rng, task, predicted);
        if !chaos_complete(cfg, &mut client, complete, &mut leader_hint, &mut report)? {
            owed.push(task);
        }
    }

    // Settle: complete every owed task as it runs, and wait for the
    // daemon to resolve every non-terminal task — orphans drain through
    // lease expiry into the dead-letter queue. Each poll is also a
    // conservation check.
    let deadline = Instant::now() + Duration::from_millis(cfg.settle_timeout_ms.max(1));
    loop {
        chase!();
        match wire_status(&mut client) {
            Ok(st) => {
                report.conservation_checks += 1;
                if !st.conserved() {
                    report.conservation_violations += 1;
                }
                report.final_counts = (st.admitted, st.completed, st.dead_lettered);
                if st.outstanding() == 0 {
                    // Every owed task has ended: one more pass sorts them.
                    chase!();
                    report.settled = true;
                    break;
                }
            }
            Err(_) => {
                client = reconnect!();
            }
        }
        if Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(if owed.is_empty() {
            100
        } else {
            20
        }));
    }
    report.unfinished += owed.len();
    // Collect the server-side injection count, then leave the registry
    // clean. Best effort: the armed node may have died mid-run (that is
    // the point of some torture setups), and the survivor's count is
    // still the honest answer for *it*.
    if cfg.failpoints.is_some() {
        if let Ok(Reply::Ok { result, .. }) = client.request(Request::Fail {
            action: "status".to_string(),
            spec: None,
        }) {
            report.faults_injected = result.get("injected").and_then(Value::as_u64).unwrap_or(0);
        }
        let _ = client.request(Request::Fail {
            action: "disarm".to_string(),
            spec: None,
        });
    }
    Ok(report)
}

fn fetch_apps(client: &mut Client) -> Result<Vec<String>, String> {
    let reply = client
        .request(Request::Status)
        .map_err(|e| format!("status: {e}"))?;
    let Reply::Ok { result, .. } = reply else {
        return Err("status request failed".to_string());
    };
    let apps = result
        .get("apps")
        .and_then(Value::as_arr)
        .ok_or("status reply without apps list")?;
    Ok(apps
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unsettled_report_names_its_outstanding_tasks_and_the_lease() {
        let mut report = ChaosReport {
            conservation_checks: 3,
            settled: true,
            final_counts: (306, 290, 10),
            ..ChaosReport::default()
        };
        let settled = report.render();
        assert!(!settled.contains("unsettled"), "{settled}");
        assert!(settled.ends_with("verdict: PASS\n"), "{settled}");
        report.settled = false;
        let out = report.render();
        assert!(out.contains("unsettled: 6 tasks outstanding"), "{out}");
        assert!(out.contains("lease to expire"), "{out}");
        assert!(out.contains("--lease-ms"), "{out}");
        assert!(out.ends_with("verdict: FAIL\n"), "{out}");
    }
}
