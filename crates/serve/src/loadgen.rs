//! Poisson load generation against a live tracond, clean or adversarial.
//!
//! One driver runs every load: a single-threaded event loop over a binary
//! heap of due actions — submit an arrival, poll a task, report a
//! completion, check the daemon's counters. Arrivals come from the same
//! seeded Poisson process the simulator uses ([`tracon_dcsim::poisson_n`]),
//! mapped onto wall-clock time by the pacing profile, so pacing sets how
//! long a run submits. Because the daemon has no task executor — clients
//! *report* completions — the generator synthesizes one per placed task
//! from the daemon's own predicted runtime plus seeded jitter, holding it
//! for a scaled-down wall delay first.
//!
//! Failure handling is the same in both modes. A lost reply is counted as
//! ambiguous and the client reconnects along the address list, the leader
//! a `not_leader` refusal named first; a backpressure refusal is retried
//! after the daemon's `retry_after_ms` hint; a refused or lost completion
//! goes back to polling the task. Chaos mode adds only sabotage on fixed
//! cadences and orphaned tasks. Every run ends in the same settle loop and
//! has one verdict, [`LoadgenReport::passed`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use tracon_dcsim::{poisson_n, WorkloadMix};
use tracon_stats::percentile;
use tracon_stats::prng::ChaCha12;

use crate::client::Client;
use crate::json::Value;
use crate::proto::{self, ErrorKind, Reply, Request};

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
    /// Daemon addresses in failover order, e.g. `127.0.0.1:7070`. The
    /// first is dialled first; a lost connection or a `not_leader`
    /// refusal dials the refusal's hint, then walks the list (a restarted
    /// daemon may come back on another port).
    pub addrs: Vec<String>,
    /// Arrivals to submit.
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
    /// so a 500-request run submits in about a second (`--quick`).
    pub quick: bool,
    /// Extra idle TCP connections held open (but silent) for the whole
    /// run — exercises the reactor's many-connections path.
    pub idle_conns: usize,
    /// Attack the daemon while loading it (`--chaos`): kill connections,
    /// abandon partial frames, send garbage and oversized lines, and
    /// orphan placed tasks for the lease machinery to reclaim.
    pub chaos: bool,
    /// How long the run waits, once every arrival is answered, for all
    /// work to reach a terminal state; and how long a closed-mode run
    /// waits for a free slot before it ends unsettled.
    pub settle_timeout_ms: u64,
    /// Time budget for one reconnect (covers a daemon restart or a
    /// promotion), for a run of `not_leader` refusals, and for a run of
    /// lost replies.
    pub reconnect_timeout_ms: u64,
    /// Failpoint spec (`site[@scope]=action[*count][%permille];…`) armed
    /// on the daemon over the `fail` verb before the run and disarmed
    /// after; the report then pairs server-side injected faults with the
    /// faults the client observed. `None` leaves the registry alone.
    pub failpoints: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addrs: Vec::new(),
            requests: 100,
            lambda_per_min: 60.0,
            mix: WorkloadMix::Medium,
            mode: LoadMode::Open,
            concurrency: 8,
            seed: 0x10AD,
            quick: false,
            idle_conns: 0,
            chaos: false,
            settle_timeout_ms: 30_000,
            reconnect_timeout_ms: 15_000,
            failpoints: None,
        }
    }
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

/// How long a `not_leader` refusal holds the run, and the pause between
/// polls of a task the daemon does not know.
const REPOLL_MS: u64 = 100;
/// Interval between conservation checks, which also decide when a run
/// has settled.
const STATUS_MS: u64 = 50;

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

/// What a run observed. [`LoadgenReport::passed`] is the verdict;
/// everything else is color.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Whether the run attacked the daemon (`--chaos`).
    pub chaos: bool,
    /// Submits acknowledged (admitted) by the daemon.
    pub acked_submits: usize,
    /// Submits whose reply was lost to a dead connection; the daemon may
    /// or may not have admitted them. They are never retried: the
    /// conservation check covers both fates.
    pub ambiguous_submits: usize,
    /// Backpressure refusals, each retried after the daemon's hint.
    pub backpressure: usize,
    /// Tasks whose completion the daemon acknowledged, or a poll found
    /// completed after the reply was lost.
    pub completions_acked: usize,
    /// Completions refused (the task was no longer running: its lease
    /// expired, or a restart or promotion requeued it); the task is
    /// polled again.
    pub completion_refusals: usize,
    /// Completion replies lost to a dead connection; the task is polled
    /// again.
    pub ambiguous_completes: usize,
    /// Placed tasks deliberately never completed (chaos mode).
    pub orphaned: usize,
    /// Acked tasks the client did not orphan that ended dead-lettered or
    /// were still owed a completion at the deadline.
    pub lost: usize,
    /// Acked tasks the answering daemon did not know at the end, or whose
    /// id it handed out again: a leader acked them and died before its
    /// follower pulled them.
    pub unknown: usize,
    /// Garbage lines sent and answered with a structured error.
    pub garbage_probes: usize,
    /// Oversized lines sent and answered with `frame-too-large`.
    pub oversized_probes: usize,
    /// Connections killed by the generator, with or without a partial
    /// frame left on the wire.
    pub connection_kills: usize,
    /// Successful (re)connects, including the first.
    pub reconnects: usize,
    /// `not_leader` refusals absorbed by reconnecting to the hinted (or
    /// next listed) address — expected when a follower takes over.
    pub not_leader_redirects: usize,
    /// Replies the client cannot place: a probe answered with anything
    /// but the expected structured error, a submit refused for a reason
    /// other than backpressure or `not_leader`, a task in no known state.
    pub unexpected_replies: usize,
    /// Conservation checks performed against `status`.
    pub conservation_checks: usize,
    /// Checks where admitted != completed+dead_lettered+queued+delayed+running.
    pub conservation_violations: usize,
    /// Whether all work reached a terminal state within the settle window,
    /// but for ambiguous submits that landed (their leases end them).
    pub settled: bool,
    /// Final daemon counters (admitted, completed, dead-lettered).
    pub final_counts: (u64, u64, u64),
    /// Failpoint sites armed on the daemon at the start of the run.
    pub failpoints_armed: usize,
    /// Faults the daemon reported injecting (its `fail status` counter at
    /// the end of the run; 0 when no spec was armed or the armed node
    /// died before it could be asked).
    pub faults_injected: u64,
    /// Wall seconds from the start to the last submit request sent: once
    /// every arrival is answered, the submit phase.
    pub submit_s: f64,
    /// Wall seconds of the whole run, settle included.
    pub wall_s: f64,
    /// Client-observed submit→completion sojourn percentiles (ms).
    pub sojourn_ms: SojournStats,
}

/// Latency percentiles in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
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
    /// Whether every conservation check passed, all work settled, and
    /// every acked task the client did not orphan ended completed. The
    /// final counters must account for the acked work, so a follower
    /// that never promoted (all zeros) does not pass. A task the answering
    /// daemon does not know is forgiven only after a failover redirected
    /// the client: replication is asynchronous, so a leader's last acks
    /// can die with it (DESIGN §9); on one daemon an acked task is
    /// durable and must be known. A clean run also fails on any reply it
    /// cannot place.
    pub fn passed(&self) -> bool {
        let admitted = self.final_counts.0 as usize;
        self.conservation_checks > 0
            && self.conservation_violations == 0
            && self.settled
            && self.lost == 0
            && admitted + self.unknown >= self.acked_submits
            && (self.unknown == 0 || self.not_leader_redirects > 0)
            && (self.chaos || self.unexpected_replies == 0)
    }

    /// Faults the *client* observed: replies lost to dead connections
    /// plus refused completions — the visible fallout of whatever the
    /// injected faults, a failover, or the generator's own sabotage broke.
    pub fn faults_observed(&self) -> usize {
        self.ambiguous_submits + self.ambiguous_completes + self.completion_refusals
    }

    /// Render the human-readable summary the CLI prints.
    pub fn render(&self) -> String {
        let throughput = self.completions_acked as f64 / self.wall_s.max(1e-9);
        let s = &self.sojourn_ms;
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
            "loadgen: {} submits acked ({} ambiguous, {} backpressure retries), \
             {} completions ({} refused, {} ambiguous), {} orphaned\n\
             acked and not orphaned: {} lost (dead-lettered or outstanding), \
             {} unknown to the answering daemon\n\
             submits {:.2} s, wall {:.2} s, throughput {throughput:.1} tasks/s, \
             sojourn ms: p50 {:.1}  p95 {:.1}  p99 {:.1}  max {:.1}\n\
             probes: {} garbage, {} oversized, {} kills; {} reconnects, \
             {} not-leader redirects, {} unexpected replies\n\
             faults: {} observed client-side, {} injected server-side \
             ({} failpoint sites armed)\n\
             conservation: {}/{} checks ok, settled: {} \
             (admitted {admitted}, completed {completed}, dead-lettered {dead_lettered})\n\
             {unsettled_line}verdict: {}\n",
            self.acked_submits,
            self.ambiguous_submits,
            self.backpressure,
            self.completions_acked,
            self.completion_refusals,
            self.ambiguous_completes,
            self.orphaned,
            self.lost,
            self.unknown,
            self.submit_s,
            self.wall_s,
            s.p50,
            s.p95,
            s.p99,
            s.max,
            self.garbage_probes,
            self.oversized_probes,
            self.connection_kills,
            self.reconnects,
            self.not_leader_redirects,
            self.unexpected_replies,
            self.faults_observed(),
            self.faults_injected,
            self.failpoints_armed,
            self.conservation_checks - self.conservation_violations,
            self.conservation_checks,
            self.settled,
            if self.passed() { "PASS" } else { "FAIL" },
        )
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Submit(usize),
    Poll(u64),
    Complete(u64),
    Status,
}

/// Where an acked task the client did not orphan stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    /// The client owes it a completion; a poll or a completion is due.
    Owed,
    /// The last poll was answered `unknown_task`; it is polled again.
    Unknown,
    /// Its completion was acked, or a poll found it completed.
    Done,
    /// A poll found it dead-lettered while the client owed it.
    Lost,
}

struct Task {
    submitted_us: u64,
    predicted_s: f64,
    fate: Fate,
    /// Submit to first acked completion; an audit may find the task again.
    sojourn_ms: Option<f64>,
    /// Whether it still holds its closed-mode slot.
    slot: bool,
}

/// Connect to the first of `hint` (a `not_leader` hint), then the
/// configured addresses, that answers, walking them again every 50 ms
/// until the reconnect budget has passed: a promotion or a restart in
/// progress needs a moment before the new leader listens. Counts each
/// success in `connects`.
fn dial(cfg: &LoadgenConfig, hint: Option<&str>, connects: &mut usize) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_millis(cfg.reconnect_timeout_ms.max(1));
    let timeout = Duration::from_millis(500);
    loop {
        let mut addrs = hint.into_iter().chain(cfg.addrs.iter().map(String::as_str));
        if let Some(client) = addrs.find_map(|a| Client::connect_with_timeout(a, timeout).ok()) {
            *connects += 1;
            return Ok(client);
        }
        if Instant::now() > deadline {
            return Err(format!("no daemon reachable at any of {:?}", cfg.addrs));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Send a control request and return its result; a refusal is an error.
fn ask(client: &mut Client, request: Request) -> Result<Value, String> {
    match client.request(request).map_err(|e| e.to_string())? {
        Reply::Ok { result, .. } => Ok(result),
        Reply::Error { message, .. } => Err(message),
    }
}

fn fail_verb(action: &str, spec: Option<String>) -> Request {
    let action = action.to_string();
    Request::Fail { action, spec }
}

/// Run the generator. An `Err` is a usage error, or a daemon that stayed
/// unreachable, refused every mutation with `not_leader` or answered no
/// request past the reconnect budget; an `Ok` report must still be
/// checked with [`LoadgenReport::passed`].
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let Some(first) = cfg.addrs.first() else {
        return Err("loadgen needs at least one daemon address".to_string());
    };
    if cfg.requests == 0 {
        return Err("loadgen needs at least one request".to_string());
    }
    let mut report = LoadgenReport {
        chaos: cfg.chaos,
        ..LoadgenReport::default()
    };
    let mut client = dial(cfg, None, &mut report.reconnects)?;
    // Idle-connection ballast: connected, never written to, dropped at
    // the end of the run. The reactor must hold these without a thread
    // (or a ulimit's worth of stacks) each.
    let _ballast = (0..cfg.idle_conns)
        .map(|i| {
            std::net::TcpStream::connect(first)
                .map_err(|e| format!("idle conn {i}/{}: connect {first}: {e}", cfg.idle_conns))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The daemon's status reply carries the profiled application list in
    // pair-table order, which is exactly the index space `poisson_n`
    // samples over.
    let status = ask(&mut client, Request::Status).map_err(|e| format!("status: {e}"))?;
    let apps: Vec<&str> = (status.get("apps").and_then(Value::as_arr))
        .ok_or("status reply without apps list")?
        .iter()
        .filter_map(Value::as_str)
        .collect();
    if apps.is_empty() {
        return Err("daemon reports no profiled applications".to_string());
    }
    let busy = |key| status.get(key).and_then(Value::as_u64).unwrap_or(0) as usize;
    let baseline = busy("queued") + busy("delayed") + busy("running");
    // Arm server-side failpoints before the run begins. A rejected spec is
    // a usage error: fail loudly.
    if let Some(spec) = &cfg.failpoints {
        let armed = ask(&mut client, fail_verb("arm", Some(spec.clone())))
            .map_err(|e| format!("failpoint arm: {e}"))?;
        report.failpoints_armed = armed.get("armed").and_then(Value::as_u64).unwrap_or(0) as usize;
    }
    let pace = if cfg.quick { &QUICK_PACING } else { &PACING };
    let arrivals = poisson_n(cfg.lambda_per_min, cfg.requests, cfg.mix, cfg.seed);
    // Open mode schedules every arrival up front; closed mode starts
    // `concurrency` of them a millisecond apart and releases the rest.
    let burst = match cfg.mode {
        LoadMode::Open => cfg.requests,
        LoadMode::Closed => cfg.concurrency.max(1).min(cfg.requests),
    };
    let heap = arrivals.iter().enumerate().take(burst).map(|(i, a)| {
        let due = match cfg.mode {
            LoadMode::Open => (a.time * pace.arrival_scale * 1e6).max(0.0) as u64,
            LoadMode::Closed => i as u64 * 1_000,
        };
        Reverse((due, Action::Submit(i)))
    });
    let mut d = Driver {
        cfg,
        pace,
        arrivals: arrivals
            .iter()
            .map(|a| apps[a.app_idx % apps.len()].to_string())
            .collect(),
        client,
        leader_hint: None,
        rng: ChaCha12::seed_from_u64(cfg.seed ^ 0x5EED_CAFE),
        start: Instant::now(),
        heap: heap.collect(),
        tasks: HashMap::new(),
        unanswered: cfg.requests,
        next_arrival: burst,
        baseline,
        last_submit_us: 0,
        sent_submits: 0,
        placed: 0,
        redirected_since: None,
        lost_since: None,
        hold_us: 0,
        audit_due: false,
        report,
    };
    d.push(STATUS_MS, Action::Status);

    while let Some(Reverse((due_us, action))) = d.heap.pop() {
        let due_us = due_us.max(d.hold_us);
        let now_us = d.now_us();
        if due_us > now_us {
            std::thread::sleep(Duration::from_micros(due_us - now_us));
        }
        match action {
            Action::Submit(i) => d.submit(i)?,
            Action::Poll(task) => d.poll(task)?,
            Action::Complete(task) => d.complete(task)?,
            Action::Status if d.status()? => break,
            Action::Status => d.push(STATUS_MS, Action::Status),
        }
    }
    Ok(d.finish())
}

/// One run's state: the connection, the action heap and every acked
/// task the client tracks.
struct Driver<'a> {
    cfg: &'a LoadgenConfig,
    pace: &'static Pacing,
    /// The application of each arrival, in submit order.
    arrivals: Vec<String>,
    client: Client,
    /// The leader a `not_leader` refusal named; dials try it first.
    leader_hint: Option<String>,
    rng: ChaCha12,
    start: Instant,
    heap: BinaryHeap<Reverse<(u64, Action)>>,
    tasks: HashMap<u64, Task>,
    /// Arrivals not yet answered for good (acked, lost or refused).
    unanswered: usize,
    /// The next arrival closed mode releases.
    next_arrival: usize,
    /// Tasks outstanding on the daemon before the run: other clients'.
    baseline: usize,
    /// When the last submit request went out.
    last_submit_us: u64,
    /// Submit requests sent; the sabotage cadences count them.
    sent_submits: usize,
    /// Tasks placed at submit; the orphan cadence counts them.
    placed: usize,
    /// Since when every mutation has been refused with `not_leader`.
    redirected_since: Option<Instant>,
    /// When the first request of the current run of lost replies went
    /// out (`None` once a reply arrives).
    lost_since: Option<Instant>,
    /// No action goes out before this time: a `not_leader` refusal holds
    /// the whole run while a promotion may be in progress.
    hold_us: u64,
    /// A failover happened since the last audit: audit once a node
    /// accepts a mutation, or before settling.
    audit_due: bool,
    report: LoadgenReport,
}

impl Driver<'_> {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Schedule `action` `delay_ms` from now.
    fn push(&mut self, delay_ms: u64, action: Action) {
        let due = self.now_us() + delay_ms * 1_000;
        self.heap.push(Reverse((due, action)));
    }

    /// Drop the connection and dial again. `failover` marks a connection
    /// lost or refused rather than killed on purpose.
    fn reconnect(&mut self, failover: bool) -> Result<(), String> {
        self.audit_due |= failover;
        let hint = self.leader_hint.as_deref();
        self.client = dial(self.cfg, hint, &mut self.report.reconnects)?;
        Ok(())
    }

    /// Send one request. `None` means the reply was lost with the
    /// connection. A `not_leader` refusal holds the run and points the
    /// next dial at the leader it names. Either way the client reconnects.
    /// Refusals, or lost replies, that last past the reconnect budget end
    /// the run: an address that accepts connections but never answers
    /// would otherwise cost every request a read timeout, forever.
    fn send(&mut self, request: Request) -> Result<Option<Reply>, String> {
        let mutation = matches!(request, Request::Submit { .. } | Request::Complete { .. });
        let sent = Instant::now();
        let Ok(reply) = self.client.request(request) else {
            let budget = Duration::from_millis(self.cfg.reconnect_timeout_ms);
            if self.lost_since.get_or_insert(sent).elapsed() > budget {
                let addrs = &self.cfg.addrs;
                return Err(format!("no reply from any of {addrs:?} within {budget:?}"));
            }
            self.reconnect(true)?;
            return Ok(None);
        };
        self.lost_since = None;
        match &reply {
            Reply::Error { kind, leader, .. } if *kind == ErrorKind::NotLeader => {
                self.report.not_leader_redirects += 1;
                let budget = Duration::from_millis(self.cfg.reconnect_timeout_ms);
                let since = *self.redirected_since.get_or_insert_with(Instant::now);
                if since.elapsed() > budget {
                    let addrs = &self.cfg.addrs;
                    return Err(format!("no leader among {addrs:?} within {budget:?}"));
                }
                if let Some(addr) = leader.as_ref().and_then(|h| h.leader_addr.clone()) {
                    self.leader_hint = Some(addr);
                }
                self.hold_us = self.now_us() + REPOLL_MS * 1_000;
                self.reconnect(true)?;
            }
            // A node that accepts a mutation leads: time to audit.
            Reply::Ok { .. } if mutation => {
                self.redirected_since = None;
                if self.audit_due {
                    self.audit();
                }
            }
            _ => {}
        }
        Ok(Some(reply))
    }

    /// Closed mode: if `held`, a slot is free, so submit the next arrival.
    fn release(&mut self, held: bool) {
        if held && self.cfg.mode == LoadMode::Closed && self.next_arrival < self.cfg.requests {
            self.push(0, Action::Submit(self.next_arrival));
            self.next_arrival += 1;
        }
    }

    fn submit(&mut self, i: usize) -> Result<(), String> {
        if self.cfg.chaos {
            self.sabotage()?;
        }
        let app = self.arrivals[i].clone();
        let sent_us = self.now_us();
        self.last_submit_us = sent_us;
        let result = match self.send(Request::Submit { app, demand: None })? {
            Some(Reply::Ok { result, .. }) => result,
            // Refused but not admitted: go again after the hint (a
            // `not_leader` refusal has none, and holds the run instead).
            Some(Reply::Error {
                kind,
                retry_after_ms,
                ..
            }) if matches!(kind, ErrorKind::Backpressure | ErrorKind::NotLeader) => {
                self.report.backpressure += usize::from(kind == ErrorKind::Backpressure);
                self.push(retry_after_ms.unwrap_or(50).max(1), Action::Submit(i));
                return Ok(());
            }
            lost_or_refused => {
                let lost = lost_or_refused.is_none();
                self.report.ambiguous_submits += usize::from(lost);
                self.report.unexpected_replies += usize::from(!lost);
                self.unanswered -= 1;
                self.release(true);
                return Ok(());
            }
        };
        self.report.acked_submits += 1;
        self.unanswered -= 1;
        let task = result
            .get("task")
            .and_then(Value::as_u64)
            .ok_or("submit reply without task id")?;
        let predicted_s = result.get("predicted_runtime").and_then(Value::as_f64);
        let predicted_s = predicted_s.unwrap_or(1.0);
        let placed = result.get("state").and_then(Value::as_str) == Some("placed");
        self.placed += usize::from(placed);
        if placed && self.cfg.chaos && every(ORPHAN_EVERY, self.placed - 1) {
            // Never complete this one: the lease must reclaim it
            // (requeue, then dead-letter).
            self.report.orphaned += 1;
            self.release(true);
            return Ok(());
        }
        let t = Task {
            submitted_us: sent_us,
            predicted_s,
            fate: Fate::Owed,
            sojourn_ms: None,
            slot: true,
        };
        // A promoted follower that never pulled a task's admission hands
        // its id out again: the first task is gone with the old leader.
        if let Some(gone) = self.tasks.insert(task, t) {
            self.report.unknown += 1;
            self.release(gone.slot);
        }
        match placed {
            true => self.push(exec_ms(self.pace, predicted_s), Action::Complete(task)),
            false => self.push(self.pace.poll_ms, Action::Poll(task)),
        }
        Ok(())
    }

    /// The chaos cadences, counted in submit requests sent.
    fn sabotage(&mut self) -> Result<(), String> {
        let n = self.sent_submits;
        self.sent_submits += 1;
        if every(PARTIAL_EVERY, n) {
            // Leave a torn frame on the wire, then vanish.
            let _ = self.client.send_raw_bytes(b"{\"v\":2,\"op\":\"subm");
        }
        if every(KILL_EVERY, n) || every(PARTIAL_EVERY, n) {
            self.report.connection_kills += 1;
            self.reconnect(false)?;
        }
        if every(GARBAGE_EVERY, n) && self.probe("\u{1}garbage ][ not json \u{7f}", None)? {
            self.report.garbage_probes += 1;
        }
        if every(OVERSIZED_EVERY, n) {
            let big = "x".repeat(80 * 1024);
            if self.probe(&big, Some(ErrorKind::FrameTooLarge))? {
                self.report.oversized_probes += 1;
            }
        }
        Ok(())
    }

    /// Send a raw line the daemon must refuse with a structured error (of
    /// kind `want`, if given). `false` when the connection died instead.
    fn probe(&mut self, line: &str, want: Option<ErrorKind>) -> Result<bool, String> {
        let Ok(reply) = self.client.raw_roundtrip(line) else {
            self.reconnect(true)?;
            return Ok(false);
        };
        let refused = matches!(proto::decode_reply(&reply),
            Ok(Reply::Error { kind, .. }) if want.is_none_or(|w| w == kind));
        self.report.unexpected_replies += usize::from(!refused);
        Ok(true)
    }

    /// Ask where a task stands: complete it once it runs, keep polling
    /// while it queues or the daemon does not know it, and retire it once
    /// it ended.
    fn poll(&mut self, task: u64) -> Result<(), String> {
        let Some(t) = self.tasks.get(&task) else {
            return Ok(());
        };
        let (fate, counted) = (t.fate, t.sojourn_ms.is_some());
        let result = match self.send(Request::TaskInfo { task })? {
            Some(Reply::Ok { result, .. }) => result,
            // An unknown task is never given up, since a follower that has
            // not promoted yet knows nothing, but it frees its slot.
            Some(Reply::Error {
                kind: ErrorKind::UnknownTask,
                ..
            }) => {
                self.free(task);
                self.repoll(task, Fate::Unknown, REPOLL_MS);
                return Ok(());
            }
            // Any other refusal is unexpected, like a state in no arm below.
            Some(Reply::Error { kind, .. }) if kind != ErrorKind::NotLeader => Value::Null,
            // A lost reply or a redirect: ask again.
            _ => {
                self.repoll(task, fate, self.pace.poll_ms);
                return Ok(());
            }
        };
        match result.get("state").and_then(Value::as_str) {
            Some("running") => {
                let t = self.tasks.get_mut(&task).ok_or("polled task vanished")?;
                let predicted = result.get("predicted_runtime").and_then(Value::as_f64);
                t.predicted_s = predicted.unwrap_or(t.predicted_s);
                t.fate = Fate::Owed;
                let delay = exec_ms(self.pace, t.predicted_s);
                self.push(delay, Action::Complete(task));
            }
            Some("queued") => self.repoll(task, Fate::Owed, self.pace.poll_ms),
            Some("completed") => self.retire(task, Fate::Done),
            // A completion this client had reported was lost with a dead
            // leader; the task is not the client's to finish.
            Some("dead_lettered") if counted => self.retire(task, Fate::Done),
            Some("dead_lettered") => self.retire(task, Fate::Lost),
            _ => {
                self.report.unexpected_replies += 1;
                self.repoll(task, fate, self.pace.poll_ms);
            }
        }
        Ok(())
    }

    fn repoll(&mut self, task: u64, fate: Fate, delay_ms: u64) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.fate = fate;
        }
        self.push(delay_ms, Action::Poll(task));
    }

    /// A task reached a terminal state. Only its first completion counts.
    fn retire(&mut self, task: u64, fate: Fate) {
        let now_us = self.now_us();
        let Some(t) = self.tasks.get_mut(&task) else {
            return;
        };
        t.fate = fate;
        if fate == Fate::Done && t.sojourn_ms.is_none() {
            t.sojourn_ms = Some(now_us.saturating_sub(t.submitted_us) as f64 / 1_000.0);
        }
        self.free(task);
    }

    /// Closed mode: `task` gives up its slot, once, to the next arrival.
    fn free(&mut self, task: u64) {
        let held = self
            .tasks
            .get_mut(&task)
            .map(|t| std::mem::take(&mut t.slot));
        self.release(held == Some(true));
    }

    /// Poll every completed task once more: a leader that died may have
    /// acked completions its follower never pulled.
    fn audit(&mut self) {
        self.audit_due = false;
        for (&task, _) in self.tasks.iter().filter(|(_, t)| t.fate == Fate::Done) {
            self.heap.push(Reverse((0, Action::Poll(task))));
        }
    }

    fn complete(&mut self, task: u64) -> Result<(), String> {
        let Some(t) = self.tasks.get(&task) else {
            return Ok(());
        };
        // The predicted runtime within ±15 % (floored at 50 ms) and an
        // IOPS figure in 40..240, in that draw order.
        let runtime = t.predicted_s.max(0.05) * self.rng.range_f64(0.85, 1.15);
        let iops = self.rng.range_f64(40.0, 240.0);
        match self.send(Request::Complete {
            task,
            runtime,
            iops,
        })? {
            Some(Reply::Ok { .. }) => {
                self.retire(task, Fate::Done);
                return Ok(());
            }
            Some(_) => self.report.completion_refusals += 1,
            None => self.report.ambiguous_completes += 1,
        }
        // Refused or lost: ask where the task stands.
        self.push(self.pace.poll_ms, Action::Poll(task));
        Ok(())
    }

    /// One conservation check. Once every arrival is answered it also
    /// decides the run: `Ok(true)` when the daemon has settled or the
    /// settle window has passed since the last submit. Closed mode's
    /// window runs before that too: slots that stay held end the run.
    fn status(&mut self) -> Result<bool, String> {
        let result = match self.send(Request::Status)? {
            Some(Reply::Ok { result, .. }) => result,
            Some(_) => {
                self.reconnect(true)?;
                return Ok(false);
            }
            None => return Ok(false),
        };
        let field = |key| {
            let value = result.get(key).and_then(Value::as_u64);
            value.ok_or_else(|| format!("status reply without '{key}'"))
        };
        let admitted = field("admitted")?;
        let completed = field("completed")?;
        let dead = field("dead_lettered")?;
        let outstanding = field("queued")? + field("delayed")? + field("running")?;
        let report = &mut self.report;
        report.conservation_checks += 1;
        report.conservation_violations += usize::from(admitted != completed + dead + outstanding);
        report.final_counts = (admitted, completed, dead);
        let waited_ms = (self.now_us() - self.last_submit_us) / 1_000;
        let late = waited_ms > self.cfg.settle_timeout_ms;
        if self.unanswered > 0 {
            return Ok(late && self.cfg.mode == LoadMode::Closed);
        }
        let count = |fate| self.tasks.values().filter(|t| t.fate == fate).count();
        let (owed, asking) = (count(Fate::Owed), count(Fate::Unknown));
        // A daemon whose counters do not account for the client's acked
        // work (say, a follower that has not promoted) is not settled.
        let known = admitted as usize + asking + self.report.unknown;
        let accounted = known >= self.report.acked_submits;
        // Besides other clients' work from before the run, the daemon may
        // hold tasks the client never learned an id for: ambiguous submits
        // that landed. Only their leases can end them.
        let unnamed =
            (known.saturating_sub(self.report.acked_submits)).min(self.report.ambiguous_submits);
        let quiet = owed == 0 && outstanding as usize <= self.baseline + unnamed;
        // Unknown tasks end the run early only on a daemon that holds
        // admissions: a follower that has not promoted holds none.
        if quiet && accounted && (asking == 0 || admitted > 0) {
            self.report.settled = true;
            return Ok(true);
        }
        if late {
            self.report.settled = quiet && accounted;
            return Ok(true);
        }
        if owed == 0 && admitted > 0 && self.audit_due {
            self.audit();
        }
        Ok(false)
    }

    /// Collect the server-side injection count and leave the registry
    /// clean, then sum up the run.
    fn finish(mut self) -> LoadgenReport {
        // Best effort: the armed node may have died mid-run (that is the
        // point of some torture setups), and the survivor's count is
        // still the honest answer for *it*.
        if self.cfg.failpoints.is_some() {
            if let Ok(result) = ask(&mut self.client, fail_verb("status", None)) {
                let injected = result.get("injected").and_then(Value::as_u64);
                self.report.faults_injected = injected.unwrap_or(0);
            }
            let _ = ask(&mut self.client, fail_verb("disarm", None));
        }
        let mut report = self.report;
        for t in self.tasks.values() {
            match t.fate {
                Fate::Owed | Fate::Lost => report.lost += 1,
                Fate::Unknown => report.unknown += 1,
                Fate::Done => {}
            }
        }
        report.submit_s = self.last_submit_us as f64 / 1e6;
        report.wall_s = self.start.elapsed().as_secs_f64();
        let ms: Vec<f64> = self.tasks.values().filter_map(|t| t.sojourn_ms).collect();
        report.completions_acked = ms.len();
        if !ms.is_empty() {
            report.sojourn_ms = SojournStats {
                p50: percentile(&ms, 50.0),
                p95: percentile(&ms, 95.0),
                p99: percentile(&ms, 99.0),
                max: ms.iter().copied().fold(0.0, f64::max),
            };
        }
        report
    }
}

fn every(n: usize, i: usize) -> bool {
    i % n == n - 1
}

/// The wall delay of a task's synthetic execution, ms.
fn exec_ms(pace: &Pacing, predicted_runtime_s: f64) -> u64 {
    (predicted_runtime_s.max(0.0) * pace.task_ms_per_s).min(pace.max_task_ms as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unsettled_report_names_its_outstanding_tasks_and_the_lease() {
        let mut report = LoadgenReport {
            conservation_checks: 3,
            settled: true,
            final_counts: (306, 290, 10),
            ..LoadgenReport::default()
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

    /// A follower that has not promoted reads all zeros, which conserve
    /// trivially; forgiving the acked tasks it does not know must not
    /// turn that into a pass.
    #[test]
    fn zero_counters_that_miss_acked_work_fail_even_after_a_redirect() {
        let report = LoadgenReport {
            chaos: true,
            acked_submits: 240,
            completions_acked: 150,
            unknown: 66,
            not_leader_redirects: 3,
            conservation_checks: 40,
            settled: true,
            final_counts: (0, 0, 0),
            ..LoadgenReport::default()
        };
        assert!(!report.passed(), "{}", report.render());
        // The same unknown tasks on a promoted follower that holds the
        // rest of the acked work are forgiven.
        let promoted = LoadgenReport {
            final_counts: (174, 160, 14),
            ..report
        };
        assert!(promoted.passed(), "{}", promoted.render());
    }
}
