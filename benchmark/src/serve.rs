//! The two daemon workloads. Both boot `tracond` in-process and drive it
//! over loopback TCP with the harness's own pipelined client, one thread
//! per connection. `serve-durable` keeps the WAL on, so every admission
//! waits for a group-committed fsync; `serve-mixed` turns it off and adds
//! reads, so the reactor, the codec and the shard state carry the time.
//!
//! Each run has a closed-loop phase (a fixed number of requests in flight
//! per connection, throughput per fixed-count segment) and an open-loop
//! phase (requests due on a fixed schedule whatever the daemon does,
//! latency counted from the due time).

use crate::prng::Prng;
use crate::report::{median, percentile, quiet_rate, Report};
use crate::sizes::ServeSizes;
use crate::trace::Trace;
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracon_dcsim::Testbed;
use tracon_serve::daemon::{self, DaemonHandle, NetConfig};
use tracon_serve::json::Value;
use tracon_serve::wal::scrub_shard;
use tracon_serve::{
    decode_reply, decode_request, encode_reply, encode_request, recover_dir, route_app, Envelope,
    Metrics, RecState, Reply, Request, SchedKind, ServeConfig, Service, StatusSnapshot, Wal,
    WalRecord,
};

/// One daemon workload.
pub struct ServePlan<'a> {
    pub durable: bool,
    pub sizes: &'a ServeSizes,
    pub seed: u64,
    /// Where the WAL lives; inside the checkout, removed at the end.
    pub wal_dir: PathBuf,
}

impl ServePlan<'_> {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            machines: self.sizes.machines,
            slots_per_machine: self.sizes.slots_per_machine,
            scheduler: SchedKind::Mios,
            // Sized so the backlog plus everything in flight always
            // places: a queued straggler would hold a slot for the rest
            // of the run.
            queue_capacity: 4096,
            // No lease may expire inside a run.
            lease_base_ms: 600_000,
            wal_dir: self.durable.then(|| self.wal_dir.clone()),
            shards: self.sizes.shards,
            ..ServeConfig::default()
        }
    }

    /// Boots the daemon on ephemeral ports.
    pub fn start(&self, tb: &Testbed) -> DaemonHandle {
        if self.durable {
            let _ = std::fs::remove_dir_all(&self.wal_dir);
        }
        daemon::start(tb, self.config(), NetConfig::default()).expect("daemon starts")
    }

    /// Rounds for a pass given `seconds` of the run.
    fn rounds(&self, seconds: f64) -> usize {
        ((seconds * self.sizes.rounds_per_s).round() as usize).max(1)
    }
}

pub fn stop(handle: DaemonHandle) {
    handle.stop();
    handle.join();
}

// --- waiting for a socket or a deadline, whichever comes first ----------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    // Linux: int ppoll(struct pollfd *, nfds_t, const struct timespec *,
    // const sigset_t *). Chosen over poll(2) for its nanosecond timeout;
    // an open-loop sender that wakes a millisecond late is measuring
    // itself.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Blocks until `stream` is readable or `timeout` passes. A signal or an
/// error reads as "not readable"; the caller's loop re-checks the clock.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call, `nfds` is 1 to match the single `PollFd`, and a null
    // signal mask is what ppoll documents for "leave the mask alone".
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}

// --- the client ----------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verb {
    Submit,
    Complete,
    TaskInfo,
    Status,
}

struct Pending {
    verb: Verb,
    seq: u64,
    task: u64,
    due: Instant,
    sent: Instant,
}

/// One request as the traced pass records it, nanoseconds from the
/// phase's start.
pub struct ReqSpan {
    verb: &'static str,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
}

/// What one connection measured in one phase.
#[derive(Default)]
struct PhaseLog {
    /// Due-to-decoded-reply time of every submit, microseconds.
    submit_us: Vec<f64>,
    /// How far behind its due time each request left, microseconds.
    late_us: Vec<f64>,
    /// Closed loop: when a segment boundary was crossed, and how many
    /// replies had been decoded by then (one read can cross several).
    marks: Vec<(Instant, u64)>,
    acked: u64,
    spans: Vec<ReqSpan>,
}

/// How a phase paces its requests.
enum Pace {
    /// Keep `window` requests in flight until `requests` have been sent,
    /// marking the time every `segment` replies. With `alternate`,
    /// tracing flips at every mark, so traced and untraced segments see
    /// the same drift of the host.
    Closed {
        window: usize,
        requests: u64,
        segment: u64,
        alternate: bool,
    },
    /// Request `k` is due at `start + offset + k * interval`.
    Open {
        start: Instant,
        offset: Duration,
        interval: Duration,
        requests: u64,
    },
}

/// A pipelined protocol connection with its own seeded request stream
/// and its own ledger of what the daemon acknowledged.
struct Conn {
    id: usize,
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    prng: Prng,
    durable: bool,
    apps: Arc<Vec<String>>,
    /// The applications of the coming submits, last first.
    next_apps: Vec<usize>,
    /// Placed and not yet completed, oldest first, with the runtime the
    /// daemon predicted (the completion reports a jittered copy).
    running: VecDeque<(u64, f64)>,
    /// Recent task ids, the pool `task` lookups draw from.
    known: Vec<u64>,
    /// Acknowledged submits minus acknowledged completes.
    live: HashSet<u64>,
    inflight: VecDeque<Pending>,
    seq: u64,
    /// The verbs of the current group of four, for the mixed workload.
    group: Vec<Verb>,
    sent: u64,
    failed: u64,
    failures: Vec<String>,
    acked_submits: u64,
    acked_completes: u64,
    /// Completes replaced by submits because no placed task was at hand,
    /// and how many of them later submits have yet to pay back.
    substituted: u64,
    owed_completes: u64,
    /// When set, the traced pass keeps every request and the first few
    /// wire lines.
    traced: bool,
    request_lines: Vec<String>,
    reply_lines: Vec<String>,
}

const KEPT_LINES: usize = 4000;
/// Submits per fixed-composition block of a connection's stream.
const APP_BLOCK: usize = 256;
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

impl Conn {
    /// `lane` picks this connection's input stream: one per connection
    /// and round, so a run's rounds are not one trace over and over.
    fn connect(
        id: usize,
        lane: u64,
        addr: &str,
        plan: &ServePlan<'_>,
        apps: Arc<Vec<String>>,
    ) -> Conn {
        let stream = TcpStream::connect(addr).expect("client connects");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("read timeout");
        Conn {
            id,
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            rpos: 0,
            prng: Prng::new(plan.seed, 16 + lane),
            durable: plan.durable,
            apps,
            next_apps: Vec::new(),
            running: VecDeque::new(),
            known: Vec::new(),
            live: HashSet::new(),
            inflight: VecDeque::new(),
            seq: 0,
            group: Vec::new(),
            sent: 0,
            failed: 0,
            failures: Vec::new(),
            acked_submits: 0,
            acked_completes: 0,
            substituted: 0,
            owed_completes: 0,
            traced: false,
            request_lines: Vec::new(),
            reply_lines: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// The next verb of this connection's stream. Durable: submit and
    /// complete alternate. Mixed: each group of four holds one of each
    /// verb in seeded order, so the shares are exactly a quarter.
    fn next_verb(&mut self, submit_only: bool) -> Verb {
        if submit_only {
            return Verb::Submit;
        }
        let verb = if self.durable {
            if self.seq.is_multiple_of(2) {
                Verb::Submit
            } else {
                Verb::Complete
            }
        } else {
            if self.group.is_empty() {
                self.group = vec![Verb::Submit, Verb::Complete, Verb::TaskInfo, Verb::Status];
                for i in (1..self.group.len()).rev() {
                    self.group.swap(i, self.prng.below(i + 1));
                }
            }
            self.group.pop().expect("group refilled above")
        };
        // A complete with no placed task at hand goes out as a submit, and
        // a later submit pays it back as a complete. Without the second
        // half every stall of the daemon in the open loop left the
        // cluster fuller, until a submit found no free slot.
        match verb {
            Verb::Complete if self.running.is_empty() => {
                self.substituted += 1;
                self.owed_completes += 1;
                Verb::Submit
            }
            Verb::Submit if self.owed_completes > 0 && !self.running.is_empty() => {
                self.owed_completes -= 1;
                Verb::Complete
            }
            verb => verb,
        }
    }

    /// The application of the next submit. Submits come in blocks that
    /// hold every application of the medium mix its expected number of
    /// times, in seeded order: which shard a submit lands on follows its
    /// application, so the share of the load each shard takes is the
    /// same under every seed.
    fn next_app(&mut self) -> usize {
        if self.next_apps.is_empty() {
            self.next_apps = self.prng.medium_mix_batch(APP_BLOCK);
        }
        self.next_apps.pop().expect("refilled above")
    }

    /// Encodes the next request into `out` and queues its pending entry.
    fn enqueue(&mut self, due: Instant, submit_only: bool, out: &mut Vec<u8>) {
        let verb = self.next_verb(submit_only);
        let mut task = 0;
        let request = match verb {
            Verb::Submit => {
                let app = self.next_app();
                Request::Submit {
                    app: self.apps[app].clone(),
                    demand: None,
                }
            }
            Verb::Complete => {
                let (id, predicted) = self.running.pop_front().expect("checked in next_verb");
                task = id;
                Request::Complete {
                    task,
                    runtime: predicted.max(0.05) * self.prng.range(0.85, 1.15),
                    iops: self.prng.range(40.0, 240.0),
                }
            }
            Verb::TaskInfo => {
                task = self.known[self.prng.below(self.known.len())];
                Request::TaskInfo { task }
            }
            Verb::Status => Request::Status,
        };
        let line = encode_request(&Envelope {
            id: Some(format!("{}-{}", self.id, self.seq)),
            request,
        });
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        if self.traced && self.request_lines.len() < KEPT_LINES {
            self.request_lines.push(line);
        }
        self.inflight.push_back(Pending {
            verb,
            seq: self.seq,
            task,
            due,
            sent: Instant::now(),
        });
        self.seq += 1;
        self.sent += 1;
    }

    /// Reads what the socket holds and handles every complete line.
    /// Returns false when the daemon went away or stopped answering.
    fn read_replies(&mut self, origin: Instant, log: &mut PhaseLog) -> bool {
        if self.rpos > 0 && self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        let old = self.rbuf.len();
        self.rbuf.resize(old + (1 << 15), 0);
        let got = match self.stream.read(&mut self.rbuf[old..]) {
            Ok(0) | Err(_) => {
                self.rbuf.truncate(old);
                return false;
            }
            Ok(n) => n,
        };
        self.rbuf.truncate(old + got);
        while let Some(len) = self.rbuf[self.rpos..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.rbuf[self.rpos..self.rpos + len]).into_owned();
            self.rpos += len + 1;
            self.on_reply(&line, origin, log);
        }
        if self.rpos > (1 << 20) {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        true
    }

    fn on_reply(&mut self, line: &str, origin: Instant, log: &mut PhaseLog) {
        let Some(p) = self.inflight.pop_front() else {
            self.fail(format!("unsolicited reply: {line}"));
            return;
        };
        let reply = decode_reply(line);
        let now = Instant::now();
        if self.traced && self.reply_lines.len() < KEPT_LINES {
            self.reply_lines.push(line.to_string());
        }
        log.acked += 1;
        let expect_id = format!("{}-{}", self.id, p.seq);
        match reply {
            Ok(Reply::Ok { id, result }) if id.as_deref() == Some(expect_id.as_str()) => {
                self.on_result(&p, &result)
            }
            Ok(other) => self.fail(format!("{:?} #{} answered {other:?}", p.verb, p.seq)),
            Err(e) => self.fail(format!("{:?} #{}: undecodable reply: {e}", p.verb, p.seq)),
        }
        if p.verb == Verb::Submit {
            log.submit_us
                .push(now.duration_since(p.due).as_secs_f64() * 1e6);
        }
        log.late_us
            .push(p.sent.duration_since(p.due).as_secs_f64() * 1e6);
        if self.traced {
            let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
            log.spans.push(ReqSpan {
                verb: match p.verb {
                    Verb::Submit => "submit",
                    Verb::Complete => "complete",
                    Verb::TaskInfo => "task",
                    Verb::Status => "status",
                },
                due_ns: ns(p.due),
                sent_ns: ns(p.sent),
                done_ns: ns(now),
            });
        }
    }

    fn on_result(&mut self, p: &Pending, result: &Value) {
        let task = result.get("task").and_then(Value::as_u64);
        match p.verb {
            Verb::Submit => {
                let placed = result.get("state").and_then(Value::as_str) == Some("placed");
                let predicted = result.get("predicted_runtime").and_then(Value::as_f64);
                match (task, placed, predicted) {
                    (Some(task), true, Some(predicted)) => {
                        self.acked_submits += 1;
                        self.running.push_back((task, predicted));
                        self.live.insert(task);
                        if self.known.len() < 1024 {
                            self.known.push(task);
                        } else {
                            let at = self.prng.below(1024);
                            self.known[at] = task;
                        }
                    }
                    _ => self.fail(format!("submit #{} was not placed: {result}", p.seq)),
                }
            }
            Verb::Complete => {
                if task == Some(p.task) && self.live.remove(&p.task) {
                    self.acked_completes += 1;
                } else {
                    self.fail(format!("complete of {} answered {result}", p.task));
                }
            }
            Verb::TaskInfo => {
                if task != Some(p.task) {
                    self.fail(format!("task {} answered {result}", p.task));
                }
            }
            Verb::Status => {
                if result.get("admitted").and_then(Value::as_u64).is_none() {
                    self.fail(format!("status answered {result}"));
                }
            }
        }
    }

    /// Everything still in flight is lost: count it and forget it.
    fn abandon_inflight(&mut self, why: &str) {
        let lost = self.inflight.len();
        if lost > 0 {
            self.failed += lost as u64;
            self.failures
                .push(format!("{lost} requests unanswered: {why}"));
            self.inflight.clear();
        }
    }

    /// Runs one phase on this connection.
    fn drive(&mut self, pace: &Pace, submit_only: bool) -> PhaseLog {
        let mut log = PhaseLog::default();
        let mut out = Vec::with_capacity(1 << 14);
        match *pace {
            Pace::Closed {
                window,
                requests,
                segment,
                alternate,
            } => {
                let origin = Instant::now();
                let mut started = 0u64;
                loop {
                    out.clear();
                    let now = Instant::now();
                    while started < requests && self.inflight.len() < window {
                        self.enqueue(now, submit_only, &mut out);
                        started += 1;
                    }
                    if !out.is_empty() && self.stream.write_all(&out).is_err() {
                        self.abandon_inflight("write failed");
                        break;
                    }
                    if self.inflight.is_empty() {
                        break;
                    }
                    let before = log.acked / segment;
                    if !self.read_replies(origin, &mut log) {
                        self.abandon_inflight("connection closed or timed out");
                        break;
                    }
                    if log.acked / segment > before {
                        log.marks.push((Instant::now(), log.acked));
                        self.traced ^= alternate;
                    }
                }
            }
            Pace::Open {
                start,
                offset,
                interval,
                requests,
            } => {
                let due = |k: u64| start + offset + interval.mul_f64(k as f64);
                let mut k = 0u64;
                loop {
                    out.clear();
                    let now = Instant::now();
                    while k < requests && due(k) <= now {
                        self.enqueue(due(k), submit_only, &mut out);
                        k += 1;
                    }
                    if !out.is_empty() && self.stream.write_all(&out).is_err() {
                        self.abandon_inflight("write failed");
                        break;
                    }
                    if k == requests && self.inflight.is_empty() {
                        break;
                    }
                    let wait = if k < requests {
                        due(k).saturating_duration_since(Instant::now())
                    } else {
                        REPLY_TIMEOUT
                    };
                    if wait_readable(&self.stream, wait) {
                        if !self.read_replies(start, &mut log) {
                            self.abandon_inflight("connection closed or timed out");
                            break;
                        }
                    } else if k == requests {
                        self.abandon_inflight("no reply before the timeout");
                        break;
                    }
                }
            }
        }
        log
    }
}

/// Runs one phase on every connection at once, one thread each.
fn run_phase(conns: &mut [Conn], pace: impl Fn(usize) -> Pace, submit_only: bool) -> Vec<PhaseLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let pace = pace(i);
                scope.spawn(move || conn.drive(&pace, submit_only))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Closed-loop throughput per segment index: the sum over connections of
/// that connection's rate between two of its marks. Only marks made while
/// every connection was still sending count; the last connection to
/// finish would otherwise be timed with the daemon to itself.
fn closed_rates(logs: &[PhaseLog], start: Instant) -> Vec<f64> {
    let Some(first_done) = logs
        .iter()
        .filter_map(|l| l.marks.last())
        .map(|m| m.0)
        .min()
    else {
        return Vec::new();
    };
    let n = logs
        .iter()
        .map(|l| l.marks.iter().filter(|m| m.0 <= first_done).count())
        .min()
        .unwrap_or(0);
    (0..n)
        .map(|s| {
            logs.iter()
                .map(|l| {
                    let (from, acked_before) = if s == 0 { (start, 0) } else { l.marks[s - 1] };
                    let (to, acked) = l.marks[s];
                    (acked - acked_before) as f64 / to.duration_since(from).as_secs_f64()
                })
                .sum()
        })
        .collect()
}

/// Closed-loop throughput of the whole phase up to the last segment every
/// connection took part in: what `closed_rates` cuts into pieces.
fn closed_rate(logs: &[PhaseLog], start: Instant, pieces: usize) -> f64 {
    if pieces == 0 {
        return 0.0;
    }
    logs.iter()
        .map(|l| {
            let (to, acked) = l.marks[pieces - 1];
            acked as f64 / to.duration_since(start).as_secs_f64()
        })
        .sum()
}

fn all_of(logs: &[PhaseLog], f: impl Fn(&PhaseLog) -> &Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// The running daemon, its clients and what they have measured so far.
struct ServeRun<'a> {
    plan: &'a ServePlan<'a>,
    handle: Option<DaemonHandle>,
    metrics: Arc<Metrics>,
    conns: Vec<Conn>,
    addr: String,
    /// Every request of the traced phases, for the trace file.
    spans: Vec<ReqSpan>,
}

/// The daemon's WAL counters at one moment.
#[derive(Clone, Copy)]
struct WalCounters {
    fsyncs: u64,
    records: u64,
    snapshots: u64,
}

impl WalCounters {
    fn read(m: &Metrics) -> WalCounters {
        WalCounters {
            fsyncs: m.wal_fsyncs.load(Ordering::Relaxed),
            records: m.wal_records.load(Ordering::Relaxed),
            snapshots: m.wal_snapshots.load(Ordering::Relaxed),
        }
    }

    fn since(self, before: WalCounters) -> WalCounters {
        WalCounters {
            fsyncs: self.fsyncs - before.fsyncs,
            records: self.records - before.records,
            snapshots: self.snapshots - before.snapshots,
        }
    }
}

/// What one closed-loop phase measured.
struct ClosedPhase {
    /// Requests per second of each segment.
    rates: Vec<f64>,
    /// Requests per second over all of them.
    rate: f64,
    logs: Vec<PhaseLog>,
    /// WAL work the daemon did during the phase.
    wal: WalCounters,
    acked: u64,
}

impl<'a> ServeRun<'a> {
    /// Connects the clients and builds each connection's backlog of
    /// placed tasks (untimed), so every later `complete` names an
    /// earlier task.
    fn open(
        plan: &'a ServePlan<'a>,
        tb: &Testbed,
        handle: DaemonHandle,
        round: usize,
    ) -> ServeRun<'a> {
        let apps = Arc::new(tb.perf.names.clone());
        let addr = handle.addr.to_string();
        let n = plan.sizes.connections;
        let conns = (0..n)
            .map(|i| Conn::connect(i, (round * n + i) as u64, &addr, plan, Arc::clone(&apps)))
            .collect();
        let mut run = ServeRun {
            plan,
            metrics: Arc::clone(handle.metrics()),
            handle: Some(handle),
            conns,
            addr,
            spans: Vec::new(),
        };
        let (window, backlog) = (plan.sizes.window, plan.sizes.backlog as u64);
        run_phase(
            &mut run.conns,
            |_| Pace::Closed {
                window,
                requests: backlog,
                segment: u64::MAX,
                alternate: false,
            },
            true,
        );
        run
    }

    fn set_traced(&mut self, traced: bool) {
        for c in &mut self.conns {
            c.traced = traced;
        }
    }

    fn keep_spans(&mut self, logs: &mut [PhaseLog]) {
        for log in logs {
            self.spans.append(&mut log.spans);
        }
    }

    /// The closed-loop phase: `segments` segments of fixed request count
    /// on every connection.
    fn closed(&mut self, segments: u64, alternate: bool) -> ClosedPhase {
        let before = WalCounters::read(&self.metrics);
        let (window, segment) = (
            self.plan.sizes.window,
            self.plan.sizes.segment_requests as u64,
        );
        let start = Instant::now();
        let mut logs = run_phase(
            &mut self.conns,
            |_| Pace::Closed {
                window,
                requests: segments * segment,
                segment,
                alternate,
            },
            false,
        );
        self.keep_spans(&mut logs);
        let rates = closed_rates(&logs, start);
        ClosedPhase {
            rate: closed_rate(&logs, start, rates.len()),
            rates,
            wal: WalCounters::read(&self.metrics).since(before),
            acked: logs.iter().map(|l| l.acked).sum(),
            logs,
        }
    }

    /// An open-loop phase at `rate` requests per second over all
    /// connections for `seconds`; connections are staggered evenly.
    fn open_loop(&mut self, rate: f64, seconds: f64) -> Vec<PhaseLog> {
        let n = self.conns.len();
        let interval = Duration::from_secs_f64(n as f64 / rate);
        let requests = (rate * seconds / n as f64).ceil() as u64;
        let start = Instant::now() + Duration::from_millis(2);
        let mut logs = run_phase(
            &mut self.conns,
            |i| Pace::Open {
                start,
                offset: interval.mul_f64(i as f64 / n as f64),
                interval,
                requests,
            },
            false,
        );
        self.keep_spans(&mut logs);
        logs
    }

    /// The rest of the traced pass, after the last round's alternating
    /// closed loop: that loop's own numbers, both open-loop rates with
    /// every request recorded, and the isolated layer measurements.
    fn layers(
        &mut self,
        closed: ClosedPhase,
        seconds: f64,
        tb: &Testbed,
        trace: &mut Trace,
        report: &mut Report,
    ) {
        let sizes = self.plan.sizes;
        let ClosedPhase {
            logs: closed_logs,
            wal,
            acked,
            ..
        } = closed;
        self.set_traced(true);
        report.push(
            "serve.closed_p50_us",
            percentile(&all_of(&closed_logs, |l| &l.submit_us), 0.50),
            "us",
        );
        report.push(
            "serve.wal.fsyncs_per_req",
            wal.fsyncs as f64 / acked as f64,
            "ratio",
        );
        report.push(
            "serve.wal.records_per_fsync",
            if wal.fsyncs > 0 {
                wal.records as f64 / wal.fsyncs as f64
            } else {
                0.0
            },
            "ratio",
        );
        report.push("serve.wal.snapshots", wal.snapshots as f64, "count");

        let open_s = seconds * sizes.open_share / 2.0;
        let (logs, _) = trace.span("serve.open_loop_traced", |_| {
            self.open_loop(sizes.open_rate, open_s)
        });
        report.push(
            "gen.late_p99_us",
            percentile(&all_of(&logs, |l| &l.late_us), 0.99),
            "us",
        );
        let (logs, _) = trace.span("serve.open_loop_low_traced", |_| {
            self.open_loop(sizes.open_low_rate, open_s)
        });
        let submit = all_of(&logs, |l| &l.submit_us);
        report.push("serve.low_rate_p50_us", percentile(&submit, 0.50), "us");
        report.push("serve.low_rate_p99_us", percentile(&submit, 0.99), "us");
        self.set_traced(false);

        trace.span("serve.reactor.status_probe", |_| {
            self.reactor_layers(tb, report)
        });
        trace.span("serve.proto.codec_replay", |_| self.codec_layers(report));
        trace.span("serve.state.in_process", |_| {
            state_layers(self.plan, tb, report)
        });
        if self.plan.durable {
            trace.span("serve.repl.ship_probe", |_| {
                ship_layer(self.plan, tb, report)
            });
            trace.span("serve.wal.probe", |_| wal_layers(self.plan, report));
        }
    }

    /// One `status` at a time against the now idle daemon, and what is
    /// left of that round trip once the in-process parts are taken out.
    fn reactor_layers(&mut self, tb: &Testbed, report: &mut Report) {
        let conn = &mut self.conns[0];
        let line = encode_request(&Envelope {
            id: Some("probe".to_string()),
            request: Request::Status,
        }) + "\n";
        let mut rtt = Vec::new();
        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        for _ in 0..2000 {
            reply.clear();
            let t = Instant::now();
            let mut ok = conn.stream.write_all(line.as_bytes()).is_ok();
            while ok && reply.last() != Some(&b'\n') {
                match conn.stream.read(&mut chunk) {
                    Ok(n) if n > 0 => reply.extend_from_slice(&chunk[..n]),
                    _ => ok = false,
                }
            }
            let decoded = decode_reply(String::from_utf8_lossy(&reply).trim_end());
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
            conn.sent += 1;
            if !matches!(decoded, Ok(Reply::Ok { .. })) {
                conn.fail("status probe failed".to_string());
                break;
            }
        }
        let status_rtt = median(&rtt);
        report.push("serve.reactor.status_rtt_us", status_rtt, "us");

        // In-process: the same status on one shard's service; the daemon
        // asks every shard.
        let svc = Service::new(
            tb,
            ServeConfig {
                wal_dir: None,
                shards: 1,
                ..self.plan.config()
            },
            Arc::new(Metrics::new()),
        );
        let rounds = 20_000;
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(svc.status());
        }
        let status_us = t.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        report.push("serve.state.status_us", status_us, "us");
        report.push(
            "serve.reactor.self_us_est",
            status_rtt - status_us * self.plan.sizes.shards as f64,
            "us",
        );

        // The daemon's own submit-to-placement histogram (millisecond
        // buckets): its mean, and the bucket bounds holding p50 and p99.
        let text = self.metrics.render_prometheus();
        let value = |prefix: &str| -> Option<f64> {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
        };
        let count = value("tracond_dispatch_latency_seconds_count").unwrap_or(0.0);
        let sum_s = value("tracond_dispatch_latency_seconds_sum").unwrap_or(0.0);
        let bucket_bound_us = |q: f64| -> f64 {
            text.lines()
                .filter_map(|l| l.strip_prefix("tracond_dispatch_latency_seconds_bucket{le=\""))
                .filter_map(|l| l.split_once("\"} "))
                .find(|(_, n)| n.parse::<f64>().is_ok_and(|n| n >= q * count))
                .and_then(|(le, _)| le.parse::<f64>().ok())
                .map_or(0.0, |le_s| le_s * 1e6)
        };
        report.push(
            "serve.dispatch_mean_us",
            if count > 0.0 {
                sum_s * 1e6 / count
            } else {
                0.0
            },
            "us",
        );
        report.push("serve.dispatch_p50_us", bucket_bound_us(0.50), "us");
        report.push("serve.dispatch_p99_us", bucket_bound_us(0.99), "us");
    }

    /// The codec over the lines this workload put on the wire.
    fn codec_layers(&self, report: &mut Report) {
        let requests: Vec<&String> = self.conns.iter().flat_map(|c| &c.request_lines).collect();
        let replies: Vec<Reply> = self
            .conns
            .iter()
            .flat_map(|c| &c.reply_lines)
            .filter_map(|l| decode_reply(l).ok())
            .collect();
        if requests.is_empty() || replies.is_empty() {
            return;
        }
        let rounds = 20;
        let per = |t: Instant, n: usize| t.elapsed().as_secs_f64() * 1e9 / (rounds * n) as f64;
        let t = Instant::now();
        for _ in 0..rounds {
            for line in &requests {
                black_box(tracon_serve::json::parse(black_box(line)).is_ok());
            }
        }
        report.push("serve.json.parse_ns", per(t, requests.len()), "ns");
        let t = Instant::now();
        for _ in 0..rounds {
            for line in &requests {
                black_box(decode_request(black_box(line)).is_ok());
            }
        }
        report.push("serve.proto.decode_ns", per(t, requests.len()), "ns");
        let t = Instant::now();
        for _ in 0..rounds {
            for reply in &replies {
                black_box(encode_reply(black_box(reply)));
            }
        }
        report.push("serve.proto.encode_ns", per(t, replies.len()), "ns");
    }

    /// Stops the daemon and runs every output check: each request
    /// acknowledged, the status conserved and equal to the clients'
    /// ledgers, no protocol error, and (durable) the recovered task set
    /// equal to acknowledged submits minus acknowledged completes.
    fn finish(mut self, tb: &Testbed, report: &mut Report) -> RoundEnd {
        let mut end = RoundEnd {
            rebuilds: 0,
            recover_s: None,
        };
        let status =
            tracon_serve::Client::connect(&self.addr).and_then(|mut c| c.request(Request::Status));
        let submits: u64 = self.conns.iter().map(|c| c.acked_submits).sum();
        let completes: u64 = self.conns.iter().map(|c| c.acked_completes).sum();
        match status {
            Ok(Reply::Ok { result, .. }) => {
                let field = |k: &str| result.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
                let snap = StatusSnapshot {
                    queued: field("queued") as usize,
                    delayed: field("delayed") as usize,
                    running: field("running") as usize,
                    completed: field("completed"),
                    dead_lettered: field("dead_lettered"),
                    admitted: field("admitted"),
                    rejected: field("rejected"),
                    rebuilds: field("rebuilds") as usize,
                    swaps: field("predictor_swaps") as usize,
                    draining: false,
                    machines: field("machines") as usize,
                    free_slots: field("free_slots") as usize,
                    scheduler: "",
                };
                report.check(snap.conserved(), || {
                    format!("status not conserved: {snap:?}")
                });
                report.check(
                    snap.admitted == submits && snap.completed == completes && snap.rejected == 0,
                    || format!("daemon counts {snap:?} differ from the clients' {submits} submits, {completes} completes"),
                );
                end.rebuilds = snap.rebuilds;
            }
            other => report.fail(format!("final status failed: {other:?}")),
        }
        let protocol_errors = self.metrics.protocol_errors.load(Ordering::Relaxed);
        report.check(protocol_errors == 0, || {
            format!("{protocol_errors} protocol errors")
        });
        let wal_errors = self.metrics.wal_errors.load(Ordering::Relaxed);
        report.check(wal_errors == 0, || format!("{wal_errors} WAL errors"));

        for c in &mut self.conns {
            report.attempted += c.sent;
            report.failed += c.failed;
            report.failures.append(&mut c.failures);
            if c.substituted > 0 {
                eprintln!(
                    "serve: connection {} replaced {} completes by submits",
                    c.id, c.substituted
                );
            }
        }
        stop(self.handle.take().expect("daemon still held"));

        if self.plan.durable {
            let ids = tb.predictor.registry();
            let shards = self.plan.sizes.shards;
            let route = |name: &str| ids.id(name).map(|id| route_app(id, shards));
            let t = Instant::now();
            let recovered = recover_dir(
                &self.plan.wal_dir,
                shards,
                self.plan.config().wal_snapshot_every,
                &route,
            );
            let recover_s = t.elapsed().as_secs_f64();
            match recovered {
                Ok((wals, merged)) => {
                    drop(wals);
                    eprintln!(
                        "serve: recovered {} tasks from {} log records ({} snapshots were taken)",
                        merged.tasks.len(),
                        merged.replayed_records,
                        self.metrics.wal_snapshots.load(Ordering::Relaxed)
                    );
                    let live: HashSet<u64> = merged
                        .tasks
                        .iter()
                        .filter(|t| matches!(t.rec.state, RecState::Queued | RecState::Leased))
                        .map(|t| t.rec.task)
                        .collect();
                    let ledger: HashSet<u64> = self
                        .conns
                        .iter()
                        .flat_map(|c| c.live.iter().copied())
                        .collect();
                    report.check(live == ledger, || {
                        format!(
                            "recovered {} live tasks, the clients' ledger holds {}",
                            live.len(),
                            ledger.len()
                        )
                    });
                    report.check(merged.tasks.len() as u64 == submits, || {
                        format!(
                            "recovered {} tasks of {submits} acknowledged",
                            merged.tasks.len()
                        )
                    });
                    end.recover_s = Some(recover_s);
                }
                Err(e) => report.fail(format!("recovery failed: {e}")),
            }
            let _ = std::fs::remove_dir_all(&self.plan.wal_dir);
        }
        end
    }
}

/// What stopping a round's daemon found.
pub struct RoundEnd {
    /// Model rebuilds the daemon ran inline during the round.
    pub rebuilds: usize,
    /// Time `recover_dir` took over the WAL the round wrote.
    pub recover_s: Option<f64>,
}

/// The untraced pass: rounds of the closed loop, each on a daemon of its
/// own (`first` is the one set-up booted) that is then stopped, recovered
/// and checked; the last round also runs the open loop at the frozen rate.
pub fn measure(
    plan: &ServePlan<'_>,
    tb: &Testbed,
    first: DaemonHandle,
    seconds: f64,
    report: &mut Report,
) -> Vec<RoundEnd> {
    let sizes = plan.sizes;
    let rounds = plan.rounds(seconds);
    let mut daemon = Some(first);
    let (mut pieces, mut round_rates, mut submit) = (Vec::new(), Vec::new(), Vec::new());
    let mut ends = Vec::new();
    for round in 0..rounds {
        let handle = daemon.take().unwrap_or_else(|| plan.start(tb));
        let mut run = ServeRun::open(plan, tb, handle, round);
        let closed = run.closed(sizes.round_segments, false);
        pieces.extend(closed.rates);
        round_rates.push(closed.rate);
        if round + 1 == rounds {
            let logs = run.open_loop(sizes.open_rate, seconds * sizes.open_share);
            submit = all_of(&logs, |l| &l.submit_us);
        }
        ends.push(run.finish(tb, report));
    }
    eprintln!(
        "serve: {rounds} rounds of {} closed-loop segments of {} requests x {} connections; \
         open loop {} submit latencies",
        sizes.round_segments,
        sizes.segment_requests,
        sizes.connections,
        submit.len()
    );
    report.check(pieces.len() >= 2 && !submit.is_empty(), || {
        format!(
            "too few pieces: {} segments, {} latencies",
            pieces.len(),
            submit.len()
        )
    });
    eprintln!("pieces segment_req_per_s {pieces:?}");
    eprintln!("pieces round_req_per_s {round_rates:?}");
    report.push("ops_per_s", quiet_rate(&pieces), "1/s");
    report.push("ops_per_s_median", median(&pieces), "1/s");
    report.push("serve.submit_p50_us", percentile(&submit, 0.50), "us");
    report.push("serve.submit_p99_us", percentile(&submit, 0.99), "us");
    ends
}

/// The traced pass: as many rounds again, numbered after the untraced
/// ones, with tracing flipped at every segment boundary; the last round
/// goes on to the open loops and the isolated layer measurements. Odd
/// rounds start traced: a round slows as its daemon fills, and the half
/// that always held a round's first segment would look the faster one.
/// Returns every traced request beside the rounds' ends.
pub fn traced(
    plan: &ServePlan<'_>,
    tb: &Testbed,
    seconds: f64,
    trace: &mut Trace,
    report: &mut Report,
) -> (Vec<RoundEnd>, Vec<ReqSpan>) {
    let rounds = plan.rounds(seconds);
    // Rates of the untraced (even) and the traced (odd) segments.
    let mut parity = [Vec::new(), Vec::new()];
    let (mut ends, mut spans) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let mut run = ServeRun::open(plan, tb, plan.start(tb), rounds + round);
        run.set_traced(round % 2 == 1);
        let (closed, _) = trace.span("serve.closed_loop_alternating", |_| {
            run.closed(plan.sizes.round_segments, true)
        });
        for (i, rate) in closed.rates.iter().enumerate() {
            parity[(i + round) % 2].push(*rate);
        }
        if round + 1 == rounds {
            run.layers(closed, seconds, tb, trace, report);
        }
        spans.append(&mut run.spans);
        ends.push(run.finish(tb, report));
    }
    report.push(
        "trace.overhead_share",
        (1.0 - median(&parity[1]) / median(&parity[0])).max(0.0),
        "ratio",
    );
    (ends, spans)
}

/// Read-only `repl_pull`s (`ttl_ms: 0` registers no follower) over the
/// shipped tail of a small daemon of its own, booted after the run with
/// compaction off: a path no end-to-end metric covers. The run's own
/// daemon is not used because a pull that falls behind its compaction
/// horizon carries the whole snapshot, and that one reply took 12 s for
/// nine thousand tasks when this probe was written.
fn ship_layer(plan: &ServePlan<'_>, tb: &Testbed, report: &mut Report) {
    let dir = plan.wal_dir.with_extension("ship");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        wal_dir: Some(dir.clone()),
        wal_snapshot_every: u64::MAX,
        shards: 1,
        ..plan.config()
    };
    let handle = daemon::start(tb, cfg, NetConfig::default()).expect("ship probe daemon starts");
    let measured = ship_frames_per_s(plan, tb, &handle.addr.to_string());
    stop(handle);
    let _ = std::fs::remove_dir_all(&dir);
    match measured {
        Some(rate) => report.push("serve.repl.ship_frames_per_s", rate, "1/s"),
        None => report.fail("ship probe: a submit or a repl_pull was refused".to_string()),
    }
}

fn ship_frames_per_s(plan: &ServePlan<'_>, tb: &Testbed, addr: &str) -> Option<f64> {
    let mut client = tracon_serve::Client::connect(addr).ok()?;
    let mut prng = Prng::new(plan.seed, 7);
    let submits: Vec<Request> = (0..plan.sizes.wal_probe_records)
        .map(|_| Request::Submit {
            app: tb.perf.names[prng.medium_mix_app()].clone(),
            demand: None,
        })
        .collect();
    for chunk in submits.chunks(128) {
        let replies = client.pipeline(chunk).ok()?;
        if !replies.iter().all(|r| matches!(r, Reply::Ok { .. })) {
            return None;
        }
    }
    let mut pull = |cursor: u64| -> Option<(u64, u64, u64)> {
        let reply = client
            .request(Request::ReplPull {
                epoch: 0,
                shard: 0,
                cursor,
                addr: "benchmark:0".to_string(),
                ttl_ms: 0,
            })
            .ok()?;
        let Reply::Ok { result, .. } = reply else {
            return None;
        };
        let frames = result.get("frames").and_then(Value::as_arr)?.len() as u64;
        let next = result.get("next").and_then(Value::as_u64)?;
        let head = result.get("ship_next").and_then(Value::as_u64)?;
        Some((frames, next, head))
    };
    // The first pull only finds where the shipped tail begins (it also
    // carries the boot snapshot); the timed passes start there.
    let (first, next, _) = pull(0)?;
    let base = next - first;
    let mut frames = 0u64;
    let t = Instant::now();
    for _ in 0..8 {
        let mut cursor = base;
        loop {
            let (got, next, head) = pull(cursor)?;
            frames += got;
            cursor = next;
            if next >= head {
                break;
            }
        }
    }
    Some(frames as f64 / t.elapsed().as_secs_f64())
}

/// The shard state alone: an in-process `Service` with no WAL and no
/// socket, fed this workload's verbs.
fn state_layers(plan: &ServePlan<'_>, tb: &Testbed, report: &mut Report) {
    let mut svc = Service::new(
        tb,
        ServeConfig {
            wal_dir: None,
            shards: 1,
            ..plan.config()
        },
        Arc::new(Metrics::new()),
    );
    let mut prng = Prng::new(plan.seed, 6);
    let names = &tb.perf.names;
    let route_rounds = 1_000_000;
    let ids: Vec<_> = names.iter().filter_map(|n| svc.app_id(n)).collect();
    let t = Instant::now();
    let mut sum = 0;
    for i in 0..route_rounds {
        sum += route_app(black_box(ids[i % ids.len()]), plan.sizes.shards);
    }
    black_box(sum);
    report.push(
        "serve.shard.route_ns",
        t.elapsed().as_secs_f64() * 1e9 / route_rounds as f64,
        "ns",
    );

    let (mut submit_us, mut complete_us, mut rebuild_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut placed: VecDeque<(u64, f64)> = VecDeque::new();
    let slots = plan.sizes.machines * plan.sizes.slots_per_machine;
    for step in 0..8000 {
        let now = Instant::now();
        if step % 2 == 0 || placed.len() < slots / 4 {
            let app = &names[prng.medium_mix_app()];
            let t = Instant::now();
            let admitted = svc.submit(app, now);
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Ok(a) = admitted {
                if let Some((_, _, predicted)) = a.placement {
                    placed.push_back((a.task, predicted));
                }
            }
        } else if let Some((task, predicted)) = placed.pop_front() {
            let runtime = predicted.max(0.05) * prng.range(0.85, 1.15);
            let iops = prng.range(40.0, 240.0);
            let t = Instant::now();
            let done = svc.complete(task, runtime, iops, now);
            let us = t.elapsed().as_secs_f64() * 1e6;
            match done {
                Ok(d) if d.rebuilt => rebuild_ms.push(us / 1e3),
                Ok(_) => complete_us.push(us),
                Err(e) => report.fail(format!("in-process complete refused: {e:?}")),
            }
        }
    }
    report.push("serve.state.submit_us", median(&submit_us), "us");
    report.push("serve.state.complete_us", median(&complete_us), "us");
    report.push("serve.state.complete_rebuild_ms", median(&rebuild_ms), "ms");
}

/// The WAL alone, in its own directory next to the run's: appends of one
/// and of sixteen records per fsync, replay, and scrub.
fn wal_layers(plan: &ServePlan<'_>, report: &mut Report) {
    let dir = plan.wal_dir.with_extension("probe");
    let n = plan.sizes.wal_probe_records;
    let records: Vec<WalRecord> = (0..n as u64)
        .map(|task| WalRecord::Submit {
            task: task + 1,
            app: "video".to_string(),
        })
        .collect();
    let appended = records.len() as u64;
    for (batch, name) in [
        (1usize, "serve.wal.append_us_b1"),
        (16, "serve.wal.append_us_b16"),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let Ok((mut wal, _)) = Wal::open_shard(&dir, 0, u64::MAX) else {
            report.fail("WAL probe could not open".to_string());
            return;
        };
        let mut us = Vec::new();
        for chunk in records.chunks(batch) {
            let t = Instant::now();
            if wal.append_batch(chunk).is_err() {
                report.fail("WAL probe append failed".to_string());
                return;
            }
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        report.push(name, median(&us), "us");
    }
    // The directory now holds the sixteen-per-fsync log of `n` records.
    let log_bytes =
        std::fs::metadata(dir.join(tracon_serve::wal::shard_log_name(0))).map_or(0, |m| m.len());
    report.push(
        "serve.wal.bytes_per_record",
        log_bytes as f64 / appended as f64,
        "B",
    );
    let mut replay_s = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        match Wal::open_shard(&dir, 0, u64::MAX) {
            Ok((_, recovery)) if recovery.replayed_records == appended => {
                replay_s.push(t.elapsed().as_secs_f64())
            }
            _ => report.fail("WAL probe replay lost records".to_string()),
        }
    }
    report.push(
        "serve.wal.recover_records_per_s",
        appended as f64 / median(&replay_s).max(1e-9),
        "1/s",
    );
    let mut mb_per_s = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        match scrub_shard(&dir, 0) {
            Ok(scrub) if scrub.clean() => {
                mb_per_s.push(scrub.scanned_bytes as f64 / 1e6 / t.elapsed().as_secs_f64())
            }
            _ => report.fail("WAL probe scrub found corruption".to_string()),
        }
    }
    report.push("serve.wal.scrub_mb_per_s", median(&mb_per_s), "MB/s");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes the traced requests, one JSON object per line.
pub fn write_spans(spans: &[ReqSpan], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"verb\":\"{}\",\"due_ns\":{},\"sent_ns\":{},\"done_ns\":{}}}",
            s.verb, s.due_ns, s.sent_ns, s.done_ns
        )?;
    }
    out.flush()
}
