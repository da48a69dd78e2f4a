//! The poll-based connection reactor: one thread owns every client
//! socket — protocol and HTTP alike — and routes decoded requests to
//! scheduler-shard workers.
//!
//! The pre-sharding daemon spent a thread per connection; this module
//! replaces that with a single event loop multiplexed over `poll(2)`
//! (a thin hand-rolled FFI wrapper — no new dependencies,
//! the same discipline as `tracon_core::par`). Per connection it keeps a
//! bounded read buffer for partial NDJSON lines, an outbox of rendered
//! reply bytes, and a sequence-numbered reorder stage so replies go out
//! in request order even though shards answer out of order.
//!
//! Request routing:
//! - `submit` interns the application name at decode time and
//!   rendezvous-hashes the [`tracon_core::AppId`] to a shard
//!   ([`crate::shard::route_app`]), unless that shard's queue-depth gauge
//!   is [`OVERFLOW_MIN_SKEW`] or more above the shallowest shard's: then
//!   the submit goes to the shallowest one (counted in
//!   `tracond_overflow_submits_total`). Balance is decided here, once;
//!   a task never moves after admission. Unprofiled names hash by name
//!   so any shard can issue the identical `unknown-app` refusal.
//! - `complete`/`task_info` go to the task's stride shard
//!   ([`crate::shard::stride_shard`]): the shard that issued the id, and
//!   the only one that knows the task, before and after any restart.
//! - `status`/`drain` fan out to every shard and the replies are summed
//!   before one aggregate line goes back to the client.
//! - `shutdown` is answered by the reactor itself, which then stops the
//!   daemon once outstanding replies have flushed (or a short grace
//!   period expires).
//!
//! The HTTP listener (`GET /healthz`, `GET /metrics`) is polled beside
//! the protocol listener. An HTTP connection is read until its request
//! head is complete ([`crate::metrics::http_head_ready`]) or the client
//! half-closes, answered from [`crate::metrics::http_response`], and
//! closed once the answer has flushed; the idle and write timeouts reap
//! a client that stalls either way.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpListener;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tracon_core::AppId;

use crate::json::{n, obj, s, Quoted, Value};
use crate::metrics::{http_head_ready, http_response, Metrics};
use crate::proto::{self, ErrorKind, Reply, Request, ResultLine, Strings};
use crate::repl::follower::Node;
use crate::repl::{Effect, PullVerdict, Role, RoleEvent};
use crate::shard::{route_app, route_name, stride_shard};
use crate::state::StatusSnapshot;
use crate::table::TaskRow;
use crate::wal::Wal;

/// How much deeper than the shallowest shard's queue a submit's hash
/// shard's queue may run before the submit is admitted on the shallowest
/// shard instead.
pub const OVERFLOW_MIN_SKEW: u64 = 8;

/// Grace period for flushing outstanding replies after a `shutdown`
/// request or the last shard draining.
const STOP_GRACE: Duration = Duration::from_secs(1);

/// Hard cap on buffered un-flushed reply bytes per connection; a client
/// that stops reading past this point is disconnected.
const MAX_OUTBOX_BYTES: usize = 4 << 20;

/// Poll interval of the reactor, and the shard workers' self-tick.
pub(crate) const TICK_MS: u64 = 25;

/// A connection with no complete line for this long is closed.
const IDLE_TIMEOUT_MS: u64 = 30_000;

/// Per-write timeout before a stalled client is disconnected.
const WRITE_TIMEOUT_MS: u64 = 2_000;

/// Longest accepted request line; longer lines are rejected.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Work sent from the reactor to one shard worker.
pub(crate) enum ShardMsg {
    /// One decoded client request to answer.
    Request {
        /// Reactor connection id (opaque to the worker).
        conn: u64,
        /// Per-connection sequence number for reply ordering.
        seq: u64,
        /// Echoed client request id.
        id: Option<String>,
        /// The request; only `Submit`/`Complete`/`TaskInfo` reach workers.
        request: Request,
    },
    /// Contribute one part to a fan-out `status` aggregation.
    Status {
        /// Aggregation token.
        agg: u64,
    },
    /// Start draining and contribute one part to the `drain` reply.
    Drain {
        /// Aggregation token.
        agg: u64,
    },
    /// A follower promoted to leader: adopt the recovered state and the
    /// now-writable WAL. Sent exactly once per shard, before the role
    /// flip, so channel FIFO order guarantees it lands ahead of any
    /// ungated client request.
    Promote {
        /// The shard's recovered, append-ready WAL.
        wal: Wal,
        /// Recovered rows homed to this shard.
        tasks: Vec<TaskRow>,
        /// Global `next_task_id` high-water mark across all shards.
        next_task_id: u64,
    },
    /// A fenced ex-leader is rejoining the pair as a follower: drop all
    /// scheduler state and surrender the WAL handle so the rejoin
    /// supervisor can wipe the shard files and resync from the new
    /// leader's snapshot. Mirror of [`ShardMsg::Promote`]. The `done`
    /// ack lets the supervisor wait until every worker has let go of its
    /// file handles before deleting the files under them.
    Demote {
        /// Signalled (best-effort) once the worker's state is dropped.
        done: Sender<()>,
    },
}

/// Everything a shard worker sends back to the reactor.
pub(crate) enum OutMsg {
    /// A rendered reply line (no trailing newline) for one request.
    Reply {
        /// Connection id from the originating [`ShardMsg::Request`].
        conn: u64,
        /// Sequence number from the originating request.
        seq: u64,
        /// The encoded reply line.
        line: String,
    },
    /// One shard's contribution to a `status` aggregation.
    StatusPart {
        /// Aggregation token.
        agg: u64,
        /// Contributing shard.
        shard: usize,
        /// The shard's status snapshot.
        snap: StatusSnapshot,
    },
    /// One shard's contribution to a `drain` aggregation.
    DrainPart {
        /// Aggregation token.
        agg: u64,
        /// Contributing shard.
        shard: usize,
        /// The shard's post-drain snapshot.
        snap: StatusSnapshot,
    },
    /// This shard is draining and has no work left (sent at most once).
    Drained {
        /// The drained shard.
        shard: usize,
    },
}

/// Worker-side handle for sending [`OutMsg`]s: every send also writes a
/// wake byte so the reactor's `poll` returns promptly.
#[derive(Clone)]
pub(crate) struct OutSender {
    tx: Sender<OutMsg>,
    wake: Arc<std::os::unix::net::UnixStream>,
}

impl OutSender {
    pub(crate) fn new(tx: Sender<OutMsg>, wake: std::os::unix::net::UnixStream) -> OutSender {
        OutSender {
            tx,
            wake: Arc::new(wake),
        }
    }

    pub(crate) fn send(&self, msg: OutMsg) {
        let _ = self.tx.send(msg);
        self.wake();
    }

    /// Enqueue without waking; pair with one [`OutSender::wake`] per
    /// batch so a worker draining a deep queue costs one pipe write, not
    /// one per reply.
    pub(crate) fn send_quiet(&self, msg: OutMsg) {
        let _ = self.tx.send(msg);
    }

    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wake; WouldBlock is fine.
        let _ = (&*self.wake).write(&[1]);
    }
}

/// Thin `poll(2)` wrapper.
mod sys {
    /// Mirror of `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "macos")]
    type Nfds = u32;
    #[cfg(not(target_os = "macos"))]
    type Nfds = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd mirrors and the length is its true length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

use std::os::unix::io::AsRawFd;

/// One client connection's reactor-side state.
struct Conn {
    stream: TcpStream,
    /// Partial-line read buffer, bounded by `MAX_LINE_BYTES`.
    rbuf: Vec<u8>,
    /// Flushed-in-order reply bytes waiting for the socket.
    wbuf: Vec<u8>,
    /// True while discarding the tail of an oversized frame.
    discarding: bool,
    /// Last complete request line (for the idle timeout).
    last_activity: Instant,
    /// Set when a write returns `WouldBlock`; cleared on progress.
    write_stalled_since: Option<Instant>,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to flush into `wbuf`.
    next_write: u64,
    /// Replies that arrived ahead of an earlier outstanding request.
    pending: BTreeMap<u64, String>,
    /// Requests dispatched to shards with no reply yet.
    inflight: usize,
    /// An HTTP client: `rbuf` gathers its request head, its one answer is
    /// the only thing ever put in `wbuf`, and the connection closes once
    /// that has flushed.
    http: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant, http: bool) -> Conn {
        Conn {
            stream,
            http,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            discarding: false,
            last_activity: now,
            write_stalled_since: None,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            inflight: 0,
        }
    }

    /// All replies owed to this client have been written to the socket.
    fn quiescent(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && self.wbuf.is_empty()
    }
}

/// One in-flight `status`/`drain` fan-out.
struct Agg {
    conn: u64,
    seq: u64,
    id: Option<String>,
    drain: bool,
    parts: Vec<Option<StatusSnapshot>>,
    remaining: usize,
}

/// Everything the daemon hands the reactor thread at boot.
pub(crate) struct ReactorConfig {
    pub listener: TcpListener,
    pub http_listener: TcpListener,
    pub shard_txs: Vec<Sender<ShardMsg>>,
    pub out_rx: Receiver<OutMsg>,
    pub wake_rx: std::os::unix::net::UnixStream,
    pub shutdown: Arc<AtomicBool>,
    pub metrics: Arc<Metrics>,
    /// Profiled application name -> interned id, for decode-time routing.
    pub app_ids: HashMap<String, AppId>,
    /// Profiled application names in pair-table order (identical on every
    /// shard), listed by `status`.
    pub apps: Vec<String>,
    /// Replication context; `None` disables `repl_*` requests and gating.
    pub node: Option<Arc<Node>>,
}

/// Run the reactor event loop until shutdown. Consumes the config; the
/// shard senders drop on return, which releases the workers.
pub(crate) fn run(cfg: ReactorConfig) {
    Reactor::new(cfg).run();
}

struct Reactor {
    listener: TcpListener,
    http_listener: TcpListener,
    shard_txs: Vec<Sender<ShardMsg>>,
    out_rx: Receiver<OutMsg>,
    wake_rx: std::os::unix::net::UnixStream,
    shutdown: Arc<AtomicBool>,
    /// Set by the first `drain`; reported by `/healthz`.
    draining: bool,
    metrics: Arc<Metrics>,
    app_ids: HashMap<String, AppId>,
    apps: Vec<String>,
    node: Option<Arc<Node>>,
    /// Per-shard replication lag (`ship_next - follower cursor`) from the
    /// latest served pull; the max is exported as `repl_lag_frames`.
    repl_lag: Vec<u64>,

    conns: HashMap<u64, Conn>,
    next_conn: u64,
    aggs: HashMap<u64, Agg>,
    next_agg: u64,
    /// Shards that reported `Drained`.
    drained: HashSet<usize>,
    /// Set once a stop was requested; the loop exits when every owed
    /// reply has flushed or the deadline passes.
    stop_deadline: Option<Instant>,
    accepting: bool,
}

impl Reactor {
    fn new(cfg: ReactorConfig) -> Reactor {
        let repl_lag = vec![0u64; cfg.shard_txs.len()];
        Reactor {
            listener: cfg.listener,
            http_listener: cfg.http_listener,
            shard_txs: cfg.shard_txs,
            out_rx: cfg.out_rx,
            wake_rx: cfg.wake_rx,
            shutdown: cfg.shutdown,
            draining: false,
            metrics: cfg.metrics,
            app_ids: cfg.app_ids,
            apps: cfg.apps,
            node: cfg.node,
            repl_lag,
            conns: HashMap::new(),
            next_conn: 0,
            aggs: HashMap::new(),
            next_agg: 0,
            drained: HashSet::new(),
            stop_deadline: None,
            accepting: true,
        }
    }

    fn shards(&self) -> usize {
        self.shard_txs.len()
    }

    fn run(mut self) {
        let tick_ms = TICK_MS as i32;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }

            // Build the poll set: listener, wake pipe, HTTP listener, then
            // every conn.
            const CONNS_AT: usize = 3;
            let mut fds: Vec<sys::PollFd> = Vec::with_capacity(self.conns.len() + CONNS_AT);
            let mut ids: Vec<u64> = Vec::with_capacity(self.conns.len());
            let fixed = [
                (self.listener.as_raw_fd(), self.accepting),
                (self.wake_rx.as_raw_fd(), true),
                (self.http_listener.as_raw_fd(), true),
            ];
            for (fd, on) in fixed {
                let events = if on { sys::POLLIN } else { 0 };
                fds.push(sys::PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            for (&id, conn) in &self.conns {
                // An answered HTTP client is only written to.
                let answered = conn.http && !conn.wbuf.is_empty();
                let mut events = if answered { 0 } else { sys::POLLIN };
                if !conn.wbuf.is_empty() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                ids.push(id);
            }
            if sys::poll_fds(&mut fds, tick_ms).is_err() {
                // EINTR or fd churn; retry with a rebuilt set.
                continue;
            }
            let now = Instant::now();

            if fds[0].revents & (sys::POLLIN | sys::POLLERR) != 0 {
                self.accept_new(false, now);
            }
            if fds[1].revents & sys::POLLIN != 0 {
                let mut sink = [0u8; 256];
                while matches!((&self.wake_rx).read(&mut sink), Ok(count) if count > 0) {}
            }
            if fds[2].revents & (sys::POLLIN | sys::POLLERR) != 0 {
                self.accept_new(true, now);
            }

            // Shard results first so replies unblock ordered flushes below.
            self.drain_out();

            for (i, &id) in ids.iter().enumerate() {
                let revents = fds[i + CONNS_AT].revents;
                if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0 {
                    self.read_conn(id, now);
                }
                if revents & sys::POLLOUT != 0 {
                    self.flush_conn(id, now);
                }
            }

            // One batched flush per iteration: replies accumulate in
            // each connection's outbox while requests are processed, then
            // go out in one `write` per connection instead of one per
            // reply.
            let dirty: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, conn)| !conn.wbuf.is_empty())
                .map(|(&id, _)| id)
                .collect();
            for id in dirty {
                self.flush_conn(id, now);
            }

            self.reap_timeouts(now);
            self.tick_repl_guard();

            if let Some(deadline) = self.stop_deadline {
                let quiescent = self.aggs.is_empty() && self.conns.values().all(Conn::quiescent);
                if quiescent || now >= deadline {
                    self.shutdown.store(true, Ordering::SeqCst);
                }
            }
        }
        // Final courtesy flush so replies written just before the stop
        // (e.g. the `shutdown` ack) reach clients that are still reading.
        for conn in self.conns.values_mut() {
            if !conn.wbuf.is_empty() {
                let _ = conn.stream.write_all(&conn.wbuf);
            }
        }
    }

    /// Accept every pending client of the protocol listener, or of the
    /// HTTP one when `http`. The `reactor.*` failpoints act on protocol
    /// connections only.
    fn accept_new(&mut self, http: bool, now: Instant) {
        let listener = if http {
            &self.http_listener
        } else {
            &self.listener
        };
        while let Ok((stream, _)) = listener.accept() {
            // Failpoint: drop the fresh connection on the floor, as if
            // the accept had failed under fd pressure.
            if !http && crate::failpoint::should_fail("reactor.accept", "").is_some() {
                continue;
            }
            stream.set_nodelay(true).ok();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let id = self.next_conn;
            self.next_conn += 1;
            self.conns.insert(id, Conn::new(stream, now, http));
        }
    }

    /// Read until `WouldBlock`, peeling complete lines. Mirrors the
    /// pre-reactor per-thread loop: oversized frames get one structured
    /// error and their tail is discarded without being buffered.
    fn read_conn(&mut self, id: u64, now: Instant) {
        if self.conns.get(&id).is_some_and(|conn| conn.http) {
            self.read_http(id);
            return;
        }
        // Failpoint: the socket read "fails"; the connection is torn down
        // exactly as a real I/O error would tear it down.
        if crate::failpoint::should_fail("reactor.read", "").is_some() {
            self.close(id);
            return;
        }
        let mut chunk = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close(id);
                    return;
                }
                Ok(count) => {
                    conn.rbuf.extend_from_slice(&chunk[..count]);
                    self.peel_lines(id, now);
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
    }

    /// Read an HTTP client's request head and answer it once it is ready
    /// or the client half-closes. A wake after the answer is a hang-up or
    /// an error: the client is gone.
    fn read_http(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !conn.wbuf.is_empty() {
            self.close(id);
            return;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(count) => {
                    conn.rbuf.extend_from_slice(&chunk[..count]);
                    if http_head_ready(&conn.rbuf) {
                        break;
                    }
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        conn.wbuf = http_response(&conn.rbuf, self.draining, &self.metrics);
    }

    /// Peel every complete line out of the connection's read buffer in
    /// one pass. The buffer is taken out of the connection so complete
    /// lines are dispatched as borrowed slices — no per-line allocation —
    /// and the unconsumed tail is compacted with a single `drain`.
    fn peel_lines(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut buf = std::mem::take(&mut conn.rbuf);
        let mut discarding = conn.discarding;
        let mut start = 0usize;
        while let Some(pos) = buf[start..].iter().position(|b| *b == b'\n') {
            let end = start + pos;
            let frame = &buf[start..=end];
            if discarding {
                discarding = false;
                start = end + 1;
                continue;
            }
            if frame.len() > MAX_LINE_BYTES {
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                self.local_error(id, None, ErrorKind::FrameTooLarge, message);
                start = end + 1;
                continue;
            }
            let line = String::from_utf8_lossy(&buf[start..end]);
            let line = line.trim_end_matches(['\n', '\r']).trim();
            start = end + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.last_activity = now;
            }
            self.dispatch_line(id, line);
            if !self.conns.contains_key(&id) {
                return; // Dispatch closed the connection (e.g. outbox cap).
            }
        }
        buf.drain(..start);
        // An over-long tail with no newline yet: drop it now and keep
        // discarding until the next newline arrives.
        if discarding {
            buf.clear();
        } else if buf.len() > MAX_LINE_BYTES {
            discarding = true;
            buf.clear();
            let message =
                format!("request line exceeds {MAX_LINE_BYTES} bytes; discarding until newline");
            self.local_error(id, None, ErrorKind::FrameTooLarge, message);
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.rbuf = buf;
            conn.discarding = discarding;
        }
    }

    /// An error generated by the reactor itself still occupies a slot in
    /// the reply order.
    fn local_error(&mut self, id: u64, req_id: Option<String>, kind: ErrorKind, message: String) {
        self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight += 1;
        let line = proto::encode_reply(&Reply::error(req_id, kind, message));
        self.complete(id, seq, line);
    }

    fn dispatch_line(&mut self, id: u64, line: &str) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight += 1;
        let envelope = match proto::decode_request(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let line = proto::encode_reply(&e.into_reply());
                self.complete(id, seq, line);
                return;
            }
        };
        let req_id = envelope.id;
        match envelope.request {
            Request::Status => self.start_agg(id, seq, req_id, false),
            Request::Drain => {
                self.draining = true;
                self.start_agg(id, seq, req_id, true);
            }
            Request::Shutdown => {
                let line = proto::encode_reply(&Reply::ok(
                    req_id,
                    obj(vec![("stopping", Value::Bool(true))]),
                ));
                self.complete(id, seq, line);
                self.begin_stop();
            }
            Request::ReplPull {
                epoch,
                shard,
                cursor,
                addr,
                ttl_ms,
            } => {
                let line = self.serve_repl_pull(req_id, epoch, shard, cursor, addr, ttl_ms);
                self.complete(id, seq, line);
            }
            Request::ReplLease { epoch, leader_addr } => {
                let line = self.serve_repl_lease(req_id, epoch, leader_addr);
                self.complete(id, seq, line);
            }
            Request::Fail { action, spec } => {
                let line = serve_fail(req_id, &action, spec.as_deref());
                self.complete(id, seq, line);
            }
            Request::Submit { app, .. } => {
                if let Some(line) = self.refuse_if_not_leader(&req_id) {
                    self.complete(id, seq, line);
                    return;
                }
                let shard = match self.app_ids.get(&app) {
                    Some(&app_id) => self.admitting_shard(route_app(app_id, self.shards())),
                    None => route_name(&app, self.shards()),
                };
                self.send_shard(
                    shard,
                    ShardMsg::Request {
                        conn: id,
                        seq,
                        id: req_id,
                        request: Request::Submit { app, demand: None },
                    },
                );
            }
            request @ (Request::Complete { .. } | Request::TaskInfo { .. }) => {
                if matches!(request, Request::Complete { .. }) {
                    if let Some(line) = self.refuse_if_not_leader(&req_id) {
                        self.complete(id, seq, line);
                        return;
                    }
                }
                let task = match &request {
                    Request::Complete { task, .. } | Request::TaskInfo { task } => *task,
                    _ => unreachable!(),
                };
                self.send_shard(
                    stride_shard(task, self.shards()),
                    ShardMsg::Request {
                        conn: id,
                        seq,
                        id: req_id,
                        request,
                    },
                );
            }
        }
    }

    /// Where a submit whose application hashes to `home` is admitted:
    /// `home`, unless its queue-depth gauge is [`OVERFLOW_MIN_SKEW`] or
    /// more above the shallowest shard's, which then takes it.
    fn admitting_shard(&self, home: usize) -> usize {
        let depth = |shard| {
            let gauges = self.metrics.shard_gauges(shard);
            gauges.map_or(0, |g| g.queue_depth.load(Ordering::Relaxed))
        };
        let shallowest = (0..self.shards()).min_by_key(|&shard| depth(shard));
        match shallowest {
            Some(to) if depth(home) >= depth(to) + OVERFLOW_MIN_SKEW => {
                self.metrics
                    .overflow_submits
                    .fetch_add(1, Ordering::Relaxed);
                to
            }
            _ => home,
        }
    }

    fn send_shard(&mut self, shard: usize, msg: ShardMsg) {
        // A dead worker only happens during shutdown; the reply is moot.
        let _ = self.shard_txs[shard].send(msg);
    }

    /// When replication is on and this node must not ack a mutation, the
    /// rendered `not_leader` refusal: either it does not lead, or its
    /// registered follower has been silent past the TTL and may have
    /// promoted, so an ack here could be a silently lost write (the
    /// published hint then names that follower). The pass is one atomic
    /// load.
    fn refuse_if_not_leader(&self, req_id: &Option<String>) -> Option<String> {
        let repl = &self.node.as_ref()?.repl;
        if repl.admits() {
            return None;
        }
        let reply = Reply::not_leader(req_id.clone(), repl.leader_addr(), repl.epoch());
        Some(proto::encode_reply(&reply))
    }

    /// Advance a leader's clock: with a registered follower silent past
    /// the TTL, mutations suspend until it pulls again or this node is
    /// fenced. (A follower's clock is ticked by its own thread.)
    fn tick_repl_guard(&self) {
        if let Some(node) = self.node.as_ref().filter(|n| n.repl.role() == Role::Leader) {
            let _ = node.drive(RoleEvent::Tick);
        }
    }

    /// Serve one follower pull: the role machine rules on it (fence on a
    /// newer epoch, refuse when not leading, one follower per leader,
    /// lease renewed), and a served one gets a chunk from the ship log
    /// with the follower's lag recorded.
    fn serve_repl_pull(
        &mut self,
        req_id: Option<String>,
        epoch: u64,
        shard: usize,
        cursor: u64,
        addr: String,
        ttl_ms: u64,
    ) -> String {
        let Some(node) = self.node.clone() else {
            return repl_disabled(req_id);
        };
        if shard >= self.shards() {
            let reply = Reply::error(
                req_id,
                ErrorKind::Malformed,
                format!("shard {shard} out of range (shards={})", self.shards()),
            );
            return proto::encode_reply(&reply);
        }
        let repl = &node.repl;
        let effects = node.drive(RoleEvent::Pull {
            epoch,
            addr,
            ttl_ms,
        });
        let reply = match effects.unwrap_or_default().pop() {
            Some(Effect::Pull(PullVerdict::Serve | PullVerdict::Observer)) => {
                let chunk = repl.ship().pull(shard, cursor);
                self.repl_lag[shard] = chunk.ship_next.saturating_sub(chunk.next);
                let lag = self.repl_lag.iter().copied().max().unwrap_or(0);
                self.metrics.repl_lag_frames.store(lag, Ordering::Relaxed);
                let payload =
                    crate::repl::encode_pull_chunk(repl.epoch(), repl.boot(), shard, &chunk);
                Reply::ok(req_id, payload)
            }
            Some(Effect::Pull(PullVerdict::Conflict { holder })) => Reply::backpressure(
                req_id,
                format!(
                    "replication slot already held by {holder}; \
                     tracond pairs support a single follower"
                ),
                TICK_MS * 40,
            ),
            _ => Reply::not_leader(req_id, repl.leader_addr(), repl.epoch()),
        };
        proto::encode_reply(&reply)
    }

    /// Serve a peer's lease claim: the role machine fences a leader it
    /// outranks and lets anyone else adopt the epoch and hint, and the
    /// reply reports where that left this node.
    fn serve_repl_lease(
        &mut self,
        req_id: Option<String>,
        epoch: u64,
        leader_addr: String,
    ) -> String {
        // Failpoint: the lease claim is "lost" before processing — the
        // claimant retries and safety falls back to the pull-epoch fence.
        if crate::failpoint::should_fail("repl.lease", &leader_addr).is_some() {
            let reply = Reply::error(
                req_id,
                ErrorKind::Malformed,
                "failpoint injected: repl.lease".to_string(),
            );
            return proto::encode_reply(&reply);
        }
        let Some(node) = self.node.as_ref() else {
            return repl_disabled(req_id);
        };
        let _ = node.drive(RoleEvent::Lease { epoch, leader_addr });
        let payload = obj(vec![
            ("epoch", n(node.repl.epoch() as f64)),
            ("role", s(node.repl.role().as_str())),
        ]);
        proto::encode_reply(&Reply::ok(req_id, payload))
    }

    fn start_agg(&mut self, conn: u64, seq: u64, id: Option<String>, drain: bool) {
        let agg = self.next_agg;
        self.next_agg += 1;
        let shards = self.shards();
        self.aggs.insert(
            agg,
            Agg {
                conn,
                seq,
                id,
                drain,
                parts: vec![None; shards],
                remaining: shards,
            },
        );
        for shard in 0..shards {
            let msg = if drain {
                ShardMsg::Drain { agg }
            } else {
                ShardMsg::Status { agg }
            };
            self.send_shard(shard, msg);
        }
    }

    fn drain_out(&mut self) {
        while let Ok(msg) = self.out_rx.try_recv() {
            match msg {
                OutMsg::Reply { conn, seq, line } => self.complete(conn, seq, line),
                OutMsg::StatusPart { agg, shard, snap }
                | OutMsg::DrainPart { agg, shard, snap } => {
                    let done = match self.aggs.get_mut(&agg) {
                        None => false,
                        Some(entry) => {
                            if entry.parts[shard].is_none() {
                                entry.parts[shard] = Some(snap);
                                entry.remaining -= 1;
                            }
                            entry.remaining == 0
                        }
                    };
                    if done {
                        self.finish_agg(agg);
                    }
                }
                OutMsg::Drained { shard } => {
                    self.drained.insert(shard);
                    if self.drained.len() == self.shards() {
                        self.begin_stop();
                    }
                }
            }
        }
    }

    /// Render the aggregate reply for a completed fan-out.
    fn finish_agg(&mut self, agg: u64) {
        let Some(entry) = self.aggs.remove(&agg) else {
            return;
        };
        let parts: Vec<StatusSnapshot> = entry.parts.into_iter().flatten().collect();
        let line = if entry.drain {
            let result = obj(vec![
                ("draining", Value::Bool(true)),
                (
                    "queued",
                    n(parts.iter().map(|p| p.queued).sum::<usize>() as f64),
                ),
                (
                    "delayed",
                    n(parts.iter().map(|p| p.delayed).sum::<usize>() as f64),
                ),
                (
                    "running",
                    n(parts.iter().map(|p| p.running).sum::<usize>() as f64),
                ),
            ]);
            proto::encode_reply(&Reply::ok(entry.id, result))
        } else {
            status_line(&entry.id, &parts, &self.apps)
        };
        self.complete(entry.conn, entry.seq, line);
    }

    /// File a finished reply into its connection's reorder stage. In-order
    /// replies (the common case under pipelining) append straight to the
    /// outbox without touching the reorder map; the actual socket write
    /// happens in the event loop's batched flush.
    fn complete(&mut self, id: u64, seq: u64, line: String) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // Client left; drop the reply.
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        if seq == conn.next_write {
            conn.next_write += 1;
            conn.wbuf.extend_from_slice(line.as_bytes());
            conn.wbuf.push(b'\n');
            while let Some(line) = conn.pending.remove(&conn.next_write) {
                conn.next_write += 1;
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
            }
        } else {
            conn.pending.insert(seq, line);
        }
        if conn.wbuf.len() > MAX_OUTBOX_BYTES {
            self.close(id);
        }
    }

    fn flush_conn(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // Failpoint: the socket write "fails" mid-reply; clients see a
        // dropped connection with the reply possibly half-delivered.
        if !conn.http && crate::failpoint::should_fail("reactor.write", "").is_some() {
            self.close(id);
            return;
        }
        while !conn.wbuf.is_empty() {
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => {
                    self.close(id);
                    return;
                }
                Ok(count) => {
                    conn.wbuf.drain(..count);
                    conn.write_stalled_since = None;
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                    conn.write_stalled_since.get_or_insert(now);
                    return;
                }
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        if conn.http {
            self.close(id); // Answered: `Connection: close`.
        }
    }

    fn reap_timeouts(&mut self, now: Instant) {
        let idle_limit = Duration::from_millis(IDLE_TIMEOUT_MS);
        let write_limit = Duration::from_millis(WRITE_TIMEOUT_MS);
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                let idle = conn.quiescent() && now.duration_since(conn.last_activity) > idle_limit;
                let stalled = conn
                    .write_stalled_since
                    .is_some_and(|since| now.duration_since(since) > write_limit);
                idle || stalled
            })
            .map(|(&id, _)| id)
            .collect();
        for id in doomed {
            self.close(id);
        }
    }

    fn begin_stop(&mut self) {
        self.accepting = false;
        self.stop_deadline
            .get_or_insert_with(|| Instant::now() + STOP_GRACE);
    }

    fn close(&mut self, id: u64) {
        self.conns.remove(&id);
    }
}

fn repl_disabled(req_id: Option<String>) -> String {
    let message = "replication is not enabled on this node".to_string();
    proto::encode_reply(&Reply::error(req_id, ErrorKind::Malformed, message))
}

/// Serve the `fail` control verb inline: arm, disarm, or report the
/// process-wide failpoint registry. Answered by the reactor on every
/// node regardless of role — chaos tooling must be able to arm faults
/// on followers and fenced nodes, not just the leader.
fn serve_fail(req_id: Option<String>, action: &str, spec: Option<&str>) -> String {
    let reply = match action {
        "arm" => match crate::failpoint::arm(spec.unwrap_or_default()) {
            Ok(count) => Reply::ok(
                req_id,
                obj(vec![
                    ("armed", n(count as f64)),
                    ("status", s(crate::failpoint::status_line())),
                ]),
            ),
            Err(e) => Reply::error(req_id, ErrorKind::BadField, format!("fail spec: {e}")),
        },
        "disarm" => {
            // Capture the tally before disarming wipes the registry.
            let injected = crate::failpoint::injected_total();
            crate::failpoint::disarm_all();
            Reply::ok(
                req_id,
                obj(vec![("armed", n(0.0)), ("injected", n(injected as f64))]),
            )
        }
        // Decode validated the verb, so this is `status`.
        _ => Reply::ok(
            req_id,
            obj(vec![
                ("injected", n(crate::failpoint::injected_total() as f64)),
                ("status", s(crate::failpoint::status_line())),
            ]),
        ),
    };
    proto::encode_reply(&reply)
}

/// The daemon-wide `status` reply: per-shard snapshots summed and written
/// straight into the line. Field order matches the pre-sharding daemon
/// byte for byte, with one new trailing `shards` field.
fn status_line(id: &Option<String>, parts: &[StatusSnapshot], apps: &[String]) -> String {
    let sum = |count: fn(&StatusSnapshot) -> u64| n(parts.iter().map(count).sum::<u64>() as f64);
    let scheduler = parts.first().map(|p| p.scheduler).unwrap_or("");
    let mut line = ResultLine::new(id);
    line.field("apps", Strings(apps))
        .field("scheduler", Quoted(scheduler))
        .field("queued", sum(|p| p.queued as u64))
        .field("delayed", sum(|p| p.delayed as u64))
        .field("running", sum(|p| p.running as u64))
        .field("completed", sum(|p| p.completed))
        .field("dead_lettered", sum(|p| p.dead_lettered))
        .field("admitted", sum(|p| p.admitted))
        .field("rejected", sum(|p| p.rejected))
        .field("rebuilds", sum(|p| p.rebuilds as u64))
        .field("predictor_swaps", sum(|p| p.swaps as u64))
        .field("draining", parts.iter().any(|p| p.draining))
        .field("machines", sum(|p| p.machines as u64))
        .field("free_slots", sum(|p| p.free_slots as u64))
        .field("shards", n(parts.len() as f64));
    line.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(queued: usize, admitted: u64, completed: u64) -> StatusSnapshot {
        StatusSnapshot {
            queued,
            delayed: 0,
            running: 0,
            completed,
            dead_lettered: 0,
            admitted,
            rejected: 0,
            rebuilds: 0,
            swaps: 0,
            draining: false,
            machines: 2,
            free_slots: 4,
            scheduler: "mios",
        }
    }

    #[test]
    fn aggregate_status_sums_counters_and_keeps_field_order() {
        let parts = [snap(1, 5, 2), snap(3, 7, 4)];
        let line = status_line(&Some("s-1".into()), &parts, &["grep".into()]);
        let reply = crate::json::parse(&line).unwrap();
        assert_eq!(reply.get("id").and_then(Value::as_str), Some("s-1"));
        let value = reply.get("result").unwrap();
        assert_eq!(value.get("queued").and_then(Value::as_u64), Some(4));
        assert_eq!(value.get("admitted").and_then(Value::as_u64), Some(12));
        assert_eq!(value.get("completed").and_then(Value::as_u64), Some(6));
        assert_eq!(value.get("machines").and_then(Value::as_u64), Some(4));
        assert_eq!(value.get("shards").and_then(Value::as_u64), Some(2));
        let apps_pos = line.find("\"apps\"").unwrap();
        let sched_pos = line.find("\"scheduler\"").unwrap();
        let queued_pos = line.find("\"queued\"").unwrap();
        assert!(apps_pos < sched_pos && sched_pos < queued_pos);
    }

    /// The `status` payload as the reactor built it before the line was
    /// written directly: the reference for `status_line`'s bytes.
    fn old_aggregate_status(parts: &[StatusSnapshot], apps: &[String]) -> Value {
        let apps = Value::Arr(apps.iter().map(|name| s(name.as_str())).collect());
        let scheduler = parts.first().map(|p| p.scheduler).unwrap_or("");
        obj(vec![
            ("apps", apps),
            ("scheduler", s(scheduler)),
            (
                "queued",
                n(parts.iter().map(|p| p.queued).sum::<usize>() as f64),
            ),
            (
                "delayed",
                n(parts.iter().map(|p| p.delayed).sum::<usize>() as f64),
            ),
            (
                "running",
                n(parts.iter().map(|p| p.running).sum::<usize>() as f64),
            ),
            (
                "completed",
                n(parts.iter().map(|p| p.completed).sum::<u64>() as f64),
            ),
            (
                "dead_lettered",
                n(parts.iter().map(|p| p.dead_lettered).sum::<u64>() as f64),
            ),
            (
                "admitted",
                n(parts.iter().map(|p| p.admitted).sum::<u64>() as f64),
            ),
            (
                "rejected",
                n(parts.iter().map(|p| p.rejected).sum::<u64>() as f64),
            ),
            (
                "rebuilds",
                n(parts.iter().map(|p| p.rebuilds).sum::<usize>() as f64),
            ),
            (
                "predictor_swaps",
                n(parts.iter().map(|p| p.swaps).sum::<usize>() as f64),
            ),
            ("draining", Value::Bool(parts.iter().any(|p| p.draining))),
            (
                "machines",
                n(parts.iter().map(|p| p.machines).sum::<usize>() as f64),
            ),
            (
                "free_slots",
                n(parts.iter().map(|p| p.free_slots).sum::<usize>() as f64),
            ),
            ("shards", n(parts.len() as f64)),
        ])
    }

    #[test]
    fn status_line_writes_the_old_status_bytes() {
        use tracon_stats::prng::{check_cases, ChaCha12};
        const SCHEDULERS: [&str; 4] = ["fifo", "mios", "mibs", "a \"quoted\"\n name"];
        const NAMES: [&str; 6] = ["video", "dedup", "", "é\u{1}", "🦀\\", "grep"];
        // Counts of every size: small, near the 1e15 cut, and huge (past
        // 2^53, where the sum is rounded as an f64 either way).
        let count = |rng: &mut ChaCha12| match rng.range_usize(0, 3) {
            0 => rng.range_usize(0, 1_000) as u64,
            1 => (1u64 << 49) + (rng.next_u64() >> 14),
            _ => rng.next_u64() >> 3,
        };
        check_cases(0..2_000, |rng| {
            let parts: Vec<StatusSnapshot> = (0..rng.range_usize(0, 6))
                .map(|_| StatusSnapshot {
                    queued: count(rng) as usize,
                    delayed: count(rng) as usize,
                    running: count(rng) as usize,
                    completed: count(rng),
                    dead_lettered: count(rng),
                    admitted: count(rng),
                    rejected: count(rng),
                    rebuilds: count(rng) as usize,
                    swaps: count(rng) as usize,
                    draining: rng.range_usize(0, 4) == 0,
                    machines: count(rng) as usize,
                    free_slots: count(rng) as usize,
                    scheduler: SCHEDULERS[rng.range_usize(0, SCHEDULERS.len())],
                })
                .collect();
            let apps: Vec<String> = (0..rng.range_usize(0, 9))
                .map(|_| NAMES[rng.range_usize(0, NAMES.len())].to_string())
                .collect();
            let id = match rng.range_usize(0, 3) {
                0 => None,
                1 => Some("c7-12".to_string()),
                _ => Some("\"\t🦀".to_string()),
            };
            let old =
                proto::encode_reply(&Reply::ok(id.clone(), old_aggregate_status(&parts, &apps)));
            assert_eq!(status_line(&id, &parts, &apps), old, "{parts:?} {apps:?}");
        });
    }

    #[test]
    fn poll_wrapper_reports_a_readable_pipe() {
        use std::os::unix::net::UnixStream;
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(&[9]).unwrap();
        let mut fds = [sys::PollFd {
            fd: a.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        let ready = sys::poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].revents & sys::POLLIN != 0);
    }
}
