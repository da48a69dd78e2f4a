//! The tracond network front end: the poll-based connection reactor for
//! the newline-delimited JSON protocol, `N` scheduler-shard worker
//! threads, and a minimal HTTP listener for `/healthz` and `/metrics`.
//!
//! Everything is hand-rolled on `std::net` and `std::sync::mpsc`. The
//! reactor thread (`crate::reactor`) owns every protocol socket and
//! decodes and routes requests; each worker thread exclusively owns one
//! [`Service`] shard — no mutex anywhere on the request path. Workers
//! self-tick on their channel's receive timeout, so batch-deadline
//! dispatch and lease expiry keep running under load or silence alike.
//! The HTTP listener stays thread-per-connection (two tiny GET
//! endpoints), reaping finished handles on every accept pass so a
//! long-lived daemon cannot accumulate dead threads.

use std::collections::HashMap;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tracon_core::AppId;
use tracon_dcsim::Testbed;

use crate::json::{n, obj, Quoted, Value};
use crate::metrics::Metrics;
use crate::proto::{encode_reply, Demand, ErrorKind, Reply, Request, ResultLine};
use crate::reactor::{self, OutMsg, OutSender, ReactorConfig, ShardMsg};
use crate::repl::{
    follower::{probe_peer, run_follower, sleep_or_shutdown, FollowerConfig, Node},
    read_sidecar, ReplState, Role, RoleEvent, RoleState, ShipLog,
};
use crate::shard::{recover_dir, restore_shards, shard_machines};
use crate::state::{Refusal, ServeConfig, Service};
use crate::table::RecState;
use crate::wal::{existing_shard_count, remove_shard_files};

/// Network-layer knobs, separate from the scheduling policy in
/// [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Submission listener address; port 0 binds an ephemeral port.
    pub addr: String,
    /// HTTP (healthz/metrics) listener address; port 0 works here too.
    pub http_addr: String,
    /// A connection with no complete line for this long is closed.
    pub idle_timeout_ms: u64,
    /// Per-write timeout before a stalled client is disconnected.
    pub write_timeout_ms: u64,
    /// Longest accepted request line; longer lines are rejected.
    pub max_line_bytes: usize,
    /// Poll interval for the reactor, worker self-ticks, and the HTTP
    /// accept loop.
    pub tick_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            http_addr: "127.0.0.1:0".to_string(),
            idle_timeout_ms: 30_000,
            write_timeout_ms: 2_000,
            max_line_bytes: 64 * 1024,
            tick_ms: 25,
        }
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`DaemonHandle::stop`] or let a drain/shutdown request end it, then
/// [`DaemonHandle::join`].
pub struct DaemonHandle {
    /// Actual submission listener address (resolved ephemeral port).
    pub addr: SocketAddr,
    /// Actual HTTP listener address.
    pub http_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    core_threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl DaemonHandle {
    /// The shared metrics registry (for in-process inspection).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// True once the daemon has been asked to stop.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request an immediate stop (equivalent to a `shutdown` op).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the daemon to stop and every spawned thread to exit.
    /// Panics if any thread panicked, which would mean a protocol line
    /// escaped the decode layer's totality guarantee.
    pub fn join(mut self) {
        let mut panicked = 0usize;
        for handle in self.core_threads.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        let mut conns = match self.conn_threads.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for handle in conns.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        assert!(panicked == 0, "{panicked} daemon thread(s) panicked");
    }
}

/// Boot a daemon: build the shard services (recovering from every WAL in
/// `cfg.wal_dir` when set), bind both listeners, spawn the reactor, the
/// workers, and the HTTP accept loop, and return once the ports are live.
pub fn start(testbed: &Testbed, cfg: ServeConfig, net: NetConfig) -> std::io::Result<DaemonHandle> {
    let shards = cfg.shards.max(1);
    if shards > cfg.machines {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} shards over {} machines: every shard needs at least one machine",
                shards, cfg.machines
            ),
        ));
    }
    // Boot-time fault arming for torture harnesses: a daemon started
    // with TRACON_FAILPOINTS=<spec> comes up with the registry armed, so
    // CI can inject faults into a node it can only reach after boot.
    if let Ok(spec) = std::env::var("TRACON_FAILPOINTS") {
        if !spec.trim().is_empty() {
            crate::failpoint::arm(&spec).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("TRACON_FAILPOINTS: {e}"),
                )
            })?;
        }
    }
    let metrics = Arc::new(Metrics::with_shards(shards));
    let slices = shard_machines(cfg.machines, shards);
    let mut services: Vec<Service> = slices
        .iter()
        .enumerate()
        .map(|(shard, &(base, count))| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.machines = count;
            Service::new_shard(
                testbed,
                shard_cfg,
                Arc::clone(&metrics),
                shard,
                shards,
                base,
            )
        })
        .collect();

    // Decode-time routing table: profiled name -> interned id, and the
    // names `status` lists. Every shard builds the identical registry, so
    // shard 0's will do.
    let apps: Vec<String> = services[0].app_list().to_vec();
    let app_ids: HashMap<String, AppId> = apps
        .iter()
        .filter_map(|name| services[0].app_id(name).map(|id| (name.clone(), id)))
        .collect();

    if cfg.replica_of.is_some() && cfg.wal_dir.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "replica mode (--replica-of) requires a WAL directory",
        ));
    }

    // Bind the listeners before replication boot: the WAL-backed leader
    // path probes its recorded peer and needs this node's own address
    // for the probe's leader hint.
    let listener = TcpListener::bind(&net.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let http_listener = TcpListener::bind(&net.http_addr)?;
    http_listener.set_nonblocking(true)?;
    let http_addr = http_listener.local_addr()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));
    let (shard_txs, shard_rxs): (Vec<_>, Vec<_>) =
        (0..shards).map(|_| mpsc::channel::<ShardMsg>()).unzip();

    let mut node: Option<Arc<Node>> = None;
    if let Some(dir) = cfg.wal_dir.clone() {
        let ship = Arc::new(ShipLog::new(shards));
        for svc in &mut services {
            svc.attach_shipper(Arc::clone(&ship));
        }
        // Before anything is wiped or claimed: a sidecar that exists but
        // cannot be read refuses the boot instead of reading as a fresh
        // node (which would lead at epoch 1 next to the real leader).
        let sidecar = read_sidecar(&dir)?;
        let follower_wals = if cfg.replica_of.is_some() {
            // Follower: local shard state is a cache of the leader's
            // stream. Wipe it (a rejoining stale leader must not
            // resurrect a divergent tail) and resync from cursor zero —
            // the snapshot-install path covers any gap. The epoch
            // sidecar survives the wipe on purpose.
            for shard in 0..existing_shard_count(&dir).max(shards) {
                remove_shard_files(&dir, shard)?;
            }
            recover_dir(&dir, shards, cfg.wal_snapshot_every, &|_| None)?.0
        } else {
            let (wals, recovery) = recover_dir(&dir, shards, cfg.wal_snapshot_every, &|_| None)?;
            metrics
                .wal_replayed_records
                .store(recovery.replayed_records, Ordering::Relaxed);
            let old_shards = recovery.old_shards;
            restore_shards(&mut services, wals, recovery, Instant::now());
            // Only now that every survivor is snapshotted under the new
            // layout can files from a larger previous shard count go.
            for stale in shards..old_shards {
                remove_shard_files(&dir, stale)?;
            }
            Vec::new()
        };
        let repl_cfg = FollowerConfig {
            self_addr: addr.to_string(),
            dir,
            shards,
            snapshot_every: cfg.wal_snapshot_every,
            ttl_ms: cfg.repl_ttl_ms,
            poll_ms: cfg.repl_poll_ms,
        };
        // Every WAL-backed node is leader-capable, but one that ran
        // inside a pair must not blindly re-claim leadership: its
        // follower may have promoted while it was down, and the promoted
        // leader's bounded lease retries fired into the void. So the
        // boot is a transition like any other — from what the sidecar
        // last said, on what the recorded peer answers now.
        let state =
            RoleState::from_sidecar(&repl_cfg.self_addr, repl_cfg.ttl_ms, shards, &sidecar, 0);
        let probe = match cfg.replica_of {
            Some(_) => None,
            None => state
                .probe(true)
                .and_then(|(peer, epoch)| probe_peer(peer, epoch, &repl_cfg.self_addr)),
        };
        let booted = Arc::new(Node {
            repl: Arc::new(ReplState::new(
                state,
                ship,
                Arc::clone(&metrics),
                boot_nonce(),
            )),
            cfg: repl_cfg,
            shard_txs: shard_txs.clone(),
            shutdown: Arc::clone(&shutdown),
            wals: Mutex::new(follower_wals),
        });
        booted.drive(RoleEvent::Boot {
            replica_of: cfg.replica_of.clone(),
            probe,
        })?;
        node = Some(booted);
    }

    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let tick = Duration::from_millis(net.tick_ms.max(1));
    let mut core_threads = Vec::new();

    // The shared out channel + wake pipe.
    let (out_tx, out_rx) = mpsc::channel::<OutMsg>();
    let (wake_rx, wake_tx) = std::os::unix::net::UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let out = OutSender::new(out_tx, wake_tx);

    for (i, (svc, rx)) in services.into_iter().zip(shard_rxs).enumerate() {
        let out = out.clone();
        let shutdown = Arc::clone(&shutdown);
        core_threads.push(spawn_named(format!("tracond-shard{i}"), move || {
            shard_worker(svc, rx, out, shutdown, tick);
        })?);
    }

    if let Some(node) = &node {
        // The follower replication thread: pulls WAL frames from the
        // leader and promotes this node when the leader's lease lapses.
        if cfg.replica_of.is_some() {
            let node = Arc::clone(node);
            core_threads.push(spawn_named("tracond-follow".into(), move || {
                run_follower(&node)
            })?);
        }
        // Background WAL scrubber for leader/standalone nodes (a follower
        // scrubs inline in its pull loop, where it can also repair), plus
        // the self-healing rejoin supervisor.
        let scrubbed = Arc::clone(node);
        core_threads.push(spawn_named("tracond-scrub".into(), move || {
            scrub_loop(&scrubbed)
        })?);
        let node = Arc::clone(node);
        core_threads.push(spawn_named("tracond-rejoin".into(), move || {
            rejoin_supervisor(&node)
        })?);
    }

    // The reactor thread: owns the protocol listener and every client.
    {
        let reactor_cfg = ReactorConfig {
            listener,
            net: net.clone(),
            shard_txs,
            out_rx,
            wake_rx,
            shutdown: Arc::clone(&shutdown),
            draining: Arc::clone(&draining),
            metrics: Arc::clone(&metrics),
            app_ids,
            apps,
            node,
        };
        core_threads.push(spawn_named("tracond-reactor".into(), move || {
            reactor::run(reactor_cfg)
        })?);
    }

    // HTTP accept loop: one short-lived thread per connection, finished
    // handles reaped every pass so the Vec stays bounded by concurrency,
    // not by daemon lifetime.
    {
        let shutdown = Arc::clone(&shutdown);
        let draining = Arc::clone(&draining);
        let metrics = Arc::clone(&metrics);
        let conn_threads = Arc::clone(&conn_threads);
        core_threads.push(spawn_named("tracond-http".into(), move || {
            while !shutdown.load(Ordering::SeqCst) {
                match http_listener.accept() {
                    Ok((stream, _)) => {
                        let draining = Arc::clone(&draining);
                        let metrics = Arc::clone(&metrics);
                        let handle = std::thread::spawn(move || {
                            serve_http(stream, &draining, &metrics);
                        });
                        let mut guard = match conn_threads.lock() {
                            Ok(guard) => guard,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        guard.push(handle);
                        reap_finished(&mut guard);
                    }
                    Err(e) if e.kind() == IoErrorKind::WouldBlock => std::thread::sleep(tick),
                    Err(_) => std::thread::sleep(tick),
                }
            }
        })?);
    }

    Ok(DaemonHandle {
        addr,
        http_addr,
        shutdown,
        metrics,
        core_threads,
        conn_threads,
    })
}

/// Spawns a daemon thread under `name`, which `top -H` and
/// `/proc/<pid>/task/*/comm` show. Linux keeps a name's first 15 bytes,
/// which hold every name here up to shard 99.
fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
}

/// A per-process boot nonce for the replication protocol: pull replies
/// carry it so followers detect a leader restart (whose ship sequence
/// numbering restarted with it) and reset their cursors instead of
/// silently skipping frames.
fn boot_nonce() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    // Never zero, and distinct across same-nanosecond restarts in tests.
    (nanos ^ (u64::from(std::process::id()) << 32)) | 1
}

/// Cadence of the leader/standalone background WAL scrubber.
const SCRUB_LOOP_MS: u64 = 2_000;

/// Background scrub for nodes whose WAL is authoritative (standalone, or
/// the current leader of a pair — a follower scrubs inline in its pull
/// loop). It only flags: each shard worker, the one writer of its log,
/// heals a rotten shard at its next wake by compacting the table it
/// holds, which covers everything replay could have read and everything
/// appended since this pass read the files.
fn scrub_loop(node: &Node) {
    let (dir, metrics) = (&node.cfg.dir, node.repl.metrics());
    while !sleep_or_shutdown(&node.shutdown, SCRUB_LOOP_MS) {
        if node.repl.role() == Role::Leader {
            crate::wal::scrub_pass(dir, node.cfg.shards, metrics);
        }
    }
}

/// How often a fenced node probes for a live leader to rejoin under.
const REJOIN_PROBE_MS: u64 = 300;

/// The self-healing rejoin supervisor: a node fenced mid-flight (by a
/// promoted peer's lease, a higher-epoch pull, or the boot probe) keeps
/// probing its leader hint and feeds every answer to the role machine.
/// Once a live leader answers there the machine demotes the node — every
/// shard worker surrenders its state and WAL handle, the shard files are
/// wiped, the sidecar says follower — and this thread becomes the
/// follower loop until the node promotes again. Loops for the life of
/// the daemon so the pair survives any number of role swaps.
fn rejoin_supervisor(node: &Node) {
    while !sleep_or_shutdown(&node.shutdown, REJOIN_PROBE_MS) {
        let state = node.repl.state();
        if state.role() != Role::Fenced {
            continue;
        }
        let asked = state.probe(false);
        let Some((epoch, role)) = asked.and_then(|(to, at)| probe_peer(to, at, &state.me)) else {
            continue;
        };
        // Refused (the hint does not lead) or failed (a wipe error, a
        // shutdown mid-demote): still fenced, asked again next round.
        let _ = node.drive(RoleEvent::ProbeResult { epoch, role });
        if node.repl.role() == Role::Follower {
            run_follower(node);
        }
    }
}

/// Join every connection thread that has already returned, keeping the
/// Vec's length proportional to live connections.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One shard's worker loop: exclusively owns its [`Service`] — every task
/// whose id names this shard, for the task's whole life — answers the
/// requests routed to it, and contributes fan-out parts. Self-ticks at
/// the net tick interval so time-driven work (batch deadlines, lease
/// expiry, backoff promotion) never waits on traffic.
fn shard_worker(
    mut svc: Service,
    rx: Receiver<ShardMsg>,
    out: OutSender,
    shutdown: Arc<AtomicBool>,
    tick: Duration,
) {
    /// Upper bound on messages handled per wake, so a deep request
    /// backlog cannot starve the lease/backoff tick indefinitely.
    const WORKER_BATCH: usize = 256;

    let shard = svc.shard();
    let mut drained_sent = false;
    let mut last_tick = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let first = match rx.recv_timeout(tick) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let now = Instant::now();
        // Drain greedily: answer everything already queued under one
        // timestamp and one WAL commit, and send the reactor one wake for
        // the whole batch, not one pipe write per reply.
        let queued = first
            .into_iter()
            .chain(std::iter::from_fn(|| rx.try_recv().ok()))
            .take(WORKER_BATCH);
        let tick_due = now.duration_since(last_tick) >= tick;
        if tick_due {
            last_tick = now;
        }
        let mut sent = false;
        run_batch(&mut svc, queued, now, tick_due, |msg| {
            out.send_quiet(msg);
            sent = true;
        });
        if !drained_sent && svc.draining() && svc.drained() {
            drained_sent = true;
            out.send(OutMsg::Drained { shard });
        } else if sent {
            out.wake();
        }
    }
}

/// Outbound messages of one batch. While the batch has logged nothing
/// they go straight to the reactor; from the first uncommitted WAL record
/// on they are held, so no client or follower sees an effect before the
/// record behind it is on disk.
struct Outbox<E: FnMut(OutMsg)> {
    emit: E,
    held: Vec<OutMsg>,
}

impl<E: FnMut(OutMsg)> Outbox<E> {
    fn send(&mut self, svc: &Service, msg: OutMsg) {
        if svc.wal_pending() {
            self.held.push(msg);
        } else {
            (self.emit)(msg);
        }
    }

    /// Commit what the batch has logged so far, then let go of everything
    /// that waited for it. A failed commit releases too: the shard has
    /// degraded to memory and availability wins (see `wal_append_batch`).
    fn commit(&mut self, svc: &mut Service) {
        svc.wal_commit_pending();
        self.held.drain(..).for_each(&mut self.emit);
    }
}

/// One wake of the worker: handle `msgs` and the tick that follows them
/// as one WAL transaction — one write, one fsync, one ship push for the
/// whole batch — handing every outbound message to `emit`, those that
/// depend on the commit only after it. Batching is whatever was queued
/// when the worker woke: a lone request commits alone, at once.
/// Last, with nothing pending, a shard a scrub flagged rotten compacts.
fn run_batch(
    svc: &mut Service,
    msgs: impl Iterator<Item = ShardMsg>,
    now: Instant,
    tick_due: bool,
    emit: impl FnMut(OutMsg),
) {
    let shard = svc.shard();
    let mut outbox = Outbox {
        emit,
        held: Vec::new(),
    };
    svc.wal_transaction(|svc| {
        for msg in msgs {
            match msg {
                ShardMsg::Request {
                    conn,
                    seq,
                    id,
                    request,
                } => {
                    let line = answer(svc, id, request, now);
                    outbox.send(svc, OutMsg::Reply { conn, seq, line });
                }
                ShardMsg::Status { agg } => {
                    let part = OutMsg::StatusPart {
                        agg,
                        shard,
                        snap: svc.status(),
                    };
                    outbox.send(svc, part);
                }
                ShardMsg::Drain { agg } => {
                    let snap = svc.drain(now);
                    outbox.send(svc, OutMsg::DrainPart { agg, shard, snap });
                }
                ShardMsg::Promote {
                    wal,
                    tasks,
                    next_task_id,
                } => {
                    // This shard's half of a follower promotion: adopt
                    // the replayed state and the now-writable WAL. FIFO
                    // order guarantees this lands before any client
                    // request the reactor routed after the role flip.
                    // What the batch logged so far belongs to the old
                    // log (or the ship alone), so it commits first.
                    outbox.commit(svc);
                    svc.restore(wal, tasks, next_task_id, now);
                }
                ShardMsg::Demote { done } => {
                    // The rejoin supervisor is folding this fenced node
                    // back into a follower: drop every task and the WAL
                    // handle so the shard files can be wiped and resynced
                    // from the new leader's snapshot. Commit first, while
                    // there is still a file to commit to.
                    outbox.commit(svc);
                    svc.demote();
                    let _ = done.send(());
                }
            }
        }
        if tick_due {
            svc.tick(now);
        }
        outbox.commit(svc);
        svc.heal_rot();
    });
}

/// Execute one routed request against this shard's service and write
/// its reply line. Machine indices in replies are translated from
/// shard-local to global through the shard's machine base, so clients
/// see one coherent cluster. Success results are written field by field
/// (`ResultLine`); refusals and errors go through `encode_reply`.
fn answer(svc: &mut Service, id: Option<String>, request: Request, now: Instant) -> String {
    let base = svc.machine_base();
    let refused = match request {
        Request::Submit { app, demand } => {
            match svc.submit_with_demand(&app, demand.unwrap_or_default(), now) {
                Ok(admitted) => {
                    let mut line = ResultLine::new(&id);
                    line.field("task", n(admitted.task as f64));
                    match admitted.placement {
                        Some((vm, score, runtime)) => line
                            .field("state", Quoted("placed"))
                            .field("machine", n((vm.machine + base) as f64))
                            .field("slot", n(vm.slot as f64))
                            .field("predicted_score", n(score))
                            .field("predicted_runtime", n(runtime)),
                        None => line
                            .field("state", Quoted("queued"))
                            .field("depth", n(admitted.depth as f64)),
                    };
                    return line.finish();
                }
                Err(refusal) => refusal_reply(id, refusal),
            }
        }
        Request::Complete {
            task,
            runtime,
            iops,
        } => match svc.complete(task, runtime, iops, now) {
            Ok(done) => {
                let mut line = ResultLine::new(&id);
                line.field("task", n(task as f64))
                    .field("recorded", true)
                    .field("rebuilt", done.rebuilt)
                    .field("predictor_swapped", done.swapped)
                    .field("dispatched", n(done.dispatched as f64));
                return line.finish();
            }
            Err(refusal) => refusal_reply(id, refusal),
        },
        Request::TaskInfo { task } => match svc.task_info(task) {
            Some((row, volatile)) => {
                let mut line = ResultLine::new(&id);
                line.field("task", n(task as f64))
                    .field("app", Quoted(svc.app_name(row.app as usize)));
                if let Some(demand) = volatile.map(|v| &v.demand).filter(|d| !d.is_empty()) {
                    line.field("demand", Demand(demand));
                }
                match (row.state, volatile.and_then(|v| v.placement)) {
                    (RecState::Leased, Some(placed)) => {
                        line.field("state", Quoted("running"))
                            .field("machine", n((placed.vm.machine + base) as f64))
                            .field("slot", n(placed.vm.slot as f64));
                        match placed.neighbor {
                            Some(idx) => line.field("neighbor", Quoted(svc.app_name(idx))),
                            None => line.field("neighbor", Value::Null),
                        };
                        line.field("predicted_score", n(placed.predicted_score))
                            .field("predicted_runtime", n(placed.predicted_runtime))
                            .field("attempt", n(f64::from(row.attempts)));
                    }
                    (RecState::Completed, _) => {
                        line.field("state", Quoted("completed"))
                            .field("runtime", n(row.runtime));
                    }
                    (RecState::DeadLettered, _) => {
                        line.field("state", Quoted("dead_lettered"))
                            .field("attempts", n(f64::from(row.attempts)));
                    }
                    _ => {
                        line.field("state", Quoted("queued"));
                    }
                }
                return line.finish();
            }
            None => Reply::error(id, ErrorKind::UnknownTask, format!("no task {task}")),
        },
        // Status/Drain/Shutdown never reach a worker (fan-out and the
        // stop sequence are the reactor's); decode totality means any
        // hole here still answers.
        other => Reply::error(
            id,
            ErrorKind::Malformed,
            format!("request {other:?} is not shard-routable"),
        ),
    };
    encode_reply(&refused)
}

/// Retry hint attached to backpressure rejections.
const RETRY_AFTER_MS: u64 = 50;

fn refusal_reply(id: Option<String>, refusal: Refusal) -> Reply {
    match refusal {
        Refusal::QueueFull { depth } => Reply::backpressure(
            id,
            format!("admission queue full (depth {depth})"),
            RETRY_AFTER_MS,
        ),
        Refusal::Draining => Reply::error(id, ErrorKind::Draining, "daemon is draining"),
        Refusal::UnknownApp { name } => Reply::error(
            id,
            ErrorKind::UnknownApp,
            format!("application '{name}' was never profiled"),
        ),
        Refusal::UnknownTask { task } => {
            Reply::error(id, ErrorKind::UnknownTask, format!("no task {task}"))
        }
        Refusal::NotRunning { task } => Reply::error(
            id,
            ErrorKind::UnknownTask,
            format!("task {task} is not running"),
        ),
    }
}

/// Answer one HTTP connection: `GET /healthz` or `GET /metrics`.
fn serve_http(mut stream: TcpStream, draining: &AtomicBool, metrics: &Arc<Metrics>) {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(1_000)))
        .ok();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the header terminator; these are tiny GET requests. The
    // hard deadline reaps clients that trickle bytes to dodge the read
    // timeout, so one slow connection cannot pin its thread forever.
    let deadline = Instant::now() + Duration::from_millis(2_000);
    loop {
        if Instant::now() > deadline {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(count) => {
                buf.extend_from_slice(&chunk[..count]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let (status, content_type, body) = match path {
        "/healthz" => {
            // `?strict=1` turns silent storage degradation into a
            // non-200 so orchestrators can page on it: a daemon with a
            // shard whose files lack something it acked is up, but not
            // durable.
            let strict = query.split('&').any(|kv| kv == "strict=1");
            let degraded = metrics.wal_degraded();
            let failing = strict && degraded;
            (
                if failing {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                },
                "application/json",
                obj(vec![
                    ("ok", Value::Bool(!failing)),
                    ("draining", Value::Bool(draining.load(Ordering::SeqCst))),
                    ("wal_degraded", Value::Bool(degraded)),
                ])
                .to_string(),
            )
        }
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            metrics.render_prometheus(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::path::{Path, PathBuf};

    use crate::metrics::Degraded;
    use crate::state::SchedKind;
    use crate::wal::Wal;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracond-batch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn testbed() -> &'static Testbed {
        static TESTBED: std::sync::OnceLock<Testbed> = std::sync::OnceLock::new();
        TESTBED.get_or_init(|| {
            let mut testbed_cfg = tracon_dcsim::TestbedConfig::small();
            testbed_cfg.calibration_points = 6;
            testbed_cfg.time_scale = 0.05;
            Testbed::build(&testbed_cfg)
        })
    }

    /// 32 x 4 slots: every submit of these tests places.
    fn config(wal_dir: Option<&Path>) -> ServeConfig {
        ServeConfig {
            machines: 32,
            slots_per_machine: 4,
            scheduler: SchedKind::Mios,
            queue_capacity: 256,
            wal_dir: wal_dir.map(Path::to_path_buf),
            ..ServeConfig::default()
        }
    }

    /// One shard, durable when `wal_dir` is given.
    fn service(wal_dir: Option<&Path>, metrics: &Arc<Metrics>) -> Service {
        let (cfg, metrics) = (config(wal_dir), Arc::clone(metrics));
        Service::open(testbed(), cfg, metrics, Instant::now()).unwrap()
    }

    /// What a restart would find: `Service::open` over a copy of `dir`
    /// (the original keeps its writer, and opening compacts).
    fn reopened(dir: &Path) -> Service {
        let copy = dir.with_extension("reopened");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let svc = service(Some(&copy), &Arc::new(Metrics::new()));
        let _ = std::fs::remove_dir_all(&copy);
        svc
    }

    /// Flip one payload byte of the first frame in `dir`'s shard-0 log.
    fn rot_first_frame(dir: &Path) {
        let log = dir.join(crate::wal::shard_log_name(0));
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(&log, &bytes).unwrap();
    }

    fn request(seq: u64, request: Request) -> ShardMsg {
        ShardMsg::Request {
            conn: 1,
            seq,
            id: None,
            request,
        }
    }

    fn submit(seq: u64, app: &str) -> ShardMsg {
        let app = app.to_string();
        request(seq, Request::Submit { app, demand: None })
    }

    fn complete(seq: u64, task: u64) -> ShardMsg {
        let done = Request::Complete {
            task,
            runtime: 1.5,
            iops: 90.0,
        };
        request(seq, done)
    }

    /// Run `msgs` as one worker wake and return every released message
    /// with how many messages had been taken off the queue when it was
    /// released; `at_release` runs at each release, before it is recorded.
    fn drive(
        svc: &mut Service,
        msgs: Vec<ShardMsg>,
        mut at_release: impl FnMut(),
    ) -> Vec<(usize, OutMsg)> {
        let taken = Cell::new(0);
        let mut released = Vec::new();
        let queued = msgs.into_iter().inspect(|_| taken.set(taken.get() + 1));
        run_batch(svc, queued, Instant::now(), true, |msg| {
            at_release();
            released.push((taken.get(), msg));
        });
        released
    }

    /// The `task` a successful reply names; panics on anything else.
    fn replied_task(msg: &OutMsg) -> u64 {
        let OutMsg::Reply { line, .. } = msg else {
            panic!("not a reply");
        };
        let reply = crate::json::parse(line).unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{line}");
        let result = reply.get("result").unwrap();
        result.get("task").and_then(Value::as_u64).unwrap()
    }

    fn recovered_states(dir: &Path) -> HashMap<u64, RecState> {
        let (_, recovery) = recover_dir(dir, 1, 4096, &|_| None).unwrap();
        let states = recovery.tasks.iter().map(|t| (t.rec.task, t.rec.state));
        states.collect()
    }

    fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn a_drained_batch_costs_one_fsync_and_releases_nothing_ahead_of_it() {
        let dir = tmpdir("commit");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        let app = svc.app_list()[0].clone();
        let msgs: Vec<ShardMsg> = (0..64)
            .map(|i| submit(i, &app))
            .chain((0..32).map(|i| complete(64 + i, i + 1)))
            .collect();
        // What a kill -9 would leave behind, read at the first release.
        let mut on_disk = None;
        let released = drive(&mut svc, msgs, || {
            on_disk.get_or_insert_with(|| recovered_states(&dir));
        });
        assert_eq!(load(&metrics.wal_fsyncs), 1);
        // 64 x (submit + lease) + 32 x complete.
        assert_eq!(load(&metrics.wal_records), 160);
        assert_eq!(load(&metrics.wal_errors), 0);
        assert_eq!(released.len(), 96);
        let on_disk = on_disk.unwrap();
        for (i, (taken, msg)) in released.iter().enumerate() {
            assert_eq!(*taken, 96, "reply {i} left before the batch was handled");
            let task = replied_task(msg);
            let want = if i >= 64 || task <= 32 {
                RecState::Completed
            } else {
                RecState::Leased
            };
            assert_eq!(on_disk.get(&task), Some(&want), "task {task} of reply {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_batch_commit_degrades_once_and_still_answers() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let dir = tmpdir("commit-fails");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        let app = svc.app_list()[0].clone();
        let msgs: Vec<ShardMsg> = (0..64)
            .map(|i| submit(i, &app))
            .chain((0..32).map(|i| complete(64 + i, i + 1)))
            .collect();
        crate::failpoint::arm(&format!("wal.append.sync@{}=err", dir.display())).unwrap();
        let released = drive(&mut svc, msgs, || {});
        crate::failpoint::disarm_all();
        assert_eq!(released.len(), 96);
        released.iter().for_each(|(_, msg)| {
            replied_task(msg);
        });
        assert_eq!(load(&metrics.wal_errors), 1, "one failed commit, not 96");
        assert_eq!(metrics.degraded(0), Some(Degraded::WriteFailed));
        assert_eq!(load(&metrics.wal_fsyncs), 0);
        assert!(svc.status().conserved());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demote_mid_batch_commits_to_the_log_it_is_about_to_drop() {
        let dir = tmpdir("demote");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        let app = svc.app_list()[0].clone();
        let (done, done_rx) = mpsc::channel();
        let msgs = vec![submit(0, &app), ShardMsg::Demote { done }];
        let released = drive(&mut svc, msgs, || {
            assert!(done_rx.try_recv().is_err(), "acked before the release");
        });
        assert_eq!(released.len(), 1);
        let task = replied_task(&released[0].1);
        assert!(done_rx.try_recv().is_ok());
        assert_eq!(svc.status().admitted, 0, "demoted");
        assert_eq!(recovered_states(&dir).get(&task), Some(&RecState::Leased));
        assert_eq!(load(&metrics.wal_records), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_mid_batch_splits_the_records_between_old_and_new_log() {
        let (old_dir, new_dir) = (tmpdir("promote-old"), tmpdir("promote-new"));
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&old_dir), &metrics);
        let app = svc.app_list()[0].clone();
        let (wal, _) = Wal::open(&new_dir, 4096).unwrap();
        let promote = ShardMsg::Promote {
            wal: Some(wal),
            tasks: Vec::new(),
            next_task_id: 100,
        };
        let msgs = vec![submit(0, &app), promote, submit(1, &app)];
        let released = drive(&mut svc, msgs, || {});
        drop(svc);
        let tasks: Vec<u64> = released.iter().map(|(_, msg)| replied_task(msg)).collect();
        assert_eq!(tasks, [1, 100]);
        // The first reply left at the Promote boundary, the second at the
        // end of the batch; two commits, one per log.
        assert_eq!((released[0].0, released[1].0), (2, 3));
        assert_eq!(load(&metrics.wal_fsyncs), 2);
        assert_eq!(
            recovered_states(&old_dir).get(&1),
            Some(&RecState::Leased),
            "the old log lost the submit it had buffered"
        );
        assert_eq!(
            recovered_states(&new_dir).get(&100),
            Some(&RecState::Leased)
        );
        let _ = std::fs::remove_dir_all(&old_dir);
        let _ = std::fs::remove_dir_all(&new_dir);
    }

    #[test]
    fn only_what_follows_an_uncommitted_record_is_held() {
        // Without a WAL nothing is ever pending: every reply leaves
        // before the next message is taken.
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(None, &metrics);
        let app = svc.app_list()[0].clone();
        let msgs: Vec<ShardMsg> = (0..8)
            .map(|i| submit(i, &app))
            .chain((0..4).map(|i| complete(8 + i, i + 1)))
            .chain([ShardMsg::Status { agg: 7 }])
            .collect();
        let released = drive(&mut svc, msgs, || {});
        let taken: Vec<usize> = released.iter().map(|(taken, _)| *taken).collect();
        assert_eq!(taken, (1..=13).collect::<Vec<_>>());
        assert_eq!(load(&metrics.wal_records), 0);

        // With one, reads ahead of the first write go straight out and
        // reads behind it wait for the commit with it.
        let dir = tmpdir("reads");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        drive(&mut svc, vec![submit(0, &app)], || {});
        let info = |seq| request(seq, Request::TaskInfo { task: 1 });
        let msgs = vec![info(1), ShardMsg::Status { agg: 8 }, info(2)];
        let released = drive(&mut svc, msgs, || {});
        let taken: Vec<usize> = released.iter().map(|(taken, _)| *taken).collect();
        assert_eq!(taken, [1, 2, 3], "a read-only batch holds nothing");
        assert_eq!(load(&metrics.wal_fsyncs), 1);
        let msgs = vec![info(3), submit(4, &app), info(5)];
        let released = drive(&mut svc, msgs, || {});
        let taken: Vec<usize> = released.iter().map(|(taken, _)| *taken).collect();
        assert_eq!(taken, [1, 3, 3]);
        assert_eq!(load(&metrics.wal_fsyncs), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed write leaves the shard degraded until a covering snapshot
    /// lands, so whenever the gauge reads 0 a restart recovers every task
    /// the shard admitted. (A good commit used to clear the gauge while
    /// the failed batch was on no disk.)
    #[test]
    fn a_failed_write_heals_only_through_a_covering_snapshot() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let dir = tmpdir("heal-write");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        let app = svc.app_list()[0].clone();
        let mut admitted = Vec::new();
        for seq in 0..4 {
            if seq == 1 {
                let spec = format!("wal.append.write@{}=err*1", dir.display());
                crate::failpoint::arm(&spec).unwrap();
            }
            let released = drive(&mut svc, vec![submit(seq, &app)], || {});
            crate::failpoint::disarm_all();
            admitted.push(replied_task(&released[0].1));
            assert_eq!(
                metrics.degraded(0).is_some(),
                seq == 1,
                "after submit {seq}"
            );
            if metrics.degraded(0).is_none() {
                let restarted = reopened(&dir);
                assert_eq!(restarted.status().admitted, admitted.len() as u64);
                for task in &admitted {
                    assert!(restarted.task_info(*task).is_some(), "task {task} lost");
                }
            }
        }
        assert_eq!(load(&metrics.wal_errors), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Degradation is per shard: one shard's good commits do not clear
    /// another's failure, and the gauge reads 1 while any shard fails.
    #[test]
    fn one_shards_commit_does_not_clear_anothers_failure() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let dirs = [tmpdir("failing-0"), tmpdir("committing-1")];
        let metrics = Arc::new(Metrics::with_shards(2));
        let mut shards: Vec<Service> = (0..2)
            .map(|i| {
                let (cfg, metrics) = (config(None), Arc::clone(&metrics));
                let mut svc = Service::new_shard(testbed(), cfg, metrics, i, 2, 32 * i);
                let (wal, _) = Wal::open_shard(&dirs[i], i, 4096).unwrap();
                svc.restore(Some(wal), Vec::new(), 0, Instant::now());
                svc
            })
            .collect();
        let app = shards[0].app_list()[0].clone();
        let spec = format!("wal.append.write@{}=err", dirs[0].display());
        crate::failpoint::arm(&spec).unwrap();
        for seq in 0..4 {
            for svc in shards.iter_mut() {
                drive(svc, vec![submit(seq, &app)], || {});
            }
            assert_eq!(metrics.degraded(0), Some(Degraded::WriteFailed));
            assert_eq!(metrics.degraded(1), None);
            assert!(metrics.wal_degraded(), "round {seq}");
        }
        crate::failpoint::disarm_all();
        assert_eq!(load(&metrics.wal_errors), 4);
        assert!(metrics
            .render_prometheus()
            .contains("\ntracond_wal_degraded 1\n"));
        dirs.iter().for_each(|dir| {
            let _ = std::fs::remove_dir_all(dir);
        });
    }

    /// Rot a scrub finds on a leader or standalone node heals at the
    /// shard worker's next wake: the worker compacts the table it holds.
    /// (It used to be truncated away and stay degraded, uncounted.)
    #[test]
    fn scrub_rot_on_a_leader_heals_by_compaction_at_the_next_wake() {
        let dir = tmpdir("heal-rot");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        let app = svc.app_list()[0].clone();
        drive(&mut svc, (0..8).map(|i| submit(i, &app)).collect(), || {});
        rot_first_frame(&dir);
        assert_eq!(crate::wal::scrub_pass(&dir, 1, &metrics), [0]);
        assert_eq!(metrics.degraded(0), Some(Degraded::Rot));
        assert_eq!(load(&metrics.scrub_corrupt_frames), 1);
        drive(&mut svc, Vec::new(), || {});
        assert!(crate::wal::scrub_shard(&dir, 0).unwrap().clean());
        let (_, recovery) = Wal::open_shard(&dir, 0, u64::MAX).unwrap();
        assert_eq!(recovery.table, *svc.table());
        assert_eq!(load(&metrics.scrub_repaired), 1);
        assert_eq!(metrics.degraded(0), None);
        assert!(!metrics.wal_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scrub reads the files, the writer compacts and appends, and
    /// only then is the rot acted on: the heal must not cost the frames
    /// the scrub never saw. (A quarantine at the read's offset cut them.)
    #[test]
    fn a_stale_scrub_flag_loses_no_frame_appended_after_its_read() {
        let dir = tmpdir("stale-scrub");
        let metrics = Arc::new(Metrics::new());
        let mut svc = service(Some(&dir), &metrics);
        let app = svc.app_list()[0].clone();
        drive(&mut svc, (0..4).map(|i| submit(i, &app)).collect(), || {});
        rot_first_frame(&dir);
        let read = crate::wal::scrub_shard(&dir, 0).unwrap();
        assert_eq!(read.corrupt_at, Some(0));
        svc.write_snapshot();
        let records = load(&metrics.wal_records);
        let released = drive(&mut svc, (4..9).map(|i| submit(i, &app)).collect(), || {});
        assert_eq!(load(&metrics.wal_records) - records, 10);
        metrics.degrade(0, Degraded::Rot, &[]);
        drive(&mut svc, Vec::new(), || {});
        let recovered = recovered_states(&dir);
        for (_, msg) in &released {
            let task = replied_task(msg);
            assert_eq!(recovered.get(&task), Some(&RecState::Leased), "task {task}");
        }
        assert_eq!(metrics.degraded(0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The demand encoder `old_answer` called, which built a `Value`.
    fn old_demand_value(demand: &tracon_core::DimVec) -> Value {
        obj(demand
            .iter()
            .map(|(dim, v)| (dim.name(), n(v)))
            .collect::<Vec<_>>())
    }

    /// `answer` as it was when it built every result as a `Value` tree:
    /// the reference for the bytes `answer` now writes directly.
    fn old_answer(svc: &mut Service, id: Option<String>, request: Request, now: Instant) -> Reply {
        use crate::json::s;
        let base = svc.machine_base();
        match request {
            Request::Submit { app, demand } => {
                match svc.submit_with_demand(&app, demand.unwrap_or_default(), now) {
                    Ok(admitted) => {
                        let result = match admitted.placement {
                            Some((vm, score, runtime)) => obj(vec![
                                ("task", n(admitted.task as f64)),
                                ("state", s("placed")),
                                ("machine", n((vm.machine + base) as f64)),
                                ("slot", n(vm.slot as f64)),
                                ("predicted_score", n(score)),
                                ("predicted_runtime", n(runtime)),
                            ]),
                            None => obj(vec![
                                ("task", n(admitted.task as f64)),
                                ("state", s("queued")),
                                ("depth", n(admitted.depth as f64)),
                            ]),
                        };
                        Reply::ok(id, result)
                    }
                    Err(refusal) => refusal_reply(id, refusal),
                }
            }
            Request::Complete {
                task,
                runtime,
                iops,
            } => match svc.complete(task, runtime, iops, now) {
                Ok(done) => Reply::ok(
                    id,
                    obj(vec![
                        ("task", n(task as f64)),
                        ("recorded", Value::Bool(true)),
                        ("rebuilt", Value::Bool(done.rebuilt)),
                        ("predictor_swapped", Value::Bool(done.swapped)),
                        ("dispatched", n(done.dispatched as f64)),
                    ]),
                ),
                Err(refusal) => refusal_reply(id, refusal),
            },
            Request::TaskInfo { task } => match svc.task_info(task) {
                Some((row, volatile)) => {
                    let mut pairs = vec![
                        ("task", n(task as f64)),
                        ("app", s(svc.app_name(row.app as usize))),
                    ];
                    if let Some(demand) = volatile.map(|v| &v.demand).filter(|d| !d.is_empty()) {
                        pairs.push(("demand", old_demand_value(demand)));
                    }
                    match (row.state, volatile.and_then(|v| v.placement)) {
                        (RecState::Leased, Some(placed)) => {
                            pairs.push(("state", s("running")));
                            pairs.push(("machine", n((placed.vm.machine + base) as f64)));
                            pairs.push(("slot", n(placed.vm.slot as f64)));
                            pairs.push((
                                "neighbor",
                                match placed.neighbor {
                                    Some(idx) => s(svc.app_name(idx)),
                                    None => Value::Null,
                                },
                            ));
                            pairs.push(("predicted_score", n(placed.predicted_score)));
                            pairs.push(("predicted_runtime", n(placed.predicted_runtime)));
                            pairs.push(("attempt", n(f64::from(row.attempts))));
                        }
                        (RecState::Completed, _) => {
                            pairs.push(("state", s("completed")));
                            pairs.push(("runtime", n(row.runtime)));
                        }
                        (RecState::DeadLettered, _) => {
                            pairs.push(("state", s("dead_lettered")));
                            pairs.push(("attempts", n(f64::from(row.attempts))));
                        }
                        _ => pairs.push(("state", s("queued"))),
                    }
                    Reply::ok(id, obj(pairs))
                }
                None => Reply::error(id, ErrorKind::UnknownTask, format!("no task {task}")),
            },
            other => Reply::error(
                id,
                ErrorKind::Malformed,
                format!("request {other:?} is not shard-routable"),
            ),
        }
    }

    /// Two shards in lockstep, one answered by `answer` and one by the
    /// tree-building reference, through every reply shape a shard writes:
    /// placed and queued submits, completes with and without a rebuild,
    /// `task` while running (with and without a neighbour, with a
    /// demand), queued, completed and dead-lettered, and every refusal.
    #[test]
    fn answer_writes_the_bytes_of_the_tree_it_no_longer_builds() {
        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig {
            machines: 2,
            slots_per_machine: 2,
            queue_capacity: 2,
            max_attempts: 1,
            monitor: tracon_core::MonitorConfig {
                rebuild_every: 2,
                ..Default::default()
            },
            ..config(None)
        };
        let open = || Service::open(testbed(), cfg.clone(), Arc::clone(&metrics), Instant::now());
        let (mut new, mut old) = (open().unwrap(), open().unwrap());
        let now = Instant::now();
        let apps = new.app_list().to_vec();
        let mut lines = Vec::new();
        let mut ask = |new: &mut Service, old: &mut Service, id: Option<&str>, request: Request| {
            let id = id.map(str::to_string);
            let line = answer(new, id.clone(), request.clone(), now);
            let want = encode_reply(&old_answer(old, id, request, now));
            assert_eq!(line, want);
            lines.push(line.clone());
            crate::json::parse(&line).unwrap()
        };
        let task_of = |reply: &Value| {
            let result = reply.get("result").unwrap();
            result.get("task").and_then(Value::as_u64).unwrap()
        };
        let demand = tracon_core::DimVec::new()
            .with(tracon_core::ResourceDim::Disk, 120.0)
            .with(tracon_core::ResourceDim::Network, 40.5);
        let mut tasks = Vec::new();
        for i in 0..6 {
            let request = Request::Submit {
                // Two apps, so the third complete is its app's second.
                app: apps[i % 2].clone(),
                demand: (i == 1).then_some(demand),
            };
            let id = ["c\"1\n", "🦀"][i % 2];
            let reply = ask(&mut new, &mut old, (i != 3).then_some(id), request);
            tasks.push(task_of(&reply));
        }
        let refusals = [
            Request::Submit {
                app: apps[0].clone(),
                demand: None,
            },
            Request::Submit {
                app: "no such app".to_string(),
                demand: None,
            },
            Request::TaskInfo { task: 1 << 40 },
            Request::Complete {
                task: tasks[5],
                runtime: 1.0,
                iops: 1.0,
            },
            Request::Status,
        ];
        for request in refusals {
            ask(&mut new, &mut old, Some("r"), request);
        }
        for &task in &tasks {
            ask(&mut new, &mut old, Some("t"), Request::TaskInfo { task });
        }
        for (i, &task) in tasks[..3].iter().enumerate() {
            let request = Request::Complete {
                task,
                runtime: 1.5 + i as f64 / 3.0,
                iops: 90.25,
            };
            ask(&mut new, &mut old, None, request);
        }
        let later = now + Duration::from_secs(24 * 3600);
        assert_eq!(new.expire_leases(later), old.expire_leases(later));
        for &task in &tasks {
            ask(&mut new, &mut old, Some("t"), Request::TaskInfo { task });
        }
        for shape in [
            "\"state\":\"placed\"",
            "\"state\":\"queued\",\"depth\":",
            "\"ok\":false",
            "\"rebuilt\":false",
            "\"rebuilt\":true",
            "\"state\":\"running\"",
            "\"neighbor\":null",
            "\"neighbor\":\"",
            "\"demand\":{\"disk\":120,\"network\":40.5}",
            "\"state\":\"queued\"}",
            "\"state\":\"completed\"",
            "\"state\":\"dead_lettered\"",
        ] {
            assert!(
                lines.iter().any(|line| line.contains(shape)),
                "no reply has {shape}: {lines:#?}"
            );
        }
    }
}
