//! The daemon side of replication: `Node`, which runs the effects of
//! [`role::step`] against real files, sockets and shard workers, and the
//! replication thread (`run_repl`) that feeds it pull replies, probe
//! answers and the follower's clock.
//!
//! Nothing here decides a role. The reactor and the replication thread
//! both go through `Node::drive`: decode an event, `step`, run the
//! effects in order, commit the state if none of the required ones
//! failed.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::json::Value;
use crate::metrics::{Degraded, Metrics};
use crate::proto::{ErrorKind, Reply, Request};
use crate::reactor::ShardMsg;
use crate::repl::role::{self, Effect, RoleEvent};
use crate::repl::{
    decode_pull_chunk, lock, write_sidecar, PullChunk, ReplState, Role, REPL_TTL_MS,
};
use crate::shard::recover_dir;
use crate::table::{TaskRow, TaskTable};
use crate::wal::{self, existing_shard_count, remove_shard_files, Wal};

/// Static replication configuration of one node.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// This node's own protocol address, echoed in pulls and used as the
    /// redirect target once promoted.
    pub self_addr: String,
    /// WAL directory (shard logs + `repl.epoch` sidecar).
    pub dir: PathBuf,
    /// Shard count (must match the leader's).
    pub shards: usize,
    /// Snapshot cadence handed to promoted WAL handles.
    pub snapshot_every: u64,
    /// Pull cadence.
    pub poll_ms: u64,
}

/// One daemon's replication context, shared by the reactor and the
/// replication thread.
pub(crate) struct Node {
    /// The role machine and its published view.
    pub repl: Arc<ReplState>,
    /// Addresses, directory and cadences.
    pub cfg: FollowerConfig,
    /// Per-shard worker channels (`ShardMsg::Promote` / `Demote`).
    pub shard_txs: Vec<Sender<ShardMsg>>,
    /// Daemon-wide shutdown flag.
    pub shutdown: Arc<AtomicBool>,
    /// The shard WALs shipped frames are appended to while this node
    /// follows; surrendered to the shard workers at promotion, reopened
    /// empty at rejoin.
    pub wals: Mutex<Vec<Wal>>,
}

impl Node {
    /// Feed one event to the role machine and run what it asks for, in
    /// order, under the machine's lock. An error is a failed *required*
    /// effect: the proposed state is dropped and the next `Tick` will
    /// propose it again. The returned effects end with the verdict the
    /// caller acts on ([`Effect::Pull`], [`Effect::ApplyChunk`]).
    pub(crate) fn drive(&self, event: RoleEvent) -> io::Result<Vec<Effect>> {
        let mut machine = lock(&self.repl.machine);
        let (next, effects) = role::step(&machine, self.repl.now_ms(), event);
        for effect in &effects {
            self.run(effect)?;
        }
        *machine = next;
        drop(machine);
        // Up to eight round trips a TTL apart: not under the lock the
        // reactor needs to answer the very node being told.
        for effect in &effects {
            if let Effect::SendLease { to, epoch } = effect {
                fence_predecessor(to, *epoch, &self.cfg, &self.shutdown);
            }
        }
        Ok(effects)
    }

    fn run(&self, effect: &Effect) -> io::Result<()> {
        match effect {
            Effect::Persist { sidecar, required } => {
                if let Err(e) = write_sidecar(&self.cfg.dir, sidecar) {
                    let metrics = self.repl.metrics();
                    metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
                    if *required {
                        return Err(e);
                    }
                }
            }
            Effect::PromoteShards => self.promote_shards()?,
            Effect::DemoteShards => self.demote_shards()?,
            Effect::Publish {
                role,
                epoch,
                hint,
                suspended,
                cause,
            } => {
                let from = self.repl.role();
                self.repl.publish(*role, *epoch, hint.clone(), *suspended);
                if from != *role {
                    self.repl.metrics().event(
                        "role",
                        &[
                            ("from", &from.as_str()),
                            ("to", &role.as_str()),
                            ("epoch", epoch),
                            ("cause", cause),
                            ("leader", &hint.as_deref().unwrap_or("-")),
                        ],
                    );
                }
            }
            // Sent after the commit; the rest are the caller's, who holds
            // the socket or the chunk body.
            Effect::SendLease { .. }
            | Effect::ApplyChunk
            | Effect::ResetCursors
            | Effect::Pull(_) => {}
        }
        Ok(())
    }

    /// Replay the shipped WALs through merged recovery and hand every
    /// shard worker its state and WAL handle. Runs before the publish
    /// that flips the role, so a reactor that observes `Leader` finds the
    /// `Promote` already in each shard's FIFO ahead of anything it routes.
    fn promote_shards(&self) -> io::Result<()> {
        let metrics = self.repl.metrics();
        // Release the file handles before recovery reopens them.
        lock(&self.wals).clear();
        let (dir, shards) = (&self.cfg.dir, self.cfg.shards);
        let restores = recover_shards(dir, shards, self.cfg.snapshot_every, metrics)?;
        for (tx, (wal, tasks, next_task_id)) in self.shard_txs.iter().zip(restores) {
            let _ = tx.send(ShardMsg::Promote {
                wal,
                tasks,
                next_task_id,
            });
        }
        metrics.repl_lag_frames.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Every shard worker drops its state and lets go of its WAL handle
    /// (acked, so the wipe cannot race an open file), the shard files
    /// are wiped — the sidecar survives, epochs only go up — and reopened
    /// empty for the follower loop to resync into from the new leader's
    /// snapshot.
    fn demote_shards(&self) -> io::Result<()> {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Demote {
                done: done_tx.clone(),
            });
        }
        drop(done_tx);
        for _ in &self.shard_txs {
            // Only a shutdown mid-demote leaves an ack missing.
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .map_err(|_| io::Error::other("a shard worker never surrendered its WAL"))?;
        }
        let (dir, shards) = (&self.cfg.dir, self.cfg.shards);
        let wals = wipe_shards(dir, shards, self.cfg.snapshot_every).inspect_err(|_| {
            let metrics = self.repl.metrics();
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
        })?;
        *lock(&self.wals) = wals;
        Ok(())
    }
}

/// What a promotion hands the shard workers, shard 0 first: every shard
/// file in `dir` replayed through merged recovery into each shard's
/// log, the rows homed to it and the id high-water mark.
pub(crate) fn recover_shards(
    dir: &Path,
    shards: usize,
    snapshot_every: u64,
    metrics: &Metrics,
) -> io::Result<Vec<(Wal, Vec<TaskRow>, u64)>> {
    let (wals, recovery) =
        recover_dir(dir, shards, snapshot_every, &|_| None).inspect_err(|_| {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
        })?;
    metrics
        .wal_replayed_records
        .fetch_add(recovery.replayed_records, Ordering::Relaxed);
    Ok(recovery.per_shard(wals).collect())
}

/// Delete every shard file in `dir` — the `repl.epoch` sidecar survives,
/// epochs only go up — and reopen `shards` empty logs for the follower
/// loop to resync into from the leader's snapshot: what a replica's boot
/// and a fenced node's rejoin both do.
pub(crate) fn wipe_shards(dir: &Path, shards: usize, snapshot_every: u64) -> io::Result<Vec<Wal>> {
    for shard in 0..existing_shard_count(dir).max(shards) {
        remove_shard_files(dir, shard)?;
    }
    Ok(recover_dir(dir, shards, snapshot_every, &|_| None)?.0)
}

/// Sleep `ms` in 25 ms slices so shutdown stays snappy; true as soon as
/// shutdown is requested.
fn sleep_or_shutdown(shutdown: &AtomicBool, ms: u64) -> bool {
    let mut slept = 0u64;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return true;
        }
        if slept >= ms {
            return false;
        }
        let step = (ms - slept).min(25);
        std::thread::sleep(Duration::from_millis(step));
        slept += step;
    }
}

/// How often a fenced node probes for a live leader to rejoin under;
/// also how soon the replication thread notices any role change that
/// the reactor made.
const REJOIN_PROBE_MS: u64 = 300;

/// Cadence of the WAL scrub on a leader or standalone node.
const SCRUB_LOOP_MS: u64 = 2_000;

/// The replication thread, one per WAL-backed node, for the life of the
/// daemon; what it does is the node's published role:
///
/// - **Follower**: [`run_follower`], until the node stops following.
/// - **Fenced** (by a promoted peer's lease, a higher-epoch pull, or the
///   boot probe): every [`REJOIN_PROBE_MS`], probe the leader hint and
///   feed the answer to the role machine. Once a live leader answers,
///   the machine demotes the node — every shard worker surrenders its
///   state and WAL handle, the shard files are wiped, the sidecar says
///   follower — and the next pass follows.
/// - **Leader**: every [`SCRUB_LOOP_MS`], scrub the authoritative WAL.
///   The scrub only flags: each shard worker, the one writer of its log,
///   heals a rotten shard at its next wake by compacting the table it
///   holds. (The leader's lease clock is the reactor's, which ticks it
///   on every loop.)
///
/// So the pair survives any number of role swaps.
pub(crate) fn run_repl(node: &Node) {
    let mut next_scrub = Instant::now() + Duration::from_millis(SCRUB_LOOP_MS);
    loop {
        if node.repl.role() == Role::Follower {
            run_follower(node);
        }
        let mut pause = Duration::from_millis(REJOIN_PROBE_MS);
        if node.repl.role() == Role::Leader {
            pause = pause.min(next_scrub.saturating_duration_since(Instant::now()));
        }
        if sleep_or_shutdown(&node.shutdown, pause.as_millis() as u64) {
            return;
        }
        let state = node.repl.state();
        match state.role() {
            Role::Fenced => {
                let asked = state.probe(false);
                if let Some((epoch, role)) =
                    asked.and_then(|(to, at)| probe_peer(to, at, &state.me))
                {
                    // Refused (the hint does not lead) or failed (a wipe
                    // error, a shutdown mid-demote): still fenced, asked
                    // again next round.
                    let _ = node.drive(RoleEvent::ProbeResult { epoch, role });
                }
            }
            Role::Leader if Instant::now() >= next_scrub => {
                next_scrub = Instant::now() + Duration::from_millis(SCRUB_LOOP_MS);
                crate::wal::scrub_pass(&node.cfg.dir, node.cfg.shards, node.repl.metrics());
            }
            Role::Leader | Role::Follower => {}
        }
    }
}

/// How often the follower re-walks its sealed WAL regions for bit rot.
const SCRUB_INTERVAL_MS: u64 = 500;

/// The follower's pull loop: every poll round tick the role machine
/// (which promotes this node when the leader's lease lapses), pull every
/// shard from the current leader hint, append/install locally, and scrub
/// the local WAL for rot (repairing by re-pulling the affected shard).
/// It is the one writer of the shard logs while the node follows, so a
/// scrub here never races an append. Returns when the daemon shuts down
/// or this node stops following.
fn run_follower(node: &Node) {
    let Node { repl, cfg, .. } = node;
    let metrics = repl.metrics();
    // Per shard, the shipped stream — the leader's task table — rebuilt
    // by the same replay a restart would run: what lets a caught-up
    // follower compact its own WAL instead of growing it for good.
    let mut mirrors = vec![TaskTable::default(); lock(&node.wals).len()];
    let mut last_scrub_ms = repl.now_ms();
    let mut client: Option<(String, Client)> = None;
    let connect_timeout = Duration::from_millis(REPL_TTL_MS.clamp(100, 2_000));

    while !node.shutdown.load(Ordering::SeqCst) {
        // A failed promotion (sidecar or recovery error) is proposed
        // again by the next round's tick.
        let _ = node.drive(RoleEvent::Tick);
        let state = repl.state();
        if state.role() != Role::Follower {
            return;
        }
        let now = repl.now_ms();
        if now.saturating_sub(last_scrub_ms) >= SCRUB_INTERVAL_MS {
            last_scrub_ms = now;
            for shard in wal::scrub_pass(&cfg.dir, mirrors.len(), metrics) {
                restart(node, &mut mirrors[shard], shard);
            }
        }

        let leader = state.leader.unwrap_or_default();
        if client.as_ref().is_some_and(|(addr, _)| *addr != leader) {
            client = None;
        }
        if client.is_none() {
            client = Client::connect_with_timeout(&leader, connect_timeout)
                .ok()
                .map(|conn| (leader, conn));
        }
        if let Some((_, conn)) = client.as_mut() {
            let mut round_lag = Some(0u64);
            for (shard, wal) in lock(&node.wals).iter_mut().enumerate() {
                let state = repl.state();
                // The request advertises this follower's promotion TTL so
                // the leader's write-suspension clock runs at least as
                // fast as the promotion clock.
                let pull = Request::ReplPull {
                    epoch: state.epoch,
                    shard,
                    cursor: state.cursor(shard),
                    addr: cfg.self_addr.clone(),
                    ttl_ms: state.ttl_ms,
                };
                let chunk = match conn.request(pull) {
                    Ok(Reply::Ok { result, .. }) => decode_pull_chunk(&result),
                    Ok(Reply::Error {
                        kind: ErrorKind::NotLeader,
                        leader: Some(hint),
                        ..
                    }) => {
                        // The node we poll is itself fenced or following;
                        // chase the hint.
                        if let Some(leader_addr) = hint.leader_addr {
                            let _ = node.drive(RoleEvent::NotLeaderHint { leader_addr });
                        }
                        None
                    }
                    Ok(_) | Err(_) => None,
                };
                let Some((epoch, boot, _, chunk)) = chunk.filter(|c| c.2 == shard) else {
                    round_lag = None;
                    break;
                };
                if take_chunk(node, wal, &mut mirrors[shard], shard, epoch, boot, &chunk) {
                    let behind = chunk.ship_next.saturating_sub(chunk.next);
                    round_lag = round_lag.map(|lag| lag.max(behind));
                }
            }
            match round_lag {
                Some(lag) => metrics.repl_lag_frames.store(lag, Ordering::Relaxed),
                None => client = None,
            }
        }
        if sleep_or_shutdown(&node.shutdown, cfg.poll_ms.max(1)) {
            return;
        }
    }
}

/// One pull reply for `shard`: its header goes to the role machine, and
/// if the machine takes the chunk (anything else — a stale epoch, cursors
/// just reset because the leader rebooted — drops the body; returns
/// false) the body goes to [`land_chunk`], and a body that fails to land
/// sends the shard back to the leader's snapshot.
fn take_chunk(
    node: &Node,
    wal: &mut Wal,
    mirror: &mut TaskTable,
    shard: usize,
    epoch: u64,
    boot: u64,
    chunk: &PullChunk,
) -> bool {
    let next = chunk.next;
    let header = RoleEvent::Chunk {
        shard,
        epoch,
        boot,
        next,
    };
    let effects = node.drive(header).unwrap_or_default();
    if effects.last() != Some(&Effect::ApplyChunk) {
        return false;
    }
    if !land_chunk(wal, mirror, chunk, shard, node.repl.metrics()) {
        restart(node, mirror, shard);
    }
    true
}

/// The body of a chunk the role machine took for `shard`: into the WAL
/// and the shard's `mirror` ([`apply_chunk`]). The machine has moved the
/// cursor to `chunk.next` by then, so a body that fails to land is lost
/// data like rot: false, and only the leader's snapshot can put the shard
/// right again — the caller restarts it, and the install that lands heals
/// it.
pub(crate) fn land_chunk(
    wal: &mut Wal,
    mirror: &mut TaskTable,
    chunk: &PullChunk,
    shard: usize,
    metrics: &Metrics,
) -> bool {
    match apply_chunk(wal, mirror, chunk, shard, metrics) {
        Err(e) => {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            metrics.degrade(shard, Degraded::Rot, &[("lost", &e)]);
            return false;
        }
        Ok(true) => metrics.heal(shard, "peer snapshot install"),
        Ok(false) => {}
    }
    true
}

/// Send one shard back to the leader's snapshot: its mirror and its pull
/// cursor both reset, so the next pull re-installs the shard wholesale —
/// and the install truncates the log, rot and all.
fn restart(node: &Node, mirror: &mut TaskTable, shard: usize) {
    *mirror = TaskTable::default();
    let _ = node.drive(RoleEvent::CursorLost { shard });
}

/// Install the snapshot (if any) and append the frames to one shard WAL,
/// mirroring the leader-side counters, then run the same chunk through
/// the `mirror` table. Once enough frames accumulate the follower
/// compacts its own WAL from the mirror — a healthy pair never crosses
/// the leader's compaction horizon, so without this the follower's log
/// (and its promotion replay time) would grow for the life of the pair.
///
/// `Ok(true)` when the chunk carried a snapshot (what heals a degraded
/// shard). An error leaves log and mirror short of what the
/// chunk held.
fn apply_chunk(
    wal: &mut Wal,
    mirror: &mut TaskTable,
    chunk: &PullChunk,
    shard: usize,
    metrics: &Metrics,
) -> io::Result<bool> {
    if let Some(blob) = &chunk.snapshot {
        if crate::failpoint::armed()
            && crate::failpoint::should_fail("repl.follower.install", &shard.to_string()).is_some()
        {
            return Err(crate::failpoint::injected_error("repl.follower.install"));
        }
        wal.install_snapshot_blob(blob)?;
        metrics.wal_snapshots.fetch_add(1, Ordering::Relaxed);
    }
    if !chunk.frames.is_empty() {
        wal.append_batch(&chunk.frames)?;
        let shipped = chunk.frames.len() as u64;
        metrics.wal_records.fetch_add(shipped, Ordering::Relaxed);
        metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
    }
    mirror.absorb(chunk.snapshot.as_deref(), &chunk.frames)?;
    if wal.snapshot_due() {
        wal.install_snapshot_blob(&mirror.encode())?;
        metrics.wal_snapshots.fetch_add(1, Ordering::Relaxed);
    }
    Ok(chunk.snapshot.is_some())
}

/// How many times a freshly promoted leader re-sends its `repl_lease`
/// to the predecessor before giving up (the boot-time probe covers a
/// predecessor that is down for longer than this).
const FENCE_ATTEMPTS: u32 = 8;

/// Re-send `repl_lease` to the deposed leader, spaced about one TTL
/// apart, until it acknowledges being outranked or the attempts run
/// out. Bounded on purpose: the predecessor's port may be reassigned to
/// an unrelated process after it dies, so this must not retry forever.
fn fence_predecessor(old_leader: &str, epoch: u64, cfg: &FollowerConfig, shutdown: &AtomicBool) {
    let pause_ms = REPL_TTL_MS.clamp(100, 2_000);
    for attempt in 0..FENCE_ATTEMPTS {
        if let Ok(mut conn) = Client::connect_with_timeout(old_leader, Duration::from_millis(500)) {
            if let Ok(Reply::Ok { result, .. }) = conn.request(Request::ReplLease {
                epoch,
                leader_addr: cfg.self_addr.clone(),
            }) {
                if lease_acknowledged(&result, epoch) {
                    return;
                }
            }
        }
        if attempt + 1 == FENCE_ATTEMPTS || sleep_or_shutdown(shutdown, pause_ms) {
            return;
        }
    }
}

/// One best-effort `repl_lease` round trip to `peer` — the probe
/// [`role::RoleState::probe`] asks for — returning its `(epoch, role)`
/// when it is reachable and replies well-formed.
pub(crate) fn probe_peer(peer: &str, probe_epoch: u64, self_addr: &str) -> Option<(u64, Role)> {
    let mut conn = Client::connect_with_timeout(peer, Duration::from_millis(500)).ok()?;
    let reply = conn.request(Request::ReplLease {
        epoch: probe_epoch,
        leader_addr: self_addr.to_string(),
    });
    let Ok(Reply::Ok { result, .. }) = reply else {
        return None;
    };
    let epoch = result.get("epoch").and_then(Value::as_u64)?;
    let role = result.get("role").and_then(Value::as_str)?;
    Some((epoch, Role::parse(role)?))
}

/// Whether a `repl_lease` reply proves the receiver stepped down: it
/// reports at least the claimed epoch under a non-leader role. Anything
/// else (older epoch, still "leader", malformed) means the fence has
/// not landed.
fn lease_acknowledged(result: &Value, claimed: u64) -> bool {
    let epoch_ok = result
        .get("epoch")
        .and_then(Value::as_u64)
        .is_some_and(|epoch| epoch >= claimed);
    let stepped_down = result
        .get("role")
        .and_then(Value::as_str)
        .is_some_and(|role| role != Role::Leader.as_str());
    epoch_ok && stepped_down
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_ack_requires_the_claimed_epoch_and_a_stepped_down_role() {
        let ok = crate::json::parse(r#"{"epoch":5,"role":"fenced"}"#).unwrap();
        assert!(lease_acknowledged(&ok, 5));
        assert!(lease_acknowledged(&ok, 4));
        // Higher epoch than claimed still acks (someone outranked us too,
        // but the predecessor is certainly not serving at OUR epoch).
        let higher = crate::json::parse(r#"{"epoch":9,"role":"follower"}"#).unwrap();
        assert!(lease_acknowledged(&higher, 5));
        // Still leading, older epoch, or malformed: not acknowledged.
        let leading = crate::json::parse(r#"{"epoch":5,"role":"leader"}"#).unwrap();
        assert!(!lease_acknowledged(&leading, 5));
        let stale = crate::json::parse(r#"{"epoch":4,"role":"fenced"}"#).unwrap();
        assert!(!lease_acknowledged(&stale, 5));
        let junk = crate::json::parse(r#"{"ok":true}"#).unwrap();
        assert!(!lease_acknowledged(&junk, 1));
    }

    /// REVIEW fix: a caught-up follower must compact its own WAL instead
    /// of appending forever — the mirror replay must produce a snapshot
    /// that a later recovery agrees with.
    #[test]
    fn a_caught_up_follower_compacts_its_wal_locally() {
        use crate::wal::WalRecord;

        let dir =
            std::env::temp_dir().join(format!("tracon-follower-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = Metrics::new();
        let (mut wal, _) = Wal::open_shard(&dir, 0, 4).unwrap();
        let mut mirror = TaskTable::default();

        // Ship 3 tasks + 3 completions in caught-up-sized chunks: enough
        // records to trip the snapshot_every=4 cadence at least once.
        for task in 0..3u64 {
            let chunk = PullChunk {
                snapshot: None,
                frames: vec![
                    WalRecord::Submit {
                        task,
                        app: "grep".into(),
                    },
                    WalRecord::Complete { task, runtime: 1.0 },
                ],
                next: (task + 1) * 2,
                ship_next: (task + 1) * 2,
            };
            apply_chunk(&mut wal, &mut mirror, &chunk, 0, &metrics).unwrap();
        }
        assert!(
            metrics.wal_snapshots.load(Ordering::Relaxed) >= 1,
            "no local compaction happened"
        );
        assert!(
            !wal.snapshot_due(),
            "compaction must reset the records-since-snapshot counter"
        );
        drop(wal);

        // A recovery of the compacted directory sees the same world the
        // mirror does: all 3 tasks completed, ids not reused.
        let (_, recovered) = Wal::open_shard(&dir, 0, 4).unwrap();
        assert_eq!(recovered.table, mirror);
        assert_eq!(recovered.table.len(), 3);
        assert_eq!(recovered.table.next_task_id(), 3);
        assert!(
            recovered.replayed_records < 6,
            "log was never truncated: all {} records replayed",
            recovered.replayed_records
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unbooted node `me:1` over `dir` with no shard workers (nothing
    /// to promote or demote, so a rejoin only wipes).
    fn node_over(dir: &std::path::Path, wals: Vec<Wal>) -> (Node, Arc<Metrics>) {
        use crate::repl::{EpochSidecar, RoleState, ShipLog};

        let metrics = Arc::new(Metrics::new());
        let state = RoleState::from_sidecar("me:1", 100, 1, &EpochSidecar::default(), 0);
        let ship = Arc::new(ShipLog::new(1));
        let node = Node {
            repl: Arc::new(ReplState::new(state, ship, Arc::clone(&metrics), 1)),
            cfg: FollowerConfig {
                self_addr: "me:1".into(),
                dir: dir.to_path_buf(),
                shards: 1,
                snapshot_every: 1_000,
                poll_ms: 10,
            },
            shard_txs: Vec::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            wals: Mutex::new(wals),
        };
        (node, metrics)
    }

    /// The cursor moves to `chunk.next` before the body is written, so a
    /// write that fails cleanly — an `err` failpoint, a real EIO or
    /// ENOSPC: no torn bytes for the scrubber to find — used to leave the
    /// frames skipped for good: only `wal_errors` moved, the mirror
    /// compacted without them, and a promotion lost acked work. A failed
    /// append, and a failed local compaction, now take the repair route.
    #[test]
    fn a_failed_append_or_compaction_is_repaired_from_the_leaders_snapshot() {
        use crate::repl::ShipLog;
        use crate::wal::WalRecord;

        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let dir = std::env::temp_dir().join(format!("tracon-follower-eio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scope = dir.to_string_lossy().into_owned();
        // Compacts locally every 8 records.
        let (wal, _) = Wal::open_shard(&dir, 0, 8).unwrap();
        let (node, metrics) = node_over(&dir, vec![wal]);
        let (replica_of, probe) = (Some("l:1".to_string()), None);
        node.drive(RoleEvent::Boot { replica_of, probe }).unwrap();
        let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);

        // The leader: its table, and the ship log its commits feed (the
        // boot snapshot put the base past 0).
        let ship = ShipLog::new(1);
        let mut leader = TaskTable::default();
        ship.trim(0, leader.encode());
        let mut mirror = TaskTable::default();
        let mut next_task = 0;
        // One leader commit of `n` submit + lease pairs, then one pull.
        let mut round = |n: u64, leader: &mut TaskTable, mirror: &mut TaskTable| {
            let tasks = next_task..next_task + n;
            next_task += n;
            let batch: Vec<WalRecord> = tasks
                .flat_map(|task| {
                    let app = "grep".into();
                    let attempt = 0;
                    [
                        WalRecord::Submit { task, app },
                        WalRecord::Lease { task, attempt },
                    ]
                })
                .collect();
            leader.absorb(None, &batch).unwrap();
            ship.push(0, &batch);
            let chunk = ship.pull(0, node.repl.state().cursor(0));
            let mut wals = lock(&node.wals);
            take_chunk(&node, &mut wals[0], mirror, 0, 1, 7, &chunk);
        };

        round(1, &mut leader, &mut mirror);
        assert_eq!(mirror, leader);

        // The append fails: the shard goes to repair and the cursor home.
        crate::failpoint::arm(&format!("wal.append.write@{scope}=err*1")).unwrap();
        round(1, &mut leader, &mut mirror);
        assert_eq!(load(&metrics.wal_errors), 1);
        assert_eq!(metrics.degraded(0), Some(Degraded::Rot));
        assert_eq!(load(&metrics.scrub_corrupt_frames), 1);
        assert_eq!(node.repl.state().cursor(0), 0);
        // The failure has cleared: the next pull re-installs and catches up.
        round(1, &mut leader, &mut mirror);
        assert_eq!(load(&metrics.scrub_repaired), 1);
        assert_eq!(metrics.degraded(0), None);
        assert_eq!(mirror, leader);

        // The same for the follower's own compaction, due on this pull.
        crate::failpoint::arm(&format!("wal.snapshot.rename@{scope}=err*1")).unwrap();
        round(2, &mut leader, &mut mirror);
        assert_eq!(load(&metrics.wal_errors), 2);
        assert!(metrics.degraded(0).is_some());
        round(1, &mut leader, &mut mirror);
        assert_eq!(load(&metrics.scrub_repaired), 2);
        crate::failpoint::disarm_all();

        // What a promotion would now recover is the leader's table.
        lock(&node.wals).clear();
        let (_, recovered) = Wal::open_shard(&dir, 0, 8).unwrap();
        assert_eq!(recovered.table, leader);
        assert_eq!(recovered.table.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sidecar has one writer and it writes what the state says: a
    /// leader records a peer, is fenced, rejoins as a follower and
    /// observes a higher epoch, and after every step the file decodes to
    /// exactly the state that produced it (the follower's epoch write
    /// used to drop the peer the rejoin had just persisted).
    #[test]
    fn every_step_leaves_the_sidecar_saying_what_the_state_says() {
        use crate::repl::read_sidecar;

        let dir = std::env::temp_dir().join(format!("tracon-one-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (node, metrics) = node_over(&dir, Vec::new());
        let step = |event: RoleEvent, role: Role, epoch: u64, peer: Option<&str>| {
            node.drive(event).unwrap();
            let state = node.repl.state();
            assert_eq!(read_sidecar(&dir).unwrap(), state.sidecar());
            assert_eq!((state.role(), state.epoch), (role, epoch));
            assert_eq!(state.peer.as_deref(), peer);
            assert_eq!((node.repl.role(), node.repl.epoch()), (role, epoch));
        };
        let (replica_of, probe) = (None, None);
        step(RoleEvent::Boot { replica_of, probe }, Role::Leader, 1, None);
        let (addr, leader_addr) = ("f:1".to_string(), "f:1".to_string());
        let pull = RoleEvent::Pull {
            epoch: 1,
            addr,
            ttl_ms: 100,
        };
        step(pull, Role::Leader, 1, Some("f:1"));
        let lease = RoleEvent::Lease {
            epoch: 2,
            leader_addr,
        };
        step(lease, Role::Fenced, 2, Some("f:1"));
        assert_eq!(metrics.repl_role.load(Ordering::Relaxed), 2);
        let answer = RoleEvent::ProbeResult {
            epoch: 2,
            role: Role::Leader,
        };
        step(answer, Role::Follower, 2, Some("f:1"));
        assert_eq!(lock(&node.wals).len(), 1, "reopened for the follower loop");
        let chunk = RoleEvent::Chunk {
            shard: 0,
            epoch: 3,
            boot: 9,
            next: 0,
        };
        step(chunk, Role::Follower, 3, Some("f:1"));
        assert_eq!(read_sidecar(&dir).unwrap().leader.as_deref(), Some("f:1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
