//! Deterministic in-process replication harness: two symmetric nodes —
//! each a [`RoleState`], real [`Service`] shards with a shipper, and a
//! shard directory of real WAL files — over a seeded virtual link. No
//! sockets, no sleeps, no wall clock. Both nodes run [`role::step`], the
//! function `tracond` runs, and this file only interprets its effects
//! with the daemon's own storage code: boot is `daemon::boot_shards`, a
//! taken chunk lands through `follower::land_chunk`, a promotion restores
//! what `follower::recover_shards` replays, and a demotion reopens what
//! `follower::wipe_shards` emptied. Failover, fencing and rejoin happen
//! by events, never by the harness reaching into a node. Links drop,
//! delay, duplicate, and partition messages under a splitmix64 RNG, so
//! every interleaving is a replayable seed and election safety / log
//! matching / conservation-across-failover are ordinary unit properties
//! (dslab-mp style).
//!
//! Time is a virtual millisecond counter; the `Service` instances see it
//! as a fixed `Instant` base plus the virtual offset, so lease and
//! backoff arithmetic run unmodified.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_stats::prng::SplitMix64;

use crate::daemon::boot_shards;
use crate::metrics::Metrics;
use crate::repl::follower::{land_chunk, recover_shards, wipe_shards};
use crate::repl::role::{self, Effect, PullVerdict, RoleEvent, RoleState};
use crate::repl::{EpochSidecar, PullChunk, Role, ShipLog};
use crate::shard::{restore_shards, route_app, shard_machines, stride_shard};
use crate::state::{ServeConfig, Service};
use crate::table::TaskTable;
use crate::wal::{self, shard_log_name, shard_snapshot_name, Wal};
use tracon_core::SchedulerKind;

/// The shared profiled testbed: building one takes real calibration
/// work, so every sim in the process reuses a single instance.
fn testbed() -> &'static Testbed {
    static TESTBED: OnceLock<Testbed> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let mut cfg = TestbedConfig::small();
        cfg.calibration_points = 6;
        cfg.time_scale = 0.05;
        Testbed::build(&cfg)
    })
}

/// Link fault injection knobs (all probabilities in permille).
#[derive(Debug, Clone, Copy)]
pub struct SimKnobs {
    /// Probability of dropping each message.
    pub drop_permille: u32,
    /// Probability of delivering each message twice.
    pub dup_permille: u32,
    /// Minimum link delay.
    pub min_delay_ms: u64,
    /// Maximum link delay (inclusive).
    pub max_delay_ms: u64,
}

impl Default for SimKnobs {
    fn default() -> SimKnobs {
        SimKnobs {
            drop_permille: 0,
            dup_permille: 0,
            min_delay_ms: 1,
            max_delay_ms: 3,
        }
    }
}

/// A message in flight on the virtual link, addressed to the *other*
/// node — the wire verbs and their replies.
#[derive(Debug, Clone)]
enum SimMsg {
    /// `repl_pull`.
    Pull {
        shard: usize,
        cursor: u64,
        epoch: u64,
    },
    /// Its `ok` reply.
    Chunk {
        shard: usize,
        epoch: u64,
        boot: u64,
        chunk: PullChunk,
    },
    /// Its `not_leader` reply.
    NotLeader { hint: Option<String> },
    /// `repl_lease`: a promotion's claim, or a fenced node's probe.
    Lease { epoch: u64 },
    /// Its reply.
    LeaseReply { epoch: u64, role: Role },
}

/// One queued delivery: `(due_ms, tiebreak_seq, recipient, message)`.
type InFlight = (u64, u64, usize, SimMsg);

/// How often a fenced node probes its leader hint, and a promoted one
/// re-sends its claim.
const PROBE_MS: u64 = 25;

/// One of the pair: everything a `tracond` process and its WAL directory
/// hold, as far as replication can tell.
struct SimNode {
    state: RoleState,
    alive: bool,
    /// What the last `Persist` wrote: the sim's `repl.epoch`.
    sidecar: EpochSidecar,
    /// Scheduler shards, for the life of the process like the daemon's
    /// workers: promoted into, demoted out of.
    services: Vec<Service>,
    ship: Arc<ShipLog>,
    boot: u64,
    /// The node's `--wal` directory, removed with the node.
    dir: PathBuf,
    metrics: Arc<Metrics>,
    /// The shard logs taken chunks land in while this node follows
    /// (`Node::wals`): surrendered at promotion, reopened empty at
    /// demotion.
    wals: Vec<Wal>,
    /// Per shard, the shipped stream's table the follower compacts from
    /// (`run_follower`'s mirrors).
    mirrors: Vec<TaskTable>,
    /// Whether a leader snapshot landed since this node began following.
    installed: bool,
    next_poll_ms: u64,
    /// How many more times a promotion's claim is re-sent.
    claims_left: u32,
}

impl Drop for SimNode {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fresh shard directory, unique in the process.
fn fresh_dir(seed: u64, node: usize) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("tracon-sim-{}-{n}-{seed:x}-n{node}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A replicated pair over a faulty virtual link. Node 0 boots standalone
/// (and so leads at epoch 1), node 1 boots as its `--replica-of`.
pub struct SimCluster {
    now_ms: u64,
    base: Instant,
    rng: SplitMix64,
    knobs: SimKnobs,
    partitioned: bool,
    shards: usize,
    poll_ms: u64,
    snapshot_every: u64,
    /// Failpoint scope carried by this cluster's ship logs, so a test can
    /// arm `repl.ship.push@<scope>` without faulting other ships in the
    /// process.
    ship_scope: String,
    nodes: [SimNode; 2],
    net: Vec<InFlight>,
    next_seq: u64,
}

fn addr(node: usize) -> String {
    format!("n{node}")
}

impl SimCluster {
    /// Build the pair: `shards` `Service` shards per node, shipper
    /// attached, each node with a fresh shard directory that compacts
    /// every `snapshot_every` records. Both boot as `daemon::start` does:
    /// their shard files first, then [`RoleEvent::Boot`].
    pub fn new(
        seed: u64,
        shards: usize,
        ttl_ms: u64,
        poll_ms: u64,
        snapshot_every: u64,
        knobs: SimKnobs,
    ) -> SimCluster {
        let shards = shards.max(1);
        let cfg = ServeConfig {
            machines: shards * 2,
            slots_per_machine: 1,
            scheduler: SchedulerKind::Mios,
            queue_capacity: 512,
            // Leases far beyond any sim horizon: task lifecycle noise
            // (expiry/requeue) is covered elsewhere; here the WAL stream
            // itself is under test.
            lease_base_ms: 600_000,
            lease_per_predicted_s_ms: 0,
            wal_snapshot_every: snapshot_every,
            shards,
            ..ServeConfig::default()
        };
        let base = Instant::now();
        let ship_scope = format!("sim-{seed:016x}");
        let slices = shard_machines(cfg.machines, shards);
        let nodes = [0usize, 1].map(|node| {
            let metrics = Arc::new(Metrics::with_shards(shards));
            let ship = Arc::new(ShipLog::new_scoped(shards, ship_scope.clone()));
            let mut services: Vec<Service> = (0..shards)
                .map(|shard| {
                    let mut shard_cfg = cfg.clone();
                    let (base, count) = slices[shard];
                    shard_cfg.machines = count;
                    let mut svc = Service::new_shard(
                        testbed(),
                        shard_cfg,
                        Arc::clone(&metrics),
                        shard,
                        shards,
                        base,
                    );
                    svc.attach_shipper(Arc::clone(&ship));
                    svc
                })
                .collect();
            let dir = fresh_dir(seed, node);
            let replica = node == 1;
            let wals = boot_shards(&mut services, &dir, replica, snapshot_every, &metrics, base)
                .expect("a sim node boots from its shard directory");
            let sidecar = EpochSidecar::default();
            SimNode {
                state: RoleState::from_sidecar(&addr(node), ttl_ms, shards, &sidecar, 0),
                alive: true,
                sidecar,
                services,
                ship,
                boot: (seed << 1) | node as u64 | 2,
                dir,
                metrics,
                wals,
                mirrors: vec![TaskTable::default(); shards],
                installed: false,
                next_poll_ms: 0,
                claims_left: 0,
            }
        });
        let mut sim = SimCluster {
            now_ms: 0,
            base,
            rng: SplitMix64::new(seed ^ 0xD1F7_0A11),
            knobs,
            partitioned: false,
            shards,
            poll_ms: poll_ms.max(1),
            snapshot_every,
            ship_scope,
            nodes,
            net: Vec::new(),
            next_seq: 0,
        };
        for (node, replica_of) in [(0, None), (1, Some(addr(0)))] {
            let probe = None;
            sim.drive(node, RoleEvent::Boot { replica_of, probe });
        }
        sim
    }

    /// Replace the link fault knobs mid-run (e.g. heal a lossy link so a
    /// final sync converges deterministically).
    pub fn set_knobs(&mut self, knobs: SimKnobs) {
        self.knobs = knobs;
    }

    /// Virtual now.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The failpoint scope carried by this cluster's ship logs.
    pub fn ship_scope(&self) -> &str {
        &self.ship_scope
    }

    fn inst(&self) -> Instant {
        self.base + Duration::from_millis(self.now_ms)
    }

    /// One node's role machine, as it stands.
    pub fn state(&self, node: usize) -> &RoleState {
        &self.nodes[node].state
    }

    /// Whether a leader snapshot landed on `node` since it began
    /// following (its own compactions do not count).
    pub fn has_snapshot(&self, node: usize) -> bool {
        self.nodes[node].installed
    }

    /// Partition or heal the link (both directions).
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
        if on {
            self.net.clear();
        }
    }

    /// Stop a node's process: in-flight messages are lost and nothing is
    /// answered. Its state is kept — for post-mortem comparison, exactly
    /// like reading a dead process's core, and for [`Self::revive`].
    pub fn kill(&mut self, node: usize) {
        self.nodes[node].alive = false;
        self.net.clear();
    }

    /// Let a stopped node run again *without* resetting its state — the
    /// stale-leader-reconnect scenario.
    pub fn revive(&mut self, node: usize) {
        self.nodes[node].alive = true;
    }

    /// Submit one task to `node`, app chosen by the RNG. `None` when it
    /// is dead or does not admit mutations (not leading, or suspended),
    /// or refuses (backpressure).
    pub fn submit(&mut self, node: usize) -> Option<u64> {
        if !self.nodes[node].alive || !self.nodes[node].state.admits() {
            return None;
        }
        let now = self.inst();
        let services = &mut self.nodes[node].services;
        let apps = services[0].app_list().len();
        let name = services[0].app_list()[self.rng.below(apps as u64) as usize].clone();
        let shard = route_app(services[0].app_id(&name)?, self.shards);
        services[shard].submit(&name, now).ok().map(|a| a.task)
    }

    /// Report one task complete on `node`, to the shard its id names as
    /// the reactor routes it. False when refused (unknown/not running) or
    /// the node is dead or does not admit.
    pub fn complete(&mut self, node: usize, task: u64) -> bool {
        if !self.nodes[node].alive || !self.nodes[node].state.admits() {
            return false;
        }
        let now = self.inst();
        let svc = &mut self.nodes[node].services[stride_shard(task, self.shards)];
        svc.complete(task, 1.0, 50.0, now).is_ok()
    }

    /// Put `msg` on the link towards `to`, subject to the fault knobs.
    fn send(&mut self, to: usize, msg: SimMsg) {
        if self.partitioned || self.rng.chance(self.knobs.drop_permille) {
            return;
        }
        let span = self
            .knobs
            .max_delay_ms
            .saturating_sub(self.knobs.min_delay_ms)
            + 1;
        let mut deliveries = 1;
        if self.rng.chance(self.knobs.dup_permille) {
            deliveries = 2;
        }
        for _ in 0..deliveries {
            let delay = self.knobs.min_delay_ms + self.rng.below(span);
            let due = self.now_ms + delay.max(1);
            self.net.push((due, self.next_seq, to, msg.clone()));
            self.next_seq += 1;
        }
    }

    /// Step `node`'s role machine and run the effects in order: the
    /// sim's half of what `Node::drive` is to the daemon. Returns the
    /// step's last effect (where the verdicts are).
    fn drive(&mut self, node: usize, event: RoleEvent) -> Option<Effect> {
        let now = self.inst();
        let (shards, every) = (self.shards, self.snapshot_every);
        let (next, effects) = role::step(&self.nodes[node].state, self.now_ms, event);
        let this = &mut self.nodes[node];
        for effect in &effects {
            match effect {
                Effect::Persist { sidecar, .. } => this.sidecar = sidecar.clone(),
                Effect::PromoteShards => {
                    // What `Node::promote_shards` and each worker's
                    // `Promote` do: release the follower's logs, recover
                    // the directory, restore every shard (whose covering
                    // snapshot pushes the ship base past 0, so a cursor-0
                    // rejoiner starts with an install).
                    this.wals.clear();
                    let restores = recover_shards(&this.dir, shards, every, &this.metrics)
                        .expect("a promotion recovers its shard directory");
                    restore_shards(&mut this.services, restores, now);
                }
                Effect::DemoteShards => {
                    // What each worker's `Demote` and then
                    // `Node::demote_shards` do, and the fresh mirrors the
                    // follower loop starts with.
                    this.services.iter_mut().for_each(Service::demote);
                    this.wals = wipe_shards(&this.dir, shards, every)
                        .expect("a demotion wipes its shard directory");
                    this.mirrors = vec![TaskTable::default(); shards];
                    this.installed = false;
                }
                Effect::Publish { role, epoch, .. } => {
                    // The ordering rule the daemon's safety rests on,
                    // checked on every run: a claim is on disk before
                    // anything is served under it.
                    let durable = (this.sidecar.role, this.sidecar.epoch) == (*role, *epoch);
                    assert!(
                        *role != Role::Leader || durable,
                        "led before the claim was durable"
                    );
                }
                Effect::SendLease { .. } => this.claims_left = 8,
                Effect::ApplyChunk | Effect::ResetCursors | Effect::Pull(_) => {}
            }
        }
        this.state = next;
        effects.into_iter().last()
    }

    /// What `follower::restart` does: the shard's mirror and pull cursor
    /// go home, so the next pull re-installs it from the leader.
    fn restart(&mut self, node: usize, shard: usize) {
        self.nodes[node].mirrors[shard] = TaskTable::default();
        self.drive(node, RoleEvent::CursorLost { shard });
    }

    /// Advance virtual time by `ms`, one millisecond at a time: ticking
    /// both nodes (role machine, and the scheduler shards of whoever
    /// leads), issuing follower polls, fenced probes and promotion
    /// claims on cadence, and delivering due messages in `(due, seq)`
    /// order.
    pub fn step(&mut self, ms: u64) {
        for _ in 0..ms {
            self.now_ms += 1;
            for node in 0..2 {
                if !self.nodes[node].alive {
                    continue;
                }
                self.drive(node, RoleEvent::Tick);
                if self.nodes[node].state.role() == Role::Leader {
                    let now = self.inst();
                    for svc in &mut self.nodes[node].services {
                        svc.tick(now);
                    }
                }
                if self.now_ms >= self.nodes[node].next_poll_ms {
                    self.poll(node);
                }
            }
            self.deliver_due();
        }
    }

    /// What `node`'s background threads send this round.
    fn poll(&mut self, node: usize) {
        let this = &mut self.nodes[node];
        let state = this.state.clone();
        this.next_poll_ms = self.now_ms + self.poll_ms;
        match state.role() {
            Role::Leader => {
                if this.claims_left > 0 {
                    this.claims_left -= 1;
                    this.next_poll_ms = self.now_ms + PROBE_MS;
                    let epoch = state.epoch;
                    self.send(1 - node, SimMsg::Lease { epoch });
                }
            }
            Role::Follower => {
                for shard in 0..self.shards {
                    let (cursor, epoch) = (state.cursor(shard), state.epoch);
                    let pull = SimMsg::Pull {
                        shard,
                        cursor,
                        epoch,
                    };
                    self.send(1 - node, pull);
                }
            }
            Role::Fenced => {
                this.next_poll_ms = self.now_ms + PROBE_MS;
                if let Some((_, epoch)) = state.probe(false) {
                    self.send(1 - node, SimMsg::Lease { epoch });
                }
            }
        }
    }

    fn deliver_due(&mut self) {
        loop {
            let due = self
                .net
                .iter()
                .enumerate()
                .filter(|(_, m)| m.0 <= self.now_ms);
            let Some((idx, _)) = due.min_by_key(|(_, m)| (m.0, m.1)) else {
                return;
            };
            let (_, _, to, msg) = self.net.swap_remove(idx);
            if !self.nodes[to].alive {
                continue;
            }
            let from = 1 - to;
            match msg {
                SimMsg::Pull {
                    shard,
                    cursor,
                    epoch,
                } => {
                    let ttl_ms = self.nodes[from].state.ttl_ms;
                    let pull = RoleEvent::Pull {
                        epoch,
                        addr: addr(from),
                        ttl_ms,
                    };
                    let reply = match self.drive(to, pull) {
                        Some(Effect::Pull(PullVerdict::Serve | PullVerdict::Observer)) => {
                            let this = &self.nodes[to];
                            SimMsg::Chunk {
                                shard,
                                epoch: this.state.epoch,
                                boot: this.boot,
                                chunk: this.ship.pull(shard, cursor),
                            }
                        }
                        Some(Effect::Pull(PullVerdict::NotLeader)) => {
                            let hint = self.nodes[to].state.hint().map(str::to_string);
                            SimMsg::NotLeader { hint }
                        }
                        _ => continue,
                    };
                    self.send(from, reply);
                }
                SimMsg::Chunk {
                    shard,
                    epoch,
                    boot,
                    chunk,
                } => {
                    let next = chunk.next;
                    let header = RoleEvent::Chunk {
                        shard,
                        epoch,
                        boot,
                        next,
                    };
                    // `follower::take_chunk`, with this node's logs.
                    if self.drive(to, header) == Some(Effect::ApplyChunk) {
                        let this = &mut self.nodes[to];
                        let (wal, mirror) = (&mut this.wals[shard], &mut this.mirrors[shard]);
                        if land_chunk(wal, mirror, &chunk, shard, &this.metrics) {
                            this.installed |= chunk.snapshot.is_some();
                        } else {
                            self.restart(to, shard);
                        }
                    }
                }
                SimMsg::NotLeader { hint } => {
                    if let Some(leader_addr) = hint {
                        self.drive(to, RoleEvent::NotLeaderHint { leader_addr });
                    }
                }
                SimMsg::Lease { epoch } => {
                    let leader_addr = addr(from);
                    self.drive(to, RoleEvent::Lease { epoch, leader_addr });
                    let state = &self.nodes[to].state;
                    let (epoch, role) = (state.epoch, state.role());
                    self.send(from, SimMsg::LeaseReply { epoch, role });
                }
                SimMsg::LeaseReply { epoch, role } => {
                    // Only a fenced node asked anything.
                    self.drive(to, RoleEvent::ProbeResult { epoch, role });
                }
            }
        }
    }

    /// Step until `done` holds or `max_ms` passes; whether it held.
    pub fn run_until(&mut self, max_ms: u64, done: impl Fn(&SimCluster) -> bool) -> bool {
        let deadline = self.now_ms + max_ms;
        while !done(self) && self.now_ms < deadline {
            self.step(1);
        }
        done(self)
    }

    /// Step until the node that follows is fully caught up with the one
    /// that leads (lag 0 and the link idle) or `max_ms` elapses; true on
    /// success.
    pub fn run_until_synced(&mut self, max_ms: u64) -> bool {
        self.step(1);
        self.run_until(max_ms, |sim| {
            let Some(f) = (0..2).find(|&n| sim.nodes[n].state.synced()) else {
                return false;
            };
            let (leader, follower) = (&sim.nodes[1 - f], &sim.nodes[f].state);
            sim.net.is_empty()
                && leader.state.role() == Role::Leader
                && (0..sim.shards).all(|s| follower.cursor(s) == leader.ship.next_seq(s))
        })
    }

    /// Bit rot lands on one of a node's shard files: a byte of the log's
    /// first frame flips (a checksum failure mid-log), or of the snapshot
    /// document when the log holds no frame.
    pub fn corrupt_shard(&mut self, node: usize, shard: usize) {
        let dir = &self.nodes[node].dir;
        let log = dir.join(shard_log_name(shard));
        let (path, at) = match std::fs::metadata(&log) {
            Ok(meta) if meta.len() > 8 => (log, 8),
            _ => (dir.join(shard_snapshot_name(shard)), 0),
        };
        let mut bytes = std::fs::read(&path).expect("a shard file to rot");
        bytes[at] ^= 0xFF;
        std::fs::write(&path, bytes).expect("the rotted shard file is written");
    }

    /// What the follower loop does on its scrub cadence: one
    /// `wal::scrub_pass` over the node's directory, and a restart of
    /// every shard it flags. Returns the flagged shards.
    pub fn scrub_repair(&mut self, node: usize) -> Vec<usize> {
        let this = &self.nodes[node];
        let rotten = wal::scrub_pass(&this.dir, self.shards, &this.metrics);
        for &shard in &rotten {
            self.restart(node, shard);
        }
        rotten
    }

    /// Summed `(admitted, completed, dead_lettered, outstanding)` over a
    /// node's shards.
    pub fn counts(&self, node: usize) -> (u64, u64, u64, u64) {
        let mut sums = (0u64, 0u64, 0u64, 0u64);
        for snap in self.nodes[node].services.iter().map(Service::status) {
            sums.0 += snap.admitted;
            sums.1 += snap.completed;
            sums.2 += snap.dead_lettered;
            sums.3 += (snap.queued + snap.delayed + snap.running) as u64;
        }
        sums
    }

    /// Every shard of a node satisfies the conservation invariant.
    pub fn conserved(&self, node: usize) -> bool {
        let services = &self.nodes[node].services;
        services.iter().all(|svc| svc.status().conserved())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cadence no test reaches: no compaction beyond the boot snapshot.
    const LOOSE: u64 = 1_000_000;

    fn promoted(sim: &SimCluster) -> bool {
        sim.state(1).role() == Role::Leader
    }

    /// Submit/complete a workload while the link drops, delays, and
    /// duplicates; after healing and catching up, the promoted follower
    /// must agree with the leader's ledger exactly.
    #[test]
    fn log_matching_survives_lossy_links() {
        for seed in [1u64, 0xBEEF, 0x5EED_CAFE] {
            let knobs = SimKnobs {
                drop_permille: 150,
                dup_permille: 150,
                min_delay_ms: 1,
                max_delay_ms: 9,
            };
            let mut sim = SimCluster::new(seed, 2, 400, 10, LOOSE, knobs);
            let mut tasks = Vec::new();
            for round in 0..30 {
                if let Some(task) = sim.submit(0) {
                    tasks.push(task);
                }
                if round % 3 == 0 {
                    if let Some(&task) = tasks.get(round / 3) {
                        sim.complete(0, task);
                    }
                }
                sim.step(7);
            }
            // Heal the link and drain.
            sim.set_knobs(SimKnobs::default());
            assert!(sim.run_until_synced(5_000), "seed {seed}: never caught up");
            let leader = sim.counts(0);
            sim.kill(0);
            assert!(sim.run_until(5_000, promoted));
            assert!(sim.state(1).epoch > sim.state(0).epoch, "election safety");
            assert_eq!(
                sim.counts(1),
                leader,
                "seed {seed}: promoted ledger diverged"
            );
            assert!(sim.conserved(1));
        }
    }

    /// A partition during promotion: the follower promotes blind, the
    /// stale leader keeps its side, and on heal the lease claim fences
    /// it — with the promoted epoch strictly higher.
    #[test]
    fn partition_during_promotion_fences_the_stale_leader() {
        let mut sim = SimCluster::new(7, 1, 200, 10, LOOSE, SimKnobs::default());
        for _ in 0..5 {
            sim.submit(0);
            sim.step(5);
        }
        assert!(sim.run_until_synced(3_000));
        sim.set_partitioned(true);
        // The stale leader keeps admitting during the partition.
        sim.submit(0);
        assert!(sim.run_until(3_000, promoted));
        assert!(sim.state(1).epoch > sim.state(0).epoch);
        assert_eq!(sim.state(0).role(), Role::Leader, "still split-brained");
        // Heal: the promotion's lease claim lands.
        sim.set_partitioned(false);
        assert!(sim.run_until(100, |sim| sim.state(0).role() == Role::Fenced));
        assert_eq!(sim.state(0).epoch, sim.state(1).epoch);
        // A fenced node refuses mutations.
        assert!(sim.submit(0).is_none());
        assert!(sim.conserved(1));
    }

    /// A partitioned leader must stop acking writes no later than its
    /// follower's lease lapses (when promotion becomes legitimate): every
    /// write acked past that point would be silently lost to the new
    /// leader. Suspension is not fencing — the link healing (with the
    /// follower provably unpromoted, by its epoch) resumes writes.
    #[test]
    fn partitioned_leader_suspends_writes_before_the_follower_promotes() {
        let mut sim = SimCluster::new(42, 1, 200, 10, LOOSE, SimKnobs::default());
        for _ in 0..5 {
            sim.submit(0);
            sim.step(5);
        }
        assert!(sim.run_until_synced(3_000));
        sim.set_partitioned(true);
        // Inside the TTL the leader still serves writes: this is the
        // bounded lost-acked-write window.
        assert!(sim.submit(0).is_some());
        assert!(sim.run_until(3_000, promoted));
        // By the time the follower promotes, the leader has already
        // gone read-only — without any message reaching it.
        assert!(!sim.state(0).admits());
        assert!(sim.submit(0).is_none());
        assert!(!sim.complete(0, 0));
        assert_eq!(
            sim.state(0).role(),
            Role::Leader,
            "suspension must not change the role"
        );

        // The same partition against a leader configured with a tighter
        // TTL than its follower, so it can heal between the suspension
        // and the promotion: the follower's same-epoch pulls prove it
        // never claimed leadership, so writes resume.
        let mut sim = SimCluster::new(42, 1, 200, 10, LOOSE, SimKnobs::default());
        if let role::Mode::Leader { ttl_ms, .. } = &mut sim.nodes[0].state.mode {
            *ttl_ms = 100;
        }
        assert!(sim.run_until_synced(3_000));
        sim.set_partitioned(true);
        assert!(sim.run_until(3_000, |sim| !sim.state(0).admits()));
        assert!(sim.submit(0).is_none());
        sim.set_partitioned(false);
        sim.step(50);
        assert!(sim.state(0).admits());
        assert_eq!(sim.state(1).role(), Role::Follower);
        assert!(sim.submit(0).is_some());
    }

    /// Heavy duplication alone must not corrupt the follower: the merge
    /// is idempotent.
    #[test]
    fn duplicate_frames_collapse_harmlessly() {
        let knobs = SimKnobs {
            drop_permille: 0,
            dup_permille: 600,
            min_delay_ms: 1,
            max_delay_ms: 12,
        };
        let mut sim = SimCluster::new(0xD0_D0, 1, 300, 10, LOOSE, knobs);
        let mut tasks = Vec::new();
        for _ in 0..12 {
            if let Some(t) = sim.submit(0) {
                tasks.push(t);
            }
            sim.step(6);
        }
        for &t in tasks.iter().take(6) {
            sim.complete(0, t);
            sim.step(6);
        }
        assert!(sim.run_until_synced(5_000));
        let leader = sim.counts(0);
        sim.kill(0);
        assert!(sim.run_until(3_000, promoted));
        assert_eq!(sim.counts(1), leader);
        assert!(sim.conserved(1));
    }

    /// A follower cut off across a compaction horizon must resync via
    /// snapshot install, not a frame gap.
    #[test]
    fn lagging_follower_resyncs_through_a_snapshot() {
        let mut sim = SimCluster::new(0x51AB, 1, 500, 10, 8, SimKnobs::default());
        sim.set_partitioned(true);
        // Everything below happens beyond the follower's sight; the
        // leader compacts at least once (>= 8 records).
        let mut tasks = Vec::new();
        for _ in 0..10 {
            if let Some(t) = sim.submit(0) {
                tasks.push(t);
            }
            sim.step(2);
        }
        for &t in tasks.iter().take(4) {
            sim.complete(0, t);
            sim.step(2);
        }
        sim.set_partitioned(false);
        assert!(sim.run_until_synced(5_000));
        assert!(
            sim.has_snapshot(1),
            "catch-up must have gone through snapshot install"
        );
        let leader = sim.counts(0);
        sim.kill(0);
        assert!(sim.run_until(3_000, promoted));
        assert_eq!(sim.counts(1), leader);
        assert!(sim.conserved(1));
    }

    /// The self-healing rejoin: a fenced ex-leader probes its way back
    /// into the single follower slot, wipes, and resyncs from the
    /// promoted leader through a snapshot install — all within 2 lease
    /// TTLs of the link healing. The rejoined pair must then survive a
    /// second failover with the full ledger intact.
    #[test]
    fn fenced_ex_leader_rejoins_and_resyncs_within_two_ttls() {
        for seed in [3u64, 0xA11CE] {
            let ttl = 300u64;
            let mut sim = SimCluster::new(seed, 2, ttl, 10, 4, SimKnobs::default());
            let mut tasks = Vec::new();
            for _ in 0..12 {
                if let Some(t) = sim.submit(0) {
                    tasks.push(t);
                }
                sim.step(5);
            }
            for &t in tasks.iter().take(5) {
                sim.complete(0, t);
                sim.step(5);
            }
            assert!(sim.run_until_synced(5_000), "seed {seed}: never synced");
            sim.set_partitioned(true);
            assert!(sim.run_until(3_000, promoted));
            let expect = sim.counts(1);
            // Heal: the promotion's lease claim fences the old leader,
            // which self-heals: probe, wipe, demote, rejoin as the
            // follower.
            sim.set_partitioned(false);
            let healed = sim.now_ms();
            assert!(sim.run_until(2 * ttl, |sim| sim.state(0).role() == Role::Fenced));
            assert!(
                sim.run_until_synced(healed + 2 * ttl - sim.now_ms()),
                "seed {seed}: rejoin overran 2 TTLs"
            );
            assert_eq!(sim.state(0).role(), Role::Follower);
            assert!(
                sim.has_snapshot(0),
                "rejoin must go through snapshot install"
            );
            assert_eq!(sim.counts(1), expect);
            // The healed pair can fail over again without losing anything.
            sim.kill(1);
            assert!(sim.run_until(3_000, |sim| sim.state(0).role() == Role::Leader));
            assert!(sim.state(0).epoch > sim.state(1).epoch);
            assert_eq!(
                sim.counts(0),
                expect,
                "seed {seed}: second failover lost data"
            );
            assert!(sim.conserved(0));
        }
    }

    /// Bit rot in a follower's shard file mid-run: the scrub finds the
    /// flipped byte and resets the shard's cursor, and the re-pull (racing
    /// a lossy link and fresh traffic) installs the leader's snapshot over
    /// the rot and converges back to the leader's exact ledger.
    #[test]
    fn scrub_repair_recovers_a_rotted_journal_under_loss() {
        for seed in [9u64, 0xC0FFEE] {
            let knobs = SimKnobs {
                drop_permille: 120,
                dup_permille: 80,
                min_delay_ms: 1,
                max_delay_ms: 7,
            };
            let mut sim = SimCluster::new(seed, 2, 400, 10, 4, knobs);
            let mut tasks = Vec::new();
            for _ in 0..14 {
                if let Some(t) = sim.submit(0) {
                    tasks.push(t);
                }
                sim.step(6);
            }
            for &t in tasks.iter().take(6) {
                sim.complete(0, t);
                sim.step(6);
            }
            // Rot lands on shard 0. The momentary partition stands in for
            // the real follower's single-threadedness: no chunk pulled
            // before the scrub is applied after it.
            sim.set_partitioned(true);
            sim.corrupt_shard(1, 0);
            assert_eq!(
                sim.scrub_repair(1),
                [0],
                "seed {seed}: the scrub missed the rot"
            );
            sim.set_partitioned(false);
            // More traffic while the repair races the lossy link.
            for _ in 0..6 {
                if let Some(t) = sim.submit(0) {
                    tasks.push(t);
                }
                sim.step(6);
            }
            sim.set_knobs(SimKnobs::default());
            assert!(
                sim.run_until_synced(5_000),
                "seed {seed}: repair never converged"
            );
            assert!(
                sim.has_snapshot(1),
                "repair must re-install from the leader's snapshot"
            );
            let leader = sim.counts(0);
            sim.kill(0);
            assert!(sim.run_until(3_000, promoted));
            assert_eq!(
                sim.counts(1),
                leader,
                "seed {seed}: repaired ledger diverged"
            );
            assert!(sim.conserved(1));
        }
    }

    /// Election safety holds even while a failpoint silently drops ship
    /// pushes: the dropped records ride the next covering snapshot trim,
    /// the promoted epoch is strictly higher, and the revived ex-leader
    /// fences instead of splitting the brain.
    #[test]
    fn no_split_brain_while_ship_pushes_drop_under_failpoints() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let seed = 0xFA11u64;
        let mut sim = SimCluster::new(seed, 1, 300, 10, 4, SimKnobs::default());
        let spec = format!("seed=7;repl.ship.push@{}=skip%250", sim.ship_scope());
        crate::failpoint::arm(&spec).expect("spec parses");
        let mut tasks = Vec::new();
        for _ in 0..16 {
            if let Some(t) = sim.submit(0) {
                tasks.push(t);
            }
            sim.step(6);
        }
        for &t in tasks.iter().take(6) {
            sim.complete(0, t);
            sim.step(6);
        }
        crate::failpoint::disarm_all();
        // Enough post-disarm records to force a covering trim: a trim's
        // snapshot covers ALL prior state, including the dropped pushes.
        for _ in 0..6 {
            sim.submit(0);
            sim.step(6);
        }
        assert!(sim.run_until_synced(5_000));
        let leader = sim.counts(0);
        sim.kill(0);
        assert!(sim.run_until(3_000, promoted));
        assert!(
            sim.state(1).epoch > sim.state(0).epoch,
            "election safety under fault injection"
        );
        sim.revive(0);
        assert!(sim.run_until(100, |sim| sim.state(0).role() == Role::Fenced));
        assert!(
            sim.submit(0).is_none(),
            "fenced ex-leader must refuse writes"
        );
        assert_eq!(sim.counts(1), leader);
        assert!(sim.conserved(1));
    }

    /// The replicated generalization: conservation survives a full
    /// failover. A leader takes random submit/complete/step traffic while
    /// shipping its WAL to a warm follower over a lossy, duplicating,
    /// reordering virtual link (optionally through a snapshot install
    /// when compaction outruns the follower); the leader is then killed
    /// at an arbitrary point, the follower promotes after the lease
    /// lapses, and the promoted node must hold exactly the leader's
    /// counters — conserved — and keep the invariant under fresh
    /// post-failover traffic. When the old leader reconnects stale, the
    /// promoted epoch must fence it.
    #[test]
    fn conservation_survives_replicated_failover() {
        tracon_stats::prng::check_cases(0..8, |rng| {
            let seed = rng.next_u64();
            let ops: Vec<(u8, u16)> = (0..rng.range_usize(1, 28))
                .map(|_| (rng.range_usize(0, 3) as u8, rng.range_usize(0, 512) as u16))
                .collect();
            let loss_permille = rng.range_usize(0, 220) as u32;
            let shards = rng.range_usize(1, 3);
            let tight_snapshots = rng.next_u64() & 1 == 1;
            let stale_reconnect = rng.next_u64() & 1 == 1;
            let knobs = SimKnobs {
                drop_permille: loss_permille,
                dup_permille: loss_permille,
                ..SimKnobs::default()
            };
            // Tight: compaction outruns a fresh follower, forcing the
            // snapshot install path rather than a pure frame replay.
            let every = if tight_snapshots { 4 } else { LOOSE };
            let mut sim = SimCluster::new(seed, shards, 200, 20, every, knobs);
            let mut tasks: Vec<u64> = Vec::new();
            for (op, x) in ops {
                let x = x as usize;
                match op {
                    0 => {
                        if let Some(task) = sim.submit(0) {
                            tasks.push(task);
                        }
                    }
                    1 => {
                        if !tasks.is_empty() {
                            let task = tasks[x % tasks.len()];
                            sim.complete(0, task);
                        }
                    }
                    _ => sim.step((x % 40 + 1) as u64),
                }
                assert!(sim.conserved(0), "leader broke conservation mid-run");
            }
            // Heal the link and let the follower catch up — a failover can
            // only preserve what the leader actually shipped.
            sim.set_knobs(SimKnobs::default());
            assert!(sim.run_until_synced(20_000), "follower never caught up");
            let shipped = sim.counts(0);
            let old_epoch = sim.state(0).epoch;

            sim.kill(0);
            let promoted = |sim: &SimCluster| sim.state(1).role() == Role::Leader;
            assert!(sim.run_until(5_000, promoted), "lease never lapsed");
            assert!(
                sim.state(1).epoch > old_epoch,
                "promotion must outrank the old leader"
            );
            assert!(sim.conserved(1), "promoted node broke conservation");
            assert_eq!(sim.counts(1), shipped, "failover lost or invented tasks");

            if stale_reconnect {
                // The dead leader comes back with its old state and receives
                // the promoted node's lease claim: it must fence, and refuse
                // mutations from then on.
                sim.revive(0);
                let fenced = |sim: &SimCluster| sim.state(0).role() == Role::Fenced;
                assert!(sim.run_until(200, fenced), "stale leader not fenced");
                assert!(sim.submit(0).is_none(), "fenced leader accepted a submit");
            }

            // The new leader keeps the invariant under fresh traffic.
            let mut fresh: Vec<u64> = Vec::new();
            for _ in 0..6 {
                if let Some(task) = sim.submit(1) {
                    fresh.push(task);
                }
            }
            for task in fresh.iter().step_by(2) {
                sim.complete(1, *task);
            }
            assert!(sim.conserved(1), "post-failover traffic broke conservation");
        });
    }

    /// `(task, app, state, attempts)` of every row, in id order.
    type Rows = Vec<(u64, String, crate::table::RecState, u32)>;

    /// The rows a node's shards hold live.
    fn live_rows(sim: &SimCluster, node: usize) -> Rows {
        let services = &sim.nodes[node].services;
        let mut rows: Rows = services
            .iter()
            .flat_map(|svc| svc.table().iter())
            .map(|r| (r.task, r.app, r.state, r.attempts))
            .collect();
        rows.sort_by_key(|row| row.0);
        rows
    }

    /// The rows `recover_dir` replays from a node's shard directory: what
    /// its promotion would restore.
    fn replayed_rows(sim: &SimCluster, node: usize) -> Rows {
        let (dir, every) = (&sim.nodes[node].dir, sim.snapshot_every);
        let (_, merged) = crate::shard::recover_dir(dir, sim.shards, every, &|_| None).unwrap();
        let rows = merged.tasks.into_iter().map(|t| t.rec);
        rows.map(|r| (r.task, r.app, r.state, r.attempts)).collect()
    }

    /// Live == replayed: once the follower has caught up over a lossy
    /// link, its shard files replay to the leader's live task table — the
    /// same ids, apps, states and attempts — whether they hold every
    /// shipped frame (loose cadence) or the follower's own compactions
    /// and the leader's snapshot installs (tight).
    #[test]
    fn a_synced_followers_shard_files_replay_the_leaders_live_table() {
        for (seed, every) in [(0x11FE_u64, LOOSE), (0x7161, 3)] {
            let knobs = SimKnobs {
                drop_permille: 100,
                dup_permille: 100,
                min_delay_ms: 1,
                max_delay_ms: 6,
            };
            let mut sim = SimCluster::new(seed, 2, 400, 10, every, knobs);
            let mut tasks = Vec::new();
            for round in 0..24 {
                if let Some(task) = sim.submit(0) {
                    tasks.push(task);
                }
                if let Some(&task) = tasks.get(round / 2).filter(|_| round % 2 == 1) {
                    sim.complete(0, task);
                }
                sim.step(5);
            }
            sim.set_knobs(SimKnobs::default());
            assert!(sim.run_until_synced(5_000), "seed {seed}: never synced");
            let live = live_rows(&sim, 0);
            assert!(live.len() >= 20, "seed {seed}: too little traffic");
            assert_eq!(
                replayed_rows(&sim, 1),
                live,
                "seed {seed}: live != replayed"
            );
        }
    }
}
