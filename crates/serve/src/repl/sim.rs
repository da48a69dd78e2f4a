//! Deterministic in-process replication harness: real [`Service`] shards
//! on the leader, the real [`FollowerCore`] on the follower, and a
//! seeded virtual network in between — no sockets, no sleeps, no wall
//! clock. Links drop, delay, duplicate, and partition messages under a
//! splitmix64 RNG, so every interleaving is a replayable seed and
//! election safety / log matching / conservation-across-failover are
//! ordinary unit properties (dslab-mp style).
//!
//! Time is a virtual millisecond counter; the `Service` instances see it
//! as a fixed `Instant` base plus the virtual offset, so lease and
//! backoff arithmetic run unmodified.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_stats::prng::SplitMix64;

use crate::metrics::Metrics;
use crate::repl::{ChunkAction, FollowerCore, LeaderGuard, PullChunk, ReplState, Role, ShipLog};
use crate::shard::{route_app, shard_machines};
use crate::state::{SchedKind, ServeConfig, Service, StatusSnapshot};
use crate::wal::{self, Recovery};

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

/// A message in flight on the virtual link.
#[derive(Debug, Clone)]
enum SimMsg {
    /// Follower -> leader.
    Pull {
        shard: usize,
        cursor: u64,
        epoch: u64,
    },
    /// Leader -> follower.
    Chunk {
        shard: usize,
        epoch: u64,
        boot: u64,
        chunk: PullChunk,
    },
}

/// One queued delivery: `(due_ms, tiebreak_seq, message)`.
type InFlight = (u64, u64, SimMsg);

/// The follower's durable journal for one shard — the sim stand-in for
/// a WAL file: an optional installed snapshot blob plus appended frames.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    /// Last installed snapshot blob.
    pub snapshot: Option<String>,
    /// Frames appended since that snapshot.
    pub frames: Vec<crate::wal::WalRecord>,
}

impl Journal {
    /// Replay this journal into a [`Recovery`], exactly as booting from
    /// the equivalent WAL files would.
    pub fn replay(&self, shard: usize) -> Recovery {
        let mut recovery = Recovery::default();
        if let Some(blob) = &self.snapshot {
            // A corrupt blob surfaces as an empty recovery, same as a
            // torn snapshot on disk.
            let _ = wal::decode_snapshot(blob, &mut recovery);
        }
        for frame in &self.frames {
            wal::apply(&mut recovery, frame.clone(), shard);
        }
        recovery
    }
}

/// A leader/follower pair over a faulty virtual link.
pub struct SimCluster {
    now_ms: u64,
    base: Instant,
    rng: SplitMix64,
    knobs: SimKnobs,
    partitioned: bool,
    leader_alive: bool,

    shards: usize,
    ttl_ms: u64,
    /// Failpoint scope carried by this cluster's ship logs, so a test can
    /// arm `repl.ship.push@<scope>` without faulting other ships in the
    /// process.
    ship_scope: String,
    cfg: ServeConfig,
    services: Vec<Service>,
    repl: ReplState,
    guard: LeaderGuard,

    core: FollowerCore,
    journals: Vec<Journal>,
    poll_ms: u64,
    next_poll_ms: u64,

    net: Vec<InFlight>,
    next_seq: u64,
}

impl SimCluster {
    /// Build a cluster: `shards` leader `Service` shards (shipper
    /// attached, no real WAL) at epoch 1, and a fresh follower.
    pub fn new(seed: u64, shards: usize, ttl_ms: u64, poll_ms: u64, knobs: SimKnobs) -> SimCluster {
        let shards = shards.max(1);
        let cfg = ServeConfig {
            machines: shards * 2,
            slots_per_machine: 1,
            scheduler: SchedKind::Mios,
            queue_capacity: 512,
            // Leases far beyond any sim horizon: task lifecycle noise
            // (expiry/requeue) is covered elsewhere; here the WAL stream
            // itself is under test.
            lease_base_ms: 600_000,
            lease_per_predicted_s_ms: 0,
            wal_snapshot_every: 1_000_000,
            shards,
            ..ServeConfig::default()
        };
        let metrics = Arc::new(Metrics::with_shards(shards));
        let ship_scope = format!("sim-{seed:016x}");
        let ship = Arc::new(ShipLog::new_scoped(shards, ship_scope.clone()));
        let slices = shard_machines(cfg.machines, shards);
        let services: Vec<Service> = (0..shards)
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
        let repl = ReplState::new(
            Role::Leader,
            1,
            None,
            ship,
            Arc::clone(&metrics),
            None,
            seed | 1,
        );
        SimCluster {
            now_ms: 0,
            base: Instant::now(),
            rng: SplitMix64::new(seed ^ 0xD1F7_0A11),
            knobs,
            partitioned: false,
            leader_alive: true,
            shards,
            ttl_ms: ttl_ms.max(1),
            ship_scope,
            cfg,
            services,
            repl,
            // The leader runs the same TTL as the follower, like a real
            // pair whose pull hints have converged the two clocks.
            guard: LeaderGuard::new(ttl_ms.max(1)),
            core: FollowerCore::new(shards, 0, ttl_ms.max(1), 0),
            journals: (0..shards).map(|_| Journal::default()).collect(),
            poll_ms: poll_ms.max(1),
            next_poll_ms: 0,
            net: Vec::new(),
            next_seq: 0,
        }
    }

    /// Override the leader's snapshot cadence (to exercise compaction
    /// and snapshot install in small tests).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.cfg.wal_snapshot_every = every;
        for svc in &mut self.services {
            svc.set_snapshot_every(every);
        }
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

    /// The leader's current epoch.
    pub fn leader_epoch(&self) -> u64 {
        self.repl.epoch()
    }

    /// The leader's current role (fencing flips it).
    pub fn leader_role(&self) -> Role {
        self.repl.role()
    }

    /// Whether any follower journal holds an installed snapshot blob.
    pub fn follower_has_snapshot(&self) -> bool {
        self.journals.iter().any(|j| j.snapshot.is_some())
    }

    /// Partition or heal the link (both directions).
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
        if on {
            self.net.clear();
        }
    }

    /// Kill the leader process: in-flight replies are lost and future
    /// pulls go unanswered. The `Service` state is kept for post-mortem
    /// comparison, exactly like reading a dead process's core.
    pub fn kill_leader(&mut self) {
        self.leader_alive = false;
        self.net.clear();
    }

    /// Whether the leader has suspended mutations because its follower
    /// has been silent for the replication TTL.
    pub fn leader_writes_suspended(&self) -> bool {
        self.guard.suspended_hint().is_some()
    }

    /// Submit one task to the leader, app chosen by the RNG. `None` when
    /// the leader is dead/fenced, write-suspended, or refuses
    /// (backpressure).
    pub fn submit_any(&mut self) -> Option<u64> {
        if !self.leader_alive
            || self.repl.role() != Role::Leader
            || self.guard.suspended_hint().is_some()
        {
            return None;
        }
        let apps = self.services[0].app_list().len();
        let idx = self.rng.below(apps as u64) as usize;
        let name = self.services[0].app_list()[idx].clone();
        let app_id = self.services[0].app_id(&name)?;
        let shard = route_app(app_id, self.shards);
        let now = self.inst();
        self.services[shard].submit(&name, now).ok().map(|a| a.task)
    }

    /// Report one task complete on the leader. False when refused
    /// (unknown/not running) or the leader is dead/fenced/suspended.
    pub fn complete(&mut self, task: u64) -> bool {
        if !self.leader_alive
            || self.repl.role() != Role::Leader
            || self.guard.suspended_hint().is_some()
        {
            return false;
        }
        let now = self.inst();
        self.services
            .iter_mut()
            .any(|svc| svc.complete(task, 1.0, 50.0, now).is_ok())
    }

    fn send(&mut self, msg: SimMsg) {
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
            self.net.push((due, self.next_seq, msg.clone()));
            self.next_seq += 1;
        }
    }

    /// Advance virtual time by `ms`, one millisecond at a time: ticking
    /// the leader, issuing follower polls on cadence, and delivering due
    /// messages in `(due, seq)` order.
    pub fn step(&mut self, ms: u64) {
        for _ in 0..ms {
            self.now_ms += 1;
            if self.leader_alive && self.repl.role() == Role::Leader {
                let now = self.inst();
                for svc in &mut self.services {
                    svc.tick(now);
                }
                // The leader-side lease: once the registered follower is
                // silent past the TTL, the leader stops acking writes —
                // before (or at latest when) the follower can promote.
                self.guard.tick(self.now_ms);
            }
            if self.now_ms >= self.next_poll_ms {
                self.next_poll_ms = self.now_ms + self.poll_ms;
                for shard in 0..self.shards {
                    self.send(SimMsg::Pull {
                        shard,
                        cursor: self.core.cursor(shard),
                        epoch: self.core.epoch(),
                    });
                }
            }
            self.deliver_due();
        }
    }

    fn deliver_due(&mut self) {
        loop {
            let mut best: Option<(usize, u64, u64)> = None;
            for (i, (due, seq, _)) in self.net.iter().enumerate() {
                if *due <= self.now_ms && best.is_none_or(|(_, bd, bs)| (*due, *seq) < (bd, bs)) {
                    best = Some((i, *due, *seq));
                }
            }
            let Some((idx, _, _)) = best else { return };
            let (_, _, msg) = self.net.swap_remove(idx);
            match msg {
                SimMsg::Pull {
                    shard,
                    cursor,
                    epoch,
                } => {
                    if !self.leader_alive {
                        continue;
                    }
                    // A pull from a higher epoch proves a promotion this
                    // node missed: fence before answering anything.
                    if epoch > self.repl.epoch() {
                        self.repl.fence(epoch, None);
                    }
                    if self.repl.role() != Role::Leader {
                        continue; // not_leader: no chunk for the puller.
                    }
                    // The pair's one follower renews the leader-side
                    // lease (and lifts any suspension) on every pull.
                    self.guard.on_pull("follower", self.now_ms);
                    let chunk = self.repl.ship().pull(shard, cursor);
                    self.send(SimMsg::Chunk {
                        shard,
                        epoch: self.repl.epoch(),
                        boot: self.repl.boot(),
                        chunk,
                    });
                }
                SimMsg::Chunk {
                    shard,
                    epoch,
                    boot,
                    chunk,
                } => {
                    let now = self.now_ms;
                    match self.core.on_chunk(shard, epoch, boot, chunk.next, now) {
                        ChunkAction::Apply { .. } => {
                            let journal = &mut self.journals[shard];
                            if let Some(blob) = chunk.snapshot {
                                journal.snapshot = Some(blob);
                                journal.frames.clear();
                            }
                            journal.frames.extend(chunk.frames);
                        }
                        ChunkAction::Reset | ChunkAction::Stale => {}
                    }
                }
            }
        }
    }

    /// Step until the follower is fully caught up (lag 0 and the link
    /// idle) or `max_ms` elapses; true on success.
    pub fn run_until_synced(&mut self, max_ms: u64) -> bool {
        let deadline = self.now_ms + max_ms;
        while self.now_ms < deadline {
            self.step(1);
            if !self.core.synced() || !self.net.is_empty() {
                continue;
            }
            let caught_up = (0..self.shards)
                .all(|shard| self.core.cursor(shard) == self.repl.ship().next_seq(shard));
            if caught_up {
                return true;
            }
        }
        false
    }

    /// Step until the follower's lease lapses (true) or `max_ms` passes.
    pub fn run_until_lease_lapse(&mut self, max_ms: u64) -> bool {
        let deadline = self.now_ms + max_ms;
        while self.now_ms < deadline {
            if self.core.lease_lapsed(self.now_ms) {
                return true;
            }
            self.step(1);
        }
        self.core.lease_lapsed(self.now_ms)
    }

    /// Promote the follower (caller must have driven the lease to lapse):
    /// claims `epoch+1`, replays the journals through real recovery into
    /// fresh `Service` shards, and returns the new leader node. Panics if
    /// the lease has not lapsed — promoting under a live lease would be
    /// an election-safety bug in the *test*.
    pub fn promote_follower(&mut self) -> PromotedNode {
        assert!(
            self.core.lease_lapsed(self.now_ms),
            "promotion attempted under a live lease"
        );
        let epoch = self.core.claim_epoch();
        let metrics = Arc::new(Metrics::with_shards(self.shards));
        let ship = Arc::new(ShipLog::new_scoped(self.shards, self.ship_scope.clone()));
        let slices = shard_machines(self.cfg.machines, self.shards);
        let now = self.inst();
        let mut global_next = 0u64;
        let recoveries: Vec<Recovery> = self
            .journals
            .iter()
            .enumerate()
            .map(|(shard, journal)| {
                let recovery = journal.replay(shard);
                global_next = global_next.max(recovery.next_task_id);
                recovery
            })
            .collect();
        let services: Vec<Service> = recoveries
            .into_iter()
            .enumerate()
            .map(|(shard, recovery)| {
                let mut shard_cfg = self.cfg.clone();
                let (base, count) = slices[shard];
                shard_cfg.machines = count;
                let mut svc = Service::new_shard(
                    testbed(),
                    shard_cfg,
                    Arc::clone(&metrics),
                    shard,
                    self.shards,
                    base,
                );
                svc.attach_shipper(Arc::clone(&ship));
                svc.adopt_recovered(&recovery.tasks, now);
                svc.align_next_task_id(global_next);
                svc
            })
            .collect();
        PromotedNode {
            epoch,
            services,
            ship,
            metrics,
            base: self.base,
            now_ms: self.now_ms,
        }
    }

    /// Install a promoted node as this cluster's leader side and reset
    /// the follower side to a blank rejoiner — the sim twin of the live
    /// rejoin supervisor: the fenced ex-leader wipes its shard files,
    /// demotes, and resyncs from the new leader through snapshot install.
    pub fn swap_in_promoted(&mut self, node: PromotedNode) {
        let PromotedNode {
            epoch,
            mut services,
            ship,
            metrics,
            ..
        } = node;
        // Seed the new leader's ship exactly as the real promotion does:
        // each shard publishes a covering snapshot, so the trim pushes the
        // ship base past 0 and a cursor-0 rejoiner starts with a snapshot
        // install instead of assuming it saw the pre-promotion frames.
        for svc in &mut services {
            svc.write_snapshot();
        }
        self.services = services;
        self.repl = ReplState::new(
            Role::Leader,
            epoch,
            None,
            ship,
            metrics,
            None,
            self.rng.next_u64() | 1,
        );
        self.guard = LeaderGuard::new(self.ttl_ms);
        self.leader_alive = true;
        self.partitioned = false;
        self.net.clear();
        self.core = FollowerCore::new(self.shards, epoch, self.ttl_ms, self.now_ms);
        self.journals = (0..self.shards).map(|_| Journal::default()).collect();
        self.next_poll_ms = self.now_ms;
    }

    /// Bit rot lands on one follower journal: the snapshot blob is lost
    /// and a suffix of the frames is destroyed — the sim twin of a mid-log
    /// CRC failure on disk.
    pub fn corrupt_journal(&mut self, shard: usize) {
        let journal = &mut self.journals[shard];
        journal.snapshot = None;
        let keep = journal.frames.len() / 2;
        journal.frames.truncate(keep);
    }

    /// What the follower's scrub pass does on detection: quarantine the
    /// journal (drop it wholesale) and reset the pull cursor to 0 so the
    /// next pulls re-install the shard from the leader.
    pub fn scrub_repair(&mut self, shard: usize) {
        self.journals[shard] = Journal::default();
        self.core.reset_cursor(shard);
    }

    /// Deliver a promoted peer's `repl_lease` claim to the (old) leader,
    /// as its post-promotion fence message would; returns the old
    /// leader's role afterwards.
    pub fn deliver_lease_to_leader(&mut self, epoch: u64, leader_addr: &str) -> Role {
        if self.leader_alive && epoch >= self.repl.epoch() {
            self.repl.fence(epoch, Some(leader_addr.to_string()));
        }
        self.repl.role()
    }

    /// Revive a killed leader process *without* resetting its state —
    /// the stale-leader-reconnect scenario.
    pub fn revive_leader(&mut self) {
        self.leader_alive = true;
    }

    /// Summed `(admitted, completed, dead_lettered, outstanding)` over
    /// the leader shards.
    pub fn leader_counts(&self) -> (u64, u64, u64, u64) {
        sum_counts(self.services.iter().map(Service::status))
    }

    /// Every leader shard satisfies the conservation invariant.
    pub fn leader_conserved(&self) -> bool {
        self.services.iter().all(|svc| svc.status().conserved())
    }
}

/// The follower after promotion: real `Service` shards rebuilt from the
/// shipped WAL stream.
pub struct PromotedNode {
    /// The epoch this node claimed (strictly greater than any epoch the
    /// old leader served at).
    pub epoch: u64,
    services: Vec<Service>,
    ship: Arc<ShipLog>,
    metrics: Arc<Metrics>,
    base: Instant,
    now_ms: u64,
}

impl PromotedNode {
    /// Summed `(admitted, completed, dead_lettered, outstanding)`.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        sum_counts(self.services.iter().map(Service::status))
    }

    /// The conservation invariant on every shard.
    pub fn conserved(&self) -> bool {
        self.services.iter().all(|svc| svc.status().conserved())
    }

    /// Drive the new leader after failover: submit one task.
    pub fn submit(&mut self, app_seed: u64) -> Option<u64> {
        let apps = self.services[0].app_list().len();
        let name = self.services[0].app_list()[app_seed as usize % apps].clone();
        let app_id = self.services[0].app_id(&name)?;
        let shards = self.services.len();
        let shard = route_app(app_id, shards);
        let now = self.base + Duration::from_millis(self.now_ms);
        self.services[shard].submit(&name, now).ok().map(|a| a.task)
    }

    /// Report one task complete on the new leader.
    pub fn complete(&mut self, task: u64) -> bool {
        let now = self.base + Duration::from_millis(self.now_ms);
        self.services
            .iter_mut()
            .any(|svc| svc.complete(task, 1.0, 50.0, now).is_ok())
    }
}

fn sum_counts(parts: impl Iterator<Item = StatusSnapshot>) -> (u64, u64, u64, u64) {
    let mut sums = (0u64, 0u64, 0u64, 0u64);
    for snap in parts {
        sums.0 += snap.admitted;
        sums.1 += snap.completed;
        sums.2 += snap.dead_lettered;
        sums.3 += (snap.queued + snap.delayed + snap.running) as u64;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut sim = SimCluster::new(seed, 2, 400, 10, knobs);
            let mut tasks = Vec::new();
            for round in 0..30 {
                if let Some(task) = sim.submit_any() {
                    tasks.push(task);
                }
                if round % 3 == 0 {
                    if let Some(&task) = tasks.get(round / 3) {
                        sim.complete(task);
                    }
                }
                sim.step(7);
            }
            // Heal the link and drain.
            sim.knobs.drop_permille = 0;
            sim.knobs.dup_permille = 0;
            assert!(sim.run_until_synced(5_000), "seed {seed}: never caught up");
            let leader = sim.leader_counts();
            sim.kill_leader();
            assert!(sim.run_until_lease_lapse(5_000));
            let promoted = sim.promote_follower();
            assert!(promoted.epoch > sim.leader_epoch(), "election safety");
            assert_eq!(
                promoted.counts(),
                leader,
                "seed {seed}: promoted ledger diverged"
            );
            assert!(promoted.conserved());
        }
    }

    /// A partition during promotion: the follower promotes blind, the
    /// stale leader keeps serving its side, and on heal the lease claim
    /// fences it — with the promoted epoch strictly higher.
    #[test]
    fn partition_during_promotion_fences_the_stale_leader() {
        let mut sim = SimCluster::new(7, 1, 200, 10, SimKnobs::default());
        for _ in 0..5 {
            sim.submit_any();
            sim.step(5);
        }
        assert!(sim.run_until_synced(3_000));
        sim.set_partitioned(true);
        // The stale leader keeps admitting during the partition.
        sim.submit_any();
        assert!(sim.run_until_lease_lapse(3_000));
        let promoted = sim.promote_follower();
        assert!(promoted.epoch > sim.leader_epoch());
        assert_eq!(sim.leader_role(), Role::Leader, "still split-brained");
        // Heal: the promotion's lease claim lands.
        sim.set_partitioned(false);
        let role = sim.deliver_lease_to_leader(promoted.epoch, "10.0.0.2:7400");
        assert_eq!(role, Role::Fenced);
        assert_eq!(sim.leader_epoch(), promoted.epoch);
        // A fenced node refuses mutations.
        assert!(sim.submit_any().is_none());
        assert!(promoted.conserved());
    }

    /// A partitioned leader must stop acking writes no later than its
    /// follower's lease lapses (when promotion becomes legitimate): every
    /// write acked past that point would be silently lost to the new
    /// leader. Suspension is not fencing — the link healing (with the
    /// follower provably unpromoted, by its epoch) resumes writes.
    #[test]
    fn partitioned_leader_suspends_writes_before_the_follower_promotes() {
        let mut sim = SimCluster::new(42, 1, 200, 10, SimKnobs::default());
        for _ in 0..5 {
            sim.submit_any();
            sim.step(5);
        }
        assert!(sim.run_until_synced(3_000));
        sim.set_partitioned(true);
        // Inside the TTL the leader still serves writes: this is the
        // bounded lost-acked-write window.
        assert!(sim.submit_any().is_some());
        assert!(sim.run_until_lease_lapse(3_000));
        // By the time the follower MAY promote, the leader has already
        // gone read-only — without any message reaching it.
        assert!(sim.leader_writes_suspended());
        assert!(sim.submit_any().is_none());
        assert!(!sim.complete(0));
        assert_eq!(
            sim.leader_role(),
            Role::Leader,
            "suspension must not change the role"
        );
        // Heal before anyone promotes: the follower's same-epoch pulls
        // prove it never claimed leadership, so writes resume.
        sim.set_partitioned(false);
        sim.step(50);
        assert!(!sim.leader_writes_suspended());
        assert!(sim.submit_any().is_some());
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
        let mut sim = SimCluster::new(0xD0_D0, 1, 300, 10, knobs);
        let mut tasks = Vec::new();
        for _ in 0..12 {
            if let Some(t) = sim.submit_any() {
                tasks.push(t);
            }
            sim.step(6);
        }
        for &t in tasks.iter().take(6) {
            sim.complete(t);
            sim.step(6);
        }
        assert!(sim.run_until_synced(5_000));
        let leader = sim.leader_counts();
        sim.kill_leader();
        assert!(sim.run_until_lease_lapse(3_000));
        let promoted = sim.promote_follower();
        assert_eq!(promoted.counts(), leader);
        assert!(promoted.conserved());
    }

    /// A follower cut off across a compaction horizon must resync via
    /// snapshot install, not a frame gap.
    #[test]
    fn lagging_follower_resyncs_through_a_snapshot() {
        let mut sim = SimCluster::new(0x51AB, 1, 500, 10, SimKnobs::default());
        sim.set_snapshot_every(8);
        sim.set_partitioned(true);
        // Everything below happens beyond the follower's sight; the
        // leader compacts at least once (>= 8 records).
        let mut tasks = Vec::new();
        for _ in 0..10 {
            if let Some(t) = sim.submit_any() {
                tasks.push(t);
            }
            sim.step(2);
        }
        for &t in tasks.iter().take(4) {
            sim.complete(t);
            sim.step(2);
        }
        sim.set_partitioned(false);
        assert!(sim.run_until_synced(5_000));
        assert!(
            sim.follower_has_snapshot(),
            "catch-up must have gone through snapshot install"
        );
        let leader = sim.leader_counts();
        sim.kill_leader();
        assert!(sim.run_until_lease_lapse(3_000));
        let promoted = sim.promote_follower();
        assert_eq!(promoted.counts(), leader);
        assert!(promoted.conserved());
    }

    /// The self-healing rejoin: a fenced ex-leader demotes into the
    /// single follower slot, wipes, and resyncs from the promoted leader
    /// through a snapshot install — all within 2 lease TTLs of the link
    /// healing. The rejoined pair must then survive a second failover
    /// with the full ledger intact.
    #[test]
    fn fenced_ex_leader_rejoins_and_resyncs_within_two_ttls() {
        for seed in [3u64, 0xA11CE] {
            let ttl = 300u64;
            let mut sim = SimCluster::new(seed, 2, ttl, 10, SimKnobs::default());
            sim.set_snapshot_every(4);
            let mut tasks = Vec::new();
            for _ in 0..12 {
                if let Some(t) = sim.submit_any() {
                    tasks.push(t);
                }
                sim.step(5);
            }
            for &t in tasks.iter().take(5) {
                sim.complete(t);
                sim.step(5);
            }
            assert!(sim.run_until_synced(5_000), "seed {seed}: never synced");
            sim.set_partitioned(true);
            assert!(sim.run_until_lease_lapse(3_000));
            let promoted = sim.promote_follower();
            let expect = promoted.counts();
            // Heal: the promotion's lease claim fences the old leader...
            sim.set_partitioned(false);
            let role = sim.deliver_lease_to_leader(promoted.epoch, "10.0.0.2:7400");
            assert_eq!(role, Role::Fenced);
            // ...which self-heals: wipe, demote, rejoin as the follower.
            sim.swap_in_promoted(promoted);
            assert!(
                sim.run_until_synced(2 * ttl),
                "seed {seed}: rejoin overran 2 TTLs"
            );
            assert!(
                sim.follower_has_snapshot(),
                "rejoin must go through snapshot install"
            );
            assert_eq!(sim.leader_counts(), expect);
            // The healed pair can fail over again without losing anything.
            sim.kill_leader();
            assert!(sim.run_until_lease_lapse(3_000));
            let second = sim.promote_follower();
            assert!(second.epoch > sim.leader_epoch());
            assert_eq!(
                second.counts(),
                expect,
                "seed {seed}: second failover lost data"
            );
            assert!(second.conserved());
        }
    }

    /// Bit rot on a follower journal mid-run: the scrub quarantines the
    /// shard and resets its cursor, and the re-pull (racing a lossy link
    /// and fresh traffic) converges back to the leader's exact ledger.
    #[test]
    fn scrub_repair_recovers_a_rotted_journal_under_loss() {
        for seed in [9u64, 0xC0FFEE] {
            let knobs = SimKnobs {
                drop_permille: 120,
                dup_permille: 80,
                min_delay_ms: 1,
                max_delay_ms: 7,
            };
            let mut sim = SimCluster::new(seed, 2, 400, 10, knobs);
            sim.set_snapshot_every(4);
            let mut tasks = Vec::new();
            for _ in 0..14 {
                if let Some(t) = sim.submit_any() {
                    tasks.push(t);
                }
                sim.step(6);
            }
            for &t in tasks.iter().take(6) {
                sim.complete(t);
                sim.step(6);
            }
            // Rot lands on shard 0. The momentary partition stands in for
            // the real follower's single-threadedness: no chunk pulled
            // before the scrub is applied after it.
            sim.set_partitioned(true);
            sim.corrupt_journal(0);
            sim.scrub_repair(0);
            sim.set_partitioned(false);
            // More traffic while the repair races the lossy link.
            for _ in 0..6 {
                if let Some(t) = sim.submit_any() {
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
                sim.follower_has_snapshot(),
                "repair must re-install from the leader's snapshot"
            );
            let leader = sim.leader_counts();
            sim.kill_leader();
            assert!(sim.run_until_lease_lapse(3_000));
            let promoted = sim.promote_follower();
            assert_eq!(
                promoted.counts(),
                leader,
                "seed {seed}: repaired ledger diverged"
            );
            assert!(promoted.conserved());
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
        let mut sim = SimCluster::new(seed, 1, 300, 10, SimKnobs::default());
        sim.set_snapshot_every(4);
        let spec = format!("seed=7;repl.ship.push@{}=skip%250", sim.ship_scope());
        crate::failpoint::arm(&spec).expect("spec parses");
        let mut tasks = Vec::new();
        for _ in 0..16 {
            if let Some(t) = sim.submit_any() {
                tasks.push(t);
            }
            sim.step(6);
        }
        for &t in tasks.iter().take(6) {
            sim.complete(t);
            sim.step(6);
        }
        crate::failpoint::disarm_all();
        // Enough post-disarm records to force a covering trim: a trim's
        // snapshot covers ALL prior state, including the dropped pushes.
        for _ in 0..6 {
            sim.submit_any();
            sim.step(6);
        }
        assert!(sim.run_until_synced(5_000));
        let leader = sim.leader_counts();
        sim.kill_leader();
        assert!(sim.run_until_lease_lapse(3_000));
        let promoted = sim.promote_follower();
        assert!(
            promoted.epoch > sim.leader_epoch(),
            "election safety under fault injection"
        );
        sim.revive_leader();
        let role = sim.deliver_lease_to_leader(promoted.epoch, "10.0.0.2:7400");
        assert_eq!(role, Role::Fenced);
        assert!(
            sim.submit_any().is_none(),
            "fenced ex-leader must refuse writes"
        );
        assert_eq!(promoted.counts(), leader);
        assert!(promoted.conserved());
    }
}
