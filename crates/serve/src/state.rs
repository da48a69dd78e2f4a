//! The daemon's scheduling brain: bounded admission, wall-clock dispatch,
//! task leases with retry/backoff, and live model adaptation — one
//! instance per scheduler shard, owned outright by that shard's worker
//! thread, so nothing here takes a lock.
//!
//! [`Service`] owns the pieces the simulator normally drives on virtual
//! time — a [`ClusterState`], a [`Scheduler`], a [`ScoringPolicy`], and an
//! [`AdaptiveObserver`] — and maps them onto real time. Submits,
//! completions, the daemon's ticker and a drain all ask the simulator's
//! own dispatch gate ([`gate`]) whether to run the scheduler, and hand it
//! the same window; the daemon's `flush` is "draining, or the oldest
//! queued task has waited the batch deadline" (100 ms). Completions
//! reported by clients feed the drift monitor, and a triggered rebuild
//! swaps the scoring policy in place, exactly like the simulator's
//! adaptive arm but against live traffic.
//!
//! Failure handling (DESIGN.md §9): every placement carries a lease
//! deadline scaled by the predicted runtime. A lease that expires without
//! a completion frees the slot and re-queues the task after an
//! exponential, jittered backoff; after `max_attempts` the task moves to
//! the dead-letter queue instead of cycling forever. What is durable
//! about a task lives in one [`TaskTable`] and changes only through its
//! transitions; with a WAL directory configured each one is also logged
//! through [`crate::wal`] before the client sees the reply, so replaying
//! the log through the same transitions rebuilds the same table, and
//! [`Service::restore`] rebuilds the queue, in-flight set and counters
//! from it — tasks leased at the time of the crash are requeued (the
//! executor died with the daemon) and the interrupted attempt counts
//! against their budget. What only the running daemon knows (when a task
//! arrived, its declared demand, where it was placed) sits in a side map
//! for as long as the task is queued or running. A failed adaptive
//! rebuild does not take the daemon down either: the panic is contained,
//! the last-good predictor keeps serving placements, and the failure is
//! surfaced as `tracond_rebuild_failures_total`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tracon_core::sched::gate;
use tracon_core::{
    AppId, ClusterState, Mibs, Mios, Mix, ModelKind, MonitorConfig, Objective, Scheduler,
    ScoringPolicy, Task, VmRef,
};
use tracon_dcsim::setup::training_data;
use tracon_dcsim::{AdaptiveObserver, SimObserver, Testbed, IDLE};
use tracon_stats::prng::{mix64, GAMMA};

use crate::metrics::{Degraded, Metrics};
use crate::table::{RecState, Row, TaskRow, TaskTable};
use crate::wal::{Wal, WalRecord};

/// Which scheduler the daemon runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// Online per-arrival placement (paper's MIOS).
    Mios,
    /// Batch Min-Min over a window of the given size (paper's MIBS).
    Mibs(usize),
    /// Idle-machine shortcut over MIBS (paper's MIX).
    Mix(usize),
}

impl SchedKind {
    /// Parse a CLI spelling: `mios`, `mibs`, `mibs:8`, `mix`, `mix:4`.
    pub fn parse(text: &str) -> Option<SchedKind> {
        let (name, window) = match text.split_once(':') {
            Some((name, w)) => (name, w.parse::<usize>().ok()?),
            None => (text, 8),
        };
        if window == 0 {
            return None;
        }
        Some(match name {
            "mios" => SchedKind::Mios,
            "mibs" => SchedKind::Mibs(window),
            "mix" => SchedKind::Mix(window),
            _ => return None,
        })
    }

    fn build(self) -> Box<dyn Scheduler + Send> {
        match self {
            SchedKind::Mios => Box::new(Mios::default()),
            SchedKind::Mibs(w) => Box::new(Mibs::new(w)),
            SchedKind::Mix(w) => Box::new(Mix::new(w)),
        }
    }
}

/// A batch scheduler's `flush`: once the oldest queued task has waited
/// this long, a lone free slot no longer waits for a pairing.
const BATCH_DEADLINE_MS: u64 = 100;

/// Requeue backoff ceiling: a backoff doubles from `backoff_base_ms` up
/// to this, or to the base if that is larger.
const BACKOFF_CAP_MS: u64 = 5_000;

/// Daemon tuning knobs, all wall-clock.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of physical machines in the managed cluster.
    pub machines: usize,
    /// VM slots per machine.
    pub slots_per_machine: usize,
    /// Scheduler to run.
    pub scheduler: SchedKind,
    /// Interference model used by the live monitors.
    pub model_kind: ModelKind,
    /// Admission queue bound; submissions beyond this are rejected.
    pub queue_capacity: usize,
    /// Live monitor configuration (rebuild cadence, drift thresholds).
    pub monitor: MonitorConfig,
    /// Fixed part of every completion lease.
    pub lease_base_ms: u64,
    /// Lease extension per predicted second of runtime.
    pub lease_per_predicted_s_ms: u64,
    /// Executions (initial + retries) before a task is dead-lettered.
    pub max_attempts: u32,
    /// First requeue backoff; doubles per attempt up to a 5 s ceiling.
    pub backoff_base_ms: u64,
    /// Write-ahead-log directory; `None` runs in-memory only.
    pub wal_dir: Option<PathBuf>,
    /// WAL records between snapshot compactions.
    pub wal_snapshot_every: u64,
    /// Replicate from this leader address instead of serving mutations
    /// (`None` = standalone or leader). Requires `wal_dir`.
    pub replica_of: Option<String>,
    /// Leader lease TTL: a follower that completes no successful pull
    /// for this long promotes itself.
    pub repl_ttl_ms: u64,
    /// Follower pull cadence.
    pub repl_poll_ms: u64,
    /// Scheduler shards the daemon splits the cluster across. Each shard
    /// owns a contiguous machine slice, its own queue (so
    /// `queue_capacity` is per shard), and its own WAL file. Must be
    /// `1..=machines`.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            machines: 4,
            slots_per_machine: 2,
            scheduler: SchedKind::Mios,
            model_kind: ModelKind::Wmm,
            queue_capacity: 64,
            monitor: MonitorConfig::default(),
            lease_base_ms: 30_000,
            lease_per_predicted_s_ms: 2_000,
            max_attempts: 5,
            backoff_base_ms: 100,
            wal_dir: None,
            wal_snapshot_every: 4096,
            replica_of: None,
            repl_ttl_ms: 1_500,
            repl_poll_ms: 50,
            shards: 1,
        }
    }
}

/// Where a running task was put, and on what prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// Where it was placed.
    pub vm: VmRef,
    /// Co-located app (perf-table index) at placement time, if any.
    pub neighbor: Option<usize>,
    /// Predicted solo-normalized score at placement time.
    pub predicted_score: f64,
    /// Model-predicted runtime (seconds) at placement time.
    pub predicted_runtime: f64,
    /// When the lease expires if no completion is reported.
    pub lease_deadline: Instant,
}

/// What the daemon knows about a queued or running task beyond its
/// durable [`Row`]. None of it is logged: a restored task starts over
/// with defaults, and the entry goes when the task completes or
/// dead-letters.
#[derive(Clone, Debug)]
pub struct Volatile {
    /// When the submit was admitted (or restored).
    pub submitted: Instant,
    /// Client-declared per-dimension demand (protocol v2). Advisory —
    /// echoed in `task` replies. Empty when unspecified.
    pub demand: tracon_core::DimVec,
    /// The placement, while the task runs (whether the task is queued
    /// or backing off is told by the delayed heap, not here).
    pub placement: Option<Placement>,
}

/// Why a request was refused; the daemon maps these onto protocol errors.
#[derive(Clone, Debug, PartialEq)]
pub enum Refusal {
    /// The daemon is draining and admits no new work.
    Draining,
    /// The admission queue is at capacity.
    QueueFull {
        /// Current queue depth (== capacity).
        depth: usize,
    },
    /// The application name was never profiled.
    UnknownApp {
        /// The offending name.
        name: String,
    },
    /// No task with that id exists.
    UnknownTask {
        /// The offending id.
        task: u64,
    },
    /// The task exists but is not running (still queued or already done).
    NotRunning {
        /// The offending id.
        task: u64,
    },
}

/// Result of an admitted submission.
#[derive(Clone, Debug)]
pub struct Admitted {
    /// Server-assigned task id.
    pub task: u64,
    /// Placement, if the task was dispatched immediately.
    pub placement: Option<(VmRef, f64, f64)>,
    /// Queue depth after this submission (0 when placed).
    pub depth: usize,
}

/// Result of a reported completion.
#[derive(Clone, Debug)]
pub struct Completed {
    /// Whether this observation triggered a model rebuild.
    pub rebuilt: bool,
    /// Whether the scoring predictor was swapped as a result.
    pub swapped: bool,
    /// Tasks dispatched from the queue onto the freed capacity.
    pub dispatched: usize,
}

/// Aggregate daemon state for `status` replies.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// Tasks waiting in the admission queue.
    pub queued: usize,
    /// Tasks backing off after a lease expiry, not yet re-queued.
    pub delayed: usize,
    /// Tasks placed and not yet completed.
    pub running: usize,
    /// Tasks completed so far.
    pub completed: u64,
    /// Tasks dead-lettered so far.
    pub dead_lettered: u64,
    /// Total admissions.
    pub admitted: u64,
    /// Total backpressure rejections.
    pub rejected: u64,
    /// Total monitor rebuilds.
    pub rebuilds: usize,
    /// Total predictor swaps.
    pub swaps: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Machines in the cluster.
    pub machines: usize,
    /// Free VM slots right now.
    pub free_slots: usize,
    /// Scheduler name (e.g. `"mios"`).
    pub scheduler: &'static str,
}

impl StatusSnapshot {
    /// The task-conservation invariant: every admitted task is in exactly
    /// one of queued/delayed/running/completed/dead-lettered. The chaos
    /// harness asserts this across crash-restart cycles.
    pub fn conserved(&self) -> bool {
        self.admitted
            == self.completed
                + self.dead_lettered
                + (self.queued + self.delayed + self.running) as u64
    }
}

/// One scheduler shard's service core — exclusively owned by its worker
/// thread in the daemon, so no lock guards it. All methods take `now`
/// from the caller so the daemon controls the clock and tests stay
/// deterministic.
pub struct Service {
    cfg: ServeConfig,
    cluster: ClusterState,
    scheduler: Box<dyn Scheduler + Send>,
    scoring: ScoringPolicy,
    observer: AdaptiveObserver,
    queue: VecDeque<Task>,
    /// The durable truth about every task this shard admitted;
    /// `Row::app` is a perf-table index.
    table: TaskTable,
    /// The volatile rest, for queued and running tasks only.
    live: HashMap<u64, Volatile>,
    perf_index: HashMap<AppId, usize>,
    /// Task-id stride: shard `i` of `N` issues `i+1, i+1+N, i+1+2N, …`,
    /// which keeps ids globally unique without coordination and makes
    /// shards=1 issue `1, 2, 3, …` exactly like the pre-sharding daemon.
    id_step: u64,
    shard: usize,
    machine_base: usize,
    admitted: u64,
    rejected: u64,
    running: usize,
    completed: u64,
    dead_lettered: u64,
    draining: bool,
    /// Backoff parking lot: `(ready_at, task)`, earliest first.
    delayed: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Lease expirations: `(deadline, task, attempt)`, earliest first.
    /// Entries are lazily invalidated: one is live only while the task is
    /// still `Running` at the same attempt number.
    lease_q: BinaryHeap<Reverse<(Instant, u64, u32)>>,
    wal: Option<Wal>,
    /// Group-commit buffer: while `Some`, appended records accumulate
    /// here and hit the disk as one fsync'd batch when the enclosing
    /// [`Service::wal_transaction`] commits.
    wal_txn: Option<Vec<WalRecord>>,
    rebuild_fail_injections: u32,
    /// Replication ship log: every group-committed batch is also pushed
    /// here for followers to pull (`None` when replication is off).
    shipper: Option<Arc<crate::repl::ShipLog>>,
    metrics: Arc<Metrics>,
}

impl Service {
    /// Build an in-memory single-shard service around a profiled testbed
    /// (ignores `wal_dir`; use [`Service::open`] for a durable daemon).
    /// The scoring predictor holds the monitor's own models, so the
    /// scheduler scores with the models whose error the monitor measures.
    pub fn new(testbed: &Testbed, cfg: ServeConfig, metrics: Arc<Metrics>) -> Service {
        Service::new_shard(testbed, cfg, metrics, 0, 1, 0)
    }

    /// Build shard `shard` of `shard_count`. `cfg.machines` must already
    /// be this shard's slice of the cluster (see
    /// [`crate::shard::shard_machines`]); `machine_base` is where that
    /// slice starts so replies can translate local machine indices back
    /// to global ones.
    pub fn new_shard(
        testbed: &Testbed,
        cfg: ServeConfig,
        metrics: Arc<Metrics>,
        shard: usize,
        shard_count: usize,
        machine_base: usize,
    ) -> Service {
        assert!(shard < shard_count, "shard index out of range");
        assert!(
            cfg.machines > 0 && cfg.slots_per_machine > 0,
            "empty cluster"
        );
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.max_attempts > 0, "max_attempts must be positive");
        let init_rt: Vec<_> = testbed
            .profiles
            .iter()
            .map(|set| training_data(set, tracon_core::Response::Runtime))
            .collect();
        let init_io: Vec<_> = testbed
            .profiles
            .iter()
            .map(|set| training_data(set, tracon_core::Response::Iops))
            .collect();
        let observer = AdaptiveObserver::new(
            &testbed.predictor,
            &testbed.perf.names,
            cfg.model_kind,
            &init_rt,
            &init_io,
            cfg.monitor,
        );
        let scoring = ScoringPolicy::new(&observer.export_predictor(), Objective::MinRuntime);
        let cluster = ClusterState::new(
            cfg.machines,
            cfg.slots_per_machine,
            testbed.app_chars.clone(),
        );
        let perf_index = testbed
            .perf
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| (cluster.registry().expect_id(name), i))
            .collect();
        Service {
            scheduler: cfg.scheduler.build(),
            scoring,
            observer,
            cluster,
            queue: VecDeque::new(),
            table: TaskTable::with_apps(&testbed.perf.names),
            live: HashMap::new(),
            perf_index,
            id_step: shard_count as u64,
            shard,
            machine_base,
            admitted: 0,
            rejected: 0,
            running: 0,
            completed: 0,
            dead_lettered: 0,
            draining: false,
            delayed: BinaryHeap::new(),
            lease_q: BinaryHeap::new(),
            wal: None,
            wal_txn: None,
            rebuild_fail_injections: 0,
            shipper: None,
            metrics,
            cfg,
        }
    }

    /// Which shard this service is.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Global index of this shard's first machine.
    pub fn machine_base(&self) -> usize {
        self.machine_base
    }

    /// Attach the replication ship log; from here on every WAL batch this
    /// shard commits is also staged for follower pulls.
    pub fn attach_shipper(&mut self, ship: Arc<crate::repl::ShipLog>) {
        self.shipper = Some(ship);
    }

    /// Override the snapshot/compaction cadence after construction (the
    /// replication sim harness uses tiny cadences to force snapshot
    /// installs in small tests).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.cfg.wal_snapshot_every = every;
        if let Some(wal) = self.wal.as_mut() {
            wal.set_snapshot_every(every);
        }
    }

    /// Build a single-shard service and, when `cfg.wal_dir` is set,
    /// [`restore`](Service::restore) it from everything that directory
    /// holds.
    pub fn open(
        testbed: &Testbed,
        cfg: ServeConfig,
        metrics: Arc<Metrics>,
        now: Instant,
    ) -> std::io::Result<Service> {
        let mut svc = Service::new(testbed, cfg, metrics);
        if let Some(dir) = svc.cfg.wal_dir.clone() {
            let every = svc.cfg.wal_snapshot_every;
            let (wals, recovery) = crate::shard::recover_dir(&dir, 1, every, &|_| None)?;
            let replayed = &svc.metrics.wal_replayed_records;
            replayed.store(recovery.replayed_records, Ordering::Relaxed);
            crate::shard::restore_shards(std::slice::from_mut(&mut svc), wals, recovery, now);
        }
        Ok(svc)
    }

    /// The one way recovered state enters a shard — at boot, at a
    /// follower's promotion, in the replication sim alike. Takes over the
    /// log `rows` were replayed from (if there is one), adopts the rows
    /// into the blank table and rebuilds queue and counters from them:
    /// completed and dead-lettered tasks keep their rows, queued tasks
    /// re-enter the admission queue, and tasks that were leased when the
    /// previous writer died are requeued with the interrupted attempt
    /// counted against their budget (or dead-lettered if that spends
    /// it). No id below `next_task_id` is issued again. The result is
    /// compacted into a covering snapshot at once, which also gives the
    /// ship log the base a follower at cursor zero installs.
    pub fn restore(
        &mut self,
        wal: Option<Wal>,
        rows: Vec<TaskRow>,
        next_task_id: u64,
        now: Instant,
    ) {
        self.wal = wal;
        for row in &rows {
            // A task whose application is no longer profiled cannot be
            // re-placed; drop it rather than wedge the queue.
            let Some(app_id) = self.cluster.registry().id(&row.app) else {
                continue;
            };
            if !self.perf_index.contains_key(&app_id) {
                continue;
            }
            self.table.adopt(row);
            let interrupted = row.attempts + 1;
            match row.state {
                RecState::Leased if interrupted >= self.cfg.max_attempts => {
                    self.table.dead_letter(row.task, interrupted);
                }
                RecState::Leased => {
                    self.table.requeue(row.task, interrupted);
                    self.metrics.requeues.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            self.admitted += 1;
            self.metrics.admissions.fetch_add(1, Ordering::Relaxed);
            match self.table.get(row.task).map(|r| r.state) {
                Some(RecState::Completed) => {
                    self.completed += 1;
                    self.metrics.completions.fetch_add(1, Ordering::Relaxed);
                }
                Some(RecState::DeadLettered) => {
                    self.dead_lettered += 1;
                    self.metrics.dead_letters.fetch_add(1, Ordering::Relaxed);
                }
                // Demand is not in the WAL; replayed tasks fall back to
                // the legacy defaults.
                _ => self.enqueue(row.task, app_id, tracon_core::DimVec::new(), now),
            }
        }
        self.table.raise_next_task_id(next_task_id);
        self.sync_gauges();
        self.write_snapshot();
    }

    /// Put a queued task at the back of the admission queue.
    fn enqueue(&mut self, task: u64, app: AppId, demand: tracon_core::DimVec, now: Instant) {
        self.queue.push_back(Task::new(task, app));
        let fresh = Volatile {
            submitted: now,
            demand,
            placement: None,
        };
        self.live.insert(task, fresh);
    }

    /// The id the next admission gets: the smallest on this shard's
    /// stride that the table has not seen used, here or (after a
    /// restore) on any shard, so ids are never reused across restarts or
    /// shard-count changes.
    fn next_id(&self) -> u64 {
        let first = self.shard as u64 + 1;
        let used = self.table.next_task_id().saturating_sub(first);
        first + used.div_ceil(self.id_step) * self.id_step
    }

    /// Whether anything persists or ships this shard's records. A plain
    /// in-memory daemon has neither a WAL nor a shipper, and then no
    /// record is built, buffered, or counted as pending.
    fn durable(&self) -> bool {
        self.wal.is_some() || self.shipper.is_some()
    }

    /// Log one record, built only when the shard is durable. Inside a
    /// [`Service::wal_transaction`] it joins the transaction's buffer;
    /// outside one it is committed on its own.
    fn wal_append(&mut self, build: impl FnOnce(&Self) -> WalRecord) {
        if !self.durable() {
            return;
        }
        let rec = build(self);
        match self.wal_txn.as_mut() {
            Some(buf) => buf.push(rec),
            None => self.wal_append_batch(&[rec]),
        }
    }

    /// Run `f` with WAL group commit: every record it appends lands in
    /// one `append_batch` (one write, one fsync, one ship push) when `f`
    /// returns. Reentrant: an inner transaction defers to the outermost
    /// one, and the outermost one in the daemon is the shard worker's
    /// whole drained batch, so every request of a wake shares one sync.
    /// Durability is unchanged — whoever opens the outermost scope must
    /// not let a result out before the scope (or an explicit
    /// [`Service::wal_commit_pending`]) has committed it.
    pub(crate) fn wal_transaction<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.wal_txn.is_some() {
            return f(self);
        }
        self.wal_txn = Some(Vec::new());
        let out = f(self);
        self.wal_commit_pending();
        self.wal_txn = None;
        out
    }

    /// True while the open transaction holds records that have not
    /// reached the disk (or the ship): anything observable produced now
    /// must wait for the commit.
    pub(crate) fn wal_pending(&self) -> bool {
        self.wal_txn.as_ref().is_some_and(|buf| !buf.is_empty())
    }

    /// Commit what the open transaction has buffered so far and keep it
    /// open — the boundary the worker needs before it swaps or drops the
    /// WAL mid-batch. A no-op outside a transaction.
    pub(crate) fn wal_commit_pending(&mut self) {
        if let Some(mut recs) = self.wal_txn.take() {
            self.wal_append_batch(&recs);
            recs.clear();
            self.wal_txn = Some(recs);
        }
    }

    /// The one commit path: append a batch of records under one fsync and
    /// ship it; inside a [`Service::wal_transaction`] the records are
    /// deferred to the transaction's commit instead. A failed write
    /// degrades the shard to memory (never fatal — availability over
    /// durability while the disk fails), and the next write that lands
    /// compacts, which puts everything memory holds back on disk.
    fn wal_append_batch(&mut self, recs: &[WalRecord]) {
        if recs.is_empty() || !self.durable() {
            return;
        }
        if let Some(buf) = self.wal_txn.as_mut() {
            buf.extend_from_slice(recs);
            return;
        }
        let mut due = match self.wal.as_mut() {
            None => false,
            Some(wal) => match wal.append_batch(recs) {
                Ok(()) => {
                    self.metrics
                        .wal_records
                        .fetch_add(recs.len() as u64, Ordering::Relaxed);
                    self.metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                    wal.snapshot_due() || self.metrics.degraded(self.shard).is_some()
                }
                Err(e) => {
                    self.write_failed("append", e);
                    false
                }
            },
        };
        // Ship the batch after the fsync attempt, regardless of its
        // outcome: a frame the leader failed to persist may still reach
        // the follower, leaving it with a superset that the idempotent
        // recovery merge collapses harmlessly — whereas durable-but-
        // unshipped would lose acknowledged work on failover.
        if let Some(ship) = &self.shipper {
            ship.push(self.shard, recs);
            // In WAL-less harnesses (the repl sim) the shipper alone
            // drives the compaction cadence.
            if self.wal.is_none()
                && ship.frames_len(self.shard) as u64 >= self.cfg.wal_snapshot_every
            {
                due = true;
            }
        }
        if due {
            self.write_snapshot();
        }
    }

    /// A write failed: this shard's files lack what its memory holds
    /// until a covering snapshot lands.
    fn write_failed(&self, what: &str, e: std::io::Error) {
        self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
        let (shard, detail) = (self.shard, format!("{what} failed: {e}"));
        let cause = Degraded::WriteFailed;
        self.metrics.degrade(shard, cause, &[("detail", &detail)]);
    }

    /// Compact now if a scrub found rot in this shard's files. The worker
    /// calls it at every wake with nothing pending: it is the log's only
    /// writer, so the covering snapshot it writes also holds whatever
    /// landed after the scrub read the files.
    pub(crate) fn heal_rot(&mut self) {
        if self.wal.is_some() && self.metrics.degraded(self.shard) == Some(Degraded::Rot) {
            self.write_snapshot();
        }
    }

    /// The inverse of a promotion: detach durability and forget all
    /// admission state. The self-healing rejoin path demotes a fenced
    /// ex-leader's workers before the node wipes its shard files and
    /// resyncs from the live leader; a later `ShardMsg::Promote` rebuilds
    /// everything from the recovered WAL via [`Service::restore`], which
    /// assumes a blank table. The
    /// shipper Arc is deliberately kept: a re-promotion must be able to
    /// ship to the *next* follower, and an idle follower never pushes.
    /// A caller inside a WAL transaction commits first (the shard worker
    /// does, with `wal_commit_pending`): records still buffered when the
    /// handle goes have no file left to land in.
    pub fn demote(&mut self) {
        // Free every occupied VM slot so the recovered state re-places
        // onto an empty cluster.
        for placed in self.live.values().filter_map(|v| v.placement) {
            self.cluster.clear(placed.vm);
        }
        self.wal = None;
        self.queue.clear();
        self.table = TaskTable::with_apps(self.observer.app_names());
        self.live.clear();
        self.delayed.clear();
        self.lease_q.clear();
        self.admitted = 0;
        self.rejected = 0;
        self.running = 0;
        self.completed = 0;
        self.dead_lettered = 0;
        self.draining = false;
        self.sync_gauges();
    }

    /// Compact: the task table becomes this shard's snapshot file, and
    /// the log is truncated. That snapshot covers everything the shard
    /// acked, so it is what heals a degraded shard.
    pub fn write_snapshot(&mut self) {
        if !self.durable() {
            return;
        }
        let blob = self.table.encode();
        if let Some(wal) = self.wal.as_mut() {
            match wal.install_snapshot_blob(&blob) {
                Ok(()) => {
                    self.metrics.wal_snapshots.fetch_add(1, Ordering::Relaxed);
                    self.metrics.heal(self.shard, "compaction");
                }
                Err(e) => self.write_failed("snapshot install", e),
            }
        }
        // Trim the ship even if the local install failed: the blob was
        // built from live memory and is the authoritative horizon for
        // followers either way.
        if let Some(ship) = &self.shipper {
            ship.trim(self.shard, blob);
        }
    }

    /// Admit one task by name, dispatching immediately when the scheduler
    /// allows.
    pub fn submit(&mut self, app: &str, now: Instant) -> Result<Admitted, Refusal> {
        self.submit_with_demand(app, tracon_core::DimVec::new(), now)
    }

    /// [`Service::submit`] with a client-declared demand vector attached
    /// to the task record (protocol v2 `demand` map; advisory).
    pub fn submit_with_demand(
        &mut self,
        app: &str,
        demand: tracon_core::DimVec,
        now: Instant,
    ) -> Result<Admitted, Refusal> {
        if self.draining {
            self.metrics
                .drain_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Draining);
        }
        let profiled = self.cluster.registry().id(app);
        let profiled = profiled.and_then(|id| Some((id, *self.perf_index.get(&id)?)));
        let Some((app_id, app_idx)) = profiled else {
            let name = app.to_string();
            return Err(Refusal::UnknownApp { name });
        };
        self.wal_transaction(|s| s.admit(app_id, app_idx, demand, now))
    }

    fn admit(
        &mut self,
        app_id: AppId,
        app_idx: usize,
        demand: tracon_core::DimVec,
        now: Instant,
    ) -> Result<Admitted, Refusal> {
        if self.queue.len() >= self.cfg.queue_capacity {
            self.rejected += 1;
            self.metrics.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::QueueFull {
                depth: self.queue.len(),
            });
        }
        let task_id = self.next_id();
        self.table.submit(task_id, app_idx as u32);
        self.enqueue(task_id, app_id, demand, now);
        self.admitted += 1;
        self.metrics.admissions.fetch_add(1, Ordering::Relaxed);
        // Durable before the client learns the id (write-ahead).
        self.wal_append(|s| WalRecord::Submit {
            task: task_id,
            app: s.observer.app_names()[app_idx].clone(),
        });
        self.maybe_dispatch(now);
        let placed = self.live.get(&task_id).and_then(|v| v.placement);
        let placement = placed.map(|p| (p.vm, p.predicted_score, p.predicted_runtime));
        Ok(Admitted {
            task: task_id,
            placement,
            depth: self.queue.len(),
        })
    }

    /// Run the scheduler over its window if the dispatch gate says so,
    /// recording placements, leases, and dispatch latencies; then publish
    /// the gauges. `flush` is "draining, or the oldest queued task has
    /// waited [`BATCH_DEADLINE_MS`]". Returns how many tasks were placed.
    fn maybe_dispatch(&mut self, now: Instant) -> usize {
        let deadline = Duration::from_millis(BATCH_DEADLINE_MS);
        let oldest = self.queue.front().and_then(|t| self.live.get(&t.id));
        let flush =
            self.draining || oldest.is_some_and(|v| now.duration_since(v.submitted) >= deadline);
        let window = self.scheduler.window();
        let assignments = if gate::ready(window, self.queue.len(), &self.cluster, flush) {
            let scheduler = self.scheduler.as_mut();
            gate::dispatch(scheduler, &mut self.queue, &mut self.cluster, &self.scoring)
        } else {
            Vec::new()
        };
        for assignment in &assignments {
            let task_id = assignment.task.id;
            let neighbor = self.neighbor_of(assignment.vm, task_id);
            let (Some(row), Some(record)) = (self.table.get(task_id), self.live.get_mut(&task_id))
            else {
                // A scheduler handing back a task the service never
                // admitted is a bug, not client input; reclaim the slot
                // and keep serving.
                self.cluster.clear(assignment.vm);
                continue;
            };
            let attempt = row.attempts;
            let predicted_runtime = self
                .observer
                .predict_runtime(row.app as usize, neighbor.unwrap_or(IDLE));
            let lease_ms = self.cfg.lease_base_ms.saturating_add(
                (predicted_runtime.max(0.0) * self.cfg.lease_per_predicted_s_ms as f64)
                    .min(3_600_000.0) as u64,
            );
            let lease_deadline = now + Duration::from_millis(lease_ms);
            record.placement = Some(Placement {
                vm: assignment.vm,
                neighbor,
                predicted_score: assignment.predicted_score,
                predicted_runtime,
                lease_deadline,
            });
            self.table.lease(task_id, attempt);
            let waited = now.duration_since(record.submitted);
            self.metrics
                .observe_dispatch_latency(waited.as_micros().min(u128::from(u64::MAX)) as u64);
            self.running += 1;
            self.lease_q
                .push(Reverse((lease_deadline, task_id, attempt)));
            self.wal_append(|_| WalRecord::Lease {
                task: task_id,
                attempt,
            });
        }
        self.sync_gauges();
        assignments.len()
    }

    /// Deterministic exponential backoff with hash jitter: doubling from
    /// `backoff_base_ms`, capped, plus up to 50% jitter derived from
    /// `(task, attempt)` so synchronized expiries fan out identically on
    /// every run.
    fn backoff_ms(&self, task: u64, attempt: u32) -> u64 {
        let base = self.cfg.backoff_base_ms.max(1);
        let doubled = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        let backoff = doubled.min(BACKOFF_CAP_MS.max(base));
        let jitter = mix64(task ^ (u64::from(attempt) << 32) ^ GAMMA);
        backoff + jitter % (backoff / 2 + 1)
    }

    /// Expire overdue leases: free the slot, then either park the task
    /// for a backoff or dead-letter it once its attempts are spent.
    /// Returns how many leases expired.
    pub fn expire_leases(&mut self, now: Instant) -> usize {
        let mut expired = 0;
        loop {
            match self.lease_q.peek() {
                Some(Reverse((deadline, _, _))) if *deadline <= now => {}
                _ => break,
            }
            let Some(Reverse((_, task, attempt))) = self.lease_q.pop() else {
                break;
            };
            // Stale entries (completed, or re-leased under a newer
            // attempt) fall through silently.
            let current = self.table.get(task).map(|row| row.attempts) == Some(attempt);
            let Some(record) = self.live.get_mut(&task).filter(|_| current) else {
                continue;
            };
            let Some(placed) = record.placement.take() else {
                continue;
            };
            self.cluster.clear(placed.vm);
            self.running -= 1;
            expired += 1;
            self.metrics.lease_expiries.fetch_add(1, Ordering::Relaxed);
            let attempts = attempt + 1;
            if attempts >= self.cfg.max_attempts {
                self.table.dead_letter(task, attempts);
                self.live.remove(&task);
                self.dead_lettered += 1;
                self.metrics.dead_letters.fetch_add(1, Ordering::Relaxed);
                self.wal_append(|_| WalRecord::DeadLetter { task, attempts });
            } else {
                self.table.requeue(task, attempts);
                let ready = now + Duration::from_millis(self.backoff_ms(task, attempts));
                self.delayed.push(Reverse((ready, task)));
                self.metrics.requeues.fetch_add(1, Ordering::Relaxed);
                self.wal_append(|_| WalRecord::Requeue {
                    task,
                    attempt: attempts,
                });
            }
        }
        if expired > 0 {
            self.sync_gauges();
        }
        expired
    }

    /// Move backed-off tasks whose ready time has passed into the
    /// admission queue (a draining daemon promotes immediately so the
    /// drain can finish). Returns how many were promoted.
    fn promote_delayed(&mut self, now: Instant) -> usize {
        let mut promoted = 0;
        loop {
            match self.delayed.peek() {
                Some(Reverse((ready, _))) if *ready <= now || self.draining => {}
                _ => break,
            }
            let Some(Reverse((_, task))) = self.delayed.pop() else {
                break;
            };
            let waiting = self
                .table
                .get(task)
                .filter(|row| row.state == RecState::Queued);
            let name = waiting.map(|row| self.table.app_name(row.app));
            if let Some(app) = name.and_then(|name| self.cluster.registry().id(name)) {
                self.queue.push_back(Task::new(task, app));
                promoted += 1;
            }
        }
        promoted
    }

    /// The daemon's periodic maintenance pass: expire leases, promote
    /// backed-off tasks, and ask the dispatch gate (which is where the
    /// batch deadline fires). Returns how many tasks were dispatched.
    pub fn tick(&mut self, now: Instant) -> usize {
        self.wal_transaction(|s| {
            s.expire_leases(now);
            s.promote_delayed(now);
            s.maybe_dispatch(now)
        })
    }

    /// Record a client-reported completion: free the slot, feed the
    /// monitor, swap the predictor if a rebuild fired, and dispatch onto
    /// the freed capacity. A panicking rebuild is contained: the
    /// completion still counts, the last-good predictor keeps serving,
    /// and `rebuild_failures` is incremented.
    pub fn complete(
        &mut self,
        task: u64,
        runtime: f64,
        iops: f64,
        now: Instant,
    ) -> Result<Completed, Refusal> {
        self.wal_transaction(|s| s.complete_inner(task, runtime, iops, now))
    }

    fn complete_inner(
        &mut self,
        task: u64,
        runtime: f64,
        iops: f64,
        now: Instant,
    ) -> Result<Completed, Refusal> {
        let (row, _) = self.task_info(task).ok_or(Refusal::UnknownTask { task })?;
        let app_idx = row.app as usize;
        let running = self.live.get(&task).and_then(|v| v.placement);
        let Placement { vm, neighbor, .. } = running.ok_or(Refusal::NotRunning { task })?;
        self.cluster.clear(vm);
        self.table.complete(task, runtime);
        self.live.remove(&task);
        self.running -= 1;
        self.completed += 1;
        self.metrics.completions.fetch_add(1, Ordering::Relaxed);
        self.wal_append(|_| WalRecord::Complete { task, runtime });
        let inject = self.rebuild_fail_injections > 0;
        let observer = &mut self.observer;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let rebuilt = observer.record(app_idx, neighbor, runtime, iops);
            if inject && rebuilt {
                panic!("injected rebuild failure");
            }
            rebuilt
        }));
        let rebuilt = match outcome {
            Ok(rebuilt) => rebuilt,
            Err(_) => {
                if inject {
                    self.rebuild_fail_injections -= 1;
                }
                self.metrics
                    .rebuild_failures
                    .fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        if rebuilt {
            self.metrics.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        let mut swapped = false;
        if rebuilt {
            if let Some(predictor) = self.observer.updated_predictor() {
                self.scoring = ScoringPolicy::new(&predictor, Objective::MinRuntime);
                self.metrics.predictor_swaps.fetch_add(1, Ordering::Relaxed);
                swapped = true;
            }
        }
        // Lease expiry and backoff promotion stay on the ticker.
        let dispatched = self.maybe_dispatch(now);
        Ok(Completed {
            rebuilt,
            swapped,
            dispatched,
        })
    }

    /// Stop admitting new work. Returns the current snapshot.
    pub fn drain(&mut self, now: Instant) -> StatusSnapshot {
        self.draining = true;
        // Flush backed-off tasks and any partial batch immediately rather
        // than waiting for the deadline tick.
        self.promote_delayed(now);
        self.maybe_dispatch(now);
        self.status()
    }

    /// True once a draining daemon has no queued, delayed, or running
    /// work left (dead-lettered tasks never block a drain).
    pub fn drained(&self) -> bool {
        self.draining && self.queue.is_empty() && self.delayed.is_empty() && self.running == 0
    }

    /// Whether the daemon has been asked to drain.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Aggregate state for `status` replies.
    pub fn status(&self) -> StatusSnapshot {
        StatusSnapshot {
            queued: self.queue.len(),
            delayed: self.delayed.len(),
            running: self.running,
            completed: self.completed,
            dead_lettered: self.dead_lettered,
            admitted: self.admitted,
            rejected: self.rejected,
            rebuilds: self.observer.total_rebuilds(),
            swaps: self.observer.predictor_swaps(),
            draining: self.draining,
            machines: self.cluster.n_machines(),
            free_slots: self.cluster.n_free(),
            scheduler: match self.cfg.scheduler {
                SchedKind::Mios => "mios",
                SchedKind::Mibs(_) => "mibs",
                SchedKind::Mix(_) => "mix",
            },
        }
    }

    /// Look up one task this shard holds: its durable row, and what is
    /// known on top while it is queued or running. `None` for a task
    /// this shard never admitted.
    pub fn task_info(&self, task: u64) -> Option<(&Row, Option<&Volatile>)> {
        Some((self.table.get(task)?, self.live.get(&task)))
    }

    /// The durable task table, as a replay of this shard's files would
    /// rebuild it.
    pub fn table(&self) -> &TaskTable {
        &self.table
    }

    /// Application name for a perf-table index (for reply rendering).
    pub fn app_name(&self, app_idx: usize) -> &str {
        self.observer.app_names()[app_idx].as_str()
    }

    /// All profiled application names in pair-table index order — the
    /// index space arrival generators sample over.
    pub fn app_list(&self) -> &[String] {
        self.observer.app_names()
    }

    /// Interned id for a profiled application name (`None` if the name
    /// was never profiled). The reactor uses this to consistent-hash
    /// submissions to shards.
    pub fn app_id(&self, name: &str) -> Option<AppId> {
        self.cluster.registry().id(name)
    }

    /// Test hook: make the next `n` triggered rebuilds fail, exercising
    /// the keep-last-good-predictor degradation path.
    #[doc(hidden)]
    pub fn fail_next_rebuild(&mut self, n: u32) {
        self.rebuild_fail_injections = n;
    }

    fn neighbor_of(&self, vm: VmRef, own_task: u64) -> Option<usize> {
        for slot in 0..self.cluster.slots_per_machine() {
            if slot == vm.slot {
                continue;
            }
            let other = VmRef {
                machine: vm.machine,
                slot,
            };
            if let Some(resident) = self.cluster.resident(other) {
                if resident.task_id != own_task {
                    return self.perf_index.get(&resident.app).copied();
                }
            }
        }
        None
    }

    fn sync_gauges(&self) {
        self.metrics.set_shard_gauges(
            self.shard,
            self.queue.len() as u64,
            self.running as u64,
            self.dead_lettered,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_dcsim::TestbedConfig;

    fn tiny_testbed() -> Testbed {
        let mut cfg = TestbedConfig::small();
        cfg.calibration_points = 6;
        cfg.time_scale = 0.05;
        Testbed::build(&cfg)
    }

    fn service(sched: SchedKind, queue_capacity: usize) -> Service {
        let testbed = tiny_testbed();
        let cfg = ServeConfig {
            machines: 2,
            slots_per_machine: 2,
            scheduler: sched,
            queue_capacity,
            ..ServeConfig::default()
        };
        Service::new(&testbed, cfg, Arc::new(Metrics::new()))
    }

    /// Known answers from the build before the jitter hash became
    /// `tracon_stats::prng::mix64` (base 100 ms, cap 5 s).
    #[test]
    fn backoff_jitter_is_pinned() {
        let svc = service(SchedKind::Mios, 8);
        assert_eq!(svc.backoff_ms(1, 1), 137);
        assert_eq!(svc.backoff_ms(7, 2), 279);
        assert_eq!(svc.backoff_ms(42, 9), 6206);
    }

    #[test]
    fn mios_places_on_submit_until_cluster_full() {
        let mut svc = service(SchedKind::Mios, 8);
        let now = Instant::now();
        let apps: Vec<String> = svc.observer.app_names().to_vec();
        let mut placed = 0;
        for i in 0..6 {
            let out = svc.submit(&apps[i % apps.len()], now).unwrap();
            if out.placement.is_some() {
                placed += 1;
            }
        }
        // 2 machines x 2 slots: exactly 4 placements, 2 queued.
        assert_eq!(placed, 4);
        assert_eq!(svc.status().queued, 2);
        assert_eq!(svc.status().running, 4);
        assert!(svc.status().conserved());
    }

    #[test]
    fn bounded_queue_rejects_with_queue_full() {
        let mut svc = service(SchedKind::Mios, 2);
        let now = Instant::now();
        let app = svc.observer.app_names()[0].clone();
        // Fill the cluster (4 slots) then the queue (2).
        for _ in 0..6 {
            svc.submit(&app, now).unwrap();
        }
        match svc.submit(&app, now) {
            Err(Refusal::QueueFull { depth }) => assert_eq!(depth, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn completion_frees_slot_and_dispatches_queued_work() {
        let mut svc = service(SchedKind::Mios, 4);
        let now = Instant::now();
        let app = svc.observer.app_names()[0].clone();
        let mut first = None;
        for i in 0..5 {
            let out = svc.submit(&app, now).unwrap();
            if i == 0 {
                first = Some(out.task);
            }
        }
        assert_eq!(svc.status().queued, 1);
        let done = svc.complete(first.unwrap(), 2.0, 100.0, now).unwrap();
        assert_eq!(done.dispatched, 1);
        assert_eq!(svc.status().queued, 0);
        assert_eq!(svc.status().completed, 1);
    }

    /// The dcsim gate's rules in the daemon: an idle machine or two free
    /// slots place at once, and a lone free slot with a short queue waits
    /// for the batch deadline or a second free slot.
    #[test]
    fn batch_gate_waits_only_on_a_lone_free_slot() {
        let ms = Duration::from_millis;
        for deadline_path in [true, false] {
            let mut svc = service(SchedKind::Mibs(3), 8);
            let now = Instant::now();
            let app = svc.observer.app_names()[0].clone();
            let first = svc.submit(&app, now).unwrap();
            assert!(first.placement.is_some(), "an idle machine places at once");
            for _ in 0..2 {
                let out = svc.submit(&app, now).unwrap();
                assert!(out.placement.is_some(), "an idle machine or two free slots");
            }
            assert!(svc.submit(&app, now).unwrap().placement.is_none());
            let early = now + ms(BATCH_DEADLINE_MS - 1);
            assert_eq!(svc.tick(early), 0, "before the deadline");
            let released = if deadline_path {
                svc.tick(now + ms(BATCH_DEADLINE_MS))
            } else {
                svc.complete(first.task, 1.0, 90.0, early)
                    .unwrap()
                    .dispatched
            };
            assert_eq!(
                released, 1,
                "the deadline or a second free slot releases it"
            );
            assert_eq!(svc.status().queued, 0);
            assert!(svc.status().conserved());
        }
    }

    /// `mibs:2` / `mix:2` choose among the two oldest queued tasks even
    /// when a younger one fits the freed slot better: the daemon hands
    /// the scheduler its window, not the whole queue.
    #[test]
    fn batch_scheduler_sees_only_its_window() {
        let testbed = tiny_testbed();
        for sched in [SchedKind::Mibs(2), SchedKind::Mix(2)] {
            let cfg = ServeConfig {
                machines: 1,
                slots_per_machine: 2,
                scheduler: sched,
                ..ServeConfig::default()
            };
            let mut svc = Service::new(&testbed, cfg, Arc::new(Metrics::new()));
            let names = svc.observer.app_names().to_vec();
            let now = Instant::now();
            let later = now + Duration::from_millis(BATCH_DEADLINE_MS);
            // Fill both slots with app `n`.
            let n = &names[0];
            let first = svc.submit(n, now).unwrap().task;
            svc.submit(n, now).unwrap();
            svc.tick(later);
            assert_eq!(svc.status().running, 2);
            // In the slot `first` will free, next to an `n`, `best` beats
            // `worst` both on MIBS's excess and on MIX's total score.
            let vm = svc.live[&first].placement.expect("placed").vm;
            let mut probe = svc.cluster.clone();
            probe.clear(vm);
            let (key, background) = probe.class_of(vm);
            let id = |a: usize| probe.registry().expect_id(&names[a]);
            let score = |a| svc.scoring.score(id(a), key, &background);
            let excess = |a| score(a) - svc.scoring.solo_score(id(a));
            let (worst, best) = (0..names.len())
                .flat_map(|w| (0..names.len()).map(move |b| (w, b)))
                .find(|&(w, b)| excess(b) < excess(w) - 1e-6 && score(b) < score(w))
                .expect("two apps that rank the same on both scores");
            // Queue three `worst`, then `best`, youngest; free `first`.
            let queued: Vec<u64> = [worst, worst, worst, best]
                .iter()
                .map(|&a| svc.submit(&names[a], later).unwrap().task)
                .collect();
            let done = svc.complete(first, 1.0, 90.0, later).unwrap();
            assert_eq!(done.dispatched, 1);
            let running = |t: &u64| svc.live.get(t).is_some_and(|v| v.placement.is_some());
            let placed: Vec<u64> = queued.iter().copied().filter(running).collect();
            assert!(
                placed.len() == 1 && queued[..2].contains(&placed[0]),
                "{sched:?} placed {placed:?}; its window is {:?}",
                &queued[..2]
            );
        }
    }

    /// A batch completion dispatches like a MIOS one: expiring leases is
    /// the ticker's job, not the completion's.
    #[test]
    fn batch_completion_leaves_lease_expiry_to_the_ticker() {
        let testbed = tiny_testbed();
        let cfg = ServeConfig {
            machines: 1,
            slots_per_machine: 2,
            scheduler: SchedKind::Mibs(2),
            lease_base_ms: 1_000,
            lease_per_predicted_s_ms: 0,
            ..ServeConfig::default()
        };
        let metrics = Arc::new(Metrics::new());
        let mut svc = Service::new(&testbed, cfg, Arc::clone(&metrics));
        let app = svc.observer.app_names()[0].clone();
        let now = Instant::now();
        let a = svc.submit(&app, now).unwrap().task; // lease ends at +1000 ms
        let b = svc.submit(&app, now).unwrap().task;
        svc.tick(now + Duration::from_millis(BATCH_DEADLINE_MS)); // places b
        let past_a = now + Duration::from_millis(1_050);
        svc.complete(b, 1.0, 90.0, past_a).unwrap();
        assert_eq!(metrics.lease_expiries.load(Ordering::Relaxed), 0);
        assert_eq!(svc.status().running, 1, "a's overdue lease is still held");
        svc.tick(past_a);
        assert_eq!(metrics.lease_expiries.load(Ordering::Relaxed), 1);
        assert_eq!(
            svc.task_info(a).map(|(row, _)| row.state),
            Some(RecState::Queued)
        );
    }

    #[test]
    fn drain_refuses_new_work_and_reports_idle() {
        let mut svc = service(SchedKind::Mios, 4);
        let now = Instant::now();
        let app = svc.observer.app_names()[0].clone();
        let admitted = svc.submit(&app, now).unwrap();
        svc.drain(now);
        assert!(matches!(svc.submit(&app, now), Err(Refusal::Draining)));
        assert!(!svc.drained());
        svc.complete(admitted.task, 1.5, 80.0, now).unwrap();
        assert!(svc.drained());
    }

    #[test]
    fn completions_trigger_rebuild_and_predictor_swap() {
        let testbed = tiny_testbed();
        let cfg = ServeConfig {
            machines: 2,
            slots_per_machine: 2,
            scheduler: SchedKind::Mios,
            queue_capacity: 8,
            monitor: MonitorConfig {
                rebuild_every: 6,
                ..MonitorConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::new(&testbed, cfg, Arc::new(Metrics::new()));
        let now = Instant::now();
        // Rebuild cadence is per-app model, so drive one application hard.
        let app = svc.observer.app_names()[0].clone();
        let mut swaps = 0;
        for round in 0..20 {
            let out = svc.submit(&app, now).unwrap();
            let done = svc
                .complete(out.task, 1.0 + round as f64 * 0.1, 90.0, now)
                .unwrap();
            if done.swapped {
                swaps += 1;
            }
        }
        assert!(swaps > 0, "expected at least one predictor swap");
        assert!(svc.status().rebuilds > 0);
    }

    #[test]
    fn unknown_app_and_unknown_task_are_refused() {
        let mut svc = service(SchedKind::Mios, 4);
        let now = Instant::now();
        assert!(matches!(
            svc.submit("no-such-app", now),
            Err(Refusal::UnknownApp { .. })
        ));
        assert!(matches!(
            svc.complete(999, 1.0, 1.0, now),
            Err(Refusal::UnknownTask { task: 999 })
        ));
    }

    #[test]
    fn expired_lease_requeues_with_backoff_then_dead_letters() {
        let testbed = tiny_testbed();
        let cfg = ServeConfig {
            machines: 1,
            slots_per_machine: 1,
            scheduler: SchedKind::Mios,
            queue_capacity: 8,
            lease_base_ms: 10,
            lease_per_predicted_s_ms: 0,
            max_attempts: 2,
            backoff_base_ms: 5,
            ..ServeConfig::default()
        };
        let metrics = Arc::new(Metrics::new());
        let mut svc = Service::new(&testbed, cfg, Arc::clone(&metrics));
        let now = Instant::now();
        let app = svc.observer.app_names()[0].clone();
        let out = svc.submit(&app, now).unwrap();
        assert!(out.placement.is_some());

        // First expiry: attempt 1 of 2 -> backoff, not dead-letter.
        let t1 = now + Duration::from_millis(100);
        svc.tick(t1);
        let st = svc.status();
        assert_eq!(st.running, 0);
        assert_eq!(st.delayed + st.queued, 1, "requeued, possibly promoted");
        assert_eq!(metrics.lease_expiries.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.requeues.load(Ordering::Relaxed), 1);
        assert!(st.conserved());

        // Backoff elapses -> re-placed.
        let t2 = t1 + Duration::from_secs(1);
        svc.tick(t2);
        assert_eq!(svc.status().running, 1, "requeued task re-placed");
        let state = |svc: &Service| {
            svc.task_info(out.task)
                .map(|(row, _)| (row.state, row.attempts))
        };
        assert_eq!(state(&svc), Some((RecState::Leased, 1)));

        // Second expiry exhausts the budget -> dead-letter.
        let t3 = t2 + Duration::from_secs(1);
        svc.tick(t3);
        let st = svc.status();
        assert_eq!(st.dead_lettered, 1);
        assert_eq!(st.running + st.queued + st.delayed, 0);
        assert_eq!(metrics.dead_letters.load(Ordering::Relaxed), 1);
        assert!(st.conserved());
        assert_eq!(state(&svc), Some((RecState::DeadLettered, 2)));
        // A dead-lettered task refuses late completions.
        assert!(matches!(
            svc.complete(out.task, 1.0, 1.0, t3),
            Err(Refusal::NotRunning { .. })
        ));
        // And never blocks a drain.
        svc.drain(t3);
        assert!(svc.drained());
    }

    #[test]
    fn wal_recovery_restores_queue_counters_and_ids() {
        let dir = std::env::temp_dir().join(format!("tracond-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let testbed = tiny_testbed();
        let cfg = ServeConfig {
            machines: 1,
            slots_per_machine: 1,
            scheduler: SchedKind::Mios,
            queue_capacity: 8,
            wal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let now = Instant::now();
        let first_task;
        {
            let metrics = Arc::new(Metrics::new());
            let mut svc = Service::open(&testbed, cfg.clone(), Arc::clone(&metrics), now).unwrap();
            let app = svc.observer.app_names()[0].clone();
            let a = svc.submit(&app, now).unwrap(); // placed (1 slot)
            first_task = a.task;
            svc.submit(&app, now).unwrap(); // queued
            svc.submit(&app, now).unwrap(); // queued
            svc.complete(a.task, 2.5, 90.0, now).unwrap(); // frees slot, places next
                                                           // svc dropped here without any drain: simulated crash.
        }
        let metrics = Arc::new(Metrics::new());
        let mut svc = Service::open(&testbed, cfg, Arc::clone(&metrics), now).unwrap();
        let st = svc.status();
        assert_eq!(st.admitted, 3, "all admissions recovered");
        assert_eq!(st.completed, 1, "completion recovered");
        // One task was leased at crash time: requeued. One was queued.
        assert_eq!(st.queued, 2);
        assert_eq!(st.running, 0);
        assert_eq!(metrics.requeues.load(Ordering::Relaxed), 1);
        assert!(st.conserved(), "conservation across restart: {st:?}");
        let state = svc.task_info(first_task).map(|(row, _)| row.state);
        assert_eq!(state, Some(RecState::Completed));
        // Ids keep advancing from where the dead daemon stopped.
        let app = svc.observer.app_names()[0].clone();
        let next = svc.submit(&app, now).unwrap();
        assert_eq!(next.task, 4);
        // Recovery compacted history into a (shard 0) snapshot.
        assert!(dir.join(crate::wal::shard_snapshot_name(0)).exists());
        assert!(metrics.wal_replayed_records.load(Ordering::Relaxed) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rebuild_keeps_last_good_predictor_and_daemon_alive() {
        let testbed = tiny_testbed();
        let cfg = ServeConfig {
            machines: 2,
            slots_per_machine: 2,
            scheduler: SchedKind::Mios,
            queue_capacity: 8,
            monitor: MonitorConfig {
                rebuild_every: 6,
                ..MonitorConfig::default()
            },
            ..ServeConfig::default()
        };
        let metrics = Arc::new(Metrics::new());
        let mut svc = Service::new(&testbed, cfg, Arc::clone(&metrics));
        let now = Instant::now();
        let app = svc.observer.app_names()[0].clone();
        svc.fail_next_rebuild(1);
        let mut saw_failure = false;
        let mut swaps_after_failure = 0;
        for round in 0..30 {
            let out = svc.submit(&app, now).unwrap();
            let done = svc
                .complete(out.task, 1.0 + round as f64 * 0.1, 90.0, now)
                .unwrap();
            let failures = metrics.rebuild_failures.load(Ordering::Relaxed);
            if failures > 0 {
                saw_failure = true;
            }
            if saw_failure && done.swapped {
                swaps_after_failure += 1;
            }
            assert!(!done.swapped || failures == 0 || saw_failure);
        }
        assert!(saw_failure, "injected rebuild failure never fired");
        assert_eq!(metrics.rebuild_failures.load(Ordering::Relaxed), 1);
        assert!(
            swaps_after_failure > 0,
            "daemon must recover and swap on a later successful rebuild"
        );
        assert_eq!(svc.status().completed, 30, "every completion recorded");
    }
}
