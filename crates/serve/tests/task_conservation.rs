//! Seeded property test: the task-conservation invariant — every admitted task
//! is in exactly one of queued/delayed/running/completed/dead-lettered —
//! holds under random interleavings of submits, completions, lease
//! expiries, backoff promotion, and crash-recovery cycles through the
//! WAL, and all work eventually reaches a terminal state.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_serve::repl::sim::{SimCluster, SimKnobs};
use tracon_serve::shard::{route_app, shard_machines};
use tracon_serve::{recover_dir, Metrics, Role, SchedKind, ServeConfig, Service, StatusSnapshot};
use tracon_stats::prng::{check_cases, ChaCha12};

/// A random interleaving: between `len.start` and `len.end - 1` pairs of
/// an op code below `kinds` and an operand below `operands`.
fn ops(
    rng: &mut ChaCha12,
    len: std::ops::Range<usize>,
    kinds: usize,
    operands: usize,
) -> Vec<(u8, u16)> {
    (0..rng.range_usize(len.start, len.end))
        .map(|_| {
            (
                rng.range_usize(0, kinds) as u8,
                rng.range_usize(0, operands) as u16,
            )
        })
        .collect()
}

/// One shared testbed: profiling it dominates the cost of a case.
fn testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| {
        let mut cfg = TestbedConfig::small();
        cfg.calibration_points = 6;
        cfg.time_scale = 0.05;
        Testbed::build(&cfg)
    })
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tracon-conserve-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tight leases and budgets so a short virtual-time jump drives tasks
/// through requeue and into the dead-letter queue.
fn cfg(dir: &Path) -> ServeConfig {
    ServeConfig {
        machines: 2,
        slots_per_machine: 2,
        scheduler: SchedKind::Mios,
        queue_capacity: 8,
        lease_base_ms: 40,
        lease_per_predicted_s_ms: 0,
        max_attempts: 2,
        backoff_base_ms: 5,
        backoff_cap_ms: 20,
        wal_dir: Some(dir.to_path_buf()),
        wal_snapshot_every: 16,
        ..ServeConfig::default()
    }
}

fn open(dir: &Path, now: Instant) -> Service {
    Service::open(testbed(), cfg(dir), Arc::new(Metrics::new()), now)
        .expect("service must open its WAL")
}

#[test]
fn conservation_holds_under_random_interleavings() {
    check_cases(0..12, |rng| {
        let ops = ops(rng, 1..40, 5, 1024);
        let tb = testbed();
        let napps = tb.perf.names.len();
        let dir = fresh_dir();
        let mut now = Instant::now();
        let mut svc = open(&dir, now);
        let mut ids: Vec<u64> = Vec::new();
        for (op, x) in ops {
            let x = x as usize;
            match op {
                // Submit: backpressure refusals are part of the model.
                0 => {
                    let app = tb.perf.names[x % napps].clone();
                    if let Ok(admitted) = svc.submit(&app, now) {
                        ids.push(admitted.task);
                    }
                }
                // Complete a known task; NotRunning refusals (still
                // queued, already done, lease already expired) are fine.
                1 => {
                    if !ids.is_empty() {
                        let task = ids[x % ids.len()];
                        let _ = svc.complete(task, 5.0 + (x % 7) as f64, 80.0, now);
                    }
                }
                // Small time step: may promote backoffs, may expire some
                // leases.
                2 => {
                    now += Duration::from_millis((x % 30 + 1) as u64);
                    svc.tick(now);
                }
                // Crash: drop the service with no shutdown path; the next
                // incarnation recovers from the WAL alone.
                3 => {
                    drop(svc);
                    now += Duration::from_millis(1);
                    svc = open(&dir, now);
                }
                // Jump past every lease and backoff deadline.
                _ => {
                    now += Duration::from_millis(2_000);
                    svc.tick(now);
                }
            }
            let st = svc.status();
            assert!(
                st.conserved(),
                "op {} broke conservation: admitted {} = completed {} + dead {} + queued {} + delayed {} + running {}",
                op, st.admitted, st.completed, st.dead_lettered, st.queued, st.delayed, st.running
            );
        }
        // Left alone, the lease machinery must drive every survivor to a
        // terminal state (completed earlier, or dead-lettered now).
        for _ in 0..64 {
            now += Duration::from_millis(2_000);
            svc.tick(now);
            if svc.status().queued + svc.status().delayed + svc.status().running == 0 {
                break;
            }
        }
        let st = svc.status();
        assert!(st.conserved());
        assert_eq!(
            st.queued + st.delayed + st.running,
            0,
            "work wedged: queued {} delayed {} running {}",
            st.queued,
            st.delayed,
            st.running
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A crash at an arbitrary point never loses or duplicates a task:
/// the recovered counters match a straight replay of what happened.
#[test]
fn recovery_preserves_admission_count() {
    check_cases(0..12, |rng| {
        let submits = rng.range_usize(1, 12);
        let completes = rng.range_usize(0, 12);
        let tb = testbed();
        let dir = fresh_dir();
        let now = Instant::now();
        let mut svc = open(&dir, now);
        let mut placed: Vec<u64> = Vec::new();
        for i in 0..submits {
            let app = tb.perf.names[i % tb.perf.names.len()].clone();
            if let Ok(admitted) = svc.submit(&app, now) {
                if admitted.placement.is_some() {
                    placed.push(admitted.task);
                }
            }
        }
        let mut completed = 0u64;
        for task in placed.iter().take(completes) {
            if svc.complete(*task, 6.0, 90.0, now).is_ok() {
                completed += 1;
            }
        }
        let before = svc.status();
        drop(svc);

        let svc = open(&dir, Instant::now());
        let after = svc.status();
        assert!(after.conserved());
        assert_eq!(after.admitted, before.admitted, "admissions changed");
        assert_eq!(after.completed, completed, "completions changed");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Boot a sharded fleet against one WAL directory the way the daemon
/// does: build the services, recover every shard file, merge, re-home,
/// adopt, and snapshot under the new layout.
fn open_shards(dir: &Path, shards: usize, now: Instant) -> Vec<Service> {
    let tb = testbed();
    let mut base = cfg(dir);
    base.machines = 3; // room for up to 3 single-machine shards
    let slices = shard_machines(base.machines, shards);
    let mut services: Vec<Service> = slices
        .iter()
        .enumerate()
        .map(|(shard, &(machine_base, count))| {
            let mut shard_cfg = base.clone();
            shard_cfg.machines = count;
            shard_cfg.shards = shards;
            Service::new_shard(
                tb,
                shard_cfg,
                Arc::new(Metrics::with_shards(shards)),
                shard,
                shards,
                machine_base,
            )
        })
        .collect();
    let route = {
        let probe = &services[0];
        let map: std::collections::HashMap<String, usize> = probe
            .app_list()
            .iter()
            .filter_map(|name| {
                probe
                    .app_id(name)
                    .map(|id| (name.clone(), route_app(id, shards)))
            })
            .collect();
        move |name: &str| map.get(name).copied()
    };
    let (wals, recovery) =
        recover_dir(dir, shards, base.wal_snapshot_every, &route).expect("recover shards");
    for (shard, wal) in wals.into_iter().enumerate() {
        let homed: Vec<_> = recovery
            .tasks
            .iter()
            .filter(|t| t.home == shard)
            .map(|t| t.rec.clone())
            .collect();
        services[shard].attach_wal(wal);
        services[shard].adopt_recovered(&homed, now);
        services[shard].align_next_task_id(recovery.next_task_id);
        services[shard].write_snapshot();
    }
    services
}

/// Sum per-shard snapshots the way the reactor's status fan-in does.
fn summed(services: &[Service]) -> StatusSnapshot {
    let mut total = services[0].status();
    for svc in &services[1..] {
        let part = svc.status();
        total.queued += part.queued;
        total.delayed += part.delayed;
        total.running += part.running;
        total.completed += part.completed;
        total.dead_lettered += part.dead_lettered;
        total.admitted += part.admitted;
        total.rejected += part.rejected;
    }
    total
}

/// The sharded generalization: conservation of the *summed* snapshot
/// survives random cross-shard steals (committed and cut mid-handoff
/// by a crash), whole-fleet crash/recover cycles, and shard-count
/// changes across restarts.
#[test]
fn summed_conservation_survives_steals_and_shard_crashes() {
    check_cases(0..10, |rng| {
        let ops = ops(rng, 1..36, 6, 1024);
        let initial_shards = rng.range_usize(1, 3);
        let tb = testbed();
        let napps = tb.perf.names.len();
        let dir = fresh_dir();
        let mut now = Instant::now();
        let mut shards = initial_shards;
        let mut services = open_shards(&dir, shards, now);
        for (op, x) in ops {
            let x = x as usize;
            match op {
                // Submit, routed by application hash like the reactor.
                0 => {
                    let app = tb.perf.names[x % napps].clone();
                    let shard = services[0]
                        .app_id(&app)
                        .map(|id| route_app(id, shards))
                        .unwrap_or(0);
                    let _ = services[shard].submit(&app, now);
                }
                // Complete a task on whichever shard knows it.
                1 => {
                    let task = (x % 40 + 1) as u64;
                    for svc in services.iter_mut() {
                        if svc.task_info(task).is_some() {
                            let _ = svc.complete(task, 5.0 + (x % 7) as f64, 80.0, now);
                            break;
                        }
                    }
                }
                // Time step on every shard.
                2 => {
                    now += Duration::from_millis((x % 30 + 1) as u64);
                    for svc in services.iter_mut() {
                        svc.tick(now);
                    }
                }
                // A committed steal: donor pops and tombstones, recipient
                // adopts — the invariant must hold again afterwards.
                3 if shards > 1 => {
                    let from = x % shards;
                    let to = (x / 7 + 1 + from) % shards;
                    if from != to {
                        let stolen = services[from].steal_queued(x % 3 + 1, to);
                        services[to].inject_stolen(&stolen, from, now);
                    }
                }
                // Crash mid-steal: the donor logged the migrate but the
                // recipient never adopted. Recovery must resurrect the
                // tasks from the tombstones exactly once.
                4 if shards > 1 => {
                    let from = x % shards;
                    let to = (from + 1) % shards;
                    let _cut = services[from].steal_queued(x % 3 + 1, to);
                    drop(services);
                    now += Duration::from_millis(1);
                    services = open_shards(&dir, shards, now);
                }
                // Whole-fleet crash/recover, possibly with a new count.
                _ => {
                    drop(services);
                    now += Duration::from_millis(1);
                    shards = x % 3 + 1;
                    services = open_shards(&dir, shards, now);
                }
            }
            let st = summed(&services);
            assert!(
                st.conserved(),
                "op {} broke summed conservation over {} shards: admitted {} = completed {} + dead {} + queued {} + delayed {} + running {}",
                op, shards, st.admitted, st.completed, st.dead_lettered, st.queued, st.delayed, st.running
            );
        }
        // Every survivor must still reach a terminal state.
        for _ in 0..64 {
            now += Duration::from_millis(2_000);
            for svc in services.iter_mut() {
                svc.tick(now);
            }
            let st = summed(&services);
            if st.queued + st.delayed + st.running == 0 {
                break;
            }
        }
        let st = summed(&services);
        assert!(st.conserved());
        assert_eq!(
            st.queued + st.delayed + st.running,
            0,
            "work wedged: queued {} delayed {} running {}",
            st.queued,
            st.delayed,
            st.running
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
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
    check_cases(0..8, |rng| {
        let seed = rng.next_u64();
        let ops = ops(rng, 1..28, 3, 512);
        let loss_permille = rng.range_usize(0, 220) as u32;
        let shards = rng.range_usize(1, 3);
        let tight_snapshots = rng.next_u64() & 1 == 1;
        let stale_reconnect = rng.next_u64() & 1 == 1;
        let knobs = SimKnobs {
            drop_permille: loss_permille,
            dup_permille: loss_permille,
            ..SimKnobs::default()
        };
        let mut sim = SimCluster::new(seed, shards, 200, 20, knobs);
        if tight_snapshots {
            // Compaction outruns a fresh follower: force the snapshot
            // install path rather than a pure frame replay.
            sim.set_snapshot_every(4);
        }
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
