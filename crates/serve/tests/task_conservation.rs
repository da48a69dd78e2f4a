//! Seeded property test: the task-conservation invariant — every admitted task
//! is in exactly one of queued/delayed/running/completed/dead-lettered —
//! holds under random interleavings of submits, completions, lease
//! expiries, backoff promotion, and crash-recovery cycles through the
//! WAL, and all work eventually reaches a terminal state. After every
//! operation the task table a shard runs on equals the one a replay of
//! its files rebuilds.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tracon_core::SchedulerKind;
use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_serve::shard::{restore_shards, route_app, shard_machines, stride_shard};
use tracon_serve::{recover_dir, Metrics, ServeConfig, Service, StatusSnapshot, Wal};
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
        scheduler: SchedulerKind::Mios,
        queue_capacity: 8,
        lease_base_ms: 40,
        lease_per_predicted_s_ms: 0,
        max_attempts: 2,
        backoff_base_ms: 5,
        wal_dir: Some(dir.to_path_buf()),
        wal_snapshot_every: 16,
        ..ServeConfig::default()
    }
}

fn open(dir: &Path, now: Instant) -> Service {
    Service::open(testbed(), cfg(dir), Arc::new(Metrics::new()), now)
        .expect("service must open its WAL")
}

/// What a crash right now would leave behind is what the shards hold:
/// replaying each shard's snapshot and log rebuilds exactly the table
/// its `Service` runs on — rows, states, attempts, next id.
fn assert_live_equals_replayed(dir: &Path, services: &[Service], after: &str) {
    for svc in services {
        let shard = svc.shard();
        let (_, replayed) = Wal::open_shard(dir, shard, u64::MAX).expect("replay");
        assert_eq!(
            &replayed.table,
            svc.table(),
            "after {after}: shard {shard} of {} replays to another table than it holds",
            services.len()
        );
    }
}

#[test]
fn conservation_holds_under_random_interleavings() {
    check_cases(0..12, |rng| {
        let ops = ops(rng, 1..40, 6, 1024);
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
                4 => {
                    now += Duration::from_millis(2_000);
                    svc.tick(now);
                }
                // Compact ahead of the cadence.
                _ => svc.write_snapshot(),
            }
            let st = svc.status();
            assert!(
                st.conserved(),
                "op {} broke conservation: admitted {} = completed {} + dead {} + queued {} + delayed {} + running {}",
                op, st.admitted, st.completed, st.dead_lettered, st.queued, st.delayed, st.running
            );
            assert_live_equals_replayed(&dir, std::slice::from_ref(&svc), &format!("op {op}"));
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
/// and restore each shard under the new layout.
fn open_shards(dir: &Path, shards: usize, now: Instant) -> Vec<Service> {
    let tb = testbed();
    let mut base = cfg(dir);
    base.machines = shards.max(3); // at least one machine a shard
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
    let (wals, recovery) =
        recover_dir(dir, shards, base.wal_snapshot_every, &|_| None).expect("recover shards");
    restore_shards(&mut services, recovery.per_shard(wals), now);
    services
}

/// Report `task` complete the way the reactor routes it: to the shard
/// its id names, which must be the only shard that knows the task.
fn complete_at_home(services: &mut [Service], task: u64, runtime: f64, now: Instant) {
    let home = stride_shard(task, services.len());
    for (shard, svc) in services.iter().enumerate() {
        assert!(
            shard == home || svc.task_info(task).is_none(),
            "task {task} is known to shard {shard}, not only to its stride shard {home}"
        );
    }
    let _ = services[home].complete(task, runtime, 80.0, now);
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
/// survives whole-fleet crash/recover cycles and shard-count changes
/// across restarts, with every completion routed by task id alone.
#[test]
fn summed_conservation_survives_shard_crashes_and_reshards() {
    check_cases(0..10, |rng| {
        let ops = ops(rng, 1..36, 4, 1024);
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
                // Complete a task on the shard its id names.
                1 => {
                    let task = (x % 40 + 1) as u64;
                    complete_at_home(&mut services, task, 5.0 + (x % 7) as f64, now);
                }
                // Time step on every shard.
                2 => {
                    now += Duration::from_millis((x % 30 + 1) as u64);
                    for svc in services.iter_mut() {
                        svc.tick(now);
                    }
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
            assert_live_equals_replayed(&dir, &services, &format!("op {op}"));
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

/// The property on its own, where CI runs it by name: every seeded
/// interleaving of submit / complete / tick (short, and past every
/// lease) / forced snapshot / crash-and-recover, on one shard and on
/// four, leaves after every single operation a directory that replays
/// to the tables the shards hold.
#[test]
fn live_state_equals_replayed_state_at_every_step() {
    check_cases(0..12, |rng| {
        let shards = if rng.next_u64() & 1 == 1 { 4 } else { 1 };
        let ops = ops(rng, 8..48, 7, 1024);
        let tb = testbed();
        let napps = tb.perf.names.len();
        let dir = fresh_dir();
        let mut now = Instant::now();
        let mut services = open_shards(&dir, shards, now);
        assert_live_equals_replayed(&dir, &services, "boot");
        for (op, x) in ops {
            let x = x as usize;
            match op {
                0 | 1 => {
                    let app = &tb.perf.names[x % napps];
                    let shard = services[0].app_id(app).map(|id| route_app(id, shards));
                    let _ = services[shard.unwrap_or(0)].submit(app, now);
                }
                2 => {
                    let task = (x % 40 + 1) as u64;
                    complete_at_home(&mut services, task, 5.0 + (x % 7) as f64, now);
                }
                3 | 4 => {
                    let jump = if op == 3 { x as u64 % 30 + 1 } else { 2_000 };
                    now += Duration::from_millis(jump);
                    services.iter_mut().for_each(|svc| {
                        svc.tick(now);
                    });
                }
                5 => services[x % shards].write_snapshot(),
                _ => {
                    drop(services);
                    now += Duration::from_millis(1);
                    services = open_shards(&dir, shards, now);
                }
            }
            assert_live_equals_replayed(&dir, &services, &format!("op {op}"));
            assert!(summed(&services).conserved(), "op {op} broke conservation");
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A two-shard WAL directory exactly as the commit before the task table
/// wrote it (hex of each file): snapshots holding completed, queued,
/// leased and `migrated` rows, logs holding every record kind, a steal
/// both shards logged and one only the donor did.
const PARENT_DIR: [(&str, &str); 4] = [
    (
        "snapshot.0.json",
        "7b2276223a312c226e6578745f7461736b5f6964223a31312c227461736b73223a5b7b227461736b\
         223a312c22617070223a22656d61696c222c22617474656d707473223a302c227374617465223a22\
         636f6d706c65746564222c2272756e74696d65223a352e357d2c7b227461736b223a332c22617070\
         223a22626c6173746e222c22617474656d707473223a312c227374617465223a226c656173656422\
         2c2272756e74696d65223a307d2c7b227461736b223a352c22617070223a22766964656f222c2261\
         7474656d707473223a312c227374617465223a226c6561736564222c2272756e74696d65223a307d\
         2c7b227461736b223a372c22617070223a22656d61696c222c22617474656d707473223a312c2273\
         74617465223a226c6561736564222c2272756e74696d65223a307d2c7b227461736b223a392c2261\
         7070223a22626c6173746e222c22617474656d707473223a312c227374617465223a226c65617365\
         64222c2272756e74696d65223a307d5d7d",
    ),
    (
        "snapshot.1.json",
        "7b2276223a312c226e6578745f7461736b5f6964223a32362c227461736b73223a5b7b227461736b\
         223a322c22617070223a22776562222c22617474656d707473223a302c227374617465223a22636f\
         6d706c65746564222c2272756e74696d65223a352e357d2c7b227461736b223a342c22617070223a\
         22626c61737470222c22617474656d707473223a302c227374617465223a22636f6d706c65746564\
         222c2272756e74696d65223a352e357d2c7b227461736b223a362c22617070223a22636f6d70696c\
         65222c22617474656d707473223a312c227374617465223a22717565756564222c2272756e74696d\
         65223a307d2c7b227461736b223a382c22617070223a22667265716d696e65222c22617474656d70\
         7473223a312c227374617465223a22717565756564222c2272756e74696d65223a307d2c7b227461\
         736b223a31302c22617070223a226465647570222c22617474656d707473223a312c227374617465\
         223a22717565756564222c2272756e74696d65223a307d2c7b227461736b223a31322c2261707022\
         3a22776562222c22617474656d707473223a312c227374617465223a22717565756564222c227275\
         6e74696d65223a307d2c7b227461736b223a31342c22617070223a22626c61737470222c22617474\
         656d707473223a302c227374617465223a226c6561736564222c2272756e74696d65223a307d2c7b\
         227461736b223a31362c22617070223a22636f6d70696c65222c22617474656d707473223a302c22\
         7374617465223a226c6561736564222c2272756e74696d65223a307d2c7b227461736b223a31382c\
         22617070223a22667265716d696e65222c22617474656d707473223a302c227374617465223a2271\
         7565756564222c2272756e74696d65223a307d2c7b227461736b223a32302c22617070223a226465\
         647570222c22617474656d707473223a302c227374617465223a22717565756564222c2272756e74\
         696d65223a307d2c7b227461736b223a32322c22617070223a22776562222c22617474656d707473\
         223a302c227374617465223a226d69677261746564222c2272756e74696d65223a302c22746f223a\
         307d2c7b227461736b223a32342c22617070223a22626c61737470222c22617474656d707473223a\
         302c227374617465223a226d69677261746564222c2272756e74696d65223a302c22746f223a307d\
         5d7d",
    ),
    (
        "wal.0",
        "27000000261df62b7b226f70223a227375626d6974222c227461736b223a31312c22617070223a22\
         766964656f227d27000000917281e17b226f70223a227375626d6974222c227461736b223a31332c\
         22617070223a22656d61696c227d230000007957aeeb7b226f70223a2264656164222c227461736b\
         223a332c22617474656d707473223a327d230000008b8354c97b226f70223a2264656164222c2274\
         61736b223a352c22617474656d707473223a327d230000001a32d2617b226f70223a226465616422\
         2c227461736b223a372c22617474656d707473223a327d230000006f2aa18c7b226f70223a226465\
         6164222c227461736b223a392c22617474656d707473223a327d240000002a8862cf7b226f70223a\
         226c65617365222c227461736b223a31312c22617474656d7074223a307d24000000874c0c2e7b22\
         6f70223a226c65617365222c227461736b223a31332c22617474656d7074223a307d450000009b26\
         7fd67b226f70223a226d696772617465222c227461736b223a32342c22617070223a22626c617374\
         70222c22617474656d7074223a302c2266726f6d223a312c22746f223a307d42000000a41a9fb87b\
         226f70223a226d696772617465222c227461736b223a32322c22617070223a22776562222c226174\
         74656d7074223a302c2266726f6d223a312c22746f223a307d240000003e8cbc5a7b226f70223a22\
         6c65617365222c227461736b223a32342c22617474656d7074223a307d2400000088c77ea27b226f\
         70223a226c65617365222c227461736b223a32322c22617474656d7074223a307d2800000065b087\
         8b7b226f70223a227375626d6974222c227461736b223a31352c22617070223a22626c6173746e22\
         7d27000000c27467787b226f70223a227375626d6974222c227461736b223a31372c22617070223a\
         22766964656f227d",
    ),
    (
        "wal.1",
        "2a0000009089f93c7b226f70223a227375626d6974222c227461736b223a32362c22617070223a22\
         667265716d696e65227d2700000032b6f7657b226f70223a227375626d6974222c227461736b223a\
         32382c22617070223a226465647570227d440000007fb036317b226f70223a226d69677261746522\
         2c227461736b223a32382c22617070223a226465647570222c22617474656d7074223a302c226672\
         6f6d223a312c22746f223a307d",
    ),
];

/// Every task id `PARENT_DIR` holds.
const PARENT_DIR_TASKS: [u64; 23] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 22, 24, 26, 28,
];

/// The formats hold: that directory restores — under its own shard
/// count, a smaller and a larger one — to the totals the commit that
/// wrote it restored it to (23 admitted, 3 completed, 4 dead-lettered,
/// 16 queued), with every task on the shard its id names, its steal
/// records and `migrated` rows read as the queued tasks they were.
#[test]
fn a_directory_the_parent_commit_wrote_restores_to_the_same_status() {
    // (queued, completed, dead_lettered, admitted, free_slots) a shard.
    type Want = &'static [(usize, u64, u64, u64, usize)];
    let cases: [(usize, Want, Option<u64>); 3] = [
        (2, &[(4, 1, 4, 9, 4), (12, 2, 0, 14, 2)], Some(29)),
        (1, &[(16, 3, 4, 23, 6)], None),
        (
            3,
            &[(5, 2, 1, 8, 2), (6, 1, 1, 8, 2), (5, 0, 2, 7, 2)],
            Some(31),
        ),
    ];
    for (shards, want, next) in cases {
        let dir = fresh_dir();
        std::fs::create_dir_all(&dir).expect("fixture dir");
        for (name, hex) in PARENT_DIR {
            let byte = |i: usize| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex");
            let bytes: Vec<u8> = (0..hex.len()).step_by(2).map(byte).collect();
            std::fs::write(dir.join(name), bytes).expect("fixture file");
        }
        let now = Instant::now();
        let mut services = open_shards(&dir, shards, now);
        let got: Vec<_> = services
            .iter()
            .map(|svc| {
                let st = svc.status();
                assert_eq!((st.delayed, st.running, st.rejected), (0, 0, 0));
                (
                    st.queued,
                    st.completed,
                    st.dead_lettered,
                    st.admitted,
                    st.free_slots,
                )
            })
            .collect();
        assert_eq!(got, want, "{shards} shards");
        let total = summed(&services);
        let totals = (total.admitted, total.completed, total.dead_lettered);
        assert_eq!((totals, total.queued), ((23, 3, 4), 16), "{shards} shards");
        for task in PARENT_DIR_TASKS {
            let home = stride_shard(task, shards);
            for svc in &services {
                let knows = svc.task_info(task).is_some();
                assert_eq!(
                    knows,
                    svc.shard() == home,
                    "task {task} over {shards} shards"
                );
            }
        }
        // A full queue (one shard, 16 waiting) refuses; otherwise the
        // id continues past everything the directory ever held.
        let admitted = services[0].submit(&testbed().perf.names[0], now);
        assert_eq!(admitted.ok().map(|a| a.task), next, "{shards} shards");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
