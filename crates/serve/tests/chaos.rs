//! Chaos integration tests: attack a live tracond with the adversarial
//! load mode and assert the task-conservation invariant, then crash a
//! WAL-backed daemon and verify a fresh process recovers its state.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_serve::daemon::start;
use tracon_serve::{
    run_chaos, ChaosConfig, Client, ErrorKind, NetConfig, Reply, Request, Role, SchedKind,
    ServeConfig,
};

/// Same scale as the serve crate's unit tests: fast to profile, still a
/// real 8-app interference matrix.
fn tiny_testbed() -> Testbed {
    let mut cfg = TestbedConfig::small();
    cfg.calibration_points = 6;
    cfg.time_scale = 0.05;
    Testbed::build(&cfg)
}

/// Lease settings tight enough that orphaned tasks cycle through
/// requeue and dead-lettering within a test-sized settle window.
fn fast_lease_cfg() -> ServeConfig {
    ServeConfig {
        machines: 2,
        slots_per_machine: 2,
        scheduler: SchedKind::Mios,
        lease_base_ms: 150,
        lease_per_predicted_s_ms: 0,
        max_attempts: 2,
        backoff_base_ms: 10,
        ..ServeConfig::default()
    }
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracon-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All counters from ONE status reply — a consistent snapshot taken
/// under the service mutex. Reading fields via separate requests would
/// race the daemon's dispatch ticker and double-count moving tasks.
/// Returns `(admitted, completed, dead_lettered, outstanding)`.
fn status_counts(client: &mut Client) -> (u64, u64, u64, u64) {
    let reply = client.request(Request::Status).expect("status roundtrip");
    let Reply::Ok { result, .. } = reply else {
        panic!("status failed");
    };
    let field = |name: &str| -> u64 {
        result
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("status lacks '{name}': {result}"))
    };
    (
        field("admitted"),
        field("completed"),
        field("dead_lettered"),
        field("queued") + field("delayed") + field("running"),
    )
}

#[test]
fn chaos_run_holds_conservation_and_settles() {
    let testbed = tiny_testbed();
    let handle = start(&testbed, fast_lease_cfg(), NetConfig::default()).expect("daemon must bind");

    let cfg = ChaosConfig {
        addrs: vec![handle.addr.to_string()],
        requests: 60,
        seed: 0xC4A05,
        settle_timeout_ms: 20_000,
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg).expect("daemon stayed reachable");

    assert!(report.passed(), "chaos run failed:\n{}", report.render());
    assert!(
        report.acked_submits > 0,
        "no work admitted:\n{}",
        report.render()
    );
    assert!(report.orphaned > 0, "probe cadence produced no orphans");
    assert_eq!(
        report.unexpected_replies,
        0,
        "garbage/oversized probes must get structured errors:\n{}",
        report.render()
    );
    assert!(report.garbage_probes > 0 && report.oversized_probes > 0);
    // Orphans (and any tasks whose completion raced a lease expiry) must
    // end up dead-lettered rather than lost.
    let (admitted, completed, dead) = report.final_counts;
    assert_eq!(
        admitted,
        completed + dead,
        "settled daemon must be terminal"
    );
    assert!(dead > 0, "orphaned tasks must reach the dead-letter queue");

    handle.stop();
    handle.join();
}

#[test]
fn killed_daemon_recovers_queue_and_counters_from_wal() {
    let testbed = tiny_testbed();
    let dir = wal_dir("restart");
    let app = testbed.perf.names[0].clone();

    // First incarnation: admit four tasks, complete one, then stop
    // without draining — queued and running work is abandoned exactly as
    // in a crash, surviving only in the WAL. Leases are long here so no
    // expiry races the explicit completion below.
    let mut cfg = fast_lease_cfg();
    cfg.machines = 1;
    cfg.slots_per_machine = 1;
    cfg.wal_dir = Some(dir.clone());
    cfg.lease_base_ms = 60_000;
    let handle = start(&testbed, cfg.clone(), NetConfig::default()).expect("first daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    let mut first_task = None;
    for _ in 0..4 {
        match client
            .request(Request::Submit {
                app: app.clone(),
                demand: None,
            })
            .expect("submit")
        {
            Reply::Ok { result, .. } => {
                if first_task.is_none() {
                    first_task = result.get("task").and_then(|v| v.as_u64());
                }
            }
            other => panic!("submit refused: {other:?}"),
        }
    }
    let first_task = first_task.expect("first submit returns a task id");
    let done = client
        .request(Request::Complete {
            task: first_task,
            runtime: 8.0,
            iops: 90.0,
        })
        .expect("complete");
    assert!(
        matches!(done, Reply::Ok { .. }),
        "completion rejected: {done:?}"
    );
    handle.stop();
    handle.join();
    drop(client);

    // Second incarnation on a fresh ephemeral port, same WAL directory,
    // with leases tight enough for the recovered work to drain unaided.
    cfg.lease_base_ms = 150;
    let handle = start(&testbed, cfg, NetConfig::default()).expect("restarted daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("reconnect");

    let (admitted, completed, dead, outstanding) = status_counts(&mut client);
    assert_eq!(admitted, 4, "admissions lost across restart");
    assert_eq!(completed, 1, "completion lost across restart");
    assert_eq!(
        outstanding + completed + dead,
        4,
        "tasks lost or duplicated"
    );

    // Task ids must not be reused across the restart.
    match client
        .request(Request::Submit {
            app: app.clone(),
            demand: None,
        })
        .expect("post-restart submit")
    {
        Reply::Ok { result, .. } => {
            let task = result
                .get("task")
                .and_then(|v| v.as_u64())
                .expect("task id");
            assert!(task > 4, "task id {task} reused after restart");
        }
        other => panic!("post-restart submit refused: {other:?}"),
    }

    // Left alone, the recovered work must reach a terminal state through
    // the lease machinery (this client never completes anything).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (admitted, completed, dead, outstanding) = status_counts(&mut client);
        assert_eq!(
            admitted,
            completed + dead + outstanding,
            "conservation violated"
        );
        if outstanding == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "recovered work never settled");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.stop();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end failover over real sockets: a leader ships its WAL to a
/// warm follower; killing the leader promotes the follower within the
/// lease TTL with every counter intact, and the new leader keeps
/// admitting with fresh task ids.
#[test]
fn follower_promotes_with_counters_intact_when_leader_dies() {
    use std::sync::atomic::Ordering;

    let testbed = tiny_testbed();
    let app = testbed.perf.names[0].clone();
    let leader_dir = wal_dir("failover-leader");
    let follower_dir = wal_dir("failover-follower");

    // Leader: long leases so nothing expires under the assertions.
    let mut leader_cfg = fast_lease_cfg();
    leader_cfg.wal_dir = Some(leader_dir.clone());
    leader_cfg.lease_base_ms = 60_000;
    let leader = start(&testbed, leader_cfg, NetConfig::default()).expect("leader boots");

    // Warm follower pulling from the leader, with a lease tight enough
    // to promote inside the test but slack enough to survive poll jitter.
    let mut follower_cfg = fast_lease_cfg();
    follower_cfg.wal_dir = Some(follower_dir.clone());
    follower_cfg.replica_of = Some(leader.addr.to_string());
    follower_cfg.repl_ttl_ms = 1_200;
    follower_cfg.repl_poll_ms = 40;
    let follower = start(&testbed, follower_cfg, NetConfig::default()).expect("follower boots");

    // Drive the leader: four admissions, one completion.
    let mut client = Client::connect(&leader.addr.to_string()).expect("connect leader");
    let mut first_task = None;
    for _ in 0..4 {
        match client
            .request(Request::Submit {
                app: app.clone(),
                demand: None,
            })
            .expect("submit")
        {
            Reply::Ok { result, .. } => {
                if first_task.is_none() {
                    first_task = result.get("task").and_then(|v| v.as_u64());
                }
            }
            other => panic!("leader refused submit: {other:?}"),
        }
    }
    let first_task = first_task.expect("first submit returns a task id");
    let done = client
        .request(Request::Complete {
            task: first_task,
            runtime: 8.0,
            iops: 90.0,
        })
        .expect("complete");
    assert!(
        matches!(done, Reply::Ok { .. }),
        "completion rejected: {done:?}"
    );

    // A mutating request against the follower is redirected, not served.
    let mut fclient = Client::connect(&follower.addr.to_string()).expect("connect follower");
    match fclient
        .request(Request::Submit {
            app: app.clone(),
            demand: None,
        })
        .expect("follower submit roundtrip")
    {
        Reply::Error {
            kind, leader: hint, ..
        } => {
            assert_eq!(
                kind,
                ErrorKind::NotLeader,
                "follower must redirect mutations"
            );
            let hint = hint.expect("not_leader carries a leader hint");
            assert_eq!(
                hint.leader_addr.as_deref(),
                Some(leader.addr.to_string().as_str()),
                "hint must name the live leader"
            );
        }
        other => panic!("follower served a mutation while following: {other:?}"),
    }
    drop(fclient);

    // Wait until every leader record has been shipped and fsync'd on the
    // follower: 5 WAL records (4 admits + 1 completion) and zero lag on
    // the follower's own gauge.
    let metrics = std::sync::Arc::clone(follower.metrics());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let records = metrics.wal_records.load(Ordering::Relaxed);
        let lag = metrics.repl_lag_frames.load(Ordering::Relaxed);
        if records >= 5 && lag == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never caught up: {records} records, lag {lag}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Kill the leader without draining; the follower's pulls start
    // failing and the lease lapses.
    leader.stop();
    leader.join();
    drop(client);

    // Promotion must land within the TTL plus scheduling slack.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if metrics.repl_role.load(Ordering::Relaxed) == Role::Leader as u8 as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "follower never promoted");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        metrics.repl_epoch.load(Ordering::Relaxed) >= 2,
        "promotion must claim a higher epoch"
    );

    // The promoted node carries the leader's exact counters, conserved.
    let mut client = Client::connect(&follower.addr.to_string()).expect("connect promoted");
    let (admitted, completed, dead, outstanding) = status_counts(&mut client);
    assert_eq!(admitted, 4, "admissions lost across failover");
    assert_eq!(completed, 1, "completion lost across failover");
    assert_eq!(
        outstanding + completed + dead,
        4,
        "tasks lost or duplicated"
    );

    // And serves fresh mutations with ids beyond anything the old leader
    // handed out.
    match client
        .request(Request::Submit {
            app: app.clone(),
            demand: None,
        })
        .expect("post-failover submit")
    {
        Reply::Ok { result, .. } => {
            let task = result
                .get("task")
                .and_then(|v| v.as_u64())
                .expect("task id");
            assert!(task > 4, "task id {task} reused after failover");
        }
        other => panic!("promoted follower refused a submit: {other:?}"),
    }

    // Left alone, recovered and fresh work reaches a terminal state
    // while conservation holds at every observation.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (admitted, completed, dead, outstanding) = status_counts(&mut client);
        assert_eq!(
            admitted,
            completed + dead + outstanding,
            "conservation violated"
        );
        if outstanding == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "post-failover work never settled"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    follower.stop();
    follower.join();
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
