//! Chaos integration tests: drive a live tracond with the load generator,
//! clean and adversarial, and assert the task-conservation invariant, then
//! crash a WAL-backed daemon and verify a fresh process recovers its state.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tracon_core::SchedulerKind;
use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_serve::daemon::start;
use tracon_serve::loadgen::{self, LoadgenConfig};
use tracon_serve::{Client, ErrorKind, NetConfig, Reply, Request, Role, ServeConfig};

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
        scheduler: SchedulerKind::Mios,
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

    let cfg = LoadgenConfig {
        addrs: vec![handle.addr.to_string()],
        requests: 60,
        seed: 0xC4A05,
        settle_timeout_ms: 20_000,
        chaos: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&cfg).expect("daemon stayed reachable");

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

/// Leases long enough that nothing expires under a clean run's
/// completions, and retries enough that a restart never dead-letters.
fn long_lease_cfg() -> ServeConfig {
    ServeConfig {
        lease_base_ms: 60_000,
        max_attempts: 5,
        ..fast_lease_cfg()
    }
}

#[test]
fn a_clean_run_against_a_healthy_daemon_passes_without_faults() {
    let testbed = tiny_testbed();
    let handle = start(&testbed, long_lease_cfg(), NetConfig::default()).expect("daemon must bind");
    let cfg = LoadgenConfig {
        addrs: vec![handle.addr.to_string()],
        requests: 40,
        quick: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&cfg).expect("daemon stayed reachable");
    assert!(report.passed(), "clean run failed:\n{}", report.render());
    assert!(report.conservation_checks > 0, "{}", report.render());
    assert_eq!(report.faults_observed(), 0, "{}", report.render());
    assert_eq!(report.acked_submits, 40, "{}", report.render());
    assert_eq!(report.completions_acked, 40, "{}", report.render());
    assert!(report.sojourn_ms.p50 > 0.0, "{}", report.render());
    handle.stop();
    handle.join();
}

/// A clean run rides through its daemon's restart: the daemon stops
/// mid-run and comes back on the same WAL at the second address of the
/// failover list, and every acked task still ends completed.
#[test]
fn a_clean_run_survives_a_daemon_restart() {
    use std::sync::atomic::Ordering;

    let testbed = tiny_testbed();
    let dir = wal_dir("clean-restart");
    let cfg = ServeConfig {
        wal_dir: Some(dir.clone()),
        ..long_lease_cfg()
    };
    let first = start(&testbed, cfg.clone(), NetConfig::default()).expect("first daemon");
    // The restart's port, held until the restart so no other test's
    // daemon takes it.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let second_addr = reserved.local_addr().expect("reserved address").to_string();
    let lg = LoadgenConfig {
        addrs: vec![first.addr.to_string(), second_addr.clone()],
        requests: 60,
        ..LoadgenConfig::default()
    };
    let run = std::thread::spawn(move || loadgen::run(&lg));

    // Default pacing submits 60 arrivals over about 3 s: stop the daemon
    // once a sixth of them are in.
    let admissions = &first.metrics().admissions;
    let deadline = Instant::now() + Duration::from_secs(20);
    while admissions.load(Ordering::Relaxed) < 10 {
        assert!(Instant::now() < deadline, "the run never got going");
        std::thread::sleep(Duration::from_millis(10));
    }
    first.stop();
    first.join();
    drop(reserved);
    let net = NetConfig {
        addr: second_addr,
        ..NetConfig::default()
    };
    let second = start(&testbed, cfg, net).expect("restarted daemon");

    let report = run
        .join()
        .expect("loadgen thread")
        .expect("daemon came back");
    assert!(report.passed(), "clean run failed:\n{}", report.render());
    assert_eq!(report.lost, 0, "{}", report.render());
    assert!(
        report.reconnects > 1,
        "the run never failed over:\n{}",
        report.render()
    );
    second.stop();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Work other clients left on the daemon is not the run's to settle: a
/// clean run beside two tasks that are never completed still passes.
#[test]
fn a_clean_run_passes_beside_another_clients_unfinished_tasks() {
    let testbed = tiny_testbed();
    let cfg = ServeConfig {
        machines: 4,
        ..long_lease_cfg()
    };
    let handle = start(&testbed, cfg, NetConfig::default()).expect("daemon must bind");
    let mut other = Client::connect(&handle.addr.to_string()).expect("connect");
    for _ in 0..2 {
        let reply = submit(&mut other, &testbed.perf.names[0]);
        assert!(matches!(reply, Reply::Ok { .. }), "{reply:?}");
    }
    let lg = LoadgenConfig {
        addrs: vec![handle.addr.to_string()],
        requests: 40,
        quick: true,
        settle_timeout_ms: 3_000,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&lg).expect("daemon stayed reachable");
    assert!(report.passed(), "clean run failed:\n{}", report.render());
    assert_eq!(report.acked_submits, 40, "{}", report.render());
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    let (_, _, _, outstanding) = status_counts(&mut client);
    assert_eq!(outstanding, 2, "the other client's tasks are still running");
    handle.stop();
    handle.join();
}

/// A closed-mode run whose every slot holds a task that vanishes with
/// its leader ends instead of polling forever. The tasks queue behind
/// another client's task on a one-slot leader; the leader dies, and the
/// follower, which never synced, never promotes and does not know them.
#[test]
fn a_closed_run_ends_when_its_tasks_vanish_with_the_leader() {
    use std::sync::atomic::Ordering;

    let testbed = tiny_testbed();
    let leader_cfg = ServeConfig {
        machines: 1,
        slots_per_machine: 1,
        ..long_lease_cfg()
    };
    let leader = start(&testbed, leader_cfg, NetConfig::default()).expect("leader boots");
    let mut other = Client::connect(&leader.addr.to_string()).expect("connect leader");
    let reply = submit(&mut other, &testbed.perf.names[0]);
    assert!(matches!(reply, Reply::Ok { .. }), "{reply:?}");
    // The follower's leader is an address nothing listens on.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let nobody = listener.local_addr().expect("address").to_string();
    drop(listener);
    let dir = wal_dir("closed-unpromoted");
    let follower_cfg = ServeConfig {
        wal_dir: Some(dir.clone()),
        replica_of: Some(nobody),
        repl_poll_ms: 40,
        ..long_lease_cfg()
    };
    let follower = start(&testbed, follower_cfg, NetConfig::default()).expect("follower boots");

    let lg = LoadgenConfig {
        addrs: vec![leader.addr.to_string(), follower.addr.to_string()],
        requests: 20,
        mode: loadgen::LoadMode::Closed,
        concurrency: 2,
        settle_timeout_ms: 2_000,
        reconnect_timeout_ms: 2_000,
        ..LoadgenConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(loadgen::run(&lg));
    });
    let admissions = &leader.metrics().admissions;
    let deadline = Instant::now() + Duration::from_secs(20);
    while admissions.load(Ordering::Relaxed) < 3 {
        assert!(Instant::now() < deadline, "the run never got going");
        std::thread::sleep(Duration::from_millis(10));
    }
    leader.stop();
    leader.join();
    drop(other);

    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a closed run whose tasks vanished never ended");
    if let Ok(report) = outcome {
        assert!(!report.passed(), "{}", report.render());
    }
    follower.stop();
    follower.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run whose replies stop coming ends with an `Err` naming its
/// addresses once the reconnect budget has passed. The daemon stops
/// mid-run, and the second listed address is bound but never accepts:
/// every dial there connects and every request on it times out. The run
/// must end within the budget plus one read timeout (500 ms) of the
/// stop; 250 ms more cover the stop itself, the driver's 50 ms status
/// interval and the dials.
#[test]
fn a_run_whose_replies_stop_ends_within_the_reconnect_budget() {
    use std::sync::atomic::Ordering;

    let testbed = tiny_testbed();
    let daemon = start(&testbed, long_lease_cfg(), NetConfig::default()).expect("daemon boots");
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let silent_addr = silent.local_addr().expect("address").to_string();
    let budget = Duration::from_millis(2_000);
    let lg = LoadgenConfig {
        addrs: vec![daemon.addr.to_string(), silent_addr.clone()],
        requests: 60,
        reconnect_timeout_ms: budget.as_millis() as u64,
        ..LoadgenConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = loadgen::run(&lg);
        let _ = tx.send((outcome, Instant::now()));
    });
    let admissions = &daemon.metrics().admissions;
    let deadline = Instant::now() + Duration::from_secs(20);
    while admissions.load(Ordering::Relaxed) < 10 {
        assert!(Instant::now() < deadline, "the run never got going");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stopped = Instant::now();
    daemon.stop();
    daemon.join();

    let (outcome, ended) = rx
        .recv_timeout(budget + Duration::from_secs(10))
        .expect("a run that gets no replies never ended");
    let err = outcome.expect_err("a run that gets no replies must fail");
    assert!(
        err.starts_with("no reply from any of") && err.contains(&silent_addr),
        "{err}"
    );
    let took = ended - stopped;
    assert!(
        took < budget + Duration::from_millis(500 + 250),
        "the run ended {took:?} after the daemon stopped, budget {budget:?}"
    );
    drop(silent);
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

    // Warm follower pulling from the leader every 40 ms, well inside
    // the lease TTL.
    let mut follower_cfg = fast_lease_cfg();
    follower_cfg.wal_dir = Some(follower_dir.clone());
    follower_cfg.replica_of = Some(leader.addr.to_string());
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

/// Waits up to 10 s for `metrics` to publish `role`.
fn await_role(metrics: &tracon_serve::Metrics, role: Role, who: &str) {
    use std::sync::atomic::Ordering;
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.repl_role.load(Ordering::Relaxed) != role as u8 as u64 {
        assert!(Instant::now() < deadline, "{who} never became {role:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn submit(client: &mut Client, app: &str) -> Reply {
    let app = app.to_string();
    let request = Request::Submit { app, demand: None };
    client.request(request).expect("submit roundtrip")
}

/// A leader that dies, loses the pair to its follower and restarts on its
/// own WAL rejoins as the new leader's follower with no operator: the
/// boot probe fences it, then its replication thread finds the new
/// leader and demotes it. The new leader admits throughout.
#[test]
fn a_restarted_ex_leader_rejoins_as_the_new_leaders_follower() {
    use std::sync::atomic::Ordering;

    let testbed = tiny_testbed();
    let app = testbed.perf.names[0].clone();
    let (a_dir, b_dir) = (wal_dir("rejoin-a"), wal_dir("rejoin-b"));
    let a_cfg = ServeConfig {
        wal_dir: Some(a_dir.clone()),
        lease_base_ms: 60_000,
        ..fast_lease_cfg()
    };
    let a = start(&testbed, a_cfg.clone(), NetConfig::default()).expect("leader boots");
    let b_cfg = ServeConfig {
        wal_dir: Some(b_dir.clone()),
        replica_of: Some(a.addr.to_string()),
        repl_poll_ms: 40,
        ..a_cfg.clone()
    };
    let b = start(&testbed, b_cfg, NetConfig::default()).expect("follower boots");
    let mut client = Client::connect(&a.addr.to_string()).expect("connect leader");
    assert!(matches!(submit(&mut client, &app), Reply::Ok { .. }));
    drop(client);

    // Once B holds the submit and its lease, B has pulled, so A's
    // sidecar names B as its peer.
    let deadline = Instant::now() + Duration::from_secs(10);
    while b.metrics().wal_records.load(Ordering::Relaxed) < 2 {
        assert!(Instant::now() < deadline, "the follower never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    a.stop();
    a.join();
    await_role(b.metrics(), Role::Leader, "the follower");

    let a = start(&testbed, a_cfg, NetConfig::default()).expect("ex-leader restarts");
    await_role(a.metrics(), Role::Follower, "the restarted ex-leader");

    let mut client = Client::connect(&b.addr.to_string()).expect("connect new leader");
    let reply = submit(&mut client, &app);
    assert!(matches!(reply, Reply::Ok { .. }), "{reply:?}");
    let mut client = Client::connect(&a.addr.to_string()).expect("connect rejoined");
    match submit(&mut client, &app) {
        Reply::Error {
            kind: ErrorKind::NotLeader,
            leader: Some(hint),
            ..
        } => assert_eq!(hint.leader_addr, Some(b.addr.to_string())),
        other => panic!("the rejoined node served a mutation: {other:?}"),
    }

    for daemon in [a, b] {
        daemon.stop();
        daemon.join();
    }
    let _ = std::fs::remove_dir_all(&a_dir);
    let _ = std::fs::remove_dir_all(&b_dir);
}
