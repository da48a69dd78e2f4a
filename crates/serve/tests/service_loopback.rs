//! Loopback integration tests: boot a real tracond on ephemeral ports and
//! talk to it over TCP.
//!
//! The headline assertion is placement identity — the daemon's placements
//! for a submission sequence must be bit-identical to running the core
//! scheduler in-process on the same sequence — plus backpressure on a full
//! admission queue, graceful drain, malformed-input survival, and the HTTP
//! health/metrics endpoints.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tracon_core::SchedulerKind;
use tracon_core::{ClusterState, Mios, Objective, Scheduler, ScoringPolicy, Task};
use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_serve::daemon::start;
use tracon_serve::{Client, ErrorKind, NetConfig, Reply, Request, ServeConfig};

/// Same scale as the serve crate's unit tests: fast to profile, still a
/// real 8-app interference matrix.
fn tiny_testbed() -> Testbed {
    let mut cfg = TestbedConfig::small();
    cfg.calibration_points = 6;
    cfg.time_scale = 0.05;
    Testbed::build(&cfg)
}

fn boot(testbed: &Testbed, cfg: ServeConfig) -> tracon_serve::DaemonHandle {
    start(testbed, cfg, NetConfig::default()).expect("daemon must bind ephemeral ports")
}

fn submit_reply(client: &mut Client, app: &str) -> Reply {
    client
        .request(Request::Submit {
            app: app.to_string(),
            demand: None,
        })
        .expect("submit roundtrip")
}

fn ok_field(reply: &Reply, field: &str) -> f64 {
    match reply {
        Reply::Ok { result, .. } => result
            .get(field)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("reply lacks numeric field '{field}': {result}")),
        Reply::Error { kind, message, .. } => {
            panic!("expected ok reply, got {kind:?}: {message}")
        }
    }
}

#[test]
fn placements_are_identical_to_in_process_scheduler() {
    let testbed = tiny_testbed();
    let cfg = ServeConfig {
        machines: 2,
        slots_per_machine: 2,
        scheduler: SchedulerKind::Mios,
        ..ServeConfig::default()
    };

    // Reference run: the same construction path the service uses — the
    // testbed's monitor, its exported predictor behind a scoring policy,
    // and MIOS itself replaying the submissions one at a time over an
    // identical cluster.
    let monitor = testbed.monitor(cfg.model_kind, cfg.monitor);
    let scoring = ScoringPolicy::new(&monitor.export_predictor(), Objective::MinRuntime);
    let mut cluster = ClusterState::new(2, 2, testbed.app_chars.clone());
    let mut mios = Mios::default();

    // Four submissions fill the four slots exactly; MIOS places each on
    // arrival so every reply carries a placement.
    let sequence: Vec<String> = [0usize, 3, 1, 5]
        .iter()
        .map(|&i| testbed.perf.names[i].clone())
        .collect();
    let expected: Vec<(usize, usize)> = sequence
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let app = cluster.registry().expect_id(name);
            let mut queue = VecDeque::from([Task::new(i as u64 + 1, app)]);
            let placed = mios.schedule(&mut queue, &mut cluster, &scoring);
            let vm = placed
                .first()
                .expect("reference cluster has a free slot")
                .vm;
            (vm.machine, vm.slot)
        })
        .collect();

    let handle = boot(&testbed, cfg);
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    for (name, want) in sequence.iter().zip(&expected) {
        let reply = submit_reply(&mut client, name);
        assert_eq!(
            ok_field(&reply, "machine") as usize,
            want.0,
            "machine diverged for {name}"
        );
        assert_eq!(
            ok_field(&reply, "slot") as usize,
            want.1,
            "slot diverged for {name}"
        );
    }

    handle.stop();
    handle.join();
}

#[test]
fn full_admission_queue_yields_backpressure_with_retry_hint() {
    let testbed = tiny_testbed();
    let app = testbed.perf.names[0].clone();
    let cfg = ServeConfig {
        machines: 1,
        slots_per_machine: 1,
        // Even a batch window far larger than the queue places the first
        // submit on the idle machine; the next two fill the queue, and
        // with no free slot neither the window nor the deadline fires.
        scheduler: SchedulerKind::Mibs(64),
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let handle = boot(&testbed, cfg);
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");

    let first = submit_reply(&mut client, &app);
    assert_eq!(
        ok_field(&first, "machine"),
        0.0,
        "the idle machine takes it"
    );
    for depth in [1.0, 2.0] {
        let reply = submit_reply(&mut client, &app);
        assert_eq!(
            ok_field(&reply, "depth"),
            depth,
            "queued behind a full cluster"
        );
    }
    match submit_reply(&mut client, &app) {
        Reply::Error {
            kind,
            retry_after_ms,
            ..
        } => {
            assert_eq!(kind, ErrorKind::Backpressure);
            assert_eq!(retry_after_ms, Some(50), "rejection must carry the hint");
        }
        other => panic!("expected backpressure, got {other:?}"),
    }

    handle.stop();
    handle.join();
}

#[test]
fn drain_refuses_new_work_then_exits_when_idle() {
    let testbed = tiny_testbed();
    let app = testbed.perf.names[2].clone();
    let cfg = ServeConfig {
        machines: 1,
        slots_per_machine: 2,
        scheduler: SchedulerKind::Mios,
        ..ServeConfig::default()
    };
    let handle = boot(&testbed, cfg);
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");

    let first = submit_reply(&mut client, &app);
    let task = ok_field(&first, "task") as u64;

    let drain = client.request(Request::Drain).expect("drain roundtrip");
    match drain {
        Reply::Ok { ref result, .. } => {
            assert_eq!(result.get("running").and_then(|v| v.as_u64()), Some(1));
        }
        ref other => panic!("expected drain ack, got {other:?}"),
    }

    // Draining daemons must refuse fresh work with a structured error.
    match submit_reply(&mut client, &app) {
        Reply::Error { kind, .. } => assert_eq!(kind, ErrorKind::Draining),
        other => panic!("expected draining refusal, got {other:?}"),
    }

    // Completing the last task empties the daemon; it must shut itself
    // down and join with every thread accounted for.
    let done = client
        .request(Request::Complete {
            task,
            runtime: 12.5,
            iops: 80.0,
        })
        .expect("complete roundtrip");
    assert!(
        matches!(done, Reply::Ok { .. }),
        "completion rejected: {done:?}"
    );
    handle.join();
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let testbed = tiny_testbed();
    let handle = boot(&testbed, ServeConfig::default());
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");

    for garbage in ["{not json", "[1,2,3]", "\"just a string\"", "{\"v\":2}"] {
        let raw = client.raw_roundtrip(garbage).expect("daemon must reply");
        let reply = tracon_serve::decode_reply(&raw).expect("reply must decode");
        match reply {
            Reply::Error { kind, .. } => assert!(
                matches!(
                    kind,
                    ErrorKind::Malformed | ErrorKind::UnknownOp | ErrorKind::BadField
                ),
                "unexpected kind {kind:?} for {garbage:?}"
            ),
            other => panic!("expected error for {garbage:?}, got {other:?}"),
        }
    }

    // The connection thread must still be alive and serving.
    let status = client
        .request(Request::Status)
        .expect("status after garbage");
    assert!(matches!(status, Reply::Ok { .. }));

    handle.stop();
    handle.join();
}

#[test]
fn http_endpoints_report_health_and_nonzero_metrics() {
    let testbed = tiny_testbed();
    let app = testbed.perf.names[4].clone();
    let handle = boot(&testbed, ServeConfig::default());
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    submit_reply(&mut client, &app);

    let healthz = http_get(&handle.http_addr.to_string(), "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200"), "healthz: {healthz}");
    assert!(healthz.contains("\"ok\":true"), "healthz body: {healthz}");

    let metrics = http_get(&handle.http_addr.to_string(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "metrics: {metrics}");
    assert!(
        metrics.contains("tracond_admissions_total 1"),
        "admissions missing: {metrics}"
    );
    assert!(
        metrics.contains("tracond_dispatch_latency_seconds_bucket"),
        "histogram missing: {metrics}"
    );

    let missing = http_get(&handle.http_addr.to_string(), "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "missing: {missing}");

    handle.stop();
    handle.join();
}

#[test]
fn live_completions_trigger_monitor_rebuilds() {
    let testbed = tiny_testbed();
    let app = testbed.perf.names[0].clone();
    let mut cfg = ServeConfig {
        machines: 1,
        slots_per_machine: 1,
        scheduler: SchedulerKind::Mios,
        ..ServeConfig::default()
    };
    cfg.monitor.rebuild_every = 2;
    let handle = boot(&testbed, cfg);
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");

    let mut saw_rebuild = false;
    for round in 0..6u32 {
        let placed = submit_reply(&mut client, &app);
        let task = ok_field(&placed, "task") as u64;
        let done = client
            .request(Request::Complete {
                task,
                // Slowly drifting runtimes give the monitor fresh signal.
                runtime: 10.0 + f64::from(round) * 3.0,
                iops: 100.0,
            })
            .expect("complete roundtrip");
        if let Reply::Ok { result, .. } = &done {
            if result.get("rebuilt").and_then(|v| v.as_bool()) == Some(true) {
                saw_rebuild = true;
            }
        }
    }
    assert!(saw_rebuild, "6 completions at rebuild_every=2 must rebuild");

    handle.stop();
    handle.join();
}

/// Minimal HTTP client: one GET, read to EOF (the daemon closes).
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: tracond\r\n\r\n").as_bytes())
        .expect("http write");
    let mut body = Vec::new();
    stream.read_to_end(&mut body).expect("http read");
    String::from_utf8_lossy(&body).into_owned()
}
