//! tracond runs one thread per job: the reactor (every socket, HTTP
//! included), one worker per shard, and with a WAL one replication
//! thread. Read from `/proc/self/task/*/comm`, so Linux only.
#![cfg(target_os = "linux")]

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_serve::daemon::start;
use tracon_serve::{NetConfig, ServeConfig};

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// Waits (up to 5 s: a fresh thread names itself, a joined one leaves
/// the task list, each a moment late) until the `tracond-*` threads are
/// exactly `want`, in sorted order.
fn await_daemon_threads(want: &[&str]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut daemon: Vec<String> = thread_names()
            .into_iter()
            .filter(|name| name.starts_with("tracond-"))
            .collect();
        daemon.sort();
        if daemon == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "threads {daemon:?}, want {want:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One HTTP exchange: send `head`, half-close when `half_close`, and
/// read the answer to the server's close.
fn http(addr: SocketAddr, head: &str, half_close: bool) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(head.as_bytes()).unwrap();
    if half_close {
        conn.shutdown(Shutdown::Write).unwrap();
    }
    let mut answer = String::new();
    conn.read_to_string(&mut answer)
        .expect("answered and closed");
    answer
}

#[test]
fn one_thread_per_job_and_http_in_the_reactor() {
    let mut testbed_cfg = TestbedConfig::small();
    testbed_cfg.calibration_points = 6;
    testbed_cfg.time_scale = 0.05;
    let testbed = Testbed::build(&testbed_cfg);
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };

    let dir = std::env::temp_dir().join(format!("tracon-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = ServeConfig {
        wal_dir: Some(dir.clone()),
        ..cfg.clone()
    };
    let handle = start(&testbed, durable, NetConfig::default()).expect("durable daemon");
    let durable_set = [
        "tracond-reactor",
        "tracond-repl",
        "tracond-shard0",
        "tracond-shard1",
    ];
    await_daemon_threads(&durable_set);
    handle.stop();
    handle.join();
    await_daemon_threads(&[]);
    let _ = std::fs::remove_dir_all(&dir);

    let handle = start(&testbed, cfg, NetConfig::default()).expect("in-memory daemon");
    await_daemon_threads(&["tracond-reactor", "tracond-shard0", "tracond-shard1"]);
    let threads = thread_names().len();

    // A client that stops mid-header holds no thread and blocks no one.
    let mut stalled = TcpStream::connect(handle.http_addr).expect("connect");
    stalled
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
        .unwrap();
    for i in 0..100 {
        let answer = http(handle.http_addr, "GET /healthz HTTP/1.1\r\n\r\n", false);
        assert!(
            answer.starts_with("HTTP/1.1 200 OK\r\n"),
            "GET {i}: {answer:?}"
        );
        assert!(answer.ends_with("\"draining\":false,\"wal_degraded\":false}"));
        assert_eq!(thread_names().len(), threads, "GET {i}");
    }
    stalled.set_nonblocking(true).unwrap();
    let unanswered = stalled.read(&mut [0u8; 64]).unwrap_err();
    assert_eq!(unanswered.kind(), ErrorKind::WouldBlock);

    // A half-close ends the head; so does passing 8 KiB.
    let answer = http(handle.http_addr, "GET /metrics HTTP/1.1\r\n", true);
    assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer:?}");
    assert!(
        answer.contains("\ntracond_admissions_total 0\n"),
        "{answer:?}"
    );
    let padded = format!("GET /nope HTTP/1.1\r\nX-Pad: {}", "a".repeat(9 * 1024));
    let answer = http(handle.http_addr, &padded, false);
    assert!(
        answer.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{answer:?}"
    );
    assert_eq!(thread_names().len(), threads);

    handle.stop();
    handle.join();
    await_daemon_threads(&[]);
}
