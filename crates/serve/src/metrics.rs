//! Lock-free daemon counters, their Prometheus text exposition, and the
//! answer to the monitor's two HTTP requests (`http_response`).
//!
//! Every counter is a relaxed atomic updated from the reactor, the shard
//! workers and the replication thread, and read when the reactor answers
//! `GET /metrics`; exactness across concurrent readers is not required,
//! monotonicity of each individual counter is. The dispatch
//! latency histogram (submit → placement, wall clock) uses fixed
//! millisecond buckets rendered in the cumulative `le` form Prometheus
//! expects.
//!
//! Two things here have one owner each. Whether a shard's files lack
//! something its memory acked is [`Metrics::degrade`] and
//! [`Metrics::heal`], and nothing else moves that state or its counters.
//! Every structured log line goes out through [`Metrics::event`].

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{obj, Value};

/// Upper bounds (milliseconds) of the dispatch-latency histogram buckets;
/// an implicit `+Inf` bucket follows.
pub const LATENCY_BUCKETS_MS: [u64; 10] = [1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000];

/// Per-shard gauge set, rendered with a `shard="i"` label.
#[derive(Default)]
pub struct ShardGauges {
    /// This shard's admission queue depth.
    pub queue_depth: AtomicU64,
    /// This shard's leased (running) tasks.
    pub leased: AtomicU64,
    /// This shard's dead-letter queue size.
    pub dead_lettered: AtomicU64,
    /// 0 while healthy, else the [`Degraded`] cause as its discriminant.
    degraded: AtomicU64,
}

/// Why a shard's files lack something its memory acked. Either way only
/// a snapshot of the authoritative table heals the shard: the shard's
/// own compaction on a leader or standalone node, the leader's snapshot
/// installed on a follower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degraded {
    /// An append or a snapshot install failed: memory holds what the
    /// disk lacks.
    WriteFailed = 1,
    /// Sealed bytes on disk are gone: rot a scrub found, or a shipped
    /// chunk a follower cursor moved past but never wrote.
    Rot = 2,
}

impl Degraded {
    fn from_code(code: u64) -> Option<Degraded> {
        match code {
            1 => Some(Degraded::WriteFailed),
            2 => Some(Degraded::Rot),
            _ => None,
        }
    }
}

/// Shared daemon counters; one instance lives behind an `Arc`.
#[derive(Default)]
pub struct Metrics {
    /// Tasks accepted into the admission queue (includes immediately placed).
    pub admissions: AtomicU64,
    /// Submissions rejected with backpressure.
    pub rejections: AtomicU64,
    /// Submissions rejected because the daemon was draining.
    pub drain_rejections: AtomicU64,
    /// Tasks whose completion was reported by a client.
    pub completions: AtomicU64,
    /// Reported completions that fired a model rebuild. Each retrains
    /// the app's runtime and IOPS models, so `status.rebuilds`, which
    /// counts retrained models, reads twice this.
    pub rebuilds: AtomicU64,
    /// Predictor swaps applied after rebuilds.
    pub predictor_swaps: AtomicU64,
    /// Lines that failed to decode into a request.
    pub protocol_errors: AtomicU64,
    /// Leases that expired before a completion was reported.
    pub lease_expiries: AtomicU64,
    /// Tasks re-queued (with backoff) after a lease expiry.
    pub requeues: AtomicU64,
    /// Tasks moved to the dead-letter queue after exhausting attempts.
    pub dead_letters: AtomicU64,
    /// Records appended to the write-ahead log.
    pub wal_records: AtomicU64,
    /// Successful group-commit fsyncs (one per `append_batch`, however
    /// many records it carried).
    pub wal_fsyncs: AtomicU64,
    /// Records replayed from the log during crash recovery.
    pub wal_replayed_records: AtomicU64,
    /// Snapshot compactions written.
    pub wal_snapshots: AtomicU64,
    /// WAL append/snapshot failures (the shard degrades to memory).
    pub wal_errors: AtomicU64,
    /// Completed background scrub passes over sealed WAL regions.
    pub scrub_runs: AtomicU64,
    /// [`Degraded::Rot`] incidents, one per shard that turned rotten
    /// however many passes see it.
    pub scrub_corrupt_frames: AtomicU64,
    /// [`Degraded::Rot`] incidents healed by a covering snapshot.
    pub scrub_repaired: AtomicU64,
    /// Adaptive model rebuilds that failed; the last-good predictor stays.
    pub rebuild_failures: AtomicU64,
    /// Submits the reactor admitted on the shallowest shard instead of
    /// their application's hash shard, whose queue ran deeper by the
    /// admission-overflow skew or more.
    pub overflow_submits: AtomicU64,
    /// Current admission queue depth, summed over shards (gauge).
    pub queue_depth: AtomicU64,
    /// Currently running (placed, not yet completed) tasks, summed over
    /// shards (gauge).
    pub running: AtomicU64,
    /// Frames the slowest replica still has to pull, max over shards
    /// (gauge; 0 when replication is off or fully caught up).
    pub repl_lag_frames: AtomicU64,
    /// Current replication epoch (gauge; 0 when replication is off).
    pub repl_epoch: AtomicU64,
    /// Replication role: 0 = leader, 1 = follower, 2 = fenced (gauge).
    pub repl_role: AtomicU64,
    /// Whether the leader has suspended mutations because its registered
    /// follower went silent for the replication TTL (gauge; 0 or 1).
    pub repl_writes_suspended: AtomicU64,
    /// Per-shard gauge vectors (length = shard count, 1 by default).
    shard_gauges: Vec<ShardGauges>,
    /// Cumulative dispatch-latency histogram counts per bucket.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    /// Sum of observed dispatch latencies in microseconds (for `_sum`).
    latency_sum_us: AtomicU64,
    /// Total observations (for `_count` and the `+Inf` bucket).
    latency_count: AtomicU64,
}

impl Metrics {
    /// Fresh all-zero counters for a single-shard daemon.
    pub fn new() -> Metrics {
        Metrics::with_shards(1)
    }

    /// Fresh all-zero counters with one gauge set per shard.
    pub fn with_shards(shards: usize) -> Metrics {
        Metrics {
            shard_gauges: (0..shards.max(1)).map(|_| ShardGauges::default()).collect(),
            ..Metrics::default()
        }
    }

    /// One shard's gauges (None when `shard` is out of range — e.g. a
    /// test-built `Service` sharing a smaller `Metrics`).
    pub fn shard_gauges(&self, shard: usize) -> Option<&ShardGauges> {
        self.shard_gauges.get(shard)
    }

    /// Store one shard's gauges and refresh the summed legacy gauges.
    pub fn set_shard_gauges(&self, shard: usize, queue_depth: u64, leased: u64, dead: u64) {
        if let Some(g) = self.shard_gauges.get(shard) {
            g.queue_depth.store(queue_depth, Ordering::Relaxed);
            g.leased.store(leased, Ordering::Relaxed);
            g.dead_lettered.store(dead, Ordering::Relaxed);
        }
        let (mut q, mut r) = (0u64, 0u64);
        for g in &self.shard_gauges {
            q += g.queue_depth.load(Ordering::Relaxed);
            r += g.leased.load(Ordering::Relaxed);
        }
        self.queue_depth.store(q, Ordering::Relaxed);
        self.running.store(r, Ordering::Relaxed);
    }

    /// Why `shard` is degraded; `None` while its files hold everything
    /// its memory acked (and for a shard these gauges do not cover).
    pub fn degraded(&self, shard: usize) -> Option<Degraded> {
        let g = self.shard_gauges.get(shard)?;
        Degraded::from_code(g.degraded.load(Ordering::Relaxed))
    }

    /// Whether any shard is degraded: `tracond_wal_degraded` and the
    /// strict `/healthz`.
    pub fn wal_degraded(&self) -> bool {
        self.shard_gauges
            .iter()
            .any(|g| g.degraded.load(Ordering::Relaxed) != 0)
    }

    /// Healthy → degraded for `cause`. Only the transition counts and
    /// logs — a [`Degraded::Rot`] incident adds one to
    /// `scrub_corrupt_frames` — so a failure or a rotten file seen again
    /// before the heal changes nothing, whatever its cause.
    pub fn degrade(&self, shard: usize, cause: Degraded, fields: &[(&str, &dyn Display)]) {
        let Some(g) = self.shard_gauges.get(shard) else {
            return;
        };
        let order = Ordering::Relaxed;
        let flipped = g.degraded.compare_exchange(0, cause as u64, order, order);
        if flipped.is_err() {
            return;
        }
        let name = match cause {
            Degraded::WriteFailed => "wal_degraded",
            Degraded::Rot => {
                self.scrub_corrupt_frames.fetch_add(1, Ordering::Relaxed);
                "scrub_corrupt"
            }
        };
        let shard: (&str, &dyn Display) = ("shard", &shard);
        self.event(name, &[&[shard], fields].concat());
    }

    /// Degraded → healthy: call once a snapshot of the authoritative
    /// table has landed in `shard`'s files, named by `source`. A no-op on
    /// a healthy shard; healing a [`Degraded::Rot`] incident adds one to
    /// `scrub_repaired`.
    pub fn heal(&self, shard: usize, source: &str) {
        let Some(g) = self.shard_gauges.get(shard) else {
            return;
        };
        let Some(cause) = Degraded::from_code(g.degraded.swap(0, Ordering::Relaxed)) else {
            return;
        };
        let name = match cause {
            Degraded::WriteFailed => "wal_recovered",
            Degraded::Rot => {
                self.scrub_repaired.fetch_add(1, Ordering::Relaxed);
                "scrub_repaired"
            }
        };
        self.event(name, &[("shard", &shard), ("source", &source)]);
    }

    /// Write one structured event line to stderr: `tracond event=NAME`,
    /// the event's own `key=value` fields in order, then this node's
    /// `node_role=`, `node_epoch=` and `wall_ms=`. Operators and CI grep
    /// these lines by their leading text, so fields only ever append.
    pub fn event(&self, name: &str, fields: &[(&str, &dyn Display)]) {
        let wall_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        eprintln!("{}", self.event_line(name, fields, wall_ms));
    }

    fn event_line(&self, name: &str, fields: &[(&str, &dyn Display)], wall_ms: u64) -> String {
        let role = match self.repl_role.load(Ordering::Relaxed) {
            0 => "leader",
            1 => "follower",
            _ => "fenced",
        };
        let epoch = self.repl_epoch.load(Ordering::Relaxed);
        let mut line = format!("tracond event={name}");
        for (key, value) in fields {
            let value = value.to_string();
            // logfmt: a value that would split the line is quoted.
            if value.is_empty() || value.contains([' ', '"', '=']) {
                let _ = write!(line, " {key}={value:?}");
            } else {
                let _ = write!(line, " {key}={value}");
            }
        }
        let _ = write!(
            line,
            " node_role={role} node_epoch={epoch} wall_ms={wall_ms}"
        );
        line
    }

    /// Record one submit→placement latency observation.
    pub fn observe_dispatch_latency(&self, micros: u64) {
        let ms = micros / 1000;
        for (i, bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
            if ms <= *bound {
                self.latency_buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        // +Inf bucket equals the total count.
        self.latency_buckets[LATENCY_BUCKETS_MS.len()].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(micros, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Render the full Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut series = |kind: &str, name: &str, help: &str, value: &dyn Display| {
            let _ = write!(
                out,
                "# HELP tracond_{name} {help}\n# TYPE tracond_{name} {kind}\ntracond_{name} {value}\n"
            );
        };
        for (name, help, value) in [
            ("admissions_total", "Tasks accepted into the admission queue.", &self.admissions),
            ("rejections_total", "Submissions rejected with backpressure.", &self.rejections),
            (
                "drain_rejections_total",
                "Submissions rejected because the daemon was draining.",
                &self.drain_rejections,
            ),
            ("completions_total", "Task completions reported by clients.", &self.completions),
            (
                "model_rebuilds_total",
                "Completions that fired an adaptive model rebuild (each retrains 2 models).",
                &self.rebuilds,
            ),
            (
                "predictor_swaps_total",
                "Predictor swaps applied after rebuilds.",
                &self.predictor_swaps,
            ),
            (
                "protocol_errors_total",
                "Request lines that failed to decode.",
                &self.protocol_errors,
            ),
            (
                "lease_expiries_total",
                "Task leases that expired before a completion was reported.",
                &self.lease_expiries,
            ),
            (
                "requeues_total",
                "Tasks re-queued with backoff after a lease expiry.",
                &self.requeues,
            ),
            (
                "dead_letters_total",
                "Tasks dead-lettered after exhausting their attempts.",
                &self.dead_letters,
            ),
            ("wal_records_total", "Records appended to the write-ahead log.", &self.wal_records),
            (
                "wal_fsyncs_total",
                "Successful WAL group-commit fsyncs (one per append batch).",
                &self.wal_fsyncs,
            ),
            (
                "wal_replayed_records_total",
                "Log records replayed during crash recovery.",
                &self.wal_replayed_records,
            ),
            ("wal_snapshots_total", "Snapshot compactions written.", &self.wal_snapshots),
            ("wal_errors_total", "WAL append or snapshot failures.", &self.wal_errors),
            ("scrub_runs_total", "Completed background WAL scrub passes.", &self.scrub_runs),
            (
                "scrub_corrupt_frames_total",
                "Shards found rotten (corrupt sealed frames or snapshot, or a lost follower chunk), once per incident.",
                &self.scrub_corrupt_frames,
            ),
            (
                "scrub_repaired_total",
                "Rotten shards healed by a covering snapshot (the leader's on a follower, a compaction otherwise).",
                &self.scrub_repaired,
            ),
            (
                "rebuild_failures_total",
                "Adaptive model rebuilds that failed (last-good predictor kept).",
                &self.rebuild_failures,
            ),
            (
                "overflow_submits_total",
                "Submits admitted on the shallowest shard because their hash shard's queue ran deeper.",
                &self.overflow_submits,
            ),
        ] {
            series("counter", name, help, &value.load(Ordering::Relaxed));
        }
        for (name, help, value) in [
            (
                "queue_depth",
                "Current admission queue depth (summed over shards).",
                &self.queue_depth,
            ),
            (
                "running_tasks",
                "Tasks currently placed on a VM and not yet completed.",
                &self.running,
            ),
            (
                "repl_lag_frames",
                "WAL frames the slowest replica still has to pull (max over shards).",
                &self.repl_lag_frames,
            ),
            (
                "repl_epoch",
                "Current replication epoch (0 when replication is off).",
                &self.repl_epoch,
            ),
            (
                "repl_role",
                "Replication role: 0 leader, 1 follower, 2 fenced.",
                &self.repl_role,
            ),
            (
                "repl_writes_suspended",
                "1 while the leader refuses mutations because its follower went silent.",
                &self.repl_writes_suspended,
            ),
        ] {
            series("gauge", name, help, &value.load(Ordering::Relaxed));
        }
        // Derived gauges: the batch amortization group commit achieved,
        // and whether any shard is degraded.
        let records = self.wal_records.load(Ordering::Relaxed);
        let fsyncs = self.wal_fsyncs.load(Ordering::Relaxed);
        let mean = if fsyncs == 0 {
            0.0
        } else {
            records as f64 / fsyncs as f64
        };
        let help = "Mean WAL records per group-commit fsync.";
        series("gauge", "wal_records_per_fsync", help, &mean);
        let help = "1 while any shard's files lack something its memory acked \
                    (a failed write or rot, until a covering snapshot lands).";
        series(
            "gauge",
            "wal_degraded",
            help,
            &u64::from(self.wal_degraded()),
        );
        // Per-shard gauge vectors, one labeled series per shard.
        for (name, help, read) in [
            (
                "shard_queue_depth",
                "Admission queue depth of one shard.",
                &(|g: &ShardGauges| g.queue_depth.load(Ordering::Relaxed))
                    as &dyn Fn(&ShardGauges) -> u64,
            ),
            (
                "shard_leased_tasks",
                "Tasks currently leased (running) on one shard.",
                &|g: &ShardGauges| g.leased.load(Ordering::Relaxed),
            ),
            (
                "shard_dead_lettered",
                "Dead-letter queue size of one shard.",
                &|g: &ShardGauges| g.dead_lettered.load(Ordering::Relaxed),
            ),
            (
                "shard_wal_degraded",
                "1 while one shard's files lack something its memory acked.",
                &|g: &ShardGauges| u64::from(g.degraded.load(Ordering::Relaxed) != 0),
            ),
        ] {
            out.push_str(&format!(
                "# HELP tracond_{name} {help}\n# TYPE tracond_{name} gauge\n"
            ));
            for (shard, g) in self.shard_gauges.iter().enumerate() {
                out.push_str(&format!(
                    "tracond_{name}{{shard=\"{shard}\"}} {}\n",
                    read(g)
                ));
            }
        }
        out.push_str("# HELP tracond_dispatch_latency_seconds Submit-to-placement latency.\n");
        out.push_str("# TYPE tracond_dispatch_latency_seconds histogram\n");
        for (i, bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
            out.push_str(&format!(
                "tracond_dispatch_latency_seconds_bucket{{le=\"{}\"}} {}\n",
                *bound as f64 / 1000.0,
                self.latency_buckets[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "tracond_dispatch_latency_seconds_bucket{{le=\"+Inf\"}} {}\n",
            self.latency_buckets[LATENCY_BUCKETS_MS.len()].load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "tracond_dispatch_latency_seconds_sum {}\n",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "tracond_dispatch_latency_seconds_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));
        out
    }
}

/// Longest HTTP request head read before it is answered as it stands.
const HTTP_HEAD_MAX: usize = 8 * 1024;

/// Whether `head` is all of an HTTP request the daemon reads: it holds
/// the blank line that ends the head, or more than 8 KiB.
pub(crate) fn http_head_ready(head: &[u8]) -> bool {
    head.len() > HTTP_HEAD_MAX || head.windows(4).any(|w| w == b"\r\n\r\n")
}

/// The whole `Connection: close` response to one HTTP request head:
/// `GET /healthz` (JSON `{ok, draining, wal_degraded}`; with
/// `?strict=1`, 503 while a shard is degraded), `GET /metrics` (the
/// Prometheus exposition), and 404 for anything else. Only the request
/// line's target is read.
pub(crate) fn http_response(head: &[u8], draining: bool, metrics: &Metrics) -> Vec<u8> {
    let request = String::from_utf8_lossy(head);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (status, content_type, body) = match path {
        "/healthz" => {
            // `?strict=1` turns silent storage degradation into a
            // non-200 so orchestrators can page on it: a daemon with a
            // shard whose files lack something it acked is up, but not
            // durable.
            let strict = query.split('&').any(|kv| kv == "strict=1");
            let degraded = metrics.wal_degraded();
            let failing = strict && degraded;
            let body = obj(vec![
                ("ok", Value::Bool(!failing)),
                ("draining", Value::Bool(draining)),
                ("wal_degraded", Value::Bool(degraded)),
            ]);
            let status = if failing {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, "application/json", body.to_string())
        }
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            metrics.render_prometheus(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The answer to `head` as text, split at the blank line.
    fn answer(head: &str, draining: bool, m: &Metrics) -> (String, String) {
        let text = String::from_utf8(http_response(head.as_bytes(), draining, m)).unwrap();
        let (top, body) = text.split_once("\r\n\r\n").unwrap();
        let length = format!("\r\nContent-Length: {}\r\n", body.len());
        assert!(top.contains(&length), "{top}");
        assert!(top.ends_with("\r\nConnection: close"), "{top}");
        (top.to_string(), body.to_string())
    }

    #[test]
    fn http_answers_health_metrics_and_404() {
        let m = Metrics::with_shards(2);
        m.admissions.fetch_add(3, Ordering::Relaxed);
        let get = |target: &str| format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n");

        let (top, body) = answer(&get("/healthz"), false, &m);
        assert!(top.starts_with("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"));
        assert_eq!(body, r#"{"ok":true,"draining":false,"wal_degraded":false}"#);
        let (_, body) = answer(&get("/healthz"), true, &m);
        assert_eq!(body, r#"{"ok":true,"draining":true,"wal_degraded":false}"#);

        // Strict mode fails while any shard is degraded, and only then.
        let strict = get("/healthz?x=1&strict=1");
        let (top, _) = answer(&strict, false, &m);
        assert!(top.starts_with("HTTP/1.1 200 OK\r\n"), "{top}");
        m.degrade(1, Degraded::Rot, &[]);
        let (top, body) = answer(&strict, false, &m);
        assert!(
            top.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{top}"
        );
        assert_eq!(body, r#"{"ok":false,"draining":false,"wal_degraded":true}"#);
        let (top, body) = answer(&get("/healthz"), false, &m);
        assert!(
            top.starts_with("HTTP/1.1 200 OK\r\n"),
            "lenient while degraded"
        );
        assert_eq!(body, r#"{"ok":true,"draining":false,"wal_degraded":true}"#);
        m.heal(1, "compaction");
        let (top, body) = answer(&strict, false, &m);
        assert!(top.starts_with("HTTP/1.1 200 OK\r\n"), "{top}");
        assert_eq!(body, r#"{"ok":true,"draining":false,"wal_degraded":false}"#);

        let (top, body) = answer(&get("/metrics"), false, &m);
        assert!(top.starts_with("HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"));
        assert_eq!(body, m.render_prometheus());
        assert!(body.contains("\ntracond_admissions_total 3\n"), "{body}");

        for head in [
            get("/nope"),
            get("/healthzx"),
            String::new(),
            "garbage".into(),
        ] {
            let (top, body) = answer(&head, false, &m);
            assert!(top.starts_with("HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n"));
            assert_eq!(body, "not found\n", "{head:?}");
        }
    }

    /// A head is answered at its blank line, or once it passes 8 KiB
    /// without one, on its request line alone.
    #[test]
    fn an_http_head_is_ready_at_its_blank_line_or_past_8_kib() {
        assert!(!http_head_ready(b""));
        assert!(!http_head_ready(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"));
        assert!(http_head_ready(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
        let mut long = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        long.resize(HTTP_HEAD_MAX, b'a');
        assert!(!http_head_ready(&long));
        long.push(b'a');
        assert!(http_head_ready(&long));
        let m = Metrics::new();
        let (top, body) = answer(std::str::from_utf8(&long).unwrap(), false, &m);
        assert!(top.starts_with("HTTP/1.1 200 OK\r\n"), "{top}");
        assert_eq!(body, m.render_prometheus());
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe_dispatch_latency(500); // 0 ms bucket-wise -> le=1
        m.observe_dispatch_latency(8_000); // 8 ms -> le=10
        m.observe_dispatch_latency(7_000_000); // 7 s -> only +Inf
        let text = m.render_prometheus();
        assert!(text.contains("le=\"0.001\"} 1"), "{text}");
        assert!(text.contains("le=\"0.01\"} 2"), "{text}");
        assert!(text.contains("le=\"5\"} 2"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("dispatch_latency_seconds_count 3"), "{text}");
    }

    /// Pins the wire names of the fault/recovery series: dashboards and
    /// the CI chaos job grep for these exact strings, so renaming one is
    /// a breaking change that must fail here first.
    #[test]
    fn fault_and_recovery_metric_names_are_pinned() {
        let m = Metrics::new();
        m.lease_expiries.fetch_add(1, Ordering::Relaxed);
        m.requeues.fetch_add(2, Ordering::Relaxed);
        m.dead_letters.fetch_add(3, Ordering::Relaxed);
        m.wal_records.fetch_add(4, Ordering::Relaxed);
        m.wal_replayed_records.fetch_add(5, Ordering::Relaxed);
        m.wal_snapshots.fetch_add(6, Ordering::Relaxed);
        m.wal_errors.fetch_add(7, Ordering::Relaxed);
        m.rebuild_failures.fetch_add(8, Ordering::Relaxed);
        m.wal_fsyncs.fetch_add(2, Ordering::Relaxed);
        m.degrade(0, Degraded::WriteFailed, &[]);
        m.scrub_runs.fetch_add(9, Ordering::Relaxed);
        m.scrub_corrupt_frames.fetch_add(10, Ordering::Relaxed);
        m.scrub_repaired.fetch_add(11, Ordering::Relaxed);
        let text = m.render_prometheus();
        for pinned in [
            "tracond_lease_expiries_total 1",
            "tracond_requeues_total 2",
            "tracond_dead_letters_total 3",
            "tracond_wal_records_total 4",
            "tracond_wal_replayed_records_total 5",
            "tracond_wal_snapshots_total 6",
            "tracond_wal_errors_total 7",
            "tracond_rebuild_failures_total 8",
            "tracond_wal_fsyncs_total 2",
            // Scrub/degrade series: the torture CI job and the strict
            // health check grep these exact names.
            "tracond_wal_degraded 1",
            "tracond_scrub_runs_total 9",
            "tracond_scrub_corrupt_frames_total 10",
            "tracond_scrub_repaired_total 11",
            // 4 records over 2 fsyncs: the derived batch-size gauge.
            "tracond_wal_records_per_fsync 2",
        ] {
            assert!(text.contains(pinned), "missing series: {pinned}\n{text}");
        }
    }

    /// Same pinning contract for the replication series: the failover CI
    /// job and the README HA walkthrough grep for these names.
    #[test]
    fn replication_metric_names_are_pinned() {
        let m = Metrics::new();
        m.repl_lag_frames.store(17, Ordering::Relaxed);
        m.repl_epoch.store(3, Ordering::Relaxed);
        m.repl_role.store(1, Ordering::Relaxed);
        m.repl_writes_suspended.store(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        for pinned in [
            "tracond_repl_lag_frames 17",
            "tracond_repl_epoch 3",
            "tracond_repl_role 1",
            "tracond_repl_writes_suspended 1",
            // No fsyncs yet: the derived gauge must render 0, not NaN.
            "tracond_wal_records_per_fsync 0",
        ] {
            assert!(text.contains(pinned), "missing series: {pinned}\n{text}");
        }
    }

    #[test]
    fn shard_metric_names_are_pinned() {
        let m = Metrics::with_shards(2);
        m.overflow_submits.fetch_add(2, Ordering::Relaxed);
        m.set_shard_gauges(0, 4, 1, 0);
        m.set_shard_gauges(1, 6, 2, 3);
        m.degrade(1, Degraded::Rot, &[]);
        let text = m.render_prometheus();
        for pinned in [
            "tracond_overflow_submits_total 2",
            "tracond_shard_queue_depth{shard=\"0\"} 4",
            "tracond_shard_queue_depth{shard=\"1\"} 6",
            "tracond_shard_leased_tasks{shard=\"0\"} 1",
            "tracond_shard_leased_tasks{shard=\"1\"} 2",
            "tracond_shard_dead_lettered{shard=\"0\"} 0",
            "tracond_shard_dead_lettered{shard=\"1\"} 3",
            "tracond_shard_wal_degraded{shard=\"0\"} 0",
            "tracond_shard_wal_degraded{shard=\"1\"} 1",
            "tracond_wal_degraded 1",
            // The unlabeled legacy gauges stay as sums over shards.
            "tracond_queue_depth 10",
            "tracond_running_tasks 3",
        ] {
            assert!(text.contains(pinned), "missing series: {pinned}\n{text}");
        }
    }

    /// One incident per shard, whatever its cause and however often it is
    /// reported; the gauge is 1 while any shard is degraded, and a heal
    /// counts a repair only when it ends rot.
    #[test]
    fn each_shard_degrades_and_heals_once_per_incident() {
        let m = Metrics::with_shards(2);
        m.degrade(0, Degraded::WriteFailed, &[]);
        m.degrade(0, Degraded::Rot, &[]);
        assert_eq!(
            m.degraded(0),
            Some(Degraded::WriteFailed),
            "the first cause holds"
        );
        m.degrade(1, Degraded::Rot, &[("frames_ok", &3)]);
        m.degrade(1, Degraded::Rot, &[]);
        assert_eq!(m.scrub_corrupt_frames.load(Ordering::Relaxed), 1);
        m.heal(0, "compaction");
        assert_eq!(m.degraded(0), None);
        assert_eq!(m.degraded(1), Some(Degraded::Rot));
        assert!(m.wal_degraded(), "shard 1 is still rotten");
        assert_eq!(m.scrub_repaired.load(Ordering::Relaxed), 0);
        m.heal(1, "compaction");
        m.heal(1, "compaction");
        assert_eq!(m.scrub_repaired.load(Ordering::Relaxed), 1);
        assert!(!m.wal_degraded());
        m.degrade(2, Degraded::Rot, &[]);
        assert!(!m.wal_degraded(), "no such shard");
    }

    /// The event line: name, the event's fields in order, then the node's
    /// role, epoch and wall clock; values that would split the line are
    /// quoted. CI greps the leading text of these lines.
    #[test]
    fn event_lines_are_logfmt_with_the_node_appended() {
        let m = Metrics::new();
        m.repl_role.store(1, Ordering::Relaxed);
        m.repl_epoch.store(2, Ordering::Relaxed);
        let line = m.event_line(
            "role",
            &[
                ("from", &"follower"),
                ("to", &"leader"),
                ("epoch", &2),
                ("cause", &"lease_lapsed"),
                ("leader", &"127.0.0.1:7431"),
                ("detail", &"append failed: \"disk\" gone"),
                ("empty", &""),
            ],
            1_700_000_000_123,
        );
        assert_eq!(
            line,
            "tracond event=role from=follower to=leader epoch=2 cause=lease_lapsed \
             leader=127.0.0.1:7431 detail=\"append failed: \\\"disk\\\" gone\" empty=\"\" \
             node_role=follower node_epoch=2 wall_ms=1700000000123"
        );
    }

    #[test]
    fn counters_appear_in_exposition() {
        let m = Metrics::new();
        m.admissions.fetch_add(7, Ordering::Relaxed);
        m.rejections.fetch_add(2, Ordering::Relaxed);
        m.queue_depth.store(3, Ordering::Relaxed);
        let text = m.render_prometheus();
        assert!(text.contains("tracond_admissions_total 7"));
        assert!(text.contains("tracond_rejections_total 2"));
        assert!(text.contains("tracond_queue_depth 3"));
        assert!(text.contains("# TYPE tracond_queue_depth gauge"));
    }
}
