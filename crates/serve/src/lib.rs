//! # tracon-serve
//!
//! `tracond`: TRACON's schedulers as a long-running network service
//! instead of a simulation pass. Where `tracon-dcsim` drives MIOS/MIBS on
//! virtual time, this crate maps them onto wall-clock traffic: clients
//! submit tasks over a newline-delimited JSON protocol on plain TCP,
//! admission is bounded with explicit backpressure, placements come from
//! the same [`tracon_core`] scheduler and scoring-policy machinery the
//! simulator uses, and client-reported completions feed TRACON's
//! [`tracon_core::Monitor`] — the loop the simulator's adaptive arm
//! drives too — so drift triggers in-place predictor rebuilds against
//! real traffic.
//!
//! * [`json`] — [`tracon_stats::json`] under its old path: the std-only
//!   JSON value/parser/serializer for the wire protocol (total:
//!   malformed input is an error value, never a panic).
//! * [`proto`] — versioned request/reply types and their codec.
//! * [`metrics`] — atomic counters, the Prometheus text exposition
//!   served on `GET /metrics` and the answers to the two HTTP requests, each shard's durability health (the one
//!   owner of degrade and heal), and the one structured event emitter.
//! * [`state`] — the service core, one instance owned by each shard
//!   worker: bounded admission queue, per-arrival (MIOS) and
//!   batch-window (MIBS/MIX) dispatch, completion-driven model
//!   adaptation.
//! * [`daemon`] — one thread per job: a poll reactor owning every socket
//!   (the protocol, and the `/healthz` and `/metrics` it answers
//!   itself), one worker thread per shard (it also runs that shard's
//!   dispatch tick and lease expiry), and with a WAL one replication
//!   thread that follows, rejoins or scrubs as the node's role asks —
//!   `N + 2` threads for `N` shards, `N + 1` in memory, every one joined
//!   on shutdown.
//! * [`client`] — a small blocking protocol client.
//! * [`loadgen`] — one open-/closed-loop Poisson load driver with
//!   failover, throughput and latency-percentile reporting and a
//!   conservation verdict; chaos mode adds sabotage (killed connections,
//!   garbage bytes, partial frames, orphaned tasks).
//! * [`table`] — the durable task table: one id-keyed row per task and
//!   the only implementation of each durable transition, shared by the
//!   live service, WAL replay, snapshots and the follower's mirror.
//! * [`wal`] — the append-only, checksummed write-ahead log and snapshot
//!   compaction behind crash recovery, plus the background scrub that
//!   re-verifies sealed regions against bit rot.
//! * [`repl`] — leader/follower replication: WAL frame shipping over the
//!   protocol, lease-based promotion with durable epoch fencing,
//!   automatic fenced-node rejoin, and a deterministic in-process
//!   failover harness.
//! * [`failpoint`] — deterministic fault injection: named sites in every
//!   fallible I/O path, armable over the wire or `TRACON_FAILPOINTS`,
//!   zero-cost while disarmed.

#![warn(missing_docs)]
// The daemon request path must never panic on client input or I/O: a
// panicking reactor or shard worker takes every connection, or a whole
// shard, down with it. Unit tests (cfg(test)) keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod daemon;
pub mod failpoint;
pub mod loadgen;
pub mod metrics;
pub mod proto;
mod reactor;
pub mod repl;
pub mod shard;
pub mod state;
pub mod table;
pub mod wal;

pub use client::Client;
pub use daemon::{start, DaemonHandle, NetConfig};
pub use loadgen::{LoadMode, LoadgenConfig, LoadgenReport};
pub use metrics::Metrics;
pub use proto::{
    decode_reply, decode_request, encode_reply, encode_request, Envelope, ErrorKind, Reply,
    Request, PROTOCOL_VERSION,
};
pub use repl::{PullChunk, ReplState, Role, ShipLog};
pub use shard::{recover_dir, route_app, route_key, shard_machines, stride_shard, MergedRecovery};
pub use state::{Refusal, ServeConfig, Service, StatusSnapshot};
pub use table::{RecState, TaskRow, TaskTable};
/// The scheduler catalogue, [`tracon_core::SchedulerKind`], under the
/// name that code built against this crate already uses.
pub use tracon_core::SchedulerKind as SchedKind;
pub use tracon_stats::json;
pub use wal::{Recovery, Wal, WalRecord};
