//! Leader/follower replication for tracond: WAL shipping, lease-based
//! leader election, and epoch fencing.
//!
//! The topology is a warm-standby pair: one **leader** serves all
//! mutating traffic and appends to its per-shard WALs exactly as a
//! standalone daemon would; each shard worker additionally pushes every
//! group-committed batch into an in-memory [`ShipLog`]. A **follower**
//! (started with `--replica-of ADDR`) runs the same daemon minus
//! mutations: it polls the leader with `repl_pull` requests over the
//! ordinary NDJSON protocol, appends the returned frames to its own
//! WALs, and installs compacted snapshots when it falls behind the
//! leader's compaction horizon. Non-leader nodes answer `submit` and
//! `complete` with a structured `not-leader` error carrying the leader's
//! address and epoch so clients can redirect.
//!
//! **Who may write** is decided in exactly one place: [`role::step`], a
//! pure function over a plain-data [`role::RoleState`] (role, epoch,
//! leader hint, peer, the leader's follower slot, the follower's lease
//! and cursors). Promotion when the leader's lease lapses, fencing on a
//! higher epoch, write suspension while the follower is silent, the
//! boot-time probe and the fenced node's rejoin are all transitions of
//! it. This module holds what the rest of the daemon needs around that
//! function: the durable `repl.epoch` sidecar, the [`ReplState`] every
//! thread shares (the machine behind a mutex, and its *published*
//! role/epoch/hint, which the per-request mutation gate reads without
//! taking it), and the pull-chunk wire shape. [`follower`] is the
//! daemon's effect interpreter and pull loop.
//!
//! The test-only `sim` harness wires two nodes running the same `step`
//! over a seeded in-process link (drops, delays, duplicates, partitions —
//! no sockets) so election safety, log matching, and conservation across
//! failover and rejoin are fast deterministic unit properties. Each node
//! keeps real shard files in a temporary directory and runs the daemon's
//! own boot, chunk, promotion, demotion and scrub code over them. It
//! builds its own testbed, so it compiles only under `cfg(test)`.

pub mod follower;
pub mod role;
pub mod ship;

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::{n, obj, s, Value};
use crate::metrics::Metrics;
use crate::wal::WalRecord;

pub use follower::FollowerConfig;
pub use role::{Effect, PullVerdict, RoleEvent, RoleState};
pub use ship::{PullChunk, ShipLog, MAX_PULL_FRAMES};

/// Leader lease TTL: a follower that completes no successful pull for
/// this long promotes itself, and a leader whose follower has been silent
/// this long suspends writes.
pub const REPL_TTL_MS: u64 = 1_500;

/// A node's replication role. The numeric values are the wire/metrics
/// encoding (`tracond_repl_role`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Role {
    /// Serving mutations and shipping WAL frames.
    Leader = 0,
    /// Pulling frames from the leader; mutations are redirected.
    Follower = 1,
    /// A deposed leader: a higher epoch exists, all mutations are
    /// redirected to it until it rejoins as that leader's follower.
    Fenced = 2,
}

impl Role {
    /// Stable lowercase name (used in the epoch sidecar and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
            Role::Fenced => "fenced",
        }
    }

    /// Parse a sidecar/wire role name; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<Role> {
        match name {
            "leader" => Some(Role::Leader),
            "follower" => Some(Role::Follower),
            "fenced" => Some(Role::Fenced),
            _ => None,
        }
    }
}

/// Lock a mutex whose every update leaves the data valid at every step,
/// so a panicked holder poisons nothing worth refusing over.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Bit of [`ReplState::gate`] set while a leader's writes are suspended.
const SUSPENDED: u8 = 0x80;

/// The replication state one daemon's threads share: the role machine
/// (the reactor and the replication thread step it under its mutex), what it last published (read lock-free), the ship log, and
/// the metrics.
pub struct ReplState {
    machine: Mutex<RoleState>,
    /// Published role, plus [`SUSPENDED`]: zero exactly when a mutation
    /// may be acked, which is all the per-request gate loads.
    gate: AtomicU8,
    epoch: AtomicU64,
    hint: Mutex<Option<String>>,
    ship: Arc<ShipLog>,
    metrics: Arc<Metrics>,
    /// This incarnation's boot nonce; followers reset their cursors when
    /// it changes, because ship sequence numbers restart with the
    /// process.
    boot: u64,
    /// Millisecond origin of the machine's clock.
    origin: Instant,
}

impl ReplState {
    /// Wrap a pre-boot state; nothing is published (and the node admits
    /// nothing it should not) until [`RoleEvent::Boot`] is driven.
    pub fn new(
        state: RoleState,
        ship: Arc<ShipLog>,
        metrics: Arc<Metrics>,
        boot: u64,
    ) -> ReplState {
        ReplState {
            gate: AtomicU8::new(state.role() as u8 | SUSPENDED),
            epoch: AtomicU64::new(state.epoch),
            hint: Mutex::new(None),
            machine: Mutex::new(state),
            ship,
            metrics,
            boot,
            origin: Instant::now(),
        }
    }

    /// Published role. Acquire pairs with the Release in
    /// `publish` so a reactor that observes `Leader` also
    /// observes everything the promotion did before the flip (the
    /// per-shard `Promote` messages are sent first, and channel sends are
    /// themselves release-ordered with respect to the worker's receive).
    pub fn role(&self) -> Role {
        match self.gate.load(Ordering::Acquire) & !SUSPENDED {
            0 => Role::Leader,
            1 => Role::Follower,
            _ => Role::Fenced,
        }
    }

    /// Whether a mutation may be acked right now: one atomic load.
    pub fn admits(&self) -> bool {
        self.gate.load(Ordering::Acquire) == Role::Leader as u8
    }

    /// Published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Published redirect hint (for `not-leader` replies).
    pub fn leader_addr(&self) -> Option<String> {
        lock(&self.hint).clone()
    }

    /// A copy of the role machine's current state.
    pub fn state(&self) -> RoleState {
        lock(&self.machine).clone()
    }

    /// The machine's clock.
    pub fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// The only writer of the published view ([`Effect::Publish`]): epoch
    /// and hint first, role last, so gating engages only once the
    /// redirect it hands out is in place.
    fn publish(&self, role: Role, epoch: u64, hint: Option<String>, suspended: bool) {
        self.epoch.store(epoch, Ordering::Release);
        *lock(&self.hint) = hint;
        let bits = role as u8 | if suspended { SUSPENDED } else { 0 };
        self.gate.store(bits, Ordering::Release);
        let gauge = |gauge: &AtomicU64, value: u64| gauge.store(value, Ordering::Relaxed);
        gauge(&self.metrics.repl_role, role as u8 as u64);
        gauge(&self.metrics.repl_epoch, epoch);
        gauge(&self.metrics.repl_writes_suspended, u64::from(suspended));
    }

    /// The shared ship log.
    pub fn ship(&self) -> &Arc<ShipLog> {
        &self.ship
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// This incarnation's boot nonce.
    pub fn boot(&self) -> u64 {
        self.boot
    }
}

/// Name of the durable epoch sidecar inside the WAL directory.
pub const EPOCH_FILE: &str = "repl.epoch";

/// The durable replication sidecar: the claimed/observed epoch plus the
/// role this node last held and its last known leader and peer
/// addresses. Role and addresses let a rebooted node avoid the
/// split-brain trap of blindly re-claiming leadership: a node that was
/// fenced comes back fenced, and a node that led probes its recorded
/// peer before serving mutations again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSidecar {
    /// The durable epoch (0 = never replicated).
    pub epoch: u64,
    /// The role this node last persisted under.
    pub role: Role,
    /// Last known leader address (redirect hint for fenced/follower
    /// boots).
    pub leader: Option<String>,
    /// The replication peer (the follower, seen from the leader; the
    /// deposed leader, seen from a promoted node).
    pub peer: Option<String>,
}

impl Default for EpochSidecar {
    /// A node with no sidecar has never been fenced and never led.
    fn default() -> EpochSidecar {
        EpochSidecar {
            epoch: 0,
            role: Role::Leader,
            leader: None,
            peer: None,
        }
    }
}

/// Read the sidecar from `dir`: the defaults when there is none (a fresh
/// node), `InvalidData` naming the file when there is one that cannot be
/// read in full. A rotted sidecar must not read as a fresh node — that
/// would let a fenced one forget it was outranked and lead next to the
/// real leader; the operator deletes the file to start fresh on purpose.
pub fn read_sidecar(dir: &Path) -> io::Result<EpochSidecar> {
    let path = dir.join(EPOCH_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(EpochSidecar::default()),
        Err(e) => return Err(bad_sidecar(&path, &e.to_string())),
    };
    let doc = crate::json::parse(&text).map_err(|e| bad_sidecar(&path, &e.to_string()))?;
    let grab = |key: &str| {
        doc.get(key)
            .and_then(Value::as_str)
            .filter(|v| !v.is_empty())
            .map(str::to_string)
    };
    let epoch = doc.get("epoch").and_then(Value::as_u64);
    let role = doc
        .get("role")
        .and_then(Value::as_str)
        .and_then(Role::parse);
    Ok(EpochSidecar {
        epoch: epoch.ok_or_else(|| bad_sidecar(&path, "no epoch"))?,
        role: role.ok_or_else(|| bad_sidecar(&path, "missing or unknown role"))?,
        leader: grab("leader"),
        peer: grab("peer"),
    })
}

fn bad_sidecar(path: &Path, why: &str) -> io::Error {
    let message = format!(
        "replication sidecar {} is unreadable ({why}); refusing to guess this node's role \
         and epoch — delete the file to start as a fresh node",
        path.display()
    );
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Durably persist the replication sidecar: write to a temp file, fsync,
/// rename over the sidecar, fsync the directory — the same discipline as
/// snapshot installs, so a claimed epoch survives power loss before any
/// request is served under it. The temp name carries a sequence number
/// so two writers (replication thread vs reactor fence) cannot interleave
/// inside one temp file; last rename wins whole.
pub fn write_sidecar(dir: &Path, sidecar: &EpochSidecar) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if crate::failpoint::armed()
        && crate::failpoint::should_fail("repl.sidecar", &dir.to_string_lossy()).is_some()
    {
        return Err(crate::failpoint::injected_error("repl.sidecar"));
    }
    std::fs::create_dir_all(dir)?;
    let mut pairs = vec![
        ("epoch", n(sidecar.epoch as f64)),
        ("role", s(sidecar.role.as_str())),
    ];
    if let Some(leader) = &sidecar.leader {
        pairs.push(("leader", s(leader.clone())));
    }
    if let Some(peer) = &sidecar.peer {
        pairs.push(("peer", s(peer.clone())));
    }
    let doc = obj(pairs).to_string();
    let tmp = dir.join(format!(
        "repl.epoch.{}.tmp",
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(doc.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    if let Ok(dirf) = std::fs::File::open(dir) {
        let _ = dirf.sync_data();
    }
    Ok(())
}

/// Render a `repl_pull` reply payload: epoch, boot nonce, shard, the
/// optional snapshot blob, the frame array, and the cursor bounds.
pub fn encode_pull_chunk(epoch: u64, boot: u64, shard: usize, chunk: &PullChunk) -> Value {
    let mut pairs: Vec<(&str, Value)> = vec![
        ("epoch", n(epoch as f64)),
        ("boot", n(boot as f64)),
        ("shard", n(shard as f64)),
    ];
    if let Some(blob) = &chunk.snapshot {
        pairs.push(("snapshot", s(blob.clone())));
    }
    pairs.push((
        "frames",
        Value::Arr(chunk.frames.iter().map(WalRecord::encode).collect()),
    ));
    pairs.push(("next", n(chunk.next as f64)));
    pairs.push(("ship_next", n(chunk.ship_next as f64)));
    obj(pairs)
}

/// Decode a `repl_pull` reply payload back into `(epoch, boot, shard,
/// chunk)`; `None` for structurally invalid documents (including any
/// frame that is not a well-formed WAL record — a partial chunk would
/// silently diverge the follower, so the whole reply is rejected).
pub fn decode_pull_chunk(result: &Value) -> Option<(u64, u64, usize, PullChunk)> {
    let epoch = result.get("epoch").and_then(Value::as_u64)?;
    let boot = result.get("boot").and_then(Value::as_u64)?;
    let shard = result.get("shard").and_then(Value::as_u64)? as usize;
    let next = result.get("next").and_then(Value::as_u64)?;
    let ship_next = result.get("ship_next").and_then(Value::as_u64)?;
    let snapshot = match result.get("snapshot") {
        None => None,
        Some(v) => Some(v.as_str()?.to_string()),
    };
    let mut frames = Vec::new();
    if let Some(Value::Arr(items)) = result.get("frames") {
        frames.reserve(items.len());
        for item in items {
            frames.push(WalRecord::decode(item)?);
        }
    }
    Some((
        epoch,
        boot,
        shard,
        PullChunk {
            snapshot,
            frames,
            next,
            ship_next,
        },
    ))
}

#[cfg(test)]
mod sim;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracon-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn epoch_sidecar_roundtrips_and_a_missing_one_is_a_fresh_node() {
        let dir = tmpdir("epoch");
        assert_eq!(read_sidecar(&dir).unwrap(), EpochSidecar::default());
        for (epoch, role) in [(7, Role::Leader), (9, Role::Fenced)] {
            let written = EpochSidecar {
                epoch,
                role,
                ..EpochSidecar::default()
            };
            write_sidecar(&dir, &written).unwrap();
            assert_eq!(read_sidecar(&dir).unwrap(), written);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A node fenced at epoch 9 whose sidecar rots must not come back as
    /// a fresh leader at epoch 1 next to the real one: anything that is
    /// there but does not say both epoch and role refuses the boot.
    #[test]
    fn a_rotted_sidecar_is_an_error_naming_the_file_not_a_fresh_node() {
        let dir = tmpdir("rot");
        std::fs::create_dir_all(&dir).unwrap();
        for rot in [
            &b"not json"[..],
            b"",
            b"{\"epoch\":9,\"role\":\"fen",
            b"{\"epoch\":9}",
            b"{\"epoch\":9,\"role\":\"emperor\"}",
            b"{\"role\":\"fenced\"}",
            b"{\"epoch\":\"nine\",\"role\":\"fenced\"}",
            b"\xff\xfe",
        ] {
            std::fs::write(dir.join(EPOCH_FILE), rot).unwrap();
            let err = read_sidecar(&dir).expect_err("rot read as a sidecar");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let path = dir.join(EPOCH_FILE).display().to_string();
            assert!(err.to_string().contains(&path), "{err}");
        }
        // Unreadable for another reason than absence: same refusal.
        std::fs::remove_file(dir.join(EPOCH_FILE)).unwrap();
        std::fs::create_dir(dir.join(EPOCH_FILE)).unwrap();
        let err = read_sidecar(&dir).expect_err("a directory read as a sidecar");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_keeps_role_and_addresses_across_a_reboot() {
        let dir = tmpdir("sidecar");
        let full = EpochSidecar {
            epoch: 4,
            role: Role::Fenced,
            leader: Some("10.0.0.2:7400".into()),
            peer: Some("10.0.0.3:7400".into()),
        };
        write_sidecar(&dir, &full).unwrap();
        assert_eq!(read_sidecar(&dir).unwrap(), full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pull_chunk_roundtrips_through_the_wire_shape() {
        let chunk = PullChunk {
            snapshot: Some("{\"v\":1}".into()),
            frames: vec![
                WalRecord::Submit {
                    task: 3,
                    app: "grep".into(),
                },
                WalRecord::Complete {
                    task: 3,
                    runtime: 1.5,
                },
            ],
            next: 12,
            ship_next: 40,
        };
        let value = encode_pull_chunk(5, 99, 1, &chunk);
        // Through the real parser, as the wire would deliver it.
        let parsed = crate::json::parse(&value.to_string()).unwrap();
        let (epoch, boot, shard, back) = decode_pull_chunk(&parsed).unwrap();
        assert_eq!((epoch, boot, shard), (5, 99, 1));
        assert_eq!(back, chunk);

        let plain = PullChunk {
            snapshot: None,
            frames: Vec::new(),
            next: 0,
            ship_next: 0,
        };
        let parsed = crate::json::parse(&encode_pull_chunk(1, 2, 0, &plain).to_string()).unwrap();
        assert_eq!(decode_pull_chunk(&parsed).unwrap().3, plain);
    }

    #[test]
    fn corrupt_frames_reject_the_whole_chunk() {
        let chunk = PullChunk {
            snapshot: None,
            frames: vec![WalRecord::Submit {
                task: 1,
                app: "a".into(),
            }],
            next: 1,
            ship_next: 1,
        };
        let mut value = encode_pull_chunk(1, 1, 0, &chunk);
        if let Value::Obj(pairs) = &mut value {
            for (k, v) in pairs.iter_mut() {
                if k == "frames" {
                    *v = Value::Arr(vec![obj(vec![("op", s("no-such-op"))])]);
                }
            }
        }
        assert!(decode_pull_chunk(&value).is_none());
    }

    #[test]
    fn the_gate_admits_exactly_an_unsuspended_leader() {
        let metrics = Arc::new(Metrics::new());
        let state = RoleState::from_sidecar("me:1", 100, 1, &EpochSidecar::default(), 0);
        let ship = Arc::new(ShipLog::new(1));
        let repl = ReplState::new(state, ship, Arc::clone(&metrics), 1);
        assert!(!repl.admits(), "nothing is admitted before the boot");
        assert_eq!(repl.role(), Role::Leader);
        repl.publish(Role::Leader, 3, None, false);
        assert!(repl.admits());
        repl.publish(Role::Leader, 3, Some("f:1".into()), true);
        assert!(!repl.admits(), "a suspended leader must refuse");
        assert_eq!(repl.role(), Role::Leader, "suspension is not a role");
        assert_eq!(metrics.repl_writes_suspended.load(Ordering::Relaxed), 1);
        repl.publish(Role::Fenced, 5, Some("10.0.0.2:4000".into()), false);
        assert!(!repl.admits());
        assert_eq!((repl.role(), repl.epoch()), (Role::Fenced, 5));
        assert_eq!(repl.leader_addr().as_deref(), Some("10.0.0.2:4000"));
        assert_eq!(
            metrics.repl_role.load(Ordering::Relaxed),
            Role::Fenced as u8 as u64
        );
        assert_eq!(metrics.repl_writes_suspended.load(Ordering::Relaxed), 0);
    }
}
