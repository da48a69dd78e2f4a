//! The leader-side WAL ship log: an in-memory, sequence-numbered tail of
//! each shard's write-ahead log that followers pull over the protocol.
//!
//! Every record group-committed by a shard worker is also pushed here
//! (after the fsync attempt, so a pulled frame is never *ahead* of the
//! follower relative to the leader's durable log by more than the one
//! batch that failed to fsync — and a duplicate or extra frame is
//! harmless, because recovery's per-task merge is idempotent). Snapshot
//! compaction trims the tail: the base sequence jumps past the trimmed
//! frames and the compacted snapshot blob is kept so a follower behind
//! the horizon gets a snapshot install instead of a gap.
//!
//! Sequence numbers are per-shard and per-leader-incarnation: a follower
//! that observes a leader reboot (see the `boot` field of a pull reply)
//! resets its cursors to zero and resyncs from the snapshot.

use std::sync::Mutex;

use crate::wal::WalRecord;

/// Upper bound on frames returned by one pull, so a cold follower's
/// catch-up never renders an unbounded reply line.
pub const MAX_PULL_FRAMES: usize = 256;

/// One pull's worth of replication data for a single shard.
#[derive(Debug, Clone, PartialEq)]
pub struct PullChunk {
    /// Compacted snapshot blob to install first (present only when the
    /// follower's cursor fell behind the compaction horizon).
    pub snapshot: Option<String>,
    /// WAL records to append after the optional snapshot install.
    pub frames: Vec<WalRecord>,
    /// The follower's next cursor after applying this chunk.
    pub next: u64,
    /// The leader's head sequence; `ship_next - next` is the lag in
    /// frames still to pull.
    pub ship_next: u64,
}

/// One shard's shippable tail.
#[derive(Default)]
struct ShardShip {
    /// Sequence number of `frames[0]`.
    base: u64,
    /// Records since the last trim, in append order.
    frames: Vec<WalRecord>,
    /// The snapshot blob that covers everything before `base`.
    snap: Option<String>,
}

/// Per-shard ship logs behind one mutex each; shard workers push, the
/// reactor serves pulls.
pub struct ShipLog {
    shards: Vec<Mutex<ShardShip>>,
    /// Failpoint scope for this instance's `repl.ship.push` site, so a
    /// test can arm faults against its own ship without touching other
    /// ships alive in the same process.
    scope: String,
}

impl ShipLog {
    /// An empty ship log for `shards` shards.
    pub fn new(shards: usize) -> ShipLog {
        ShipLog::new_scoped(shards, String::new())
    }

    /// An empty ship log whose failpoint sites carry `scope`.
    pub fn new_scoped(shards: usize, scope: String) -> ShipLog {
        ShipLog {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            scope,
        }
    }

    /// How many shards this log covers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardShip> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Append one group-committed batch to a shard's tail.
    pub fn push(&self, shard: usize, recs: &[WalRecord]) {
        if shard >= self.shards.len() || recs.is_empty() {
            return;
        }
        // Failpoint: silently drop the batch from the ship. No sequence
        // gap opens (later pushes just take earlier numbers); the records
        // reach the follower only with the next snapshot trim — exactly
        // the lag window the scrub/repair properties exercise.
        if crate::failpoint::should_fail("repl.ship.push", &self.scope).is_some() {
            return;
        }
        self.lock(shard).frames.extend_from_slice(recs);
    }

    /// Compact: drop the buffered frames and remember `snapshot` as the
    /// blob covering them. The base advances to at least 1 so a brand-new
    /// follower (cursor 0) always starts with a snapshot install rather
    /// than assuming it saw the pre-snapshot frames.
    pub fn trim(&self, shard: usize, snapshot: String) {
        if shard >= self.shards.len() {
            return;
        }
        let mut guard = self.lock(shard);
        guard.base = (guard.base + guard.frames.len() as u64).max(1);
        guard.frames.clear();
        guard.snap = Some(snapshot);
    }

    /// The sequence number the next pushed record will get.
    pub fn next_seq(&self, shard: usize) -> u64 {
        if shard >= self.shards.len() {
            return 0;
        }
        let guard = self.lock(shard);
        guard.base + guard.frames.len() as u64
    }

    /// Serve one follower pull from `cursor`. Behind the horizon the
    /// chunk leads with the snapshot blob and restarts from `base`;
    /// otherwise it is a plain frame range capped at [`MAX_PULL_FRAMES`].
    pub fn pull(&self, shard: usize, cursor: u64) -> PullChunk {
        if shard >= self.shards.len() {
            return PullChunk {
                snapshot: None,
                frames: Vec::new(),
                next: cursor,
                ship_next: cursor,
            };
        }
        let guard = self.lock(shard);
        let head = guard.base + guard.frames.len() as u64;
        let (snapshot, from) = if cursor < guard.base {
            (guard.snap.clone(), guard.base)
        } else {
            (None, cursor.min(head))
        };
        let idx = (from - guard.base) as usize;
        let take = guard.frames.len().saturating_sub(idx).min(MAX_PULL_FRAMES);
        PullChunk {
            snapshot,
            frames: guard.frames[idx..idx + take].to_vec(),
            next: from + take as u64,
            ship_next: head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: u64) -> WalRecord {
        WalRecord::Submit {
            task,
            app: "grep".into(),
        }
    }

    #[test]
    fn cursors_walk_the_tail_in_order() {
        let ship = ShipLog::new(1);
        ship.push(0, &[rec(1), rec(2)]);
        ship.push(0, &[rec(3)]);
        let chunk = ship.pull(0, 0);
        assert!(chunk.snapshot.is_none());
        assert_eq!(chunk.frames, vec![rec(1), rec(2), rec(3)]);
        assert_eq!(chunk.next, 3);
        assert_eq!(chunk.ship_next, 3);
        // Caught up: an empty chunk, cursor unchanged.
        let chunk = ship.pull(0, 3);
        assert!(chunk.frames.is_empty());
        assert_eq!(chunk.next, 3);
    }

    #[test]
    fn trim_forces_snapshot_install_for_stale_cursors() {
        let ship = ShipLog::new(1);
        ship.push(0, &[rec(1), rec(2)]);
        ship.trim(0, "snap-a".into());
        ship.push(0, &[rec(3)]);
        // Cursor 1 predates the horizon (base is now 2): snapshot first,
        // then the post-trim frames.
        let chunk = ship.pull(0, 1);
        assert_eq!(chunk.snapshot.as_deref(), Some("snap-a"));
        assert_eq!(chunk.frames, vec![rec(3)]);
        assert_eq!(chunk.next, 3);
        // A caught-up cursor is served incrementally, no snapshot.
        let chunk = ship.pull(0, 2);
        assert!(chunk.snapshot.is_none());
        assert_eq!(chunk.frames, vec![rec(3)]);
    }

    #[test]
    fn fresh_follower_gets_a_snapshot_even_after_an_empty_trim() {
        // The boot-time compaction of an empty daemon trims zero frames;
        // base must still advance past 0 so cursor 0 takes the snapshot
        // path and installs the (empty) authoritative state.
        let ship = ShipLog::new(1);
        ship.trim(0, "boot".into());
        let chunk = ship.pull(0, 0);
        assert_eq!(chunk.snapshot.as_deref(), Some("boot"));
        assert_eq!(chunk.next, 1);
    }

    #[test]
    fn pulls_are_capped() {
        let ship = ShipLog::new(1);
        let many: Vec<WalRecord> = (0..MAX_PULL_FRAMES as u64 + 40).map(rec).collect();
        ship.push(0, &many);
        let chunk = ship.pull(0, 0);
        assert_eq!(chunk.frames.len(), MAX_PULL_FRAMES);
        assert_eq!(chunk.next, MAX_PULL_FRAMES as u64);
        assert_eq!(chunk.ship_next, many.len() as u64);
        let rest = ship.pull(0, chunk.next);
        assert_eq!(rest.frames.len(), 40);
        assert_eq!(rest.next, rest.ship_next);
    }

    #[test]
    fn out_of_range_shards_are_inert() {
        let ship = ShipLog::new(1);
        ship.push(9, &[rec(1)]);
        ship.trim(9, "x".into());
        let chunk = ship.pull(9, 5);
        assert!(chunk.snapshot.is_none() && chunk.frames.is_empty());
        assert_eq!(chunk.next, 5);
        assert_eq!(ship.next_seq(9), 0);
    }
}
