//! Shard routing and merged multi-WAL recovery for the sharded daemon.
//!
//! The daemon runs `N` independent [`crate::state::Service`] shards, each
//! the single writer of its own WAL (`wal.0..wal.N-1`). Three pieces of
//! policy live here, all pure and thread-free so tests can drive them
//! directly:
//!
//! - **Routing**: submissions hash to a shard by application via
//!   rendezvous (highest-random-weight) hashing — dependency-free and
//!   minimally disruptive: when the shard count grows from `n` to `n+1`,
//!   an application only moves if the *new* shard wins, so
//!   `route(app, n+1) != route(app, n)` implies `route(app, n+1) == n`
//!   (property-tested in `tests/sharding.rs`). The reactor overrides the
//!   hash only at admission, for balance. A task then lives where it was
//!   admitted, which its id names ([`stride_shard`]).
//! - **Machine partitioning**: the physical cluster is split into
//!   contiguous per-shard slices; replies translate shard-local machine
//!   indices back to global ones through the slice base.
//! - **Merged recovery**: on boot every `wal.*`/`snapshot.*.json` in the
//!   directory is replayed into its shard's task table (even files
//!   beyond the current shard count), the tables' rows are merged per
//!   task id with a state-precedence rule, and each surviving task is
//!   homed on the shard its id names under the new count — the shard
//!   that issues such ids, and the one `complete`/`task` are routed to.
//!   [`restore_shards`] then hands every shard its log and its rows.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use tracon_core::AppId;
use tracon_stats::prng::{mix64, GAMMA};

use crate::state::Service;
use crate::table::{RecState, TaskRow, TaskTable};
use crate::wal::{existing_shard_count, Wal};

/// Rendezvous-hash a key to one of `shards` buckets: each bucket's weight
/// is a splitmix64-style mix of `(key, bucket)`, the argmax wins. Strict
/// comparison makes the choice deterministic and gives the minimal-
/// disruption property on shard-count changes. The key is mixed before
/// it meets the bucket term: interned app ids are tiny consecutive
/// integers, and without the pre-mix their low-entropy bits clump a
/// small app population onto few shards.
pub fn route_key(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "route over zero shards");
    let key = mix64(key);
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for shard in 0..shards {
        let weight = mix64(key ^ mix64(shard as u64 ^ GAMMA));
        if shard == 0 || weight > best_weight {
            best = shard;
            best_weight = weight;
        }
    }
    best
}

/// Route an interned application id to its home shard.
pub fn route_app(app: AppId, shards: usize) -> usize {
    route_key(app.index() as u64, shards)
}

/// Route an application *name* to a shard. Used for names that were
/// never profiled (so no [`AppId`] exists): any deterministic shard will
/// refuse them identically, but hashing keeps the error load spread.
pub fn route_name(name: &str, shards: usize) -> usize {
    let mut key = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        key = (key ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    route_key(key, shards)
}

/// Where a task lives: shard `i` issues ids `i+1, i+1+N, i+1+2N, …`, so
/// `(id-1) % N` recovers the issuer without any lookup (id 0 is invalid;
/// mapped to shard 0). A task never leaves that shard, and recovery
/// homes every row by this rule under the new shard count.
pub fn stride_shard(task: u64, shards: usize) -> usize {
    (task.saturating_sub(1) % shards.max(1) as u64) as usize
}

/// Split `machines` into `shards` contiguous `(base, count)` slices, the
/// remainder spread over the leading shards. Every shard gets at least
/// one machine; callers must validate `shards <= machines`.
pub fn shard_machines(machines: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(
        shards > 0 && shards <= machines,
        "shards must be 1..=machines"
    );
    let per = machines / shards;
    let extra = machines % shards;
    let mut slices = Vec::with_capacity(shards);
    let mut base = 0;
    for shard in 0..shards {
        let count = per + usize::from(shard < extra);
        slices.push((base, count));
        base += count;
    }
    slices
}

/// One task out of the merged recovery, tagged with its home shard.
#[derive(Debug, Clone)]
pub struct HomedTask {
    /// The recovered row.
    pub rec: TaskRow,
    /// Which shard re-adopts it: [`stride_shard`] of its id.
    pub home: usize,
}

/// The merged result of replaying every shard WAL in a directory.
#[derive(Debug)]
pub struct MergedRecovery {
    /// Every surviving task in id order, with its home shard.
    pub tasks: Vec<HomedTask>,
    /// First unused task id across all shards.
    pub next_task_id: u64,
    /// Log records replayed across all files.
    pub replayed_records: u64,
    /// How many shards left durable state (0 for a fresh directory).
    pub old_shards: usize,
}

impl MergedRecovery {
    /// The arguments of each shard's [`Service::restore`], shard 0 first:
    /// the log [`recover_dir`] opened for it, the rows homed to it, the
    /// global id high-water mark.
    pub fn per_shard(self, wals: Vec<Wal>) -> impl Iterator<Item = (Wal, Vec<TaskRow>, u64)> {
        let next_task_id = self.next_task_id;
        let mut rows: Vec<Vec<TaskRow>> = wals.iter().map(|_| Vec::new()).collect();
        for task in self.tasks {
            rows[task.home].push(task.rec);
        }
        wals.into_iter()
            .zip(rows)
            .map(move |(wal, rows)| (wal, rows, next_task_id))
    }
}

/// [`Service::restore`] every shard, shard 0 first, from what
/// [`MergedRecovery::per_shard`] hands out.
pub fn restore_shards(
    services: &mut [Service],
    restores: impl IntoIterator<Item = (Wal, Vec<TaskRow>, u64)>,
    now: Instant,
) {
    for (svc, (wal, rows, next_task_id)) in services.iter_mut().zip(restores) {
        svc.restore(wal, rows, next_task_id, now);
    }
}

/// Replays all shard WALs in `dir`, merges them per task id, and returns
/// open WAL handles for shards `0..shards` plus the homed task set.
///
/// `_route` decides nothing: every row is homed by [`stride_shard`]. It
/// stays for callers built against the signature that routed by app.
/// Files for shards beyond `shards` are replayed but not kept open; the
/// caller deletes them once the re-homed state is snapshotted.
pub fn recover_dir(
    dir: &Path,
    shards: usize,
    snapshot_every: u64,
    _route: &dyn Fn(&str) -> Option<usize>,
) -> io::Result<(Vec<Wal>, MergedRecovery)> {
    assert!(shards > 0, "recover over zero shards");
    let old_shards = existing_shard_count(dir);
    let mut wals = Vec::with_capacity(shards);
    let mut tables = Vec::new();
    let mut replayed_records = 0u64;
    for shard in 0..old_shards.max(shards) {
        let (wal, recovery) = Wal::open_shard(dir, shard, snapshot_every)?;
        if shard < shards {
            wals.push(wal);
        }
        replayed_records += recovery.replayed_records;
        tables.push(recovery.table);
    }
    let mut merged = merge(&tables, shards);
    merged.replayed_records = replayed_records;
    merged.old_shards = old_shards;
    Ok((wals, merged))
}

/// Merges shard task tables into one homed task set over `shards`
/// shards: per task id the row that outranks the others survives, homed
/// on [`stride_shard`] of its id. Two rows for one id come only from a
/// directory an older build's work-steal wrote to.
fn merge(tables: &[TaskTable], shards: usize) -> MergedRecovery {
    let mut merged: BTreeMap<u64, TaskRow> = BTreeMap::new();
    for rec in tables.iter().flat_map(TaskTable::iter) {
        match merged.get(&rec.task) {
            Some(existing) if !wins_over(&rec, existing) => {}
            _ => {
                merged.insert(rec.task, rec);
            }
        }
    }
    let tasks = merged.into_values().map(|rec| HomedTask {
        home: stride_shard(rec.task, shards),
        rec,
    });
    MergedRecovery {
        tasks: tasks.collect(),
        next_task_id: tables
            .iter()
            .map(TaskTable::next_task_id)
            .max()
            .unwrap_or(0),
        replayed_records: 0,
        old_shards: 0,
    }
}

/// State precedence for the per-task merge: terminal records beat live
/// ones, leases beat queued; equal states resolve by attempt count (later
/// attempt wins).
fn wins_over(candidate: &TaskRow, incumbent: &TaskRow) -> bool {
    let rank = |s: RecState| -> u8 {
        match s {
            RecState::Queued => 0,
            RecState::Leased => 1,
            RecState::Completed | RecState::DeadLettered => 2,
        }
    };
    let (c, i) = (rank(candidate.state), rank(incumbent.state));
    c > i || (c == i && candidate.attempts > incumbent.attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracon-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn submit(task: u64) -> WalRecord {
        let app = "grep".into();
        WalRecord::Submit { task, app }
    }

    fn migrate(task: u64, from: usize, to: usize) -> WalRecord {
        let (app, attempt) = ("grep".into(), 0);
        WalRecord::Migrate {
            task,
            app,
            attempt,
            from,
            to,
        }
    }

    /// Known answers from the build before `mix` became
    /// `tracon_stats::prng::mix64`: the route names the shard, and so the
    /// WAL file, an application's tasks already live in.
    #[test]
    fn routes_are_pinned() {
        let routes = |shards| (0..16).map(|k| route_key(k, shards)).collect::<Vec<_>>();
        assert_eq!(routes(4), [2, 1, 1, 1, 0, 3, 3, 1, 2, 0, 1, 0, 1, 0, 3, 2]);
        assert_eq!(routes(2), [0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn rendezvous_is_stable_when_a_shard_is_added() {
        for key in 0..512u64 {
            for n in 1..8usize {
                let before = route_key(key, n);
                let after = route_key(key, n + 1);
                assert!(
                    after == before || after == n,
                    "key {key} moved {before} -> {after} when shard {n} was added"
                );
            }
        }
    }

    #[test]
    fn rendezvous_spreads_keys_roughly_evenly() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for key in 0..4000u64 {
            counts[route_key(key, shards)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 4000 / shards / 2,
                "shard {shard} starved: {counts:?}"
            );
        }
    }

    #[test]
    fn machine_slices_are_contiguous_and_cover_the_cluster() {
        for machines in 1..40usize {
            for shards in 1..=machines.min(8) {
                let slices = shard_machines(machines, shards);
                assert_eq!(slices.len(), shards);
                let mut expect_base = 0;
                for &(base, count) in &slices {
                    assert_eq!(base, expect_base);
                    assert!(count >= 1);
                    expect_base += count;
                }
                assert_eq!(expect_base, machines);
            }
        }
    }

    /// A directory an older build wrote mid-steal: shard 0 issued task 1
    /// and logged handing it to shard 1, which crashed before logging
    /// anything. The one row is queued again, on the shard its id names.
    #[test]
    fn a_migrate_only_the_donor_logged_restores_one_queued_row() {
        let dir = tmpdir("legacy-donor");
        {
            let (mut donor, _) = Wal::open_shard(&dir, 0, 1000).unwrap();
            donor.append(&submit(1)).unwrap();
            donor.append(&migrate(1, 0, 1)).unwrap();
            let _ = Wal::open_shard(&dir, 1, 1000).unwrap();
        }
        let (_, merged) = recover_dir(&dir, 2, 1000, &|_| None).unwrap();
        assert_eq!(merged.tasks.len(), 1);
        let task = &merged.tasks[0];
        assert_eq!((task.rec.state, task.rec.attempts), (RecState::Queued, 0));
        assert_eq!(task.home, stride_shard(1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both sides of an older build's steal logged it and the recipient
    /// went on to complete the task: one row, completed, on its stride
    /// shard — not the recipient's.
    #[test]
    fn a_migrate_both_sides_logged_then_completed_restores_one_completed_row() {
        let dir = tmpdir("legacy-both");
        {
            let (mut donor, _) = Wal::open_shard(&dir, 0, 1000).unwrap();
            donor.append(&submit(1)).unwrap();
            donor.append(&migrate(1, 0, 1)).unwrap();
            let (mut recipient, _) = Wal::open_shard(&dir, 1, 1000).unwrap();
            recipient.append(&migrate(1, 0, 1)).unwrap();
            recipient
                .append(&WalRecord::Complete {
                    task: 1,
                    runtime: 2.0,
                })
                .unwrap();
        }
        let (_, merged) = recover_dir(&dir, 2, 1000, &|_| None).unwrap();
        assert_eq!(merged.tasks.len(), 1);
        assert_eq!(merged.tasks[0].rec.state, RecState::Completed);
        assert_eq!(merged.tasks[0].home, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrinking_the_shard_count_rehomes_everything_in_range() {
        let dir = tmpdir("shrink");
        {
            for shard in 0..3usize {
                let (mut wal, _) = Wal::open_shard(&dir, shard, 1000).unwrap();
                wal.append(&WalRecord::Submit {
                    task: shard as u64 + 1,
                    app: format!("app{shard}"),
                })
                .unwrap();
            }
        }
        let (wals, merged) = recover_dir(&dir, 1, 1000, &|_| None).unwrap();
        assert_eq!(wals.len(), 1);
        assert_eq!(merged.old_shards, 3);
        assert_eq!(merged.tasks.len(), 3);
        assert!(merged.tasks.iter().all(|t| t.home == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
