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
//!   (property-tested in `tests/sharding.rs`).
//! - **Machine partitioning**: the physical cluster is split into
//!   contiguous per-shard slices; replies translate shard-local machine
//!   indices back to global ones through the slice base.
//! - **Merged recovery**: on boot every `wal.*`/`snapshot.*.json` in the
//!   directory is replayed into its shard's task table (even files
//!   beyond the current shard count), the tables' rows are merged per
//!   task id with a state-precedence rule, donor tombstones from
//!   interrupted steals are resolved, and each surviving task is
//!   assigned a home shard — its previous shard when the count is
//!   unchanged, a fresh hash route when it changed. [`restore_shards`]
//!   then hands every shard its log and its rows.

use std::collections::HashMap;
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

/// The default shard for a task id under strided allocation: shard `i`
/// issues ids `i+1, i+1+N, i+1+2N, …`, so `(id-1) % N` recovers the
/// issuer without any lookup (id 0 is invalid; mapped to shard 0).
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
    /// The recovered row (tombstones already resolved to `Queued`).
    pub rec: TaskRow,
    /// Which shard re-adopts it.
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
    /// its log (`wals` may be empty — the replication sim keeps none),
    /// the rows homed to it, the global id high-water mark.
    pub fn per_shard(
        self,
        wals: Vec<Wal>,
        shards: usize,
    ) -> impl Iterator<Item = (Option<Wal>, Vec<TaskRow>, u64)> {
        let next_task_id = self.next_task_id;
        let mut rows: Vec<Vec<TaskRow>> = (0..shards).map(|_| Vec::new()).collect();
        for task in self.tasks {
            rows[task.home].push(task.rec);
        }
        let wals = wals
            .into_iter()
            .map(Some)
            .chain(std::iter::repeat_with(|| None));
        wals.zip(rows)
            .map(move |(wal, rows)| (wal, rows, next_task_id))
    }
}

/// [`Service::restore`] every shard from a merged recovery: how a
/// [`recover_dir`] result (or, in the replication sim, a [`merge`] of
/// replayed journals) becomes running shards.
pub fn restore_shards(
    services: &mut [Service],
    wals: Vec<Wal>,
    recovery: MergedRecovery,
    now: Instant,
) {
    let restores = recovery.per_shard(wals, services.len());
    for (svc, (wal, rows, next_task_id)) in services.iter_mut().zip(restores) {
        svc.restore(wal, rows, next_task_id, now);
    }
}

/// Replays all shard WALs in `dir`, merges them per task id, and returns
/// open WAL handles for shards `0..shards` plus the homed task set.
///
/// `route` maps an application name to its hash shard (`None` for names
/// no longer profiled — those fall back to the task-id stride and are
/// dropped later by [`Service::restore`]). Files for shards beyond
/// `shards` are replayed but not kept open; the caller deletes them once
/// the re-homed state is snapshotted.
pub fn recover_dir(
    dir: &Path,
    shards: usize,
    snapshot_every: u64,
    route: &dyn Fn(&str) -> Option<usize>,
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
    let mut merged = merge(&tables, old_shards, shards, route);
    merged.replayed_records = replayed_records;
    Ok((wals, merged))
}

/// Merges the task tables of shards `0..tables.len()` — `old_shards` of
/// which held state — into one homed task set over `shards` shards: per
/// task id the row that outranks the others survives, and goes back
/// where it was found when the shard count is unchanged (preserving past
/// steals), to its application's hash route when it changed.
pub fn merge(
    tables: &[TaskTable],
    old_shards: usize,
    shards: usize,
    route: &dyn Fn(&str) -> Option<usize>,
) -> MergedRecovery {
    let mut merged: HashMap<u64, (TaskRow, usize)> = HashMap::new();
    for (shard, table) in tables.iter().enumerate() {
        for rec in table.iter() {
            match merged.get_mut(&rec.task) {
                Some(existing) if !wins_over(&rec, &existing.0) => {}
                Some(existing) => *existing = (rec, shard),
                None => {
                    merged.insert(rec.task, (rec, shard));
                }
            }
        }
    }

    let count_changed = old_shards != 0 && old_shards != shards;
    let mut tasks: Vec<HomedTask> = merged
        .into_values()
        .map(|(mut rec, source)| {
            let hint = rec.migrated_to.take().filter(|&to| to < shards);
            let resurrected = rec.state == RecState::Migrated;
            if resurrected {
                // The donor's tombstone is the only surviving trace: the
                // steal was cut mid-handoff, so the task is queued again.
                rec.state = RecState::Queued;
            }
            let fallback = || route(&rec.app).unwrap_or_else(|| stride_shard(rec.task, shards));
            let home = if count_changed {
                fallback()
            } else if resurrected {
                hint.unwrap_or_else(fallback)
            } else if source < shards {
                source
            } else {
                fallback()
            };
            HomedTask { rec, home }
        })
        .collect();
    tasks.sort_unstable_by_key(|t| t.rec.task);

    MergedRecovery {
        tasks,
        next_task_id: tables
            .iter()
            .map(TaskTable::next_task_id)
            .max()
            .unwrap_or(0),
        replayed_records: 0,
        old_shards,
    }
}

/// State precedence for the per-task merge: terminal records beat live
/// ones, leases beat queued, real records beat donor tombstones; equal
/// states resolve by attempt count (later attempt wins).
fn wins_over(candidate: &TaskRow, incumbent: &TaskRow) -> bool {
    let rank = |s: RecState| -> u8 {
        match s {
            RecState::Migrated => 0,
            RecState::Queued => 1,
            RecState::Leased => 2,
            RecState::Completed | RecState::DeadLettered => 3,
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

    #[test]
    fn interrupted_steal_resurrects_the_task_exactly_once() {
        // Donor logged the migrate, then crashed before the recipient
        // recorded anything: the tombstone alone must bring the task back
        // on the recipient shard.
        let dir = tmpdir("steal-crash");
        {
            let (mut donor, _) = Wal::open_shard(&dir, 0, 1000).unwrap();
            donor
                .append(&WalRecord::Submit {
                    task: 1,
                    app: "grep".into(),
                })
                .unwrap();
            donor
                .append(&WalRecord::Migrate {
                    task: 1,
                    app: "grep".into(),
                    attempt: 0,
                    from: 0,
                    to: 1,
                })
                .unwrap();
            let _ = Wal::open_shard(&dir, 1, 1000).unwrap();
        }
        let (_, merged) = recover_dir(&dir, 2, 1000, &|_| None).unwrap();
        assert_eq!(merged.tasks.len(), 1);
        assert_eq!(merged.tasks[0].rec.state, RecState::Queued);
        assert_eq!(merged.tasks[0].home, 1, "tombstone hint wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_steal_is_not_double_counted() {
        // Both sides logged the migrate and the recipient went on to
        // complete the task: the merge must keep exactly one record, the
        // terminal one.
        let dir = tmpdir("steal-done");
        let migrate = WalRecord::Migrate {
            task: 1,
            app: "grep".into(),
            attempt: 0,
            from: 0,
            to: 1,
        };
        {
            let (mut donor, _) = Wal::open_shard(&dir, 0, 1000).unwrap();
            donor
                .append(&WalRecord::Submit {
                    task: 1,
                    app: "grep".into(),
                })
                .unwrap();
            donor.append(&migrate).unwrap();
            let (mut recipient, _) = Wal::open_shard(&dir, 1, 1000).unwrap();
            recipient.append(&migrate).unwrap();
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
        assert_eq!(merged.tasks[0].home, 1);
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
        let (wals, merged) = recover_dir(&dir, 1, 1000, &|_| Some(0)).unwrap();
        assert_eq!(wals.len(), 1);
        assert_eq!(merged.old_shards, 3);
        assert_eq!(merged.tasks.len(), 3);
        assert!(merged.tasks.iter().all(|t| t.home == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
