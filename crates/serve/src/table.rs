//! The durable task table: what a shard knows about every task it ever
//! admitted, in the one shape the live service, WAL replay, snapshots and
//! the follower's mirror all hold.
//!
//! A [`TaskTable`] is an id-ordered map of [`Row`]s plus the application
//! names those rows point into and the first unused task id. It owns the
//! only implementation of each durable transition — submit, lease,
//! requeue, dead-letter, complete — and [`TaskTable::apply`] dispatches a
//! [`WalRecord`] onto them, so the running [`crate::state::Service`] and
//! a replay of its log move a row through the same code. The snapshot
//! document is this table's [`encode`](TaskTable::encode) /
//! [`decode`](TaskTable::decode), and [`TaskTable::absorb`] — an
//! optional covering snapshot, then frames — is the single replay behind
//! [`crate::wal::Wal::open_shard`] and the follower mirror. What older
//! builds' work-stealing left in a
//! directory (a `migrate` frame, a `"migrated"` row) reads as the queued
//! task it was; nothing writes either any more.
//!
//! Every operation is a map lookup: cost per record does not depend on
//! how many rows the table holds.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::io;

use crate::json::{self, Quoted, Value};
use crate::wal::WalRecord;

/// The durable state of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecState {
    /// Admitted, waiting for dispatch.
    Queued,
    /// Dispatched under a lease. A daemon that stops takes its executors'
    /// connections with it, so a restore requeues these.
    Leased,
    /// Completed.
    Completed,
    /// Dead-lettered.
    DeadLettered,
}

impl RecState {
    fn name(self) -> &'static str {
        match self {
            RecState::Queued => "queued",
            RecState::Leased => "leased",
            RecState::Completed => "completed",
            RecState::DeadLettered => "dead",
        }
    }

    fn parse(name: &str) -> Option<RecState> {
        Some(match name {
            "queued" => RecState::Queued,
            "leased" => RecState::Leased,
            "completed" => RecState::Completed,
            "dead" => RecState::DeadLettered,
            // A work-steal tombstone an older build wrote: the task
            // exists, and waits (see `WalRecord::Migrate`).
            "migrated" => RecState::Queued,
            _ => return None,
        })
    }
}

/// One task's durable row, as a table holds it: plain data, the
/// application an index into the table's names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Application, as an index for [`TaskTable::app_name`].
    pub app: u32,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Durable state.
    pub state: RecState,
    /// Realized runtime for completed tasks (0 otherwise).
    pub runtime: f64,
}

/// A row outside any table — carrying its id and its application by
/// name — on its way out of a merged recovery into a shard's table.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRow {
    /// Task id.
    pub task: u64,
    /// Application name.
    pub app: String,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Durable state.
    pub state: RecState,
    /// Realized runtime for completed tasks (0 otherwise).
    pub runtime: f64,
}

/// One shard's durable task table. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    rows: BTreeMap<u64, Row>,
    /// Interned application names. A dozen profiled applications at
    /// most, so interning scans.
    apps: Vec<String>,
    next_task_id: u64,
}

/// Tables are equal when they hold the same rows under the same names
/// and agree on the next id; the order names were interned in is not
/// part of the state.
impl PartialEq for TaskTable {
    fn eq(&self, other: &TaskTable) -> bool {
        self.next_task_id == other.next_task_id && self.iter().eq(other.iter())
    }
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {what}"))
}

impl TaskTable {
    /// An empty table with `apps` interned in order, so `Row::app` of a
    /// row under one of them is its index in `apps`.
    pub fn with_apps(apps: &[String]) -> TaskTable {
        TaskTable {
            apps: apps.to_vec(),
            ..TaskTable::default()
        }
    }

    /// The index `app` has in this table, interning it if new.
    pub fn intern(&mut self, app: &str) -> u32 {
        let found = self.apps.iter().position(|known| known == app);
        found.unwrap_or_else(|| {
            self.apps.push(app.to_string());
            self.apps.len() - 1
        }) as u32
    }

    /// The application name behind a [`Row::app`] of this table.
    pub fn app_name(&self, app: u32) -> &str {
        &self.apps[app as usize]
    }

    /// One task's row.
    pub fn get(&self, task: u64) -> Option<&Row> {
        self.rows.get(&task)
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// First task id no row of this table (and no snapshot it was
    /// decoded from) has used.
    pub fn next_task_id(&self) -> u64 {
        self.next_task_id
    }

    /// Declare every id below `floor` used.
    pub fn raise_next_task_id(&mut self, floor: u64) {
        self.next_task_id = self.next_task_id.max(floor);
    }

    /// Every row in id order, by name.
    pub fn iter(&self) -> impl Iterator<Item = TaskRow> + '_ {
        self.rows.iter().map(|(&task, row)| TaskRow {
            task,
            app: self.app_name(row.app).to_string(),
            attempts: row.attempts,
            state: row.state,
            runtime: row.runtime,
        })
    }

    /// The row for `task`, inserted as freshly queued under `app` if the
    /// table has none.
    fn entry(&mut self, task: u64, app: u32) -> &mut Row {
        self.raise_next_task_id(task.saturating_add(1));
        self.rows.entry(task).or_insert(Row {
            app,
            attempts: 0,
            state: RecState::Queued,
            runtime: 0.0,
        })
    }

    /// Move an existing row to `state` at `attempts`; a record for a task
    /// the table never saw changes nothing.
    fn set(&mut self, task: u64, state: RecState, attempts: u32) {
        if let Some(row) = self.rows.get_mut(&task) {
            row.state = state;
            row.attempts = attempts;
        }
    }

    /// A task was admitted. Idempotent: a redelivered submit never
    /// rewinds a row that moved on.
    pub fn submit(&mut self, task: u64, app: u32) {
        self.entry(task, app);
    }

    /// A task was dispatched under a lease, as execution `attempt`.
    pub fn lease(&mut self, task: u64, attempt: u32) {
        self.set(task, RecState::Leased, attempt);
    }

    /// A lease expired and the task waits again, `attempt` executions
    /// having failed.
    pub fn requeue(&mut self, task: u64, attempt: u32) {
        self.set(task, RecState::Queued, attempt);
    }

    /// A task spent its attempts.
    pub fn dead_letter(&mut self, task: u64, attempts: u32) {
        self.set(task, RecState::DeadLettered, attempts);
    }

    /// A task completed after `runtime` seconds.
    pub fn complete(&mut self, task: u64, runtime: f64) {
        if let Some(row) = self.rows.get_mut(&task) {
            row.state = RecState::Completed;
            row.runtime = runtime;
        }
    }

    /// Take over a row another table held, as it stands.
    pub fn adopt(&mut self, row: &TaskRow) {
        let app = self.intern(&row.app);
        *self.entry(row.task, app) = Row {
            app,
            attempts: row.attempts,
            state: row.state,
            runtime: row.runtime,
        };
    }

    /// Fold one log record into the table. Idempotent per task (later
    /// records win), which is what lets replication redeliver frames
    /// harmlessly.
    pub fn apply(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::Submit { task, app } => {
                let app = self.intern(app);
                self.submit(*task, app);
            }
            WalRecord::Lease { task, attempt } => self.lease(*task, *attempt),
            WalRecord::Requeue { task, attempt } => self.requeue(*task, *attempt),
            WalRecord::DeadLetter { task, attempts } => self.dead_letter(*task, *attempts),
            WalRecord::Complete { task, runtime } => self.complete(*task, *runtime),
            // Legacy, on either side of the steal: the task exists and
            // waits. The merge keeps whichever copy got further.
            WalRecord::Migrate {
                task, app, attempt, ..
            } => {
                let app = self.intern(app);
                self.submit(*task, app);
                self.requeue(*task, *attempt);
            }
        }
    }

    /// The snapshot document: exactly the bytes of a `snapshot.N.json`,
    /// written straight into one string sized for the rows.
    pub fn encode(&self) -> String {
        // A row is 53 bytes of keys, quotes and punctuation, its
        // application's name, and rarely more than 59 bytes of numbers
        // and state, so the string seldom grows.
        let longest_app = self.apps.iter().map(String::len).max().unwrap_or(0);
        let mut out = String::with_capacity(64 + self.rows.len() * (112 + longest_app));
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            r#"{{"v":1,"next_task_id":{},"tasks":["#,
            json::n(self.next_task_id as f64)
        );
        for (i, (&task, row)) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                r#"{}{{"task":{},"app":{},"attempts":{},"state":{},"runtime":{}}}"#,
                if i == 0 { "" } else { "," },
                json::n(task as f64),
                Quoted(self.app_name(row.app)),
                json::n(f64::from(row.attempts)),
                Quoted(row.state.name()),
                json::n(row.runtime)
            );
        }
        out.push_str("]}");
        out
    }

    /// Inverse of [`TaskTable::encode`], with how many entries it could
    /// not read (version skew; skipped, not fatal). A document that is
    /// not a version-1 snapshot — a missing or ill-typed top-level field
    /// — is `InvalidData` naming the field.
    pub fn decode(text: &str) -> io::Result<(TaskTable, u64)> {
        let doc = json::parse(text).map_err(invalid)?;
        if doc.get("v").and_then(Value::as_u64) != Some(1) {
            return Err(invalid("v: not a version-1 snapshot"));
        }
        let next_task_id = doc.get("next_task_id").and_then(Value::as_u64);
        let next_task_id = next_task_id.ok_or_else(|| invalid("next_task_id: not an id"))?;
        let entries = doc.get("tasks").and_then(Value::as_arr);
        let entries = entries.ok_or_else(|| invalid("tasks: not an array"))?;
        let mut table = TaskTable::default();
        table.raise_next_task_id(next_task_id);
        let mut skipped = 0;
        for entry in entries {
            let row = (|| {
                let row = Row {
                    app: 0,
                    attempts: entry.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
                    state: RecState::parse(entry.get("state")?.as_str()?)?,
                    runtime: entry.get("runtime").and_then(Value::as_f64).unwrap_or(0.0),
                };
                Some((
                    entry.get("task")?.as_u64()?,
                    entry.get("app")?.as_str()?,
                    row,
                ))
            })();
            match row {
                Some((task, app, row)) => {
                    let app = table.intern(app);
                    *table.entry(task, app) = Row { app, ..row };
                }
                None => skipped += 1,
            }
        }
        Ok((table, skipped))
    }

    /// The one replay: if `snapshot` is given the table becomes that
    /// document, then `frames` are applied in order. Returns the snapshot
    /// entries skipped. On an undecodable snapshot the table is left as
    /// it was.
    pub fn absorb(&mut self, snapshot: Option<&str>, frames: &[WalRecord]) -> io::Result<u64> {
        let mut skipped = 0;
        if let Some(text) = snapshot {
            (*self, skipped) = TaskTable::decode(text)?;
        }
        for frame in frames {
            self.apply(frame);
        }
        Ok(skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(task: u64) -> WalRecord {
        WalRecord::Submit {
            task,
            app: format!("app-{}", task % 8),
        }
    }

    /// The snapshot document as the tree encoder built it, kept as the
    /// reference for the direct writer.
    fn tree_document(table: &TaskTable) -> String {
        let entries = table.rows.iter().map(|(&task, row)| {
            json::obj(vec![
                ("task", json::n(task as f64)),
                ("app", json::s(table.app_name(row.app))),
                ("attempts", json::n(f64::from(row.attempts))),
                ("state", json::s(row.state.name())),
                ("runtime", json::n(row.runtime)),
            ])
        });
        json::obj(vec![
            ("v", json::n(1.0)),
            ("next_task_id", json::n(table.next_task_id as f64)),
            ("tasks", Value::Arr(entries.collect())),
        ])
        .to_string()
    }

    /// Seeded tables with rows in every state, names that need escapes
    /// and runtimes on both sides of the integer rule encode to the
    /// tree encoder's bytes.
    #[test]
    fn the_document_is_the_bytes_of_the_tree_encoder() {
        let names = [
            "grep",
            "q\"uote\\",
            "t\tn\nr\r\u{2}\u{7f}",
            "caf\u{e9}\u{1F600}",
            "",
        ];
        let runtimes = [
            0.0,
            -0.0,
            2.5,
            0.1,
            999_999_999_999_999.0,
            1e15,
            3.7e17,
            1e-9,
        ];
        let mut rng = tracon_stats::prng::SplitMix64::new(0x5EED_7AB1_E000_0001);
        assert_eq!(
            TaskTable::default().encode(),
            tree_document(&TaskTable::default())
        );
        let mut seen = [false; 4];
        for case in 0..40 {
            let mut table = TaskTable::default();
            for _ in 0..rng.below(200) {
                let task = match rng.below(4) {
                    0 => rng.next_u64(),
                    _ => rng.below(1 << 20),
                };
                let app = table.intern(names[rng.below(names.len() as u64) as usize]);
                table.submit(task, app);
                let attempts = [0, 1, 7, u32::MAX][rng.below(4) as usize];
                match rng.below(4) {
                    0 => table.requeue(task, attempts),
                    1 => table.lease(task, attempts),
                    2 => table.dead_letter(task, attempts),
                    _ => {
                        table.complete(task, runtimes[rng.below(8) as usize] * rng.below(3) as f64)
                    }
                }
            }
            table.raise_next_task_id(rng.next_u64() >> rng.below(64));
            for row in table.rows.values() {
                seen[row.state as usize] = true;
            }
            assert_eq!(table.encode(), tree_document(&table), "case {case}");
        }
        assert_eq!(seen, [true; 4], "every state encoded");
    }

    #[test]
    fn redelivered_frames_change_nothing() {
        let frames = [
            submit(1),
            WalRecord::Lease {
                task: 1,
                attempt: 0,
            },
            WalRecord::Complete {
                task: 1,
                runtime: 2.5,
            },
        ];
        let mut once = TaskTable::default();
        once.absorb(None, &frames).unwrap();
        let mut twice = once.clone();
        twice.absorb(None, &frames[..1]).unwrap();
        assert_eq!(once, twice, "a late submit rewound a completed row");
        assert_eq!(once.get(1).unwrap().state, RecState::Completed);
        assert_eq!(once.next_task_id(), 2);
    }

    #[test]
    fn the_document_round_trips_and_names_what_is_wrong_with_one_that_does_not() {
        let mut table = TaskTable::with_apps(&["sort".into(), "grep".into()]);
        table.submit(3, 1);
        table.lease(3, 0);
        table.submit(5, 0);
        table.dead_letter(5, 2);
        table.raise_next_task_id(9);
        let blob = table.encode();
        let (back, skipped) = TaskTable::decode(&blob).unwrap();
        assert_eq!((&back, skipped), (&table, 0));
        // Interned in another order, still the same table.
        assert_eq!(back.app_name(back.get(3).unwrap().app), "grep");

        for (doc, field) in [
            ("{}", "v"),
            (r#"{"v":2,"next_task_id":1,"tasks":[]}"#, "v"),
            (r#"{"v":1,"tasks":[]}"#, "next_task_id"),
            (r#"{"v":1,"next_task_id":"7","tasks":[]}"#, "next_task_id"),
            (r#"{"v":1,"next_task_id":1}"#, "tasks"),
            (r#"{"v":1,"next_task_id":1,"tasks":{}}"#, "tasks"),
        ] {
            let err = TaskTable::decode(doc).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{doc}");
            assert!(
                err.to_string().contains(&format!("snapshot: {field}:")),
                "{doc}: {err}"
            );
        }
        // An unreadable entry is skipped and counted, the rest load; an
        // older build's steal tombstone reads as the queued task it was.
        let doc = r#"{"v":1,"next_task_id":5,"tasks":[
            {"task":1,"app":"grep","attempts":0,"state":"queued","runtime":0},
            {"task":2,"app":"grep","attempts":0,"state":"paused","runtime":0},
            {"task":3,"attempts":0,"state":"queued","runtime":0},
            {"task":4,"app":"grep","attempts":1,"state":"migrated","runtime":0,"to":0}]}"#;
        let (table, skipped) = TaskTable::decode(doc).unwrap();
        assert_eq!((table.len(), skipped), (2, 2));
        let row = table.get(4).unwrap();
        assert_eq!((row.state, row.attempts), (RecState::Queued, 1));
    }

    /// Snapshot load was quadratic in the document (every string byte
    /// re-validated the rest of it): 16 k tasks took ten seconds, and this
    /// many would take minutes. The bound is a debug build's linear time
    /// with two orders of magnitude to spare.
    #[test]
    fn a_64k_task_snapshot_decodes_in_linear_time() {
        let mut table = TaskTable::default();
        for task in 1..=65_536u64 {
            let app = table.intern(&format!("app-\u{e9}-{}", task % 8));
            table.submit(task, app);
            table.requeue(task, (task % 3) as u32);
            table.complete(task, task as f64 * 0.5);
        }
        let blob = table.encode();
        let started = std::time::Instant::now();
        let (back, skipped) = TaskTable::decode(&blob).unwrap();
        let took = started.elapsed();
        assert_eq!(skipped, 0);
        assert!(back == table);
        assert_eq!(back.next_task_id(), 65_537);
        assert!(took.as_secs() < 30, "decode took {took:?}");
    }

    /// Replay found its row by scanning a `Vec` of every task the shard
    /// ever saw, so a frame cost 23x more on a 32 k-row table than on a
    /// 2 k-row one and 235x more at 128 k. Now it is a map lookup.
    #[test]
    fn replay_cost_per_frame_is_flat_in_table_size() {
        let per_frame = |rows: u64| {
            let mut table = TaskTable::default();
            let fill: Vec<WalRecord> = (1..=rows).map(submit).collect();
            table.absorb(None, &fill).unwrap();
            // A submit / lease / complete life for 1 000 new tasks, the
            // leases and completions landing all over the old rows too.
            let frames: Vec<WalRecord> = (0..1_000u64)
                .flat_map(|i| {
                    let old = 1 + i * (rows / 1_000);
                    [
                        submit(rows + 1 + i),
                        WalRecord::Lease {
                            task: old,
                            attempt: 0,
                        },
                        WalRecord::Complete {
                            task: old,
                            runtime: 1.0,
                        },
                    ]
                })
                .collect();
            let best = (0..5).map(|_| {
                let mut table = table.clone();
                let started = std::time::Instant::now();
                table.absorb(None, &frames).unwrap();
                assert_eq!(table.len() as u64, rows + 1_000);
                started.elapsed().as_secs_f64() / frames.len() as f64
            });
            best.fold(f64::INFINITY, f64::min)
        };
        let (small, large) = (per_frame(2_000), per_frame(64_000));
        assert!(
            large < 4.0 * small,
            "{:.0} ns a frame onto 2 000 rows, {:.0} ns onto 64 000",
            small * 1e9,
            large * 1e9
        );
    }
}
