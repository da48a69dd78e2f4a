//! The codec's allocations on the lines a shard and the reactor handle
//! most, counted exactly. Encoding a reply a shard answers allocates once:
//! the returned line. The reply is written around its borrowed result and
//! id, in one pass into a line that starts large enough, so no part of the
//! reply is copied into a tree first and the line never regrows. Decoding
//! a request builds no tree either: it allocates only the strings it keeps
//! or matches (`id`, `op`, `app`). The durability stage writes straight to
//! bytes as well: a warm group commit allocates nothing, and a snapshot
//! document is one string whatever the table's size. A count, unlike a
//! wall-clock row, does not depend on the host or a seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tracon_serve::json::{n, obj, s, Value};
use tracon_serve::proto::{decode_request, encode_reply, encode_request, Envelope, Reply, Request};
use tracon_serve::{TaskTable, Wal, WalRecord};

/// Counts this thread's allocations (libtest's own threads do not count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state and
// does not allocate (a `const`-initialised `Cell<u64>` has no lazy
// initialiser and no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator outlives the thread's locals.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the size is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while encoding `reply`, and the line (dropped outside
/// the count).
fn encode_counted(reply: &Reply) -> (u64, String) {
    let before = ALLOCATIONS.with(Cell::get);
    let line = encode_reply(reply);
    let made = ALLOCATIONS.with(Cell::get) - before;
    (made, line)
}

/// The replies a shard worker answers most, shaped as `daemon::answer`
/// builds them.
fn replies() -> Vec<(&'static str, Reply)> {
    let id = Some("c1-4711".to_string());
    vec![
        (
            "placed submit",
            Reply::ok(
                id.clone(),
                obj(vec![
                    ("task", n(81_920.0)),
                    ("state", s("placed")),
                    ("machine", n(37.0)),
                    ("slot", n(1.0)),
                    ("predicted_score", n(1.372_915_503_842_117)),
                    ("predicted_runtime", n(412.058_311_690_043_6)),
                ]),
            ),
        ),
        (
            "complete",
            Reply::ok(
                id.clone(),
                obj(vec![
                    ("task", n(81_920.0)),
                    ("recorded", Value::Bool(true)),
                    ("rebuilt", Value::Bool(false)),
                    ("predictor_swapped", Value::Bool(false)),
                    ("dispatched", n(2.0)),
                ]),
            ),
        ),
        (
            "task",
            Reply::ok(
                id.clone(),
                obj(vec![
                    ("task", n(81_920.0)),
                    ("app", s("video")),
                    ("state", s("running")),
                    ("machine", n(37.0)),
                    ("slot", n(1.0)),
                    ("neighbor", s("dedup \"quoted\"\n")),
                    ("predicted_score", n(1.372_915_503_842_117)),
                    ("predicted_runtime", n(412.058_311_690_043_6)),
                    ("attempt", n(1.0)),
                ]),
            ),
        ),
        (
            "not leader",
            Reply::not_leader(id, Some("127.0.0.1:7431".to_string()), 7),
        ),
    ]
}

#[test]
fn a_reply_encodes_in_one_allocation() {
    for (what, reply) in replies() {
        let (made, line) = encode_counted(&reply);
        assert_eq!(made, 1, "{what}: {line}");
    }
}

/// The request lines the benchmark's clients send, and the allocations
/// `decode_request` makes for each: the `id` and `op` strings, and a
/// submit's `app`. Building the whole document made 10, 11, 8 and 7.
#[test]
fn a_request_decodes_in_pinned_allocations() {
    let id = Some("1-4711".to_string());
    let cases = [
        (
            "submit",
            Request::Submit {
                app: "video".to_string(),
                demand: None,
            },
            3,
        ),
        (
            "complete",
            Request::Complete {
                task: 81_920,
                runtime: 412.058_311_690_043_6,
                iops: 188.5,
            },
            2,
        ),
        ("task", Request::TaskInfo { task: 81_920 }, 2),
        ("status", Request::Status, 2),
    ];
    for (what, request, want) in cases {
        let envelope = Envelope {
            id: id.clone(),
            request,
        };
        let line = encode_request(&envelope);
        let before = ALLOCATIONS.with(Cell::get);
        let decoded = decode_request(&line);
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(decoded, Ok(envelope), "{what}");
        assert_eq!(made, want, "{what}: {line}");
    }
}

/// Allocations `f` makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A group commit of 64 records into a log whose frame buffer and zero
/// extent an earlier commit of the same shape left in place writes every
/// payload into the reused buffer: no record is built as a tree and
/// nothing allocates. Building the trees made 664 allocations for
/// these 64.
#[test]
fn a_warm_group_commit_of_64_records_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("tracon-alloc-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = |base: u64| -> Vec<WalRecord> {
        (base..base + 64)
            .map(|task| match task % 4 {
                0 => WalRecord::Submit {
                    task,
                    app: "video \"hd\"".to_string(),
                },
                1 => WalRecord::Lease { task, attempt: 1 },
                2 => WalRecord::Complete {
                    task,
                    runtime: 412.058_311_690_043_6,
                },
                _ => WalRecord::Requeue { task, attempt: 2 },
            })
            .collect()
    };
    let (mut wal, _) = Wal::open(&dir, u64::MAX).expect("open the log");
    wal.append_batch(&batch(81_920)).expect("warm-up commit");
    let recs = batch(81_984);
    let (made, committed) = counted(|| wal.append_batch(&recs));
    committed.expect("commit");
    assert_eq!(made, 0);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot document is written into one string sized for the rows:
/// one allocation for 10 rows and for 10 000. Building the tree made
/// 104 and 90 024.
#[test]
fn a_snapshot_document_is_one_allocation_at_any_row_count() {
    for rows in [10u64, 10_000] {
        let mut table = TaskTable::default();
        let apps = ["video", "dedup", "email \"x\""].map(|app| table.intern(app));
        for task in 0..rows {
            table.submit(task * 3, apps[task as usize % 3]);
            match task % 4 {
                0 => table.lease(task * 3, 1),
                1 => table.complete(task * 3, 412.058_311_690_043_6 + task as f64),
                2 => table.dead_letter(task * 3, 5),
                _ => {}
            }
        }
        let (made, doc) = counted(|| table.encode());
        assert_eq!(made, 1, "{rows} rows");
        assert!(doc.ends_with("]}"), "{rows} rows");
    }
}
