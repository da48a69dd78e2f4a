//! Crash recovery for tracond: an fsync'd write-ahead log with periodic
//! snapshot compaction.
//!
//! Every admission-state transition (submit, lease, requeue, dead-letter,
//! complete) is appended as one length-prefixed, CRC32-checksummed frame
//! and synced *before* the daemon replies to the client — one write and
//! one `sync_data` per wake of the shard worker, covering every request
//! of that wake — so a `kill -9` can lose at most records no client was
//! told about. On restart, [`Wal::open_shard`] replays the shard's
//! `snapshot.N.json` plus its `wal.N` tail into the same
//! [`TaskTable`] the service runs on; a torn tail (partial frame, bad
//! checksum) ends the replay and is truncated away rather than aborting
//! recovery.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload: one JSON object]
//! ```
//!
//! Records (see DESIGN.md §9 for the full format):
//!
//! ```text
//! {"op":"submit","task":7,"app":"grep"}
//! {"op":"lease","task":7,"attempt":0}
//! {"op":"requeue","task":7,"attempt":1}
//! {"op":"dead","task":7,"attempts":5}
//! {"op":"complete","task":7,"runtime":12.5}
//! {"op":"migrate","task":7,"app":"grep","attempt":1,"from":2,"to":0}  (read only)
//! ```
//!
//! [`Wal::append_batch`] writes each payload straight into one reused
//! frame buffer — the bytes of [`WalRecord::encode`], which stays as the
//! replication wire's form — and checksums it with a table-driven
//! CRC-32. The log is not opened for appending: frames are written at the
//! log's end into a zero-filled extent that the first append after open
//! or compaction lays down behind its frames (one `EXTENT_CHUNK`, and
//! another whenever a batch would cross the extent's end), so a
//! steady-state `sync_data` flushes data and no change of the file's size.
//! An all-zero frame header therefore ends the log: replay and scrub stop
//! there, and a frame that fails its checksum with nothing but zeros
//! behind it is a torn tail, not rot. Dropping a [`Wal`] (a clean close)
//! trims the file back to its last frame, so a closed log holds exactly
//! its frames; one a crash left open carries its zero tail, which an
//! older build reads as a torn tail.
//!
//! Every `snapshot_every` records the service writes its task table
//! ([`TaskTable::encode`]) into the shard's snapshot file (atomic tmp +
//! rename) and the log is truncated, bounding both replay time and disk
//! use.
//!
//! The directory holds one log + snapshot pair **per scheduler shard**
//! (`wal.0`/`snapshot.0.json` … `wal.N-1`/`snapshot.N-1.json`), each with
//! a single writer: a handle is dropped before its file is opened again.
//! A task's records all sit in the log of the shard its
//! id names. Older builds moved queued tasks between shards and logged a
//! `migrate` on both sides; such a frame still decodes and replays as
//! "this task exists, queued", so the merged replay in [`crate::shard`]
//! collapses the two copies into one.

use crate::failpoint;
use crate::json::{self, Quoted, Value};
use crate::metrics::{Degraded, Metrics};
use crate::table::TaskTable;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

/// Upper bound on one record's payload; anything larger is corruption.
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Zeros an append lays down behind its frames when they would cross the
/// log's zero-filled extent: about one compaction's worth of records at
/// the default cadence (4 096 records of ~48 bytes).
const EXTENT_CHUNK: usize = 256 * 1024;

/// The zeros of one extent chunk.
static ZEROS: [u8; EXTENT_CHUNK] = [0; EXTENT_CHUNK];

/// Log file name for one shard (`wal.3`).
pub fn shard_log_name(shard: usize) -> String {
    format!("wal.{shard}")
}

/// Snapshot file name for one shard (`snapshot.3.json`).
pub fn shard_snapshot_name(shard: usize) -> String {
    format!("snapshot.{shard}.json")
}

/// How many shards left durable state in `dir`: one past the highest
/// shard index with a log or snapshot file. Returns 0 for an empty or
/// absent directory.
pub fn existing_shard_count(dir: &Path) -> usize {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return 0,
    };
    let mut count = 0usize;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let idx = if let Some(n) = name.strip_prefix("wal.") {
            n.parse::<usize>().ok()
        } else if let Some(n) = name
            .strip_prefix("snapshot.")
            .and_then(|n| n.strip_suffix(".json"))
        {
            n.parse::<usize>().ok()
        } else {
            None
        };
        if let Some(i) = idx {
            count = count.max(i + 1);
        }
    }
    count
}

/// Deletes one shard's log and snapshot files (used after a recovery
/// that shrank the shard count re-homed their tasks). Missing files are
/// fine; a crash between merge and removal just re-merges next boot.
pub fn remove_shard_files(dir: &Path, shard: usize) -> io::Result<()> {
    for name in [shard_log_name(shard), shard_snapshot_name(shard)] {
        match std::fs::remove_file(dir.join(name)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3, reflected): one lookup in a 256-entry table per
/// byte.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// `CRC_TABLE[i]` is the register after shifting the byte `i` through the
/// reflected polynomial 0xEDB88320 bit by bit.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// One logged admission-state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A task was admitted.
    Submit {
        /// Task id.
        task: u64,
        /// Application name.
        app: String,
    },
    /// A task was dispatched and leased to an executor.
    Lease {
        /// Task id.
        task: u64,
        /// Which execution this is (failed attempts so far).
        attempt: u32,
    },
    /// A lease expired and the task re-entered the (delayed) queue.
    Requeue {
        /// Task id.
        task: u64,
        /// Failed attempts after the expiry.
        attempt: u32,
    },
    /// A task exhausted its attempts and moved to the dead-letter queue.
    DeadLetter {
        /// Task id.
        task: u64,
        /// Total failed attempts.
        attempts: u32,
    },
    /// A task completed.
    Complete {
        /// Task id.
        task: u64,
        /// Realized runtime, seconds.
        runtime: f64,
    },
    /// A queued task an older build moved between shards, logged by
    /// both sides. Nothing writes it any more; replay reads it on either
    /// side as "this task exists, queued, at `attempt`".
    Migrate {
        /// Task id.
        task: u64,
        /// Application name (so the record alone can resurrect the task).
        app: String,
        /// Failed attempts at migration time.
        attempt: u32,
        /// Donor shard.
        from: usize,
        /// Recipient shard.
        to: usize,
    },
}

impl WalRecord {
    /// The JSON payload of this record, exactly as framed in the log.
    /// Public so the replication layer can ship records over the wire in
    /// the same format the WAL replays.
    pub fn encode(&self) -> Value {
        match self {
            WalRecord::Submit { task, app } => json::obj(vec![
                ("op", json::s("submit")),
                ("task", json::n(*task as f64)),
                ("app", json::s(app.clone())),
            ]),
            WalRecord::Lease { task, attempt } => json::obj(vec![
                ("op", json::s("lease")),
                ("task", json::n(*task as f64)),
                ("attempt", json::n(f64::from(*attempt))),
            ]),
            WalRecord::Requeue { task, attempt } => json::obj(vec![
                ("op", json::s("requeue")),
                ("task", json::n(*task as f64)),
                ("attempt", json::n(f64::from(*attempt))),
            ]),
            WalRecord::DeadLetter { task, attempts } => json::obj(vec![
                ("op", json::s("dead")),
                ("task", json::n(*task as f64)),
                ("attempts", json::n(f64::from(*attempts))),
            ]),
            WalRecord::Complete { task, runtime } => json::obj(vec![
                ("op", json::s("complete")),
                ("task", json::n(*task as f64)),
                ("runtime", json::n(*runtime)),
            ]),
            WalRecord::Migrate {
                task,
                app,
                attempt,
                from,
                to,
            } => json::obj(vec![
                ("op", json::s("migrate")),
                ("task", json::n(*task as f64)),
                ("app", json::s(app.clone())),
                ("attempt", json::n(f64::from(*attempt))),
                ("from", json::n(*from as f64)),
                ("to", json::n(*to as f64)),
            ]),
        }
    }

    /// Appends this record's payload to `out`: the bytes
    /// [`WalRecord::encode`] displays as, written without building the
    /// tree.
    fn write_payload(&self, out: &mut Vec<u8>) {
        let (op, task) = match self {
            WalRecord::Submit { task, .. } => ("submit", task),
            WalRecord::Lease { task, .. } => ("lease", task),
            WalRecord::Requeue { task, .. } => ("requeue", task),
            WalRecord::DeadLetter { task, .. } => ("dead", task),
            WalRecord::Complete { task, .. } => ("complete", task),
            WalRecord::Migrate { task, .. } => ("migrate", task),
        };
        let count = |n: u32| json::n(f64::from(n));
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, r#"{{"op":"{op}","task":{}"#, json::n(*task as f64));
        let _ = match self {
            WalRecord::Submit { app, .. } => write!(out, r#","app":{}"#, Quoted(app)),
            WalRecord::Lease { attempt, .. } | WalRecord::Requeue { attempt, .. } => {
                write!(out, r#","attempt":{}"#, count(*attempt))
            }
            WalRecord::DeadLetter { attempts, .. } => {
                write!(out, r#","attempts":{}"#, count(*attempts))
            }
            WalRecord::Complete { runtime, .. } => {
                write!(out, r#","runtime":{}"#, json::n(*runtime))
            }
            WalRecord::Migrate {
                app,
                attempt,
                from,
                to,
                ..
            } => write!(
                out,
                r#","app":{},"attempt":{},"from":{},"to":{}"#,
                Quoted(app),
                count(*attempt),
                json::n(*from as f64),
                json::n(*to as f64)
            ),
        };
        out.push(b'}');
    }

    /// Inverse of [`WalRecord::encode`]; `None` on version skew.
    pub fn decode(v: &Value) -> Option<WalRecord> {
        let task = v.get("task")?.as_u64()?;
        match v.get("op")?.as_str()? {
            "submit" => Some(WalRecord::Submit {
                task,
                app: v.get("app")?.as_str()?.to_string(),
            }),
            "lease" => Some(WalRecord::Lease {
                task,
                attempt: v.get("attempt")?.as_u64()? as u32,
            }),
            "requeue" => Some(WalRecord::Requeue {
                task,
                attempt: v.get("attempt")?.as_u64()? as u32,
            }),
            "dead" => Some(WalRecord::DeadLetter {
                task,
                attempts: v.get("attempts")?.as_u64()? as u32,
            }),
            "complete" => Some(WalRecord::Complete {
                task,
                runtime: v.get("runtime")?.as_f64()?,
            }),
            "migrate" => Some(WalRecord::Migrate {
                task,
                app: v.get("app")?.as_str()?.to_string(),
                attempt: v.get("attempt")?.as_u64()? as u32,
                from: v.get("from")?.as_u64()? as usize,
                to: v.get("to")?.as_u64()? as usize,
            }),
            _ => None,
        }
    }
}

/// What [`Wal::open_shard`] reconstructed.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The shard's task table: snapshot plus log.
    pub table: TaskTable,
    /// Log records replayed (snapshot entries not included).
    pub replayed_records: u64,
    /// Bytes dropped from a torn tail, if any.
    pub truncated_bytes: u64,
    /// Checksummed-but-undecodable records and snapshot entries skipped
    /// (version skew).
    pub skipped_records: u64,
}

/// The open write-ahead log for one shard.
pub struct Wal {
    file: File,
    dir: PathBuf,
    shard: usize,
    /// Where the next frame goes: the end of the last frame, or past
    /// whatever a failed append left in the file, as append mode would.
    end: u64,
    /// The file's length while open: `end` plus the zeros laid down
    /// behind it.
    extent: u64,
    /// The frames of one batch, reused from batch to batch.
    frames: Vec<u8>,
    records_since_snapshot: u64,
    snapshot_every: u64,
}

/// What sits at one offset of a log.
enum Frame<'a> {
    /// A whole frame whose checksum verifies: its payload, and where the
    /// next frame starts.
    Sealed(&'a [u8], usize),
    /// The end of the log: zeros (an all-zero header ends the log), a
    /// frame that runs past the bytes, or a torn one — an append cut
    /// short by a crash, or still in flight.
    Tail,
    /// An implausible length, or a frame (a zeroed header included) that
    /// fails its checksum and is not torn.
    Corrupt,
}

fn frame_at(buf: &[u8], off: usize) -> Frame<'_> {
    let Some(header) = buf.get(off..off + 8) else {
        return Frame::Tail;
    };
    let word = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    let (len, crc) = (word(0), word(4));
    if len > MAX_RECORD_BYTES {
        return Frame::Corrupt;
    }
    let next = off + 8 + len as usize;
    match buf.get(off + 8..next) {
        None => Frame::Tail,
        Some(payload) if len > 0 && crc32(payload) == crc => Frame::Sealed(payload, next),
        // A torn write stops: the frame it cut ends in zeros and only
        // zeros follow. A frame written whole ends in its payload's `}`.
        Some(_) if buf[next - 1..].iter().all(|&b| b == 0) => Frame::Tail,
        Some(_) => Frame::Corrupt,
    }
}

/// A shard's snapshot document, if it has one.
fn read_snapshot(dir: &Path, shard: usize) -> io::Result<Option<String>> {
    match std::fs::read_to_string(dir.join(shard_snapshot_name(shard))) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

impl Wal {
    /// Opens (creating if needed) shard 0's log in `dir`. See
    /// [`Wal::open_shard`].
    pub fn open(dir: &Path, snapshot_every: u64) -> io::Result<(Wal, Recovery)> {
        Wal::open_shard(dir, 0, snapshot_every)
    }

    /// Opens (creating if needed) one shard's log in `dir`, replaying its
    /// snapshot + log into a [`Recovery`]. A torn or corrupt tail ends
    /// the replay and is truncated so the next append starts on a clean
    /// frame boundary; so is the zero extent a crash left open, which
    /// counts as no truncated byte. A cleanly closed log is not written.
    pub fn open_shard(
        dir: &Path,
        shard: usize,
        snapshot_every: u64,
    ) -> io::Result<(Wal, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let snapshot = read_snapshot(dir, shard)?;
        let log_path = dir.join(shard_log_name(shard));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut recovery = Recovery::default();
        let mut frames = Vec::new();
        let mut valid_end = 0;
        while let Frame::Sealed(payload, next) = frame_at(&buf, valid_end) {
            let text = std::str::from_utf8(payload).ok();
            let value = text.and_then(|t| json::parse(t).ok());
            match value.as_ref().and_then(WalRecord::decode) {
                Some(rec) => frames.push(rec),
                None => recovery.skipped_records += 1,
            }
            valid_end = next;
        }
        if valid_end < buf.len() {
            let dropped = buf[valid_end..].iter().rposition(|&b| b != 0);
            recovery.truncated_bytes = dropped.map_or(0, |last| last as u64 + 1);
            file.set_len(valid_end as u64)?;
            file.sync_data()?;
        }
        recovery.replayed_records = frames.len() as u64;
        recovery.skipped_records += recovery.table.absorb(snapshot.as_deref(), &frames)?;
        Ok((
            Wal {
                file,
                dir: dir.to_path_buf(),
                shard,
                end: valid_end as u64,
                extent: valid_end as u64,
                frames: Vec::new(),
                records_since_snapshot: recovery.replayed_records,
                snapshot_every: snapshot_every.max(1),
            },
            recovery,
        ))
    }

    /// Which shard's log this is.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Appends one record and syncs it to disk (write-ahead: call before
    /// acknowledging the transition to the client).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Appends a batch of records with a single write + fsync — the
    /// durability cost of one record for the whole batch, which is what
    /// group commit buys.
    pub fn append_batch(&mut self, recs: &[WalRecord]) -> io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        self.frames.clear();
        for rec in recs {
            let at = self.frames.len();
            self.frames.extend_from_slice(&[0; 8]);
            rec.write_payload(&mut self.frames);
            let payload = &self.frames[at + 8..];
            let (len, crc) = (payload.len() as u32, crc32(payload));
            self.frames[at..at + 4].copy_from_slice(&len.to_le_bytes());
            self.frames[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        }
        if !failpoint::armed() {
            // The steady state: one relaxed load, no scope string built.
            self.write_frames(self.frames.len())?;
            self.file.sync_data()?;
            self.records_since_snapshot += recs.len() as u64;
            return Ok(());
        }
        let scope = self.dir.to_string_lossy().into_owned();
        match failpoint::should_fail("wal.append.write", &scope) {
            Some(failpoint::Action::Short) => {
                // A torn write: persist a strict prefix of the frame and
                // report failure. Once later appends land behind it, the
                // prefix is mid-file garbage only the scrubber will see.
                let cut = (self.frames.len() / 2).max(1);
                let _ = self.write_frames(cut);
                let _ = self.file.sync_data();
                return Err(failpoint::injected_error("wal.append.write"));
            }
            Some(_) => return Err(failpoint::injected_error("wal.append.write")),
            None => {}
        }
        self.write_frames(self.frames.len())?;
        match failpoint::should_fail("wal.append.sync", &scope) {
            // A lying fsync: the data may sit in the page cache only.
            Some(failpoint::Action::Skip) => {}
            Some(_) => return Err(failpoint::injected_error("wal.append.sync")),
            None => self.file.sync_data()?,
        }
        self.records_since_snapshot += recs.len() as u64;
        Ok(())
    }

    /// Writes the first `len` bytes of the frame buffer at `end` in one
    /// vectored write, with a chunk of zeros behind them when they would
    /// cross the extent, and moves `end` past whatever part of them
    /// reached the file.
    fn write_frames(&mut self, len: usize) -> io::Result<()> {
        let lay_down = self.end + len as u64 > self.extent;
        let zeros: &[u8] = if lay_down { &ZEROS } else { &[] };
        let mut bufs = [IoSlice::new(&self.frames[..len]), IoSlice::new(zeros)];
        let mut bufs = &mut bufs[..];
        let mut done = 0;
        let mut file = &self.file;
        let written = file.seek(SeekFrom::Start(self.end)).and_then(|_| {
            while !bufs.is_empty() {
                match file.write_vectored(bufs) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        done += n;
                        IoSlice::advance_slices(&mut bufs, n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        self.extent = self.extent.max(self.end + done as u64);
        self.end += done.min(len) as u64;
        written
    }

    /// Whether enough records accumulated that the owner should snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.records_since_snapshot >= self.snapshot_every
    }

    /// Installs a snapshot document (tmp + rename + dir sync) and
    /// truncates the log: the owner's own [`TaskTable::encode`] when it
    /// compacts, the leader's when a lagging follower adopts its
    /// compaction horizon wholesale.
    pub fn install_snapshot_blob(&mut self, blob: &str) -> io::Result<()> {
        // Scope string only built when the registry is armed; disarmed the
        // four hooks below are each a single relaxed load.
        let scope = if failpoint::armed() {
            self.dir.to_string_lossy().into_owned()
        } else {
            String::new()
        };
        if failpoint::should_fail("wal.snapshot.tmp", &scope).is_some() {
            return Err(failpoint::injected_error("wal.snapshot.tmp"));
        }
        let tmp = self.dir.join(format!("snapshot.{}.tmp", self.shard));
        let mut f = File::create(&tmp)?;
        f.write_all(blob.as_bytes())?;
        f.sync_data()?;
        drop(f);
        if failpoint::should_fail("wal.snapshot.rename", &scope).is_some() {
            return Err(failpoint::injected_error("wal.snapshot.rename"));
        }
        std::fs::rename(&tmp, self.dir.join(shard_snapshot_name(self.shard)))?;
        // Make the rename durable (best effort — not all platforms allow
        // syncing a directory handle).
        if failpoint::should_fail("wal.snapshot.dirsync", &scope).is_none() {
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        if failpoint::should_fail("wal.snapshot.truncate", &scope).is_some() {
            return Err(failpoint::injected_error("wal.snapshot.truncate"));
        }
        self.file.set_len(0)?;
        (self.end, self.extent) = (0, 0);
        self.file.sync_data()?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

/// A clean close trims the zero extent, so a closed log holds exactly
/// its frames.
impl Drop for Wal {
    fn drop(&mut self) {
        if self.extent > self.end {
            let _ = self.file.set_len(self.end);
        }
    }
}

/// What one read-only scrub pass over a shard found. The scrubber walks
/// the *sealed* region of the log — the frames replay would read, up to
/// the log's end — and judges what lies past it: zeros, or a torn frame
/// and zeros, are the tail an append may still be writing; anything
/// else is rot.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Sealed frames whose checksum verified.
    pub frames_ok: u64,
    /// Byte offset of the first corrupt sealed frame, if any. Replay
    /// cannot see past it, so everything from here to the sealed end is
    /// unreachable.
    pub corrupt_at: Option<u64>,
    /// Bytes from `corrupt_at` to the last non-zero byte of the log.
    pub unreachable_bytes: u64,
    /// The snapshot document failed CRC-equivalent verification (parse).
    pub snapshot_corrupt: bool,
    /// Bytes scanned this pass (snapshot + sealed log), for throughput.
    pub scanned_bytes: u64,
}

impl ScrubReport {
    /// No corruption found.
    pub fn clean(&self) -> bool {
        self.corrupt_at.is_none() && !self.snapshot_corrupt
    }
}

/// Re-verifies one shard's snapshot and sealed log frames without
/// touching either file. Safe to run against a live writer: an append in
/// flight writes into the zero extent, so the pass reads it as a torn
/// frame with zeros behind it, which is a tail and not rot.
pub fn scrub_shard(dir: &Path, shard: usize) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    match read_snapshot(dir, shard) {
        Ok(Some(text)) => {
            report.scanned_bytes += text.len() as u64;
            report.snapshot_corrupt = TaskTable::decode(&text).is_err();
        }
        Ok(None) => {}
        // Rot that left the document not even UTF-8.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => report.snapshot_corrupt = true,
        Err(e) => return Err(e),
    }
    let buf = match std::fs::read(dir.join(shard_log_name(shard))) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let mut off = 0usize;
    loop {
        match frame_at(&buf, off) {
            Frame::Sealed(_, next) => {
                report.frames_ok += 1;
                off = next;
            }
            // The log's end: zeros, or an append in flight or torn.
            Frame::Tail => break,
            // An implausible length header could be a half-written len
            // field; recovery truncates here either way, so it is the
            // sealed region's corrupt horizon like a bad checksum.
            Frame::Corrupt => {
                report.corrupt_at = Some(off as u64);
                break;
            }
        }
    }
    if report.corrupt_at.is_some() {
        let last = buf.iter().rposition(|&b| b != 0).map_or(off, |i| i + 1);
        report.unreachable_bytes = (last - off) as u64;
    }
    report.scanned_bytes += buf.len() as u64;
    Ok(report)
}

/// One scrub pass over the first `shards` shards of `dir`, shared by the
/// leader's replication thread and the follower's pull loop: counts the run
/// and flags every shard with rot as [`Degraded::Rot`]. It detects and
/// flags only — it writes no file, because it is not the log's writer
/// and what it read may already be stale. Returns the rotten shards; a
/// follower re-pulls them, and a leader's shard worker heals them by
/// compaction at its next wake.
pub fn scrub_pass(dir: &Path, shards: usize, metrics: &Metrics) -> Vec<usize> {
    metrics.scrub_runs.fetch_add(1, Ordering::Relaxed);
    let mut rotten = Vec::new();
    for shard in 0..shards {
        let Ok(report) = scrub_shard(dir, shard) else {
            continue;
        };
        if report.clean() {
            continue;
        }
        let found: [(&str, &dyn std::fmt::Display); 3] = [
            ("frames_ok", &report.frames_ok),
            ("unreachable_bytes", &report.unreachable_bytes),
            ("snapshot_corrupt", &report.snapshot_corrupt),
        ];
        metrics.degrade(shard, Degraded::Rot, &found);
        rotten.push(shard);
    }
    rotten
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::table::RecState;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracon-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The bit-at-a-time CRC-32 the table replaced, kept as its
    /// reference.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// A frame as the tree encoder built it: the payload from
    /// `encode().to_string()`, checksummed bit by bit.
    fn tree_frame(rec: &WalRecord) -> Vec<u8> {
        let payload = rec.encode().to_string().into_bytes();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32_bitwise(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_crc32_matches_the_bitwise_crc32_on_random_buffers() {
        let mut rng = tracon_stats::prng::SplitMix64::new(0x0C2C_3200_0000_0042);
        let mut lengths: Vec<usize> = (0..=64).chain([4_095, 4_096]).collect();
        lengths.extend((0..200).map(|_| rng.below(4_097) as usize));
        for len in lengths {
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }

    /// Every record shape, with names that need escapes and numbers on
    /// both sides of the integer rule (below 1e15 as digits, else std's
    /// shortest form), written by one batch, reads back as the frames
    /// the tree encoder built, byte for byte.
    #[test]
    fn appended_frames_are_the_bytes_of_the_tree_encoder() {
        let apps = [
            "grep",
            "",
            "say \"hi\"\\ back\\slash",
            "tab\tnew\nline\rcr",
            "\u{1}\u{1f}\u{7f} ctl",
            "caf\u{e9} \u{1F600}",
        ];
        let runtimes = [
            0.0,
            -0.0,
            3.5,
            0.1,
            412.058_311_690_043_6,
            999_999_999_999_999.0,
            1e15,
            1.5e15,
            -2e16,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
        ];
        let tasks = [0, 7, 999_999_999_999_999, 1_000_000_000_000_000, u64::MAX];
        let mut recs = Vec::new();
        for (i, &task) in tasks.iter().enumerate() {
            for app in apps {
                recs.push(WalRecord::Submit {
                    task,
                    app: app.into(),
                });
                recs.push(WalRecord::Migrate {
                    task,
                    app: app.into(),
                    attempt: u32::MAX - i as u32,
                    from: i,
                    to: usize::MAX >> i,
                });
            }
            for attempt in [0, 1, u32::MAX] {
                recs.push(WalRecord::Lease { task, attempt });
                recs.push(WalRecord::Requeue { task, attempt });
                recs.push(WalRecord::DeadLetter {
                    task,
                    attempts: attempt,
                });
            }
            for runtime in runtimes {
                recs.push(WalRecord::Complete { task, runtime });
            }
        }
        let dir = tmpdir("tree-bytes");
        let (mut wal, _) = Wal::open(&dir, u64::MAX).unwrap();
        wal.append_batch(&recs).unwrap();
        wal.append(&recs[2]).unwrap();
        drop(wal);
        let mut want: Vec<u8> = recs.iter().flat_map(tree_frame).collect();
        want.extend(tree_frame(&recs[2]));
        let got = std::fs::read(dir.join(shard_log_name(0))).unwrap();
        assert_eq!(got.len(), want.len());
        let mut off = 0;
        for rec in recs.iter().chain([&recs[2]]) {
            let frame = tree_frame(rec);
            assert_eq!(
                String::from_utf8_lossy(&got[off..off + frame.len()]),
                String::from_utf8_lossy(&frame),
                "{rec:?}"
            );
            off += frame.len();
        }
        assert!(got == want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_replays_all_records() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, rec) = Wal::open(&dir, 1000).unwrap();
            assert_eq!(rec.table.len(), 0);
            wal.append(&WalRecord::Submit {
                task: 0,
                app: "grep".into(),
            })
            .unwrap();
            wal.append(&WalRecord::Submit {
                task: 1,
                app: "sort".into(),
            })
            .unwrap();
            wal.append(&WalRecord::Lease {
                task: 0,
                attempt: 0,
            })
            .unwrap();
            wal.append(&WalRecord::Complete {
                task: 0,
                runtime: 3.5,
            })
            .unwrap();
            wal.append(&WalRecord::Requeue {
                task: 1,
                attempt: 1,
            })
            .unwrap();
        }
        let (_, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 5);
        assert_eq!(rec.table.next_task_id(), 2);
        assert_eq!(rec.table.len(), 2);
        assert_eq!(rec.table.get(0).unwrap().state, RecState::Completed);
        assert_eq!(rec.table.get(0).unwrap().runtime, 3.5);
        assert_eq!(rec.table.get(1).unwrap().state, RecState::Queued);
        assert_eq!(rec.table.get(1).unwrap().attempts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
            wal.append(&WalRecord::Submit {
                task: 0,
                app: "grep".into(),
            })
            .unwrap();
        }
        // Append garbage simulating a frame cut mid-write.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(shard_log_name(0)))
                .unwrap();
            f.write_all(&[0x20, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        }
        let (mut wal, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 1);
        assert_eq!(rec.table.len(), 1);
        assert!(rec.truncated_bytes > 0);
        // The log is writable again on a clean boundary.
        wal.append(&WalRecord::Lease {
            task: 0,
            attempt: 0,
        })
        .unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 2);
        assert_eq!(rec.table.get(0).unwrap().state, RecState::Leased);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_frame() {
        let dir = tmpdir("crc");
        {
            let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
            for i in 0..3u64 {
                wal.append(&WalRecord::Submit {
                    task: i,
                    app: "a".into(),
                })
                .unwrap();
            }
        }
        // Flip one payload byte of the *second* frame.
        {
            let mut bytes = std::fs::read(dir.join(shard_log_name(0))).unwrap();
            let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
            let second_payload = 8 + first_len + 8;
            bytes[second_payload] ^= 0xFF;
            std::fs::write(dir.join(shard_log_name(0)), &bytes).unwrap();
        }
        let (_, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 1, "replay stops at the bad frame");
        assert!(rec.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_survives_restart() {
        let dir = tmpdir("snap");
        {
            let (mut wal, _) = Wal::open(&dir, 2).unwrap();
            wal.append(&WalRecord::Submit {
                task: 0,
                app: "grep".into(),
            })
            .unwrap();
            wal.append(&WalRecord::Submit {
                task: 1,
                app: "sort".into(),
            })
            .unwrap();
            assert!(wal.snapshot_due());
            let mut table = TaskTable::default();
            let (grep, sort) = (table.intern("grep"), table.intern("sort"));
            table.submit(0, grep);
            table.submit(1, sort);
            table.dead_letter(1, 2);
            wal.install_snapshot_blob(&table.encode()).unwrap();
            assert!(!wal.snapshot_due());
            // Post-snapshot records land in the truncated log.
            wal.append(&WalRecord::Lease {
                task: 0,
                attempt: 0,
            })
            .unwrap();
        }
        let (_, rec) = Wal::open(&dir, 2).unwrap();
        assert_eq!(rec.table.next_task_id(), 2);
        assert_eq!(rec.replayed_records, 1, "only the post-snapshot record");
        assert_eq!(rec.table.len(), 2);
        assert_eq!(rec.table.get(0).unwrap().state, RecState::Leased);
        assert_eq!(rec.table.get(1).unwrap().state, RecState::DeadLettered);
        assert_eq!(rec.table.get(1).unwrap().attempts, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_recovers_empty() {
        let dir = tmpdir("empty");
        let (_, rec) = Wal::open(&dir, 10).unwrap();
        assert_eq!(rec.table.len(), 0);
        assert_eq!(rec.table.next_task_id(), 0);
        assert_eq!(rec.replayed_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_replays_like_single_appends() {
        let dir = tmpdir("batch");
        {
            let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
            let recs: Vec<WalRecord> = (0..5)
                .map(|i| WalRecord::Submit {
                    task: i,
                    app: "a".into(),
                })
                .collect();
            wal.append_batch(&recs).unwrap();
        }
        let (_, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 5);
        assert_eq!(rec.table.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn seed_log(dir: &Path, n: u64) {
        let (mut wal, _) = Wal::open(dir, 1000).unwrap();
        for i in 0..n {
            wal.append(&WalRecord::Submit {
                task: i,
                app: "grep".into(),
            })
            .unwrap();
        }
    }

    #[test]
    fn scrub_detects_mid_file_bit_rot_and_a_snapshot_heals_it() {
        let dir = tmpdir("scrub-rot");
        seed_log(&dir, 5);
        assert!(scrub_shard(&dir, 0).unwrap().clean());
        // Rot one payload byte of the second frame: replay would stop
        // there, so frames 2..5 are the unreachable suffix.
        let log = dir.join(shard_log_name(0));
        let mut bytes = std::fs::read(&log).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second = 8 + first_len;
        bytes[second + 8] ^= 0x01;
        std::fs::write(&log, &bytes).unwrap();
        let report = scrub_shard(&dir, 0).unwrap();
        assert!(!report.clean());
        assert_eq!(report.frames_ok, 1);
        assert_eq!(report.corrupt_at, Some(second as u64));
        assert_eq!(
            report.unreachable_bytes,
            (bytes.len() - second) as u64,
            "the unreachable range must run from the bad frame to the sealed end"
        );
        // The heal: the replayed table becomes the snapshot and the log
        // starts over, clean, and accepts writes.
        let (mut wal, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 1);
        wal.install_snapshot_blob(&rec.table.encode()).unwrap();
        assert!(scrub_shard(&dir, 0).unwrap().clean());
        wal.append(&WalRecord::Lease {
            task: 0,
            attempt: 0,
        })
        .unwrap();
        drop(wal);
        let (_, healed) = Wal::open(&dir, 1000).unwrap();
        assert_eq!((healed.replayed_records, healed.truncated_bytes), (1, 0));
        assert_eq!(healed.table.get(0).unwrap().state, RecState::Leased);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_ignores_an_in_flight_tail() {
        let dir = tmpdir("scrub-tail");
        seed_log(&dir, 3);
        // A frame header whose payload extends past end-of-file is an
        // append in progress, not rot: the pass must stay clean.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(shard_log_name(0)))
                .unwrap();
            f.write_all(&[0x40, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc, 0xdd, 0x01])
                .unwrap();
        }
        let report = scrub_shard(&dir, 0).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.frames_ok, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_flags_a_rotted_snapshot() {
        let dir = tmpdir("scrub-snap");
        {
            let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
            let mut table = TaskTable::default();
            table.apply(&WalRecord::Submit {
                task: 0,
                app: "grep".into(),
            });
            wal.install_snapshot_blob(&table.encode()).unwrap();
        }
        let snap = dir.join(shard_snapshot_name(0));
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[0] = b'\\';
        std::fs::write(&snap, &bytes).unwrap();
        let report = scrub_shard(&dir, 0).unwrap();
        assert!(report.snapshot_corrupt);
        assert!(!report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded torture: flip random bits anywhere in the log and the
    /// snapshot; scrub and recovery must never panic, replay must stop
    /// at the first bad frame, installing the replayed table as the
    /// snapshot must always leave files that scrub clean and reopen with
    /// nothing left to truncate, and what recovery hands back is the
    /// input: the log's frames are
    /// checksummed, so only a flip that landed in the snapshot and still
    /// parses can show — as one altered row per flip, never as more.
    #[test]
    fn torture_random_bit_flips_never_panic_recovery() {
        let mut rng = tracon_stats::prng::SplitMix64::new(0x7261_636F_6E00_0A0B);
        let (mut recovered, mut refused) = (0, 0);
        for round in 0..80 {
            let dir = tmpdir(&format!("torture-{round}"));
            let n = 4 + rng.next_u64() % 8;
            let submits: Vec<WalRecord> = (0..n)
                .map(|task| WalRecord::Submit {
                    task,
                    app: ["grep", "sort", "wc"][task as usize % 3].into(),
                })
                .collect();
            // The first half sits in the snapshot, the rest in the log.
            let (compacted, logged) = submits.split_at(n as usize / 2);
            let mut input = TaskTable::default();
            input.absorb(None, compacted).unwrap();
            {
                let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
                wal.install_snapshot_blob(&input.encode()).unwrap();
                wal.append_batch(logged).unwrap();
            }
            input.absorb(None, logged).unwrap();
            let files = [
                dir.join(shard_log_name(0)),
                dir.join(shard_snapshot_name(0)),
            ];
            let mut flipped = [0usize; 2];
            for _ in 0..1 + rng.next_u64() % 3 {
                let file = (rng.next_u64() % 2) as usize;
                let mut bytes = std::fs::read(&files[file]).unwrap();
                let at = (rng.next_u64() as usize) % bytes.len();
                bytes[at] ^= 1 << (rng.next_u64() % 8);
                std::fs::write(&files[file], &bytes).unwrap();
                flipped[file] += 1;
            }
            let log_len = std::fs::metadata(&files[0]).unwrap().len();
            let report = scrub_shard(&dir, 0).unwrap();
            assert!(report.frames_ok <= logged.len() as u64, "round {round}");
            assert!(flipped[1] > 0 || !report.snapshot_corrupt, "round {round}");
            if let Some(at) = report.corrupt_at {
                assert_eq!(report.unreachable_bytes, log_len - at);
            }
            // Recovery is total: a snapshot scrub calls corrupt is
            // refused with an error, anything else replays the intact
            // prefix — whether or not the flips landed in a sealed
            // frame.
            let (mut wal, rec) = match Wal::open(&dir, 1000) {
                Ok(opened) => opened,
                Err(e) => {
                    assert!(report.snapshot_corrupt, "round {round}: {e}");
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    refused += 1;
                    continue;
                }
            };
            recovered += 1;
            assert!(!report.snapshot_corrupt, "round {round}");
            assert!(
                rec.replayed_records + rec.skipped_records <= n,
                "round {round}"
            );
            if report.corrupt_at.is_some() {
                assert!(
                    rec.replayed_records <= report.frames_ok,
                    "round {round}: replay must stop no later than scrub's horizon"
                );
            }
            // The heal leaves nothing for scrub or the next open to cut.
            wal.install_snapshot_blob(&rec.table.encode()).unwrap();
            drop(wal);
            assert!(scrub_shard(&dir, 0).unwrap().clean(), "round {round}");
            let (_, healed) = Wal::open(&dir, 1000).unwrap();
            assert_eq!(healed.truncated_bytes, 0, "round {round}");
            assert_eq!(healed.table, rec.table, "round {round}");
            let input: Vec<_> = input.iter().collect();
            let altered = rec.table.iter().filter(|row| !input.contains(row));
            assert!(rec.table.len() <= input.len(), "round {round}");
            assert!(altered.count() <= flipped[1], "round {round}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(recovered > 0 && refused > 0, "{recovered} / {refused}");
    }

    fn submits(tasks: std::ops::Range<u64>) -> Vec<WalRecord> {
        tasks
            .map(|task| WalRecord::Submit {
                task,
                app: "grep".into(),
            })
            .collect()
    }

    /// A log a crash left open: `n` acked submits in three batches, the
    /// handle forgotten so the zero extent is never trimmed. Returns the
    /// frame offsets and the end of the last frame.
    fn crashed_log(dir: &Path, n: u64) -> (Vec<usize>, usize) {
        let (mut wal, _) = Wal::open(dir, 1000).unwrap();
        let recs = submits(0..n);
        for batch in recs.chunks(recs.len().div_ceil(3)) {
            wal.append_batch(batch).unwrap();
        }
        std::mem::forget(wal);
        let offsets = recs.iter().scan(0, |off, rec| {
            let at = *off;
            *off += tree_frame(rec).len();
            Some(at)
        });
        let offsets: Vec<usize> = offsets.collect();
        let end = recs.iter().map(|rec| tree_frame(rec).len()).sum();
        (offsets, end)
    }

    /// A `kill -9` skips the trim on close: every acked record replays,
    /// the zeros count as nothing truncated, and scrub is clean before
    /// and after.
    #[test]
    fn a_log_left_open_by_a_crash_reopens_whole_and_scrubs_clean() {
        let dir = tmpdir("forgotten");
        let (offsets, end) = crashed_log(&dir, 10);
        let log = dir.join(shard_log_name(0));
        let bytes = std::fs::read(&log).unwrap();
        // The first batch (4 frames) laid one chunk down behind it.
        assert_eq!(bytes.len(), offsets[4] + EXTENT_CHUNK);
        assert!(bytes[end..].iter().all(|&b| b == 0));
        assert!(scrub_shard(&dir, 0).unwrap().clean());
        let (wal, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!((rec.replayed_records, rec.truncated_bytes), (10, 0));
        assert_eq!(rec.table.len(), 10);
        drop(wal);
        assert_eq!(std::fs::metadata(&log).unwrap().len() as usize, end);
        let report = scrub_shard(&dir, 0).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.frames_ok, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn append leaves a prefix of its frame, zeros behind it: a
    /// tail, which recovery cuts and scrub never calls rot.
    #[test]
    fn a_torn_frame_followed_by_zeros_is_a_tail() {
        let dir = tmpdir("torn-zeros");
        let (_, end) = crashed_log(&dir, 6);
        let log = dir.join(shard_log_name(0));
        let frame = tree_frame(&submits(6..7)[0]);
        for cut in [1, 4, 8, 9, frame.len() - 1] {
            let f = OpenOptions::new().write(true).open(&log).unwrap();
            std::os::unix::fs::FileExt::write_all_at(&f, &frame[..cut], end as u64).unwrap();
            let report = scrub_shard(&dir, 0).unwrap();
            assert!(report.clean(), "cut {cut}: {report:?}");
            assert_eq!(report.frames_ok, 6, "cut {cut}");
        }
        let (wal, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 6);
        assert_eq!(rec.truncated_bytes as usize, frame.len() - 1);
        drop(wal);
        assert_eq!(std::fs::metadata(&log).unwrap().len() as usize, end);
        assert!(scrub_shard(&dir, 0).unwrap().clean());
        let (_, healed) = Wal::open(&dir, 1000).unwrap();
        assert_eq!((healed.replayed_records, healed.truncated_bytes), (6, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What is not torn is rot: a zeroed header or a bad frame with
    /// non-zero bytes behind it, and a last frame that fails its checksum
    /// though written whole (it ends in its `}`), zeros or not behind it.
    #[test]
    fn a_zeroed_header_or_a_bad_frame_before_data_is_rot() {
        let dir = tmpdir("rot-zeros");
        let log = dir.join(shard_log_name(0));
        type Damage = fn(&mut [u8], &[usize]);
        let cases: [(&str, Damage, usize); 4] = [
            ("zeroed header", |b, o| b[o[2]..o[2] + 8].fill(0), 2),
            ("bad payload", |b, o| b[o[2] + 12] ^= 0x20, 2),
            ("bad length", |b, o| b[o[2]] ^= 0x01, 2),
            ("bad last frame", |b, o| b[o[5] + 12] ^= 0x20, 5),
        ];
        for (what, damage, at) in cases {
            let _ = std::fs::remove_dir_all(&dir);
            let (offsets, end) = crashed_log(&dir, 6);
            let mut bytes = std::fs::read(&log).unwrap();
            damage(&mut bytes, &offsets);
            std::fs::write(&log, &bytes).unwrap();
            let report = scrub_shard(&dir, 0).unwrap();
            assert_eq!(report.corrupt_at, Some(offsets[at] as u64), "{what}");
            assert_eq!(report.frames_ok, at as u64, "{what}");
            assert_eq!(
                report.unreachable_bytes as usize,
                end - offsets[at],
                "{what}"
            );
            let (_, rec) = Wal::open(&dir, 1000).unwrap();
            assert_eq!(rec.replayed_records, at as u64, "{what}");
            assert!(rec.truncated_bytes > 0, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Scrub passes beside a writer that keeps appending, and compacting
    /// now and then, never take the frame in flight for rot.
    #[test]
    fn scrub_beside_a_live_writer_never_flags_the_in_flight_frame() {
        let dir = tmpdir("scrub-live");
        let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut table = TaskTable::default();
                for i in 0..3_000u64 {
                    let batch = submits(i * 4..i * 4 + 1 + i % 4);
                    wal.append_batch(&batch).unwrap();
                    table.absorb(None, &batch).unwrap();
                    if wal.snapshot_due() {
                        wal.install_snapshot_blob(&table.encode()).unwrap();
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
            let mut passes = 0;
            while !done.load(Ordering::Relaxed) || passes < 10 {
                let report = scrub_shard(&dir, 0).unwrap();
                assert!(report.clean(), "pass {passes}: {report:?}");
                passes += 1;
            }
        });
        drop(wal);
        let (_, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!((rec.truncated_bytes, rec.table.next_task_id()), (0, 12_000));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failpoints_inject_then_disarm_restores() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let dir = tmpdir("failpoint-append");
        let tag = dir.to_string_lossy().into_owned();
        let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
        crate::failpoint::arm(&format!("wal.append.sync@{tag}=err*1")).unwrap();
        let err = wal
            .append(&WalRecord::Submit {
                task: 0,
                app: "grep".into(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("failpoint injected"), "{err}");
        // The budget is spent: the next append persists normally.
        wal.append(&WalRecord::Submit {
            task: 1,
            app: "grep".into(),
        })
        .unwrap();
        crate::failpoint::disarm_all();
        drop(wal);
        let (_, rec) = Wal::open(&dir, 1000).unwrap();
        assert!(rec.replayed_records >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_failpoint_leaves_rot_only_scrub_sees() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let dir = tmpdir("failpoint-short");
        let tag = dir.to_string_lossy().into_owned();
        let (mut wal, _) = Wal::open(&dir, 1000).unwrap();
        wal.append(&WalRecord::Submit {
            task: 0,
            app: "grep".into(),
        })
        .unwrap();
        crate::failpoint::arm(&format!("wal.append.write@{tag}=short*1")).unwrap();
        wal.append(&WalRecord::Submit {
            task: 1,
            app: "grep".into(),
        })
        .unwrap_err();
        crate::failpoint::disarm_all();
        // Appends continue after the torn frame: the prefix is now
        // sealed mid-file garbage.
        wal.append(&WalRecord::Submit {
            task: 2,
            app: "grep".into(),
        })
        .unwrap();
        let report = scrub_shard(&dir, 0).unwrap();
        assert!(!report.clean(), "{report:?}");
        assert_eq!(report.frames_ok, 1);
        assert!(report.unreachable_bytes > 0);
        drop(wal);
        let (mut wal, rec) = Wal::open(&dir, 1000).unwrap();
        assert_eq!(rec.replayed_records, 1, "only the pre-rot record survives");
        wal.install_snapshot_blob(&rec.table.encode()).unwrap();
        drop(wal);
        assert!(scrub_shard(&dir, 0).unwrap().clean());
        let (_, healed) = Wal::open(&dir, 1000).unwrap();
        assert_eq!((healed.replayed_records, healed.truncated_bytes), (0, 0));
        assert_eq!(healed.table, rec.table);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_scan_sees_logs_and_snapshots() {
        let dir = tmpdir("scan");
        assert_eq!(existing_shard_count(&dir), 0);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(existing_shard_count(&dir), 0);
        let _ = Wal::open_shard(&dir, 2, 10).unwrap();
        assert_eq!(existing_shard_count(&dir), 3);
        remove_shard_files(&dir, 2).unwrap();
        assert_eq!(existing_shard_count(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
