//! The event kernel's pending events, in a total order over `(time, seq)`
//! where the sequence number makes simultaneous events pop in push order
//! — which is what keeps the simulation bit-reproducible across runs and
//! refactors.
//!
//! Arrivals never enter a queue: [`Pending`] reads them in place from
//! the time-sorted trace and merges them in front of a [`KernelQueue`]
//! that holds only what the run pushes: completions. A push returns a
//! [`Handle`], and a completion that a neighbour change supersedes is
//! cancelled through it: a cancelled event never pops, and
//! [`KernelQueue::next_time`] never reports it, so every event the
//! kernel delivers is live.
//! Two interchangeable backends implement that queue:
//!
//! * [`TimingWheel`] (the default) — a calendar queue over a recycled
//!   arena of events in a flat SoA layout. Simulation time is monotone and
//!   completions cluster densely, so pushes and pops are O(1) amortized:
//!   events land in one of [`N_BUCKETS`] equal-width buckets spanning the
//!   current epoch, each bucket is sorted once when the drain cursor
//!   reaches it, and far-future events wait in an overflow list until the
//!   epoch rolls over and a new calendar is laid out over their span. A
//!   cancel clears the handle's live flag; the handle is dropped where it
//!   next surfaces (its bucket's drain, the rollover, or the run head)
//!   and only then goes on the free list for the next push, so the
//!   arena is as large as the most events ever held at once, not as the
//!   number ever pushed.
//! * [`HeapQueue`] — the reference `BinaryHeap` kernel, retained as the
//!   equivalence oracle (`QueueBackend::BinaryHeap`) and exercised by the
//!   wheel-vs-heap property test below and the golden bit-identity matrix.
//!   It skips cancelled entries when they reach its head.

use crate::arrival::ArrivalEvent;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use tracon_core::VmRef;

/// Tolerance under which two event timestamps count as simultaneous.
/// The kernel holds the dispatch gate while the next pending event lies
/// within it of the one just processed: simultaneous events (a chain of
/// them, each within the tolerance of the last) must all be processed
/// before the scheduler runs, or a batch scheduler would see its window
/// one task at a time.
pub const COINCIDENCE_EPS: f64 = 1e-12;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Task `trace[i]` arrives.
    Arrival(usize),
    /// The task on `vm` finishes. A neighbour change cancels this event
    /// and pushes one at the rescaled time, so it always names the
    /// slot's current occupant.
    Completion(VmRef),
}

/// Names a pushed event, so its pusher can cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle(u64);

/// A scheduled simulation event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub time: f64,
    /// Push rank within the queue that held the event; for an arrival,
    /// which [`Pending`] reads from the trace, its trace index.
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for the max-heap: earliest time (then lowest seq)
        // first. Event times are finite and non-negative, so total_cmp
        // agrees with the partial order while keeping Ord's contract
        // honest for any bit pattern.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A kernel event queue: a totally ordered `(time, seq)` schedule with
/// O(1) peeking and cancellation. The simulation main loop is generic
/// over this trait so the timing wheel and the reference heap are drop-in
/// interchangeable (see [`QueueBackend`](super::QueueBackend)).
pub(crate) trait KernelQueue {
    /// Creates an empty queue sized for roughly `n` pending events.
    fn with_capacity(n: usize) -> Self
    where
        Self: Sized;

    /// Schedules an event; later pushes at the same time pop later.
    fn push(&mut self, time: f64, kind: EventKind) -> Handle;

    /// Cancels a pending event: it never pops, and `next_time` never
    /// reports it. `handle` must name an event that was pushed and has
    /// neither popped nor been cancelled.
    fn cancel(&mut self, handle: Handle);

    /// Pops the earliest event.
    fn pop(&mut self) -> Option<Event>;

    /// Time of the earliest pending event, if any.
    fn next_time(&self) -> Option<f64>;
}

/// The kernel's pending events: the unread tail of a time-sorted arrival
/// trace, merged in front of the queue of everything the run has pushed.
///
/// On a time tie the arrival pops first. That is the order a queue given
/// every arrival before the run starts would produce: each arrival would
/// carry a lower seq than any completion pushed after it, and
/// arrivals tie-break among themselves by trace index, which a sorted
/// trace already is.
pub(crate) struct Pending<'t, Q> {
    trace: &'t [ArrivalEvent],
    /// Index of the next arrival to pop.
    next: usize,
    /// Everything but arrivals; `SlotState::refresh` pushes here.
    pub queue: Q,
}

impl<'t, Q: KernelQueue> Pending<'t, Q> {
    /// Merges `trace` in front of `queue`.
    ///
    /// # Panics
    ///
    /// If `trace` is not sorted by time.
    pub fn new(trace: &'t [ArrivalEvent], queue: Q) -> Self {
        if let Some(i) = trace
            .windows(2)
            .position(|w| w[1].time.total_cmp(&w[0].time).is_lt())
        {
            panic!(
                "arrival trace is not sorted by time: arrival {} at {} s follows one at {} s",
                i + 1,
                trace[i + 1].time,
                trace[i].time
            );
        }
        Pending {
            trace,
            next: 0,
            queue,
        }
    }

    /// Time of the earliest pending event, if any. `None` doubles as the
    /// emptiness probe: for batch schedulers it signals the arrival trace
    /// is exhausted, so the queue must drain.
    pub fn next_time(&self) -> Option<f64> {
        let arrival = self.trace.get(self.next).map(|a| a.time);
        match (arrival, self.queue.next_time()) {
            (Some(a), Some(q)) => Some(if q.total_cmp(&a).is_lt() { q } else { a }),
            (a, q) => a.or(q),
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let Some(a) = self.trace.get(self.next) else {
            return self.queue.pop();
        };
        if self
            .queue
            .next_time()
            .is_some_and(|q| q.total_cmp(&a.time).is_lt())
        {
            return self.queue.pop();
        }
        let i = self.next;
        self.next += 1;
        Some(Event {
            time: a.time,
            seq: i as u64,
            kind: EventKind::Arrival(i),
        })
    }
}

/// The reference event queue: a max-heap of boxed-node [`Event`]s plus
/// the monotone sequence counter, so every push gets the next
/// tie-breaking rank automatically. An event's handle is its seq.
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Event>,
    seq: u64,
    /// Seqs of cancelled events still in the heap; never the head's.
    cancelled: HashSet<u64>,
}

impl HeapQueue {
    /// Pops cancelled events off the head.
    fn skip_cancelled(&mut self) {
        while let Some(head) = self.heap.peek() {
            if !self.cancelled.remove(&head.seq) {
                break;
            }
            self.heap.pop();
        }
    }
}

impl KernelQueue for HeapQueue {
    fn with_capacity(n: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
            cancelled: HashSet::new(),
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) -> Handle {
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
        Handle(self.seq - 1)
    }

    fn cancel(&mut self, handle: Handle) {
        let fresh = self.cancelled.insert(handle.0);
        debug_assert!(fresh, "event {handle:?} cancelled twice");
        self.skip_cancelled();
    }

    fn pop(&mut self) -> Option<Event> {
        let e = self.heap.pop()?;
        self.skip_cancelled();
        Some(e)
    }

    fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }
}

/// Number of calendar buckets per epoch. Large enough that a bucket of a
/// full-fidelity sweep holds a few hundred events (one cheap sort each),
/// small enough that scanning an epoch's empty buckets is negligible.
const N_BUCKETS: usize = 512;

/// Floor on the bucket width so a zero-span epoch (every far event at one
/// timestamp) still maps into the calendar.
const MIN_BUCKET_WIDTH: f64 = 1e-9;

/// Rollovers with at most this many pending far events skip the calendar
/// and sort directly into the drain window: below this size the binary
/// insert's memmove is cheaper than walking a sparse epoch's buckets.
const RUN_DIRECT_MAX: usize = 128;

/// The timing-wheel event queue (default backend).
///
/// Events live in an arena in SoA layout — parallel `times`, `seqs`,
/// `kinds` and `live` arrays indexed by a `u32` handle. A pop puts its
/// handle on a free stack and a push takes from that stack before it
/// grows the arena. A cancel only clears the handle's live flag: the
/// handle stays where it is until a drain, a rollover or the run head
/// reaches it, is dropped there, and only then goes on the free stack,
/// so a later push can never reuse a handle an earlier cancel still
/// names. The arena holds the most events ever held at once, cancelled
/// ones awaiting their drop included. The sequence number is a separate
/// `u32` push counter stored per handle, so a recycled handle still
/// sorts after every earlier push at its time. Events are never moved or
/// boxed; the tiers below shuffle handles.
///
/// Handles flow through three tiers, split by two time boundaries:
///
/// ```text
///   (-inf, drain_bound)      [drain_bound, far_bound)     [far_bound, inf)
///  ┌──────────────────┐     ┌────┬────┬─ ... ─┬────┐     ┌──────────────┐
///  │ run (sorted vec) │ ◄── │        buckets       │ ◄── │ far overflow │
///  └──────────────────┘     └────┴────┴─ ... ─┴────┘     └──────────────┘
///        pop cursor          sorted on first touch         rebuilt into a
///                                                          new epoch when
///                                                          buckets drain
/// ```
///
/// * **run** — the sorted drain window of `(time, seq, handle)` entries;
///   `run[cursor]` is the queue head and always live, so peek and pop
///   are O(1). Late
///   pushes that land inside the window (a completion rescheduled at the
///   current timestamp) binary-insert into the pending tail.
/// * **buckets** — `N_BUCKETS` equal-width slots covering the current
///   epoch `[origin, far_bound)`. A push is one index computation and a
///   `Vec::push`; a bucket drops its cancelled handles and is sorted by
///   `(time, seq)` exactly once, when the cursor reaches it.
/// * **far** — unsorted overflow for events beyond the epoch. When every
///   bucket has drained, the epoch rolls over: the cancelled handles are
///   dropped, a fresh calendar is laid out across the live far events'
///   span and they are redistributed.
///
/// Every boundary test is an exact FP comparison and the bucket mapping
/// is monotone in time, so the pop order is the *identical* `(time, seq)`
/// total order the reference heap produces — bit-for-bit, as gated by the
/// property test below and the golden-engine matrix.
pub(crate) struct TimingWheel {
    /// Arena (SoA): event time per handle.
    times: Vec<f64>,
    /// Arena (SoA): push rank per handle, the tie-breaker among equal times.
    seqs: Vec<u32>,
    /// Arena (SoA): event payload per handle.
    kinds: Vec<EventKind>,
    /// Arena (SoA): whether the handle's event is pending and not
    /// cancelled.
    live: Vec<bool>,
    /// Handles of popped or dropped events, reused before the arena grows.
    free: Vec<u32>,
    /// Sequence number of the next push.
    next_seq: u32,
    /// Sorted drain window: `(time, seq, handle)` entries (16 bytes) with
    /// `time < drain_bound`; `run[cursor..]` is pending, earliest first.
    /// Time and seq are stored inline so the head peek, the binary
    /// insert's probes, and the drain sort all touch contiguous memory
    /// instead of hopping through the arena.
    run: Vec<RunEntry>,
    cursor: usize,
    /// Exclusive upper time bound of the drain window.
    drain_bound: f64,
    /// Epoch calendar origin (inclusive lower bound of bucket 0).
    origin: f64,
    /// Epoch bucket width (always positive).
    width: f64,
    buckets: Vec<Vec<u32>>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty), so
    /// sparse epochs skip to the next populated bucket in a few word
    /// scans instead of touching up to `N_BUCKETS` vector headers.
    occupied: [u64; N_BUCKETS / 64],
    /// Next bucket the cursor will drain; earlier buckets are spent.
    bucket_pos: usize,
    /// Total handles currently sitting in buckets.
    n_bucketed: usize,
    /// Unsorted overflow: handles with `time >= far_bound`.
    far: Vec<u32>,
    /// Exclusive upper time bound of the epoch calendar.
    far_bound: f64,
}

/// A drain-window entry: `(time, seq, handle)`.
type RunEntry = (f64, u32, u32);

/// The `(time, seq)` total order on drain-window entries.
fn run_order(a: &RunEntry, b: &RunEntry) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl TimingWheel {
    /// Maps an epoch-resident time (`drain_bound <= t < far_bound`) to
    /// its bucket. Monotone in `t`; the clamp absorbs FP fuzz at the
    /// drain boundary so a spent bucket can never receive a new event.
    fn bucket_index(&self, t: f64) -> usize {
        let raw = ((t - self.origin) / self.width).floor();
        let idx = if raw >= 0.0 { raw as usize } else { 0 };
        idx.clamp(self.bucket_pos, N_BUCKETS - 1)
    }

    /// Restores the head invariant: whenever any live event is pending,
    /// `run[cursor]` is the earliest one. Called after every mutation, so
    /// `next_time` stays a plain O(1) array read. Cancelled handles met on
    /// the way go on the free stack.
    fn settle(&mut self) {
        loop {
            while let Some(&(_, _, h)) = self.run.get(self.cursor) {
                if self.live[h as usize] {
                    return;
                }
                self.cursor += 1;
                self.free.push(h);
            }
            self.run.clear();
            self.cursor = 0;
            if self.n_bucketed > 0 {
                // Jump to the next populated bucket via the bitmap.
                let mut w = self.bucket_pos / 64;
                let mut word = self.occupied[w] & (!0u64 << (self.bucket_pos % 64));
                while word == 0 {
                    w += 1;
                    word = self.occupied[w];
                }
                let b = w * 64 + word.trailing_zeros() as usize;
                self.occupied[w] &= !(1u64 << (b % 64));
                let bucket = &mut self.buckets[b];
                self.n_bucketed -= bucket.len();
                for h in bucket.drain(..) {
                    let i = h as usize;
                    if self.live[i] {
                        self.run.push((self.times[i], self.seqs[i], h));
                    } else {
                        self.free.push(h);
                    }
                }
                self.run.sort_unstable_by(run_order);
                self.bucket_pos = b + 1;
                self.drain_bound = if self.bucket_pos == N_BUCKETS {
                    self.far_bound
                } else {
                    self.origin + self.bucket_pos as f64 * self.width
                };
            } else if !self.far.is_empty() {
                // Epoch rollover: drop the cancelled far events, lay a
                // fresh calendar over the live ones' span and
                // redistribute them.
                let (live, free) = (&self.live, &mut self.free);
                self.far.retain(|&h| {
                    let keep = live[h as usize];
                    if !keep {
                        free.push(h);
                    }
                    keep
                });
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &h in &self.far {
                    let t = self.times[h as usize];
                    lo = lo.min(t);
                    hi = hi.max(t);
                }
                if self.far.len() <= RUN_DIRECT_MAX {
                    // Sparse rollover — the simulator's long drain tail,
                    // where only the in-flight completions remain. A
                    // calendar would scatter a handful of events over
                    // hundreds of buckets; sort them straight into the
                    // run instead and make the whole span the drain
                    // window (no buckets: `bucket_pos == N_BUCKETS` and
                    // `drain_bound == far_bound` route every new push to
                    // the run-insert or far tiers). With nothing left,
                    // the next pass resets the wheel.
                    let (times, seqs) = (&self.times, &self.seqs);
                    self.run.extend(
                        self.far
                            .drain(..)
                            .map(|h| (times[h as usize], seqs[h as usize], h)),
                    );
                    self.run.sort_unstable_by(run_order);
                    // `next_up` keeps the invariant strict: the event at
                    // `hi` itself sits in the run, while a new push at
                    // exactly `hi` (higher seq) lands in `far` and pops
                    // in a later rollover — the correct total order.
                    self.drain_bound = hi.next_up();
                    self.far_bound = self.drain_bound;
                    self.bucket_pos = N_BUCKETS;
                    continue;
                }
                self.origin = lo;
                // `hi` maps to the last bucket, so the whole span fits.
                self.width = ((hi - lo) / (N_BUCKETS - 1) as f64).max(MIN_BUCKET_WIDTH);
                self.far_bound = self.origin + N_BUCKETS as f64 * self.width;
                self.bucket_pos = 0;
                self.drain_bound = self.origin;
                let mut far = std::mem::take(&mut self.far);
                self.n_bucketed += far.len();
                for h in far.drain(..) {
                    let b = self.bucket_index(self.times[h as usize]);
                    self.buckets[b].push(h);
                    self.occupied[b / 64] |= 1u64 << (b % 64);
                }
                // Keep the overflow's storage for the next epoch.
                self.far = far;
            } else {
                // Fully drained: reset to the pristine state, where the
                // next pushes gather in `far` and the first pop lays out
                // a calendar over whatever span they cover.
                self.drain_bound = f64::NEG_INFINITY;
                self.far_bound = f64::NEG_INFINITY;
                self.bucket_pos = N_BUCKETS;
                return;
            }
        }
    }
}

impl KernelQueue for TimingWheel {
    fn with_capacity(n: usize) -> Self {
        TimingWheel {
            times: Vec::with_capacity(n),
            seqs: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            next_seq: 0,
            run: Vec::with_capacity(n),
            cursor: 0,
            drain_bound: f64::NEG_INFINITY,
            origin: 0.0,
            width: MIN_BUCKET_WIDTH,
            buckets: vec![Vec::new(); N_BUCKETS],
            occupied: [0; N_BUCKETS / 64],
            bucket_pos: N_BUCKETS,
            n_bucketed: 0,
            far: Vec::with_capacity(n),
            far_bound: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) -> Handle {
        assert!(
            self.next_seq < u32::MAX,
            "event queue exhausted its u32 sequence space"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // Fewer handles than pushes, so a handle always fits in a u32.
        let h = if let Some(h) = self.free.pop() {
            self.times[h as usize] = time;
            self.seqs[h as usize] = seq;
            self.kinds[h as usize] = kind;
            self.live[h as usize] = true;
            h
        } else {
            self.times.push(time);
            self.seqs.push(seq);
            self.kinds.push(kind);
            self.live.push(true);
            (self.times.len() - 1) as u32
        };
        if time < self.drain_bound {
            // Lands inside the drain window: binary-insert into the
            // pending tail. The new event carries the highest seq, so it
            // sorts after every equal-time entry already there.
            let entry = (time, seq, h);
            let pos = self.cursor
                + self.run[self.cursor..].partition_point(|e| run_order(e, &entry).is_lt());
            self.run.insert(pos, entry);
        } else if time < self.far_bound {
            let b = self.bucket_index(time);
            self.buckets[b].push(h);
            self.occupied[b / 64] |= 1u64 << (b % 64);
            self.n_bucketed += 1;
        } else {
            self.far.push(h);
        }
        self.settle();
        Handle(h.into())
    }

    fn cancel(&mut self, handle: Handle) {
        let h = handle.0 as usize;
        debug_assert!(self.live[h], "event {handle:?} is not pending");
        self.live[h] = false;
        self.settle();
    }

    fn pop(&mut self) -> Option<Event> {
        let &(time, seq, h) = self.run.get(self.cursor)?;
        let kind = self.kinds[h as usize];
        self.live[h as usize] = false;
        self.cursor += 1;
        self.free.push(h);
        self.settle();
        Some(Event {
            time,
            seq: seq as u64,
            kind,
        })
    }

    fn next_time(&self) -> Option<f64> {
        self.run.get(self.cursor).map(|&(t, _, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::check_cases;

    fn drain_ids<Q: KernelQueue>(q: &mut Q) -> Vec<usize> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival(i) => i,
                _ => unreachable!(),
            })
            .collect()
    }

    fn pops_in_time_then_seq_order<Q: KernelQueue>() {
        let mut q = Q::with_capacity(4);
        q.push(2.0, EventKind::Arrival(0));
        q.push(1.0, EventKind::Arrival(1));
        q.push(1.0, EventKind::Arrival(2));
        q.push(0.5, EventKind::Arrival(3));
        assert_eq!(drain_ids(&mut q), vec![3, 1, 2, 0]);
    }

    #[test]
    fn heap_pops_in_time_then_seq_order() {
        pops_in_time_then_seq_order::<HeapQueue>();
    }

    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        pops_in_time_then_seq_order::<TimingWheel>();
    }

    #[test]
    fn total_cmp_matches_partial_cmp_on_sim_times() {
        // The swap from partial_cmp to total_cmp is behaviour preserving
        // for the times a simulation produces (finite, >= 0).
        for (a, b) in [(0.0f64, 1.0), (1.5, 1.5), (3.25, 0.125), (1e-9, 2e-9)] {
            assert_eq!(a.total_cmp(&b), a.partial_cmp(&b).unwrap());
        }
    }

    fn next_time_detects_coincidence<Q: KernelQueue>() {
        let mut q = Q::with_capacity(2);
        q.push(1.0, EventKind::Arrival(0));
        let at = |q: &Q, now: f64| {
            q.next_time()
                .is_some_and(|t| (t - now).abs() < COINCIDENCE_EPS)
        };
        assert!(at(&q, 1.0));
        assert!(!at(&q, 1.1));
        q.pop();
        assert!(!at(&q, 1.0));
        assert!(q.next_time().is_none());
    }

    #[test]
    fn heap_next_time_detects_coincidence() {
        next_time_detects_coincidence::<HeapQueue>();
    }

    #[test]
    fn wheel_next_time_detects_coincidence() {
        next_time_detects_coincidence::<TimingWheel>();
    }

    #[test]
    fn wheel_survives_epoch_rollovers_and_window_inserts() {
        // Far-future outliers force epoch rebuilds; a push below the
        // drain bound after the first pop exercises the binary insert.
        let mut q = TimingWheel::with_capacity(8);
        let mut h = HeapQueue::with_capacity(8);
        for (t, i) in [(10.0, 0), (1e9, 1), (10.0, 2), (2e9, 3)] {
            q.push(t, EventKind::Arrival(i));
            h.push(t, EventKind::Arrival(i));
        }
        assert_eq!(q.pop().unwrap().seq, h.pop().unwrap().seq);
        // Inside the drain window laid out over the t = 10 events.
        q.push(10.0, EventKind::Arrival(4));
        h.push(10.0, EventKind::Arrival(4));
        assert_eq!(drain_ids(&mut q), drain_ids(&mut h));
        // A drained wheel resets and accepts a fresh schedule.
        q.push(5.0, EventKind::Arrival(9));
        assert_eq!(q.next_time(), Some(5.0));
    }

    /// Where a pending wheel handle sits, for counting which tier a
    /// cancel hit.
    fn tier(wheel: &TimingWheel, h: Handle) -> usize {
        let h = h.0 as u32;
        if wheel.run[wheel.cursor..].iter().any(|e| e.2 == h) {
            0
        } else if wheel.far.contains(&h) {
            2
        } else {
            assert!(wheel.buckets.iter().any(|b| b.contains(&h)), "{h} is lost");
            1
        }
    }

    /// Every arena handle sits exactly once in a tier or on the free
    /// stack, and no free handle is live: a cancelled handle goes on the
    /// free stack only when a tier drops it, never while a tier still
    /// holds it.
    fn assert_handles_conserved(wheel: &TimingWheel) {
        let mut seen = vec![0u8; wheel.times.len()];
        let tiers = wheel.run[wheel.cursor..].iter().map(|e| e.2);
        let bucketed = wheel.buckets.iter().flatten().copied();
        for h in tiers.chain(bucketed).chain(wheel.far.iter().copied()) {
            seen[h as usize] += 1;
        }
        for &h in &wheel.free {
            assert!(!wheel.live[h as usize], "free handle {h} is live");
            seen[h as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "handles not conserved: {seen:?}"
        );
    }

    /// The safety net: on arbitrary interleaved streams of pushes, pops
    /// and cancels — dense same-timestamp bursts, fine-grained spreads,
    /// and far-future outliers — the wheel must produce exactly the
    /// heap's `(time, seq)` total order, bit for bit. Up to three pops
    /// follow a push, so the queue stays short and freed handles come
    /// back at times other pending events share: the order must come from
    /// the seq, never from the handle. Half the streams open with a push
    /// at 0 and 199 fine-grained pushes after it, with no pop, so the
    /// first pop lays a calendar out over more than [`RUN_DIRECT_MAX`]
    /// events. A quarter of the pushes is
    /// followed by a cancel of a random pending event, which lands in
    /// every tier of the wheel: the run, a bucket and the far overflow.
    #[test]
    fn wheel_matches_heap_on_random_streams() {
        let mut reused = 0;
        let mut cancels_per_tier = [0usize; 3];
        check_cases(0..256, |rng| {
            let prefill = if rng.next_u64() & 1 == 0 { 0 } else { 200 };
            let ops: Vec<(u8, f64, usize)> = (0..prefill + rng.range_usize(1, 120))
                .map(|i| {
                    let sel = rng.next_u64() as u8;
                    let (sel, pops) = if i < prefill {
                        (sel & !3 | 1, 0)
                    } else {
                        (sel, rng.range_usize(0, 4))
                    };
                    let t = rng.range_f64(0.0, 1000.0);
                    (sel, if i == 0 && prefill > 0 { 0.0 } else { t }, pops)
                })
                .collect();
            let mut wheel = TimingWheel::with_capacity(ops.len());
            let mut heap = HeapQueue::with_capacity(ops.len());
            let key = |e: Event| (e.time.to_bits(), e.seq);
            // `(seq, wheel handle, heap handle)` of every pending event.
            let mut pending: Vec<(u64, Handle, Handle)> = Vec::new();
            let mut peak_held = 0usize;
            for (i, &(sel, t, pops)) in ops.iter().enumerate() {
                let time = match sel % 4 {
                    0 => (t * 0.016).floor(), // dense bursts on few values
                    1 => t,                   // fine-grained spread
                    2 => 1e9 + t * 1e6,       // far-future outliers
                    _ => 250.0,               // exact same-timestamp pile
                };
                let w = wheel.push(time, EventKind::Arrival(i));
                let h = heap.push(time, EventKind::Arrival(i));
                pending.push((h.0, w, h));
                peak_held = peak_held.max(wheel.times.len() - wheel.free.len());
                if sel / 4 % 4 == 0 {
                    let (_, w, h) = pending.swap_remove(rng.range_usize(0, pending.len()));
                    cancels_per_tier[tier(&wheel, w)] += 1;
                    wheel.cancel(w);
                    heap.cancel(h);
                }
                for _ in 0..pops {
                    let popped = wheel.pop().map(key);
                    assert_eq!(popped, heap.pop().map(key));
                    if let Some((_, seq)) = popped {
                        pending.retain(|p| p.0 != seq);
                    }
                }
                assert_eq!(
                    wheel.next_time().map(f64::to_bits),
                    heap.next_time().map(f64::to_bits)
                );
                assert_handles_conserved(&wheel);
            }
            loop {
                let (a, b) = (wheel.pop().map(key), heap.pop().map(key));
                let done = a.is_none();
                assert_eq!(a, b);
                if done {
                    break;
                }
            }
            // A push grows the arena only when every handle is held.
            assert_eq!(wheel.times.len(), peak_held);
            reused += ops.len() - peak_held;
        });
        assert!(reused > 1000, "only {reused} pushes reused a handle");
        assert!(
            cancels_per_tier.iter().all(|&n| n > 100),
            "cancels per tier (run, bucket, far): {cancels_per_tier:?}"
        );
    }

    /// A merge key that ignores `seq`, which differs by construction
    /// between a merged arrival and one pushed into a queue; a test
    /// completion names its push in the slot's machine index.
    fn what(e: &Event) -> (u64, u8, u64) {
        let (tag, id) = match e.kind {
            EventKind::Arrival(i) => (0, i as u64),
            EventKind::Completion(vm) => (1, vm.machine as u64),
        };
        (e.time.to_bits(), tag, id)
    }

    /// Pushes the `id`th test completion at `time` onto every queue.
    fn push_completion(time: f64, id: usize, queues: [&mut dyn KernelQueue; 3]) {
        let kind = EventKind::Completion(VmRef {
            machine: id,
            slot: 0,
        });
        for q in queues {
            q.push(time, kind);
        }
    }

    /// Streaming the sorted trace through [`Pending`] pops exactly what a
    /// heap given every arrival up front pops, with a few completions
    /// queued before the run and more pushed as events pop — on a coarse
    /// time grid, so arrivals and completions tie often.
    #[test]
    fn merged_arrivals_pop_as_if_queued_up_front() {
        let mut ties = 0;
        check_cases(0..256, |rng| {
            let mut t = 0.0;
            let trace: Vec<ArrivalEvent> = (0..rng.range_usize(0, 60))
                .map(|_| {
                    t += rng.range_usize(0, 3) as f64;
                    ArrivalEvent {
                        time: t,
                        app_idx: 0,
                    }
                })
                .collect();
            let mut reference = HeapQueue::with_capacity(trace.len());
            for (i, a) in trace.iter().enumerate() {
                reference.push(a.time, EventKind::Arrival(i));
            }
            let mut wheel = Pending::new(&trace, TimingWheel::with_capacity(4));
            let mut heap = Pending::new(&trace, HeapQueue::with_capacity(4));
            let mut pushed = 0;
            for _ in 0..rng.range_usize(0, 4) {
                let time = rng.range_usize(0, 40) as f64;
                ties += usize::from(trace.iter().any(|a| a.time == time));
                pushed += 1;
                push_completion(
                    time,
                    pushed,
                    [&mut reference, &mut wheel.queue, &mut heap.queue],
                );
            }
            while let Some(e) = wheel.pop() {
                let want = reference.pop().map(|e| what(&e));
                assert_eq!(Some(what(&e)), want);
                assert_eq!(heap.pop().map(|e| what(&e)), want);
                assert_eq!(
                    wheel.next_time().map(f64::to_bits),
                    reference.next_time().map(f64::to_bits)
                );
                for _ in 0..rng.range_usize(0, 3) * usize::from(pushed < 64) {
                    let time = e.time + [0.0, 1.0, 2.5][rng.range_usize(0, 3)];
                    ties += usize::from(trace.iter().any(|a| a.time == time));
                    pushed += 1;
                    push_completion(
                        time,
                        pushed,
                        [&mut reference, &mut wheel.queue, &mut heap.queue],
                    );
                }
            }
            assert!(reference.pop().is_none() && heap.pop().is_none());
        });
        assert!(ties > 1000, "only {ties} completions tied an arrival");
    }

    #[test]
    #[should_panic(expected = "arrival trace is not sorted by time")]
    fn unsorted_trace_panics() {
        let trace = [2.0, 1.0].map(|time| ArrivalEvent { time, app_idx: 0 });
        Pending::new(&trace, TimingWheel::with_capacity(0));
    }

    /// Drives `wheel` through `cycles` pops, each after up to two pushes,
    /// with the live count on a random walk in `1..=max_pending`; a
    /// quarter of the pushes land at the current time itself, so equal
    /// times keep meeting reused handles, and a quarter of the cycles
    /// cancel a random live event, as a neighbour change does. Returns
    /// the most handles held at once, cancelled ones awaiting their drop
    /// included, checking every `check_every` cycles that each handle
    /// sits in one place.
    fn drive_steady_state(
        wheel: &mut TimingWheel,
        cycles: usize,
        max_pending: usize,
        check_every: usize,
    ) -> usize {
        let mut rng = tracon_stats::prng::ChaCha12::seed_from_u64(7);
        let mut now = 0.0;
        // `(seq, handle)` of every live event.
        let mut live: Vec<(u64, Handle)> = Vec::new();
        let mut peak_held = 0;
        for cycle in 0..cycles {
            let pushes = if live.len() <= 1 {
                2
            } else {
                rng.range_usize(0, 3)
            };
            for _ in 0..pushes.min(max_pending - live.len()) {
                let dt = if rng.next_u64() & 3 == 0 {
                    0.0
                } else {
                    rng.range_f64(0.0, 50.0)
                };
                let seq = wheel.next_seq.into();
                live.push((seq, wheel.push(now + dt, EventKind::Arrival(cycle))));
                peak_held = peak_held.max(wheel.times.len() - wheel.free.len());
            }
            if live.len() > 1 && rng.next_u64() & 3 == 0 {
                let (_, h) = live.swap_remove(rng.range_usize(0, live.len()));
                wheel.cancel(h);
            }
            let e = wheel.pop().expect("an event is live");
            live.retain(|l| l.0 != e.seq);
            now = e.time;
            if cycle % check_every == 0 {
                assert_handles_conserved(wheel);
            }
        }
        peak_held
    }

    /// The arena follows held events, not pushed ones: a million
    /// push/pop/cancel cycles with at most 64 live events leave it at
    /// most 128 handles, and a push grows it only when every handle is
    /// held. A cancelled handle is recycled only after a tier drops it.
    #[test]
    fn wheel_arena_is_bounded_by_pending_events() {
        let mut wheel = TimingWheel::with_capacity(0);
        let peak_held = drive_steady_state(&mut wheel, 1_000_000, 64, 997);
        assert_eq!(wheel.times.len(), peak_held);
        assert!(wheel.times.len() <= 128, "arena of {}", wheel.times.len());
    }
}
