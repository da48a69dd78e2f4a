//! The event kernel's priority queue: a total order over `(time, seq)`
//! where the sequence number makes simultaneous events pop in push order
//! — which is what keeps the simulation bit-reproducible across runs and
//! refactors.
//!
//! Two interchangeable backends implement [`KernelQueue`]:
//!
//! * [`TimingWheel`] (the default) — a calendar queue over arena-allocated
//!   events in a flat SoA layout. Simulation time is monotone and
//!   completions cluster densely, so pushes and pops are O(1) amortized:
//!   events land in one of [`N_BUCKETS`] equal-width buckets spanning the
//!   current epoch, each bucket is sorted once when the drain cursor
//!   reaches it, and far-future events wait in an overflow list until the
//!   epoch rolls over and a new calendar is laid out over their span.
//! * [`HeapQueue`] — the reference `BinaryHeap` kernel, retained as the
//!   equivalence oracle (`QueueBackend::BinaryHeap`) and exercised by the
//!   wheel-vs-heap property test below and the golden bit-identity matrix.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tracon_core::VmRef;

/// Tolerance under which two event timestamps count as simultaneous.
/// Shared by the queue's coincidence-group extraction and the dispatch
/// gate: simultaneous events must all be processed before the scheduler
/// runs, or a batch scheduler would see its window one task at a time.
pub const COINCIDENCE_EPS: f64 = 1e-12;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Task `trace[i]` arrives.
    Arrival(usize),
    /// The task on `vm` finishes — valid only if the slot's version still
    /// matches (a neighbour change reschedules completion and bumps the
    /// version, turning the old event stale).
    Completion { vm: VmRef, version: u64 },
    /// A [`FaultPlan`](crate::faults::FaultPlan) machine transition:
    /// crash (`up == false`, evicting and requeueing every resident) or
    /// recovery (`up == true`, relisting the machine's slots).
    MachineFault { machine: usize, up: bool },
}

/// A scheduled simulation event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub time: f64,
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
/// O(1) peeking. The simulation main loop is generic over this trait so
/// the timing wheel and the reference heap are drop-in interchangeable
/// (see [`QueueBackend`](super::QueueBackend)).
pub(crate) trait KernelQueue {
    /// Creates an empty queue sized for roughly `n` events.
    fn with_capacity(n: usize) -> Self
    where
        Self: Sized;

    /// Schedules an event; later pushes at the same time pop later.
    fn push(&mut self, time: f64, kind: EventKind);

    /// Pops the earliest event.
    fn pop(&mut self) -> Option<Event>;

    /// Time of the earliest pending event, if any. `None` doubles as the
    /// emptiness probe: for batch schedulers it signals the arrival trace
    /// is exhausted, so the queue must drain.
    fn next_time(&self) -> Option<f64>;

    /// Pops the maximal coincidence group — the head event plus every
    /// successor chained within [`COINCIDENCE_EPS`] of the previously
    /// popped timestamp — appending it to `out` in pop order. One call
    /// replaces the old peek-per-event `has_event_at` probing in the main
    /// loop. Returns `false` when the queue is empty.
    fn pop_coincident_into(&mut self, out: &mut Vec<Event>) -> bool {
        let Some(first) = self.pop() else {
            return false;
        };
        let mut last = first.time;
        out.push(first);
        while let Some(t) = self.next_time() {
            if (t - last).abs() < COINCIDENCE_EPS {
                last = t;
                out.push(self.pop().expect("peeked a pending event"));
            } else {
                break;
            }
        }
        true
    }
}

/// The reference event queue: a max-heap of boxed-node [`Event`]s plus
/// the monotone sequence counter, so every push gets the next
/// tie-breaking rank automatically.
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl KernelQueue for HeapQueue {
    fn with_capacity(n: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
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
/// Events live in an append-only arena in SoA layout — parallel `times`
/// and `kinds` arrays indexed by a `u32` handle. The handle doubles as
/// the event's sequence number, so tie-breaking by push order is just an
/// integer compare on the index and events are never moved or boxed.
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
/// * **run** — the sorted drain window; `run[cursor]` is the queue head,
///   so peek and pop are O(1). Late pushes that land inside the window
///   (a completion rescheduled at the current timestamp) binary-insert
///   into the pending tail.
/// * **buckets** — `N_BUCKETS` equal-width slots covering the current
///   epoch `[origin, far_bound)`. A push is one index computation and a
///   `Vec::push`; a bucket is sorted by `(time, handle)` exactly once,
///   when the cursor reaches it.
/// * **far** — unsorted overflow for events beyond the epoch. When every
///   bucket has drained, the epoch rolls over: a fresh calendar is laid
///   out across the far events' span and they are redistributed.
///
/// Every boundary test is an exact FP comparison and the bucket mapping
/// is monotone in time, so the pop order is the *identical* `(time, seq)`
/// total order the reference heap produces — bit-for-bit, as gated by the
/// property test below and the golden-engine matrix.
pub(crate) struct TimingWheel {
    /// Arena (SoA): event time per handle.
    times: Vec<f64>,
    /// Arena (SoA): event payload per handle.
    kinds: Vec<EventKind>,
    /// Sorted drain window: `(time, handle)` pairs with
    /// `time < drain_bound`; `run[cursor..]` is pending, earliest first.
    /// Times are stored inline so the head peek, the binary insert's
    /// probes, and the drain sort all touch contiguous memory instead of
    /// hopping through the arena.
    run: Vec<(f64, u32)>,
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

impl TimingWheel {
    fn event(&self, h: u32) -> Event {
        Event {
            time: self.times[h as usize],
            seq: h as u64,
            kind: self.kinds[h as usize],
        }
    }

    /// Maps an epoch-resident time (`drain_bound <= t < far_bound`) to
    /// its bucket. Monotone in `t`; the clamp absorbs FP fuzz at the
    /// drain boundary so a spent bucket can never receive a new event.
    fn bucket_index(&self, t: f64) -> usize {
        let raw = ((t - self.origin) / self.width).floor();
        let idx = if raw >= 0.0 { raw as usize } else { 0 };
        idx.clamp(self.bucket_pos, N_BUCKETS - 1)
    }

    /// Restores the head invariant: whenever any event is pending,
    /// `run[cursor]` is the earliest one. Called after every mutation, so
    /// `next_time` stays a plain O(1) array read.
    fn settle(&mut self) {
        while self.cursor >= self.run.len() {
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
                let times = &self.times;
                let bucket = &mut self.buckets[b];
                self.n_bucketed -= bucket.len();
                self.run
                    .extend(bucket.drain(..).map(|h| (times[h as usize], h)));
                self.run
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                self.bucket_pos = b + 1;
                self.drain_bound = if self.bucket_pos == N_BUCKETS {
                    self.far_bound
                } else {
                    self.origin + self.bucket_pos as f64 * self.width
                };
            } else if !self.far.is_empty() {
                // Epoch rollover: lay a fresh calendar over the far
                // events' span and redistribute them.
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
                    // the run-insert or far tiers).
                    let times = &self.times;
                    self.run
                        .extend(self.far.drain(..).map(|h| (times[h as usize], h)));
                    self.run
                        .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
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
                let far = std::mem::take(&mut self.far);
                self.n_bucketed += far.len();
                for h in far {
                    let b = self.bucket_index(self.times[h as usize]);
                    self.buckets[b].push(h);
                    self.occupied[b / 64] |= 1u64 << (b % 64);
                }
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
            kinds: Vec::with_capacity(n),
            run: Vec::new(),
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

    fn push(&mut self, time: f64, kind: EventKind) {
        assert!(
            self.times.len() < u32::MAX as usize,
            "event arena exhausted its u32 handle space"
        );
        let h = self.times.len() as u32;
        self.times.push(time);
        self.kinds.push(kind);
        if time < self.drain_bound {
            // Lands inside the drain window: binary-insert into the
            // pending tail. The new handle carries the highest seq, so it
            // sorts after every equal-time entry already there.
            let pos = self.cursor
                + self.run[self.cursor..].partition_point(|&(t, _)| t.total_cmp(&time).is_le());
            self.run.insert(pos, (time, h));
        } else if time < self.far_bound {
            let b = self.bucket_index(time);
            self.buckets[b].push(h);
            self.occupied[b / 64] |= 1u64 << (b % 64);
            self.n_bucketed += 1;
        } else {
            self.far.push(h);
        }
        self.settle();
    }

    fn pop(&mut self) -> Option<Event> {
        let &(_, h) = self.run.get(self.cursor)?;
        self.cursor += 1;
        self.settle();
        Some(self.event(h))
    }

    fn next_time(&self) -> Option<f64> {
        self.run.get(self.cursor).map(|&(t, _)| t)
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

    fn coincident_group_extraction<Q: KernelQueue>() {
        let mut q = Q::with_capacity(5);
        q.push(1.0, EventKind::Arrival(0));
        q.push(1.0, EventKind::Arrival(1));
        q.push(1.0 + 0.5e-12, EventKind::Arrival(2)); // chained
        q.push(2.0, EventKind::Arrival(3)); // next group
        let mut group = Vec::new();
        assert!(q.pop_coincident_into(&mut group));
        let ids: Vec<u64> = group.iter().map(|e| e.seq).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        group.clear();
        assert!(q.pop_coincident_into(&mut group));
        assert_eq!(group.len(), 1);
        assert_eq!(group[0].seq, 3);
        assert!(!q.pop_coincident_into(&mut group));
    }

    #[test]
    fn heap_coincident_group_extraction() {
        coincident_group_extraction::<HeapQueue>();
    }

    #[test]
    fn wheel_coincident_group_extraction() {
        coincident_group_extraction::<TimingWheel>();
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

    /// The tentpole's safety net: on arbitrary interleaved streams of
    /// pushes and pops — dense same-timestamp bursts, fine-grained
    /// spreads, and far-future outliers — the wheel must produce
    /// exactly the heap's `(time, seq)` total order, bit for bit.
    #[test]
    fn wheel_matches_heap_on_random_streams() {
        check_cases(0..256, |rng| {
            let ops: Vec<(u8, f64, bool)> = (0..rng.range_usize(1, 120))
                .map(|_| {
                    let sel = rng.next_u64() as u8;
                    (sel, rng.range_f64(0.0, 1000.0), rng.next_u64() & 1 == 1)
                })
                .collect();
            let mut wheel = TimingWheel::with_capacity(ops.len());
            let mut heap = HeapQueue::with_capacity(ops.len());
            let key = |e: Event| (e.time.to_bits(), e.seq);
            for (i, &(sel, t, pop_now)) in ops.iter().enumerate() {
                let time = match sel % 4 {
                    0 => (t * 0.016).floor(), // dense bursts on few values
                    1 => t,                   // fine-grained spread
                    2 => 1e9 + t * 1e6,       // far-future outliers
                    _ => 250.0,               // exact same-timestamp pile
                };
                wheel.push(time, EventKind::Arrival(i));
                heap.push(time, EventKind::Arrival(i));
                if pop_now {
                    assert_eq!(wheel.pop().map(key), heap.pop().map(key));
                }
                assert_eq!(
                    wheel.next_time().map(f64::to_bits),
                    heap.next_time().map(f64::to_bits)
                );
            }
            loop {
                let (a, b) = (wheel.pop().map(key), heap.pop().map(key));
                let done = a.is_none();
                assert_eq!(a, b);
                if done {
                    break;
                }
            }
        });
    }
}
