//! Per-slot running-task state and the remaining-work rescaling rule
//! (paper Section 4.2): when a task's neighbour changes, accrued progress
//! is banked at the old rate and the remainder continues at the new
//! pair rate. The slot's queued completion is cancelled and one at the
//! rescaled time takes its place, so every completion the kernel
//! delivers is the current occupant's.

use super::event::{EventKind, Handle, KernelQueue};
use crate::perf::{PerfTable, IDLE};
use tracon_core::VmRef;

/// A task in flight on a VM slot.
#[derive(Debug, Clone)]
struct Running {
    app_idx: usize,
    /// Neighbour app index at placement time (IDLE if the sibling slot was
    /// free) — the state the prediction was made against.
    neighbor_at_start: usize,
    start_time: f64,
    /// Completed fraction of the task's work.
    progress: f64,
    /// Work fraction per second under the current neighbour.
    rate: f64,
    /// Served I/O rate under the current neighbour.
    iops_rate: f64,
    /// Accumulated I/O operations.
    io_ops: f64,
    last_update: f64,
    /// The queued completion event (`None` until the first refresh).
    completion: Option<Handle>,
}

/// A task completion, with the realized measurements the observers
/// consume.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completed {
    pub app_idx: usize,
    pub neighbor_at_start: usize,
    pub runtime: f64,
    pub avg_iops: f64,
}

/// The slot table: owns every [`Running`] entry and applies the
/// progress-rescaling rule whenever a slot's neighbourhood changes.
pub(crate) struct SlotState<'p> {
    slots: Vec<Option<Running>>,
    slots_per_machine: usize,
    perf: &'p PerfTable,
}

impl<'p> SlotState<'p> {
    pub fn new(n_machines: usize, slots_per_machine: usize, perf: &'p PerfTable) -> Self {
        SlotState {
            slots: vec![None; n_machines * slots_per_machine],
            slots_per_machine,
            perf,
        }
    }

    fn index(&self, vm: VmRef) -> usize {
        vm.machine * self.slots_per_machine + vm.slot
    }

    /// The app index of `vm`'s most I/O-intensive sibling, or [`IDLE`].
    /// With two slots per machine there is at most one neighbour; with
    /// more, the most I/O-intensive one dominates (documented
    /// approximation for >2-slot extensions).
    pub fn neighbor_app(&self, vm: VmRef) -> usize {
        let mut best = IDLE;
        let mut best_iops = -1.0f64;
        for s in 0..self.slots_per_machine {
            if s == vm.slot {
                continue;
            }
            if let Some(r) = &self.slots[vm.machine * self.slots_per_machine + s] {
                let io = self.perf.solo_iops(r.app_idx);
                if io > best_iops {
                    best_iops = io;
                    best = r.app_idx;
                }
            }
        }
        best
    }

    /// Whether a slot currently hosts a task.
    pub fn is_occupied(&self, vm: VmRef) -> bool {
        self.slots[self.index(vm)].is_some()
    }

    /// Starts a task on a free slot. The rate fields are placeholders
    /// until the caller refreshes the slot.
    pub fn place(&mut self, vm: VmRef, app_idx: usize, neighbor_at_start: usize, now: f64) {
        let idx = self.index(vm);
        debug_assert!(
            self.slots[idx].is_none(),
            "scheduler placed onto occupied slot"
        );
        self.slots[idx] = Some(Running {
            app_idx,
            neighbor_at_start,
            start_time: now,
            progress: 0.0,
            rate: 1.0, // placeholder; refresh sets it
            iops_rate: 0.0,
            io_ops: 0.0,
            last_update: now,
            completion: None,
        });
    }

    /// Re-rates a slot against its current neighbour: banks the progress
    /// and I/O accrued at the old rate, switches to the new pair rate,
    /// cancels the slot's queued completion and schedules a new one at
    /// the rescaled ETA. No-op on an empty slot.
    pub fn refresh<Q: KernelQueue>(&mut self, vm: VmRef, now: f64, events: &mut Q) {
        let nb = self.neighbor_app(vm);
        let idx = self.index(vm);
        if let Some(r) = &mut self.slots[idx] {
            let dt = now - r.last_update;
            r.progress += r.rate * dt;
            r.io_ops += r.iops_rate * dt;
            r.last_update = now;
            r.rate = self.perf.rate(r.app_idx, nb);
            r.iops_rate = self.perf.iops(r.app_idx, nb);
            if let Some(h) = r.completion {
                events.cancel(h);
            }
            let remaining = (1.0 - r.progress).max(0.0);
            let eta = now + remaining / r.rate.max(1e-12);
            r.completion = Some(events.push(eta, EventKind::Completion(vm)));
        }
    }

    /// Processes a completion event: frees the slot and returns the
    /// realized measurements.
    ///
    /// # Panics
    ///
    /// If `vm` is free: its completion would have been cancelled.
    pub fn complete(&mut self, vm: VmRef, now: f64) -> Completed {
        let idx = self.index(vm);
        let r = self.slots[idx]
            .take()
            .expect("a completion pops only for an occupied slot");
        let runtime = now - r.start_time;
        let final_ops = r.io_ops + r.iops_rate * (now - r.last_update);
        let avg_iops = final_ops / runtime.max(1e-9);
        Completed {
            app_idx: r.app_idx,
            neighbor_at_start: r.neighbor_at_start,
            runtime,
            avg_iops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::event::{EventKind, KernelQueue, TimingWheel};
    use crate::setup::tests::shared;

    /// The stale-event bug: a slot's second occupant must not complete on
    /// a completion event its predecessor left queued. When each occupant
    /// started at `version: 0`, the successor's first refresh reissued the
    /// predecessor's version, and the old event ended the new task on the
    /// old task's clock. A refresh now cancels the slot's queued
    /// completion, so no such event is left to pop.
    ///
    /// A runs beside B; B finishes first, so A speeds up and A's paired
    /// completion is cancelled. A completes, and A' takes the slot before
    /// A's paired time. The handles popped and cancelled events freed
    /// carry the later pushes, so a reused handle must not revive the
    /// cancelled event either: A' runs its full solo time.
    #[test]
    fn second_occupant_ignores_its_predecessors_queued_completion() {
        let perf = &shared().perf;
        let n = perf.n_apps();
        let (a, b) = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let paired = perf.rate(a, b);
                perf.rate(a, IDLE) > paired && perf.rate(b, a) > paired
            })
            .expect("a pair where B slows A down and finishes first");
        let mut slots = SlotState::new(1, 2, perf);
        let mut events = TimingWheel::with_capacity(4);
        let vm = |slot| VmRef { machine: 0, slot };
        // B starts alone, then A beside it: A's completion is queued at
        // its paired time.
        slots.place(vm(1), b, IDLE, 0.0);
        slots.refresh(vm(1), 0.0, &mut events);
        slots.place(vm(0), a, b, 0.0);
        slots.refresh(vm(0), 0.0, &mut events);
        slots.refresh(vm(1), 0.0, &mut events);
        let paired = 1.0 / perf.rate(a, b);
        let mut completions = Vec::new();
        let mut successor_start = None;
        while let Some(e) = events.pop() {
            let EventKind::Completion(at) = e.kind else {
                unreachable!("only completions are queued");
            };
            let done = slots.complete(at, e.time);
            completions.push((at.slot, e.time, done.runtime));
            // The sibling speeds up (a no-op once the machine is empty).
            slots.refresh(vm(1 - at.slot), e.time, &mut events);
            if at.slot == 0 && successor_start.is_none() {
                assert!(e.time < paired, "A must finish before its paired time");
                slots.place(vm(0), a, IDLE, e.time);
                slots.refresh(vm(0), e.time, &mut events);
                successor_start = Some(e.time);
            }
        }
        let start = successor_start.expect("A completed");
        let end = start + 1.0 / perf.rate(a, IDLE);
        assert_eq!(completions.len(), 3, "{completions:?}");
        assert_eq!(
            completions[2],
            (0, end, end - start),
            "the second occupant must run its own full solo time, \
             not end on its predecessor's event at t = {paired}"
        );
    }
}
