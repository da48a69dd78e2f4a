//! Per-slot running-task state and the remaining-work rescaling rule
//! (paper Section 4.2): when a task's neighbour changes, accrued progress
//! is banked at the old rate and the remainder continues at the new
//! pair rate, with a fresh completion event superseding the stale one.

use super::event::{EventKind, KernelQueue};
use crate::perf::{PerfTable, IDLE};
use tracon_core::{MachineClass, VmRef};

/// Machine-class context for the event kernel of a heterogeneous
/// cluster: the class table, each machine's class index, and each
/// application's offered link load in MB/s (perf-table indexed).
#[derive(Debug, Clone)]
pub(crate) struct NetCtx {
    pub classes: Vec<MachineClass>,
    pub assignment: Vec<u16>,
    pub demand: Vec<f64>,
}

/// A task in flight on a VM slot.
#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub app_idx: usize,
    /// Neighbour app index at placement time (IDLE if the sibling slot was
    /// free) — the state the prediction was made against.
    pub neighbor_at_start: usize,
    pub start_time: f64,
    /// Completed fraction of the task's work.
    pub progress: f64,
    /// Work fraction per second under the current neighbour.
    pub rate: f64,
    /// Served I/O rate under the current neighbour.
    pub iops_rate: f64,
    /// Accumulated I/O operations.
    pub io_ops: f64,
    pub last_update: f64,
    pub version: u64,
    /// Straggler rate divisor for this execution (1.0 = nominal); applied
    /// to both work and I/O rates on every refresh.
    pub slowdown: f64,
}

/// A validated task completion, with the realized measurements the
/// observers consume.
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
    /// Last version used per slot. Versions are monotone per *slot*, not
    /// per occupancy: a new task starts past every version its
    /// predecessor used, so a completion event left over from a previous
    /// occupant can never validate against the current one.
    base_version: Vec<u64>,
    /// Machine-class context; `None` on a homogeneous cluster (the
    /// legacy, bit-identical path).
    net: Option<NetCtx>,
}

impl<'p> SlotState<'p> {
    pub fn new(n_machines: usize, slots_per_machine: usize, perf: &'p PerfTable) -> Self {
        SlotState {
            slots: vec![None; n_machines * slots_per_machine],
            slots_per_machine,
            perf,
            base_version: vec![0; n_machines * slots_per_machine],
            net: None,
        }
    }

    /// Attaches machine-class context: refreshes on non-reference-class
    /// machines additionally divide the work rate by the class slowdown
    /// (solo factor x M/M/1 link contention) and scale the I/O rate by
    /// `iops_factor / contention`.
    pub fn with_net(mut self, net: NetCtx) -> Self {
        self.net = Some(net);
        self
    }

    /// The `(runtime divisor, IOPS multiplier)` the machine's class
    /// imposes given its residents' current total link load, or `None`
    /// when the kernel is class-oblivious or the class is the reference
    /// class — the gate that keeps legacy scenarios bit-identical.
    fn class_adjust(&self, machine: usize) -> Option<(f64, f64)> {
        let net = self.net.as_ref()?;
        let class = &net.classes[net.assignment[machine] as usize];
        if class.is_reference() {
            return None;
        }
        let mut demand = 0.0;
        for s in 0..self.slots_per_machine {
            if let Some(r) = &self.slots[machine * self.slots_per_machine + s] {
                demand += net.demand[r.app_idx];
            }
        }
        Some((
            class.slowdown(demand),
            class.iops_factor / class.link_contention(demand),
        ))
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

    /// Starts a task on a free slot with the given straggler `slowdown`
    /// (1.0 = nominal). The rate fields are placeholders until the caller
    /// refreshes the slot.
    pub fn place(
        &mut self,
        vm: VmRef,
        app_idx: usize,
        neighbor_at_start: usize,
        now: f64,
        slowdown: f64,
    ) {
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
            version: self.base_version[idx],
            slowdown,
        });
    }

    /// Re-rates a slot against its current neighbour: banks the progress
    /// and I/O accrued at the old rate, switches to the new pair rate,
    /// bumps the version (invalidating the outstanding completion event),
    /// and schedules a new completion at the rescaled ETA. No-op on an
    /// empty slot.
    pub fn refresh<Q: KernelQueue>(&mut self, vm: VmRef, now: f64, events: &mut Q) {
        let nb = self.neighbor_app(vm);
        // Computed before the slot borrow; `None` on the legacy path.
        let adjust = self.class_adjust(vm.machine);
        let idx = self.index(vm);
        if let Some(r) = &mut self.slots[idx] {
            let dt = now - r.last_update;
            r.progress += r.rate * dt;
            r.io_ops += r.iops_rate * dt;
            r.last_update = now;
            r.rate = self.perf.rate(r.app_idx, nb) / r.slowdown;
            r.iops_rate = self.perf.iops(r.app_idx, nb) / r.slowdown;
            if let Some((rt_div, io_mul)) = adjust {
                // Applied as an extra division/multiplication so the
                // legacy rate expression above stays bit-identical on
                // reference-class machines (the branch is not taken).
                r.rate /= rt_div;
                r.iops_rate *= io_mul;
            }
            r.version += 1;
            self.base_version[idx] = r.version;
            let remaining = (1.0 - r.progress).max(0.0);
            let eta = now + remaining / r.rate.max(1e-12);
            events.push(
                eta,
                EventKind::Completion {
                    vm,
                    version: r.version,
                },
            );
        }
    }

    /// Processes a completion event: returns `None` for a stale event
    /// (version mismatch from before a neighbour change), otherwise frees
    /// the slot and returns the realized measurements.
    pub fn complete(&mut self, vm: VmRef, version: u64, now: f64) -> Option<Completed> {
        let idx = self.index(vm);
        let valid = matches!(&self.slots[idx], Some(r) if r.version == version);
        if !valid {
            return None;
        }
        let r = self.slots[idx].take().expect("validated above");
        let runtime = now - r.start_time;
        let final_ops = r.io_ops + r.iops_rate * (now - r.last_update);
        let avg_iops = final_ops / runtime.max(1e-9);
        Some(Completed {
            app_idx: r.app_idx,
            neighbor_at_start: r.neighbor_at_start,
            runtime,
            avg_iops,
        })
    }

    /// Forcibly removes the task on `vm` (machine crash): its progress is
    /// lost and any outstanding completion event goes stale because the
    /// slot is empty and later occupants start past its version. Returns
    /// the evicted entry, or `None` for a free slot.
    pub fn evict(&mut self, vm: VmRef) -> Option<Running> {
        let idx = self.index(vm);
        self.slots[idx].take()
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
    /// old task's clock. Versions now count per slot (`base_version`).
    /// The successor's completion takes a handle the wheel recycled, so a
    /// reused handle must not revive the stale event either.
    #[test]
    fn second_occupant_ignores_its_predecessors_queued_completion() {
        let perf = &shared().perf;
        let mut slots = SlotState::new(1, 2, perf);
        let mut events = TimingWheel::with_capacity(2);
        let vm = VmRef {
            machine: 0,
            slot: 0,
        };
        let app = 0;
        let solo = 1.0 / perf.rate(app, IDLE);
        // The first occupant's completion is queued for t = solo; a crash
        // evicts it and the event stays behind.
        slots.place(vm, app, IDLE, 0.0, 1.0);
        slots.refresh(vm, 0.0, &mut events);
        slots.evict(vm);
        // An unrelated event pops, freeing a handle for the next push.
        let crash = EventKind::MachineFault {
            machine: 0,
            up: false,
        };
        events.push(solo / 4.0, crash);
        events.pop();
        // The same app starts again on the slot at solo / 2.
        let start = solo / 2.0;
        slots.place(vm, app, IDLE, start, 1.0);
        slots.refresh(vm, start, &mut events);
        let mut completions = Vec::new();
        while let Some(e) = events.pop() {
            if let EventKind::Completion { vm, version } = e.kind {
                if let Some(done) = slots.complete(vm, version, e.time) {
                    completions.push((e.time, done.runtime));
                }
            }
        }
        let end = start + solo;
        assert_eq!(
            completions,
            [(end, end - start)],
            "the second occupant must run its own full solo time, \
             not end on its predecessor's event at t = {solo}"
        );
    }
}
