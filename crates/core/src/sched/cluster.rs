//! The scheduler's view of the data center: machines with a fixed number
//! of VM slots, each slot either free or holding a resident application.
//!
//! Free slots are indexed by their *neighbour class* — the (sorted)
//! multiset of applications resident on the same machine, packed into a
//! [`ClassKey`]. With 8 applications and two slots per machine there are
//! only 9 classes (idle + one per app), so schedulers scan classes
//! instead of individual VMs and scheduling cost is independent of
//! cluster size.
//!
//! The index is a vector of live classes sorted by `(key, machine
//! class)`, each holding a bitset over the global slot index `machine *
//! slots_per_machine + slot` (whose order is [`VmRef`]'s) and the index
//! of its lowest non-zero word. `place`/`clear` flip O(slots per machine)
//! bits and find each class by binary search; a class's first free slot
//! is O(1) and [`ClusterState::first_free`] is O(classes).
//!
//! A class's background is a function of its key alone: the neighbours'
//! characteristics combined in key order, cached when the class is
//! listed. Which machine holds the class's lowest slot, and in which slot
//! order its neighbours sit, does not change it.

use crate::characteristics::Characteristics;
use crate::interner::{AppId, AppRegistry, ClassKey, MAX_NEIGHBOURS};
use crate::resource::MachineClass;
use std::collections::HashMap;
use std::sync::Arc;

/// A virtual machine slot: machine index and slot index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmRef {
    /// Physical machine index.
    pub machine: usize,
    /// Slot index on the machine.
    pub slot: usize,
}

/// A task resident in a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// The scheduler-visible task id.
    pub task_id: u64,
    /// The application the task runs (interned).
    pub app: AppId,
}

/// One free-slot class: slots whose machine hosts the same multiset of
/// neighbour applications.
#[derive(Debug, Clone, Copy)]
pub struct FreeClass {
    /// Packed neighbour-class key ([`ClassKey::IDLE`] when the rest of
    /// the machine is idle).
    pub key: ClassKey,
    /// Machine-class index of the hosting machines (see
    /// [`ClusterState::machine_classes`]; always `0` on a homogeneous
    /// cluster).
    pub mclass: u16,
    /// Aggregate characteristics of the neighbours (idle = zeros).
    pub background: Characteristics,
    /// A representative free slot of this class.
    pub example: VmRef,
    /// How many free slots belong to the class.
    pub count: usize,
}

/// The free slots of one `(neighbour-class key, machine-class index)`.
#[derive(Debug, Clone)]
struct SlotSet {
    key: (ClassKey, u16),
    /// [`ClusterState::class_background`] of the key.
    background: Characteristics,
    /// One bit per global slot index; never all zero while listed.
    bits: Vec<u64>,
    count: usize,
    /// Index of the lowest non-zero word of `bits`.
    lo: usize,
}

impl SlotSet {
    fn first(&self) -> usize {
        self.lo * 64 + self.bits[self.lo].trailing_zeros() as usize
    }
}

/// The cluster state schedulers operate on.
#[derive(Debug, Clone)]
pub struct ClusterState {
    slots_per_machine: usize,
    machines: Vec<Vec<Option<Resident>>>,
    /// Name ↔ id map over the applications the monitor knows.
    registry: Arc<AppRegistry>,
    /// Canonical observed characteristics per application id (what the
    /// task & resource monitor reports for a steadily-running instance).
    chars_by_id: Vec<Characteristics>,
    /// Free slots grouped by `(neighbour-class key, machine-class index)`,
    /// sorted by that pair with no empty class listed. The order over
    /// packed keys equals the legacy joined-string order, and on a
    /// homogeneous cluster every key is `(k, 0)`, so first-minimum
    /// tie-breaks are unchanged.
    free: Vec<SlotSet>,
    /// Total free slots over every class.
    n_free: usize,
    /// Machine-class table. Index 0 always exists; a homogeneous cluster
    /// has only [`MachineClass::local`].
    classes: Vec<MachineClass>,
    /// Machine-class index per machine.
    mclass: Vec<u16>,
    /// Machines currently marked down (crashed). A down machine has no
    /// slots in the free index, so every scheduler transparently skips
    /// it; [`ClusterState::set_up`] relists its slots.
    down: Vec<bool>,
}

impl ClusterState {
    /// Creates an empty cluster of `n_machines` with `slots_per_machine`
    /// VMs each, using `app_chars` as the monitor's per-application
    /// characteristics. An [`AppRegistry`] is derived from the (sorted)
    /// application names, so any cluster built from the same name set
    /// agrees on ids.
    ///
    /// # Panics
    /// Panics when sizes are zero or `slots_per_machine` exceeds
    /// [`MAX_NEIGHBOURS`]` + 1`.
    pub fn new(
        n_machines: usize,
        slots_per_machine: usize,
        app_chars: HashMap<String, Characteristics>,
    ) -> Self {
        assert!(n_machines > 0 && slots_per_machine > 0, "empty cluster");
        assert!(
            slots_per_machine <= MAX_NEIGHBOURS + 1,
            "at most {} slots per machine supported",
            MAX_NEIGHBOURS + 1
        );
        let registry = Arc::new(AppRegistry::from_names(app_chars.keys().cloned()));
        let chars_by_id = registry.names().iter().map(|n| app_chars[n]).collect();
        let machines = vec![vec![None; slots_per_machine]; n_machines];
        let mut state = ClusterState {
            slots_per_machine,
            machines,
            registry,
            chars_by_id,
            free: Vec::new(),
            n_free: 0,
            classes: vec![MachineClass::local()],
            mclass: vec![0; n_machines],
            down: vec![false; n_machines],
        };
        state.list_empty_machines();
        state
    }

    /// Rebuilds the free index of an empty cluster: every slot of every
    /// up machine is free.
    fn list_empty_machines(&mut self) {
        self.free.clear();
        self.n_free = 0;
        for machine in 0..self.machines.len() {
            if !self.down[machine] {
                for slot in 0..self.slots_per_machine {
                    self.add_free(VmRef { machine, slot });
                }
            }
        }
    }

    /// Declares the cluster heterogeneous: `classes` is the machine-class
    /// table and `assignment[m]` the class index of machine `m`. The free
    /// index is rebuilt so slots on different hardware never share a
    /// [`FreeClass`]. Must be called before any placement.
    ///
    /// # Panics
    /// Panics when the cluster is not empty, `classes` is empty,
    /// `assignment` does not cover every machine, or an index is out of
    /// range.
    pub fn set_machine_classes(&mut self, classes: Vec<MachineClass>, assignment: Vec<u16>) {
        assert!(
            self.occupied().next().is_none(),
            "machine classes must be set on an empty cluster"
        );
        assert!(!classes.is_empty(), "at least one machine class required");
        assert_eq!(
            assignment.len(),
            self.machines.len(),
            "one class index per machine"
        );
        assert!(
            assignment.iter().all(|&c| (c as usize) < classes.len()),
            "machine-class index out of range"
        );
        self.classes = classes;
        self.mclass = assignment;
        self.list_empty_machines();
    }

    /// The machine-class table ([`MachineClass::local`] alone on a
    /// homogeneous cluster). [`FreeClass::mclass`] indexes into it.
    pub fn machine_classes(&self) -> &[MachineClass] {
        &self.classes
    }

    /// The machine class a machine belongs to.
    pub fn machine_class(&self, machine: usize) -> &MachineClass {
        &self.classes[self.mclass[machine] as usize]
    }

    /// The machine-class index of a machine.
    pub fn machine_class_index(&self, machine: usize) -> u16 {
        self.mclass[machine]
    }

    /// The registry mapping application names to the interned ids tasks
    /// and residents carry.
    pub fn registry(&self) -> &Arc<AppRegistry> {
        &self.registry
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Slots per machine.
    pub fn slots_per_machine(&self) -> usize {
        self.slots_per_machine
    }

    /// Total number of VM slots.
    pub fn n_slots(&self) -> usize {
        self.machines.len() * self.slots_per_machine
    }

    /// Number of free slots.
    pub fn n_free(&self) -> usize {
        self.n_free
    }

    /// The resident of a slot, if any.
    pub fn resident(&self, vm: VmRef) -> Option<&Resident> {
        self.machines[vm.machine][vm.slot].as_ref()
    }

    /// The class key of a slot on `machine`: the packed multiset of its
    /// resident neighbours ([`ClassKey::IDLE`] when all are idle).
    fn class_key(&self, machine: usize, slot: usize) -> ClassKey {
        ClassKey::from_neighbours(
            self.machines[machine]
                .iter()
                .enumerate()
                .filter(|(s, r)| *s != slot && r.is_some())
                .map(|(_, r)| r.as_ref().unwrap().app),
        )
    }

    /// Aggregate neighbour characteristics of a slot.
    pub fn background_of(&self, vm: VmRef) -> Characteristics {
        self.class_background(self.class_key(vm.machine, vm.slot))
    }

    /// Aggregate characteristics of a neighbour class: its neighbours
    /// combined in key order, so every slot of the class agrees bit for
    /// bit (the batch schedulers' [`FreeTable`](super::FreeTable) prices
    /// classes no slot has yet).
    pub(crate) fn class_background(&self, key: ClassKey) -> Characteristics {
        key.ids().fold(Characteristics::idle(), |bg, id| {
            let c = self.chars_by_id.get(id.index()).copied();
            bg.combine(&c.unwrap_or_else(Characteristics::idle))
        })
    }

    /// The free-slot classes currently available, in deterministic
    /// (packed-key) order, without allocating.
    pub fn free_class_iter(&self) -> impl Iterator<Item = FreeClass> + '_ {
        self.free.iter().map(|set| {
            let example = self.vm_at(set.first());
            FreeClass {
                key: set.key.0,
                mclass: set.key.1,
                background: set.background,
                example,
                count: set.count,
            }
        })
    }

    /// The free-slot classes currently available (deterministic order).
    pub fn free_classes(&self) -> Vec<FreeClass> {
        self.free_class_iter().collect()
    }

    /// The class key and neighbour characteristics of one specific free
    /// slot (FIFO's diagnostic score needs the slot it already picked).
    pub fn class_of(&self, vm: VmRef) -> (ClassKey, Characteristics) {
        let key = self.class_key(vm.machine, vm.slot);
        (key, self.class_background(key))
    }

    /// The full [`FreeClass`] view of one specific free slot — what a
    /// class-aware scorer needs for a slot it already picked.
    pub fn class_view(&self, vm: VmRef) -> FreeClass {
        let (key, background) = self.class_of(vm);
        FreeClass {
            key,
            mclass: self.mclass[vm.machine],
            background,
            example: vm,
            count: 1,
        }
    }

    /// Whether any machine is entirely free (all slots idle). Cheap: the
    /// idle neighbour classes are the smallest keys `(ClassKey::IDLE, *)`
    /// and no empty class is listed. Crate-private: the dispatch
    /// [`gate`](super::gate) is its one caller.
    pub(crate) fn has_idle_machine(&self) -> bool {
        self.free
            .first()
            .is_some_and(|set| set.key.0 == ClassKey::IDLE)
    }

    /// First free slot in deterministic order, if any (FIFO placement).
    pub fn first_free(&self) -> Option<VmRef> {
        self.free
            .iter()
            .map(SlotSet::first)
            .min()
            .map(|i| self.vm_at(i))
    }

    /// The lowest free slot of one `(key, machine class)`: the `example`
    /// the class lists, and where [`apply`](super::apply) commits a pick.
    ///
    /// # Panics
    /// Panics when the class has no free slot.
    pub(crate) fn first_free_in(&self, key: ClassKey, mclass: u16) -> VmRef {
        let at = self.free.binary_search_by_key(&(key, mclass), |s| s.key);
        self.vm_at(self.free[at.expect("a listed class")].first())
    }

    fn vm_at(&self, index: usize) -> VmRef {
        VmRef {
            machine: index / self.slots_per_machine,
            slot: index % self.slots_per_machine,
        }
    }

    /// The free-index key of `vm`, and its word and bit in a class bitset.
    fn locate(&self, vm: VmRef) -> ((ClassKey, u16), usize, u64) {
        let key = (self.class_key(vm.machine, vm.slot), self.mclass[vm.machine]);
        let index = vm.machine * self.slots_per_machine + vm.slot;
        (key, index / 64, 1 << (index % 64))
    }

    fn remove_free(&mut self, vm: VmRef) {
        let (key, word, bit) = self.locate(vm);
        let found = self.free.binary_search_by_key(&key, |set| set.key);
        let listed = found.is_ok_and(|at| self.free[at].bits[word] & bit != 0);
        debug_assert!(listed, "free slot {vm:?} is not listed under {key:?}");
        let Ok(at) = found else { return };
        let set = &mut self.free[at];
        set.bits[word] &= !bit;
        set.count -= 1;
        self.n_free -= 1;
        if set.count == 0 {
            self.free.remove(at);
        } else {
            while set.bits[set.lo] == 0 {
                set.lo += 1;
            }
        }
    }

    fn add_free(&mut self, vm: VmRef) {
        let (key, word, bit) = self.locate(vm);
        let at = match self.free.binary_search_by_key(&key, |set| set.key) {
            Ok(at) => at,
            Err(at) => {
                let words = self.n_slots().div_ceil(64);
                let bits = vec![0; words];
                let background = self.class_background(key.0);
                self.free.insert(
                    at,
                    SlotSet {
                        key,
                        background,
                        bits,
                        count: 0,
                        lo: word,
                    },
                );
                at
            }
        };
        let set = &mut self.free[at];
        set.bits[word] |= bit;
        set.count += 1;
        set.lo = set.lo.min(word);
        self.n_free += 1;
    }

    /// Removes every free sibling of `changed_slot` from the free index
    /// under its *current* class key. Must run before the slot mutates;
    /// [`ClusterState::attach_free_siblings`] re-adds them afterwards
    /// under their fresh keys. This replaces the old scan over every
    /// class set with two O(slots) passes.
    fn detach_free_siblings(&mut self, machine: usize, changed_slot: usize) {
        for s in 0..self.slots_per_machine {
            if s != changed_slot && self.machines[machine][s].is_none() {
                self.remove_free(VmRef { machine, slot: s });
            }
        }
    }

    fn attach_free_siblings(&mut self, machine: usize, changed_slot: usize) {
        for s in 0..self.slots_per_machine {
            if s != changed_slot && self.machines[machine][s].is_none() {
                self.add_free(VmRef { machine, slot: s });
            }
        }
    }

    /// Places a resident into a free slot.
    ///
    /// # Panics
    /// Panics when the slot is occupied or the machine is down.
    pub fn place(&mut self, vm: VmRef, resident: Resident) {
        assert!(!self.down[vm.machine], "machine {} is down", vm.machine);
        assert!(
            self.machines[vm.machine][vm.slot].is_none(),
            "slot {vm:?} already occupied"
        );
        self.remove_free(vm);
        self.detach_free_siblings(vm.machine, vm.slot);
        self.machines[vm.machine][vm.slot] = Some(resident);
        self.attach_free_siblings(vm.machine, vm.slot);
    }

    /// Clears a slot (task completion), returning the departing resident.
    ///
    /// # Panics
    /// Panics when the slot is already free.
    pub fn clear(&mut self, vm: VmRef) -> Resident {
        assert!(
            self.machines[vm.machine][vm.slot].is_some(),
            "slot {vm:?} already free"
        );
        self.detach_free_siblings(vm.machine, vm.slot);
        let resident = self.machines[vm.machine][vm.slot].take().unwrap();
        self.add_free(vm);
        self.attach_free_siblings(vm.machine, vm.slot);
        resident
    }

    /// Looks up the canonical characteristics of an application by name.
    pub fn app_chars(&self, app: &str) -> Characteristics {
        self.registry
            .id(app)
            .map(|id| self.chars_by_id[id.index()])
            .unwrap_or_else(Characteristics::idle)
    }

    /// Whether `machine` is currently marked down.
    pub fn is_down(&self, machine: usize) -> bool {
        self.down[machine]
    }

    /// Number of machines currently marked down.
    pub fn n_down(&self) -> usize {
        self.down.iter().filter(|d| **d).count()
    }

    /// Marks a machine as down (crashed): every resident is evicted and
    /// returned (in slot order) and every free slot is delisted from the
    /// free index, so no scheduler can place onto the machine until
    /// [`ClusterState::set_up`] restores it.
    ///
    /// # Panics
    /// Panics when the machine is already down.
    pub fn set_down(&mut self, machine: usize) -> Vec<(VmRef, Resident)> {
        assert!(!self.down[machine], "machine {machine} already down");
        // Delist free slots first: class keys depend on the residents we
        // are about to evict.
        for slot in 0..self.slots_per_machine {
            if self.machines[machine][slot].is_none() {
                self.remove_free(VmRef { machine, slot });
            }
        }
        let mut evicted = Vec::new();
        for slot in 0..self.slots_per_machine {
            if let Some(resident) = self.machines[machine][slot].take() {
                evicted.push((VmRef { machine, slot }, resident));
            }
        }
        self.down[machine] = true;
        evicted
    }

    /// Marks a down machine as recovered: all its (now empty) slots
    /// rejoin the free index under the idle class.
    ///
    /// # Panics
    /// Panics when the machine is not down.
    pub fn set_up(&mut self, machine: usize) {
        assert!(self.down[machine], "machine {machine} is not down");
        self.down[machine] = false;
        for slot in 0..self.slots_per_machine {
            self.add_free(VmRef { machine, slot });
        }
    }

    /// Iterates over all occupied slots.
    pub fn occupied(&self) -> impl Iterator<Item = (VmRef, &Resident)> {
        self.machines.iter().enumerate().flat_map(|(m, slots)| {
            slots.iter().enumerate().filter_map(move |(s, r)| {
                r.as_ref().map(|res| {
                    (
                        VmRef {
                            machine: m,
                            slot: s,
                        },
                        res,
                    )
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars(rps: f64) -> Characteristics {
        Characteristics::new(rps, 0.0, 0.5, 0.05)
    }

    fn cluster() -> ClusterState {
        let mut app_chars = HashMap::new();
        app_chars.insert("a".to_string(), chars(100.0));
        app_chars.insert("b".to_string(), chars(200.0));
        ClusterState::new(3, 2, app_chars)
    }

    fn key(c: &ClusterState, names: &[&str]) -> ClassKey {
        ClassKey::from_neighbours(names.iter().map(|n| c.registry().expect_id(n)))
    }

    fn resident(c: &ClusterState, task_id: u64, name: &str) -> Resident {
        Resident {
            task_id,
            app: c.registry().expect_id(name),
        }
    }

    #[test]
    fn fresh_cluster_is_all_idle_class() {
        let c = cluster();
        assert_eq!(c.n_free(), 6);
        let classes = c.free_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].key, ClassKey::IDLE);
        assert_eq!(classes[0].count, 6);
        assert_eq!(classes[0].background, Characteristics::idle());
    }

    #[test]
    fn placing_creates_neighbour_class() {
        let mut c = cluster();
        let r = resident(&c, 1, "a");
        c.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            r,
        );
        assert_eq!(c.n_free(), 5);
        let classes = c.free_classes();
        // Classes: idle (4 slots on machines 1,2) and "a" (slot 0.1).
        assert_eq!(classes.len(), 2);
        let a_key = key(&c, &["a"]);
        let a_class = classes.iter().find(|cl| cl.key == a_key).unwrap();
        assert_eq!(a_class.count, 1);
        assert_eq!(
            a_class.example,
            VmRef {
                machine: 0,
                slot: 1
            }
        );
        assert_eq!(a_class.background.read_rps, 100.0);
    }

    #[test]
    fn clearing_restores_idle_class() {
        let mut c = cluster();
        let vm = VmRef {
            machine: 0,
            slot: 0,
        };
        let r = resident(&c, 1, "a");
        c.place(vm, r);
        let departed = c.clear(vm);
        assert_eq!(departed.app, c.registry().expect_id("a"));
        assert_eq!(c.n_free(), 6);
        assert_eq!(c.free_classes().len(), 1);
    }

    #[test]
    fn sibling_placement_updates_class() {
        let mut c = cluster();
        let ra = resident(&c, 1, "a");
        let rb = resident(&c, 2, "b");
        c.place(
            VmRef {
                machine: 1,
                slot: 0,
            },
            ra,
        );
        c.place(
            VmRef {
                machine: 1,
                slot: 1,
            },
            rb,
        );
        // Machine 1 full; only idle slots remain.
        let classes = c.free_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].key, ClassKey::IDLE);
        assert_eq!(classes[0].count, 4);
        // Clearing slot 0 exposes a free slot whose neighbour is b.
        c.clear(VmRef {
            machine: 1,
            slot: 0,
        });
        let classes = c.free_classes();
        let b_key = key(&c, &["b"]);
        let b_class = classes.iter().find(|cl| cl.key == b_key).unwrap();
        assert_eq!(b_class.background.read_rps, 200.0);
    }

    #[test]
    fn background_combines_multiple_neighbours() {
        let mut app_chars = HashMap::new();
        app_chars.insert("a".to_string(), chars(100.0));
        let mut c = ClusterState::new(1, 3, app_chars);
        let r1 = resident(&c, 1, "a");
        let r2 = resident(&c, 2, "a");
        c.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            r1,
        );
        c.place(
            VmRef {
                machine: 0,
                slot: 1,
            },
            r2,
        );
        let bg = c.background_of(VmRef {
            machine: 0,
            slot: 2,
        });
        assert_eq!(bg.read_rps, 200.0);
        // Class key packs the sorted neighbour multiset.
        let classes = c.free_classes();
        assert_eq!(classes[0].key, key(&c, &["a", "a"]));
    }

    /// Two machines hold the same three neighbours in different slot
    /// orders, and summing their read rates in slot order rounds
    /// differently (1e16 + 1 + 1 is 1e16; 1 + 1 + 1e16 is 1e16 + 2). Both
    /// free slots still view, and their class lists, one background.
    #[test]
    fn background_does_not_depend_on_slot_order() {
        let mut app_chars = HashMap::new();
        for (name, rps) in [("a", 1e16), ("b", 1.0), ("c", 1.0)] {
            app_chars.insert(name.to_string(), chars(rps));
        }
        let mut c = ClusterState::new(2, 4, app_chars);
        for (machine, names) in [(0, ["a", "b", "c"]), (1, ["c", "b", "a"])] {
            for (slot, name) in names.into_iter().enumerate() {
                let r = resident(&c, (4 * machine + slot) as u64, name);
                c.place(VmRef { machine, slot }, r);
            }
        }
        let view = |machine| {
            let bg = c.class_view(VmRef { machine, slot: 3 }).background;
            bg.read_rps.to_bits()
        };
        let listed = c.free_classes();
        assert_eq!((listed.len(), listed[0].count), (1, 2));
        assert_eq!(view(0), view(1));
        assert_eq!(listed[0].background.read_rps.to_bits(), view(1));
    }

    #[test]
    fn first_free_is_deterministic() {
        let mut c = cluster();
        assert_eq!(
            c.first_free(),
            Some(VmRef {
                machine: 0,
                slot: 0
            })
        );
        let r = resident(&c, 1, "a");
        c.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            r,
        );
        assert_eq!(
            c.first_free(),
            Some(VmRef {
                machine: 0,
                slot: 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_place_panics() {
        let mut c = cluster();
        let vm = VmRef {
            machine: 0,
            slot: 0,
        };
        let r1 = resident(&c, 1, "a");
        let r2 = resident(&c, 2, "b");
        c.place(vm, r1);
        c.place(vm, r2);
    }

    #[test]
    fn occupied_iterates_residents() {
        let mut c = cluster();
        let r = resident(&c, 9, "b");
        c.place(
            VmRef {
                machine: 2,
                slot: 1,
            },
            r,
        );
        let occ: Vec<_> = c.occupied().collect();
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].1.task_id, 9);
    }

    #[test]
    fn set_down_evicts_residents_and_hides_slots() {
        let mut c = cluster();
        let vm = VmRef {
            machine: 1,
            slot: 0,
        };
        let r = resident(&c, 7, "a");
        c.place(vm, r);
        assert_eq!(c.n_free(), 5);
        let evicted = c.set_down(1);
        assert_eq!(evicted, vec![(vm, r)]);
        assert!(c.is_down(1));
        assert_eq!(c.n_down(), 1);
        // Machine 1's slots are gone from the free index entirely.
        assert_eq!(c.n_free(), 4);
        assert!(c
            .free_class_iter()
            .all(|cl| cl.key == ClassKey::IDLE && cl.example.machine != 1));
        assert!(c.occupied().next().is_none());
        // first_free never lands on the down machine.
        for _ in 0..4 {
            let vm = c.first_free().unwrap();
            assert_ne!(vm.machine, 1);
            let r = resident(&c, 1, "a");
            c.place(vm, r);
        }
        assert_eq!(c.first_free(), None);
        assert!(!c.has_idle_machine());
    }

    #[test]
    fn set_up_restores_idle_slots() {
        let mut c = cluster();
        c.place(
            VmRef {
                machine: 1,
                slot: 1,
            },
            resident(&c, 3, "b"),
        );
        c.set_down(1);
        c.set_up(1);
        assert!(!c.is_down(1));
        assert_eq!(c.n_free(), 6);
        let classes = c.free_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].key, ClassKey::IDLE);
        assert!(c.has_idle_machine());
    }

    #[test]
    #[should_panic(expected = "is down")]
    fn placing_on_down_machine_panics() {
        let mut c = cluster();
        c.set_down(0);
        let r = resident(&c, 1, "a");
        c.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            r,
        );
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_set_down_panics() {
        let mut c = cluster();
        c.set_down(2);
        c.set_down(2);
    }

    #[test]
    fn machine_classes_split_free_index() {
        let mut c = cluster();
        c.set_machine_classes(
            vec![
                MachineClass::local(),
                MachineClass::remote("iscsi", 1.5, 0.6, 100.0),
            ],
            vec![0, 1, 0],
        );
        // Idle slots on different hardware are distinct free classes.
        let listed = c.free_classes();
        assert_eq!(listed.len(), 2);
        assert_eq!((listed[0].mclass, listed[0].count), (0, 4));
        assert_eq!((listed[1].mclass, listed[1].count), (1, 2));
        assert!(listed.iter().all(|cl| cl.key == ClassKey::IDLE));
        assert!(c.has_idle_machine());
        // first_free stays the global minimum slot.
        assert_eq!(
            c.first_free(),
            Some(VmRef {
                machine: 0,
                slot: 0
            })
        );
        assert_eq!(c.machine_class(1).name, "iscsi");
        assert_eq!(c.machine_class_index(1), 1);
        let view = c.class_view(VmRef {
            machine: 1,
            slot: 0,
        });
        assert_eq!(view.mclass, 1);
        // Placing on the remote machine keys the sibling slot by both the
        // neighbour multiset and the hardware class.
        c.place(
            VmRef {
                machine: 1,
                slot: 0,
            },
            resident(&c, 1, "a"),
        );
        let a_key = key(&c, &["a"]);
        let listed = c.free_classes();
        let a_class = listed.iter().find(|cl| cl.key == a_key).unwrap();
        assert_eq!(a_class.mclass, 1);
    }

    #[test]
    fn idle_machine_on_a_later_machine_class_counts() {
        let mut c = cluster();
        let remote = MachineClass::remote("iscsi", 1.5, 0.6, 100.0);
        c.set_machine_classes(vec![MachineClass::local(), remote], vec![0, 1, 0]);
        for machine in [0, 2] {
            c.place(VmRef { machine, slot: 0 }, resident(&c, 1, "a"));
        }
        assert!(c.has_idle_machine());
        c.place(
            VmRef {
                machine: 1,
                slot: 1,
            },
            resident(&c, 2, "b"),
        );
        assert!(!c.has_idle_machine());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not listed")]
    fn delisting_an_unlisted_slot_panics() {
        let mut c = cluster();
        let vm = VmRef {
            machine: 0,
            slot: 0,
        };
        c.remove_free(vm);
        c.remove_free(vm);
    }

    #[test]
    fn homogeneous_cluster_defaults_to_reference_class() {
        let c = cluster();
        assert_eq!(c.machine_classes().len(), 1);
        assert!(c.machine_classes()[0].is_reference());
        assert!(c.free_classes().iter().all(|cl| cl.mclass == 0));
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn machine_classes_require_empty_cluster() {
        let mut c = cluster();
        c.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            resident(&c, 1, "a"),
        );
        c.set_machine_classes(vec![MachineClass::local()], vec![0, 0, 0]);
    }

    #[test]
    fn class_of_matches_free_class_listing() {
        let mut c = cluster();
        let r = resident(&c, 1, "b");
        c.place(
            VmRef {
                machine: 0,
                slot: 0,
            },
            r,
        );
        let sibling = VmRef {
            machine: 0,
            slot: 1,
        };
        let (k, bg) = c.class_of(sibling);
        let listed = c.free_classes();
        let cl = listed.iter().find(|cl| cl.key == k).unwrap();
        assert_eq!(cl.example, sibling);
        assert_eq!(cl.background, bg);
    }
}
