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
//! Every free slot of a machine has the same class: the multiset of that
//! machine's residents. So the index keeps one class id per machine (a
//! full machine has none) and moves a machine's free slots as a whole.
//! Classes are interned on first use with stable ids and are never
//! freed; each holds a bitset over the global slot index `machine *
//! slots_per_machine + slot` (whose order is [`VmRef`]'s) and the index
//! of its lowest non-zero word. The listing is the ids of the non-empty
//! classes, sorted by key. `place` looks the machine's next class up in
//! a transition table, `gain[c × app]`, which [`ClassKey`] fills in on a
//! transition's first use; `clear` walks it from the idle class over the
//! residents left behind. Each flips O(slots per machine) bits; a
//! class's first free slot is O(1) and [`ClusterState::first_free`] is
//! O(classes).
//!
//! A class's background is a function of its key alone: the neighbours'
//! characteristics combined in key order, cached when the class is
//! listed. Which machine holds the class's lowest slot, and in which slot
//! order its neighbours sit, does not change it.

use crate::characteristics::Characteristics;
use crate::interner::{AppId, AppRegistry, ClassKey, MAX_NEIGHBOURS};
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
    /// Aggregate characteristics of the neighbours (idle = zeros).
    pub background: Characteristics,
    /// A representative free slot of this class.
    pub example: VmRef,
    /// How many free slots belong to the class.
    pub count: usize,
}

/// One interned neighbour class and its free slots.
#[derive(Debug, Clone)]
struct SlotSet {
    key: ClassKey,
    /// [`ClusterState::class_background`] of the key.
    background: Characteristics,
    /// One bit per global slot index.
    bits: Vec<u64>,
    count: usize,
    /// Index of the lowest non-zero word of `bits` while `count > 0`.
    lo: usize,
}

impl SlotSet {
    fn first(&self) -> usize {
        self.lo * 64 + self.bits[self.lo].trailing_zeros() as usize
    }
}

/// A class id of no class: a full machine's, or a filled-up transition.
const NONE: u32 = u32::MAX;

/// A transition not computed yet.
const UNKNOWN: u32 = u32::MAX - 1;

/// Id of [`ClassKey::IDLE`], interned first.
const IDLE: u32 = 0;

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
    /// Every class met so far, indexed by its stable id; never freed.
    classes: Vec<SlotSet>,
    /// Ids of the classes with a free slot, sorted by key. The order over
    /// packed keys equals the legacy joined-string order, so
    /// first-minimum tie-breaks are unchanged.
    listed: Vec<u32>,
    /// Class id of each machine's free slots ([`NONE`] when it is full).
    machine_class: Vec<u32>,
    /// `gain[c * n_apps + app]`: the class a machine of class `c` moves
    /// to when it takes a task of `app` ([`NONE`] when that fills it,
    /// [`UNKNOWN`] until first used).
    gain: Vec<u32>,
    /// Total free slots over every class.
    n_free: usize,
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
            classes: Vec::new(),
            listed: Vec::new(),
            machine_class: vec![IDLE; n_machines],
            gain: Vec::new(),
            n_free: 0,
        };
        assert_eq!(state.intern(ClassKey::IDLE), IDLE);
        for machine in 0..n_machines {
            state.attach(machine);
        }
        state
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
        self.listed.iter().map(|&c| {
            let set = &self.classes[c as usize];
            let example = self.vm_at(set.first());
            FreeClass {
                key: set.key,
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

    /// Whether any machine is entirely free (all slots idle). Cheap: the
    /// idle neighbour class is the smallest key and no empty class is
    /// listed. Crate-private: the dispatch
    /// [`gate`](super::gate) is its one caller.
    pub(crate) fn has_idle_machine(&self) -> bool {
        self.listed.first() == Some(&IDLE)
    }

    /// First free slot in deterministic order, if any (FIFO placement).
    pub fn first_free(&self) -> Option<VmRef> {
        self.listed
            .iter()
            .map(|&c| self.classes[c as usize].first())
            .min()
            .map(|i| self.vm_at(i))
    }

    /// The lowest free slot of one class: the `example` the class lists,
    /// and where [`apply`](super::apply) commits a pick.
    ///
    /// # Panics
    /// Panics when the class has no free slot.
    pub(crate) fn first_free_in(&self, key: ClassKey) -> VmRef {
        let at = self.listing_position(key).expect("a listed class");
        self.vm_at(self.classes[self.listed[at] as usize].first())
    }

    /// Where `key` sits in the listing, or where it would go.
    fn listing_position(&self, key: ClassKey) -> Result<usize, usize> {
        self.listed
            .binary_search_by_key(&key, |&c| self.classes[c as usize].key)
    }

    fn vm_at(&self, index: usize) -> VmRef {
        VmRef {
            machine: index / self.slots_per_machine,
            slot: index % self.slots_per_machine,
        }
    }

    /// The id of the class `key`, interned on first use.
    fn intern(&mut self, key: ClassKey) -> u32 {
        if let Some(c) = self.classes.iter().position(|set| set.key == key) {
            return c as u32;
        }
        let background = self.class_background(key);
        self.classes.push(SlotSet {
            key,
            background,
            bits: vec![0; self.n_slots().div_ceil(64)],
            count: 0,
            lo: 0,
        });
        let n_apps = self.chars_by_id.len();
        self.gain.resize(self.gain.len() + n_apps, UNKNOWN);
        (self.classes.len() - 1) as u32
    }

    /// The class a machine of class `c` moves to when it takes a task of
    /// `app` ([`NONE`] when that fills it).
    fn gain(&mut self, c: u32, app: AppId) -> u32 {
        let at = c as usize * self.chars_by_id.len() + app.index();
        if self.gain[at] == UNKNOWN {
            let key = self.classes[c as usize].key;
            self.gain[at] = if key.count() + 1 == self.slots_per_machine {
                NONE
            } else {
                self.intern(key.with(app))
            };
        }
        self.gain[at]
    }

    /// The free slots of `machine` as `(word, mask)` pairs over a class
    /// bitset (a machine's slots span at most two words; a pair may have
    /// an empty mask), and how many there are.
    fn free_bits(&self, machine: usize) -> ([(usize, u64); 2], usize) {
        let mut mask = 0u128;
        for (slot, r) in self.machines[machine].iter().enumerate() {
            if r.is_none() {
                mask |= 1 << slot;
            }
        }
        let index = machine * self.slots_per_machine;
        let (w, mask) = (index / 64, mask << (index % 64));
        let n = mask.count_ones() as usize;
        ([(w, mask as u64), (w + 1, (mask >> 64) as u64)], n)
    }

    /// Takes `machine`'s free slots out of its class. Must run before a
    /// slot of the machine mutates; [`ClusterState::attach`] puts them
    /// back under the machine's next class afterwards.
    fn detach(&mut self, machine: usize) {
        let c = self.machine_class[machine];
        let (words, n) = self.free_bits(machine);
        if n == 0 {
            return;
        }
        let set = &mut self.classes[c as usize];
        for (w, mask) in words.into_iter().filter(|&(_, m)| m != 0) {
            debug_assert_eq!(
                set.bits[w] & mask,
                mask,
                "machine {machine}'s free slots unlisted"
            );
            set.bits[w] &= !mask;
        }
        set.count -= n;
        self.n_free -= n;
        if set.count == 0 {
            let key = set.key;
            let at = self
                .listing_position(key)
                .expect("a non-empty class is listed");
            self.listed.remove(at);
        } else {
            while set.bits[set.lo] == 0 {
                set.lo += 1;
            }
        }
    }

    /// Puts `machine`'s free slots under its class.
    fn attach(&mut self, machine: usize) {
        let c = self.machine_class[machine];
        let (words, n) = self.free_bits(machine);
        if n == 0 {
            return;
        }
        let set = &mut self.classes[c as usize];
        let was_empty = set.count == 0;
        if was_empty {
            set.lo = usize::MAX;
        }
        for (w, mask) in words.into_iter().filter(|&(_, m)| m != 0) {
            set.bits[w] |= mask;
            set.lo = set.lo.min(w);
        }
        set.count += n;
        self.n_free += n;
        if was_empty {
            let key = set.key;
            let at = self
                .listing_position(key)
                .expect_err("an empty class is unlisted");
            self.listed.insert(at, c);
        }
    }

    /// Places a resident into a free slot.
    ///
    /// # Panics
    /// Panics when the slot is occupied.
    pub fn place(&mut self, vm: VmRef, resident: Resident) {
        assert!(
            self.machines[vm.machine][vm.slot].is_none(),
            "slot {vm:?} already occupied"
        );
        let next = self.gain(self.machine_class[vm.machine], resident.app);
        self.detach(vm.machine);
        self.machines[vm.machine][vm.slot] = Some(resident);
        self.machine_class[vm.machine] = next;
        self.attach(vm.machine);
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
        self.detach(vm.machine);
        let resident = self.machines[vm.machine][vm.slot].take().unwrap();
        // The residents left behind, added to an idle machine one by one,
        // name the next class (a full machine has none to start from).
        let mut next = IDLE;
        for slot in 0..self.slots_per_machine {
            if let Some(r) = self.machines[vm.machine][slot] {
                next = self.gain(next, r.app);
            }
        }
        self.machine_class[vm.machine] = next;
        self.attach(vm.machine);
        resident
    }

    /// Looks up the canonical characteristics of an application by name.
    pub fn app_chars(&self, app: &str) -> Characteristics {
        self.registry
            .id(app)
            .map(|id| self.chars_by_id[id.index()])
            .unwrap_or_else(Characteristics::idle)
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
            let bg = c.background_of(VmRef { machine, slot: 3 });
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unlisted")]
    fn detaching_a_detached_machine_panics() {
        let mut c = cluster();
        c.detach(0);
        c.detach(0);
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
