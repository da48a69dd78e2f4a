//! The co-run engine's fixed point allocates nothing: its guests, its
//! solve's buffers and the disk's memo are fixed-size arrays for the
//! run's guest count, so a run's heap traffic is its outcome's vectors
//! and does not grow with the number of steps. The profiling campaign is
//! 1 205 such runs of thousands of steps each, and a fixed point that
//! built vectors per round was once measured 45 % slower.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tracon_vmsim::{AppModel, Benchmark, Engine, HostConfig};

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

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one run of `video` against `neighbours` endless copies
/// of `dedup`, all at `time_scale`; the run's step count scales with it.
fn run_allocations(neighbours: usize, time_scale: f64) -> u64 {
    let engine = Engine::new(HostConfig::testbed());
    let video = Benchmark::Video.model().time_scaled(time_scale);
    let dedup = Benchmark::Dedup
        .model()
        .time_scaled(time_scale)
        .as_endless();
    let mut guests: Vec<&AppModel> = vec![&video];
    guests.resize(neighbours + 1, &dedup);
    allocations_in(|| {
        if neighbours == 1 {
            assert!(engine.co_run(&video, &dedup, 7).finished[0]);
        } else {
            assert!(engine.run(&guests, 7).finished[0]);
        }
    })
}

#[test]
fn allocations_do_not_grow_with_steps() {
    for neighbours in [1, 3] {
        let short = run_allocations(neighbours, 0.1);
        let long = run_allocations(neighbours, 0.4);
        assert!(short > 0, "the counter is not counting");
        assert_eq!(
            short,
            long,
            "{} guests: a four times longer run allocated more",
            neighbours + 1
        );
    }
}
