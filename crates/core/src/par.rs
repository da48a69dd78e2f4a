//! Deterministic fork-join helpers built on `std::thread::scope`.
//!
//! The experiment sweeps (`dcsim`'s Fig 8 grid and the Figs 9-12 dynamic
//! sweep) are embarrassingly parallel: every job is a pure function of its
//! inputs, and results are reduced in job-index order, so output is
//! bit-identical for any worker count. A few scoped threads pulling from a
//! shared work queue cover that without adding a dependency to the
//! workspace.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override (0 = unset). Tests use this to pin
/// the pool to one thread and assert results do not change.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for subsequent [`map`] calls; `None`
/// restores the environment/default behaviour. Affects performance only —
/// results are identical for every worker count by construction.
pub fn override_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count [`map`] will use: the [`override_threads`] value if
/// set, else `TRACON_NUM_THREADS` from the environment, else the machine's
/// available parallelism.
pub fn max_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("TRACON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a scoped worker pool and returns the
/// results **in input order**. Runs inline when there is one worker or at
/// most one item.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = max_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Reverse so pop() hands out jobs in input order (first job first).
    let jobs: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    // Each result goes straight into its slot, allocated once on this
    // thread: per-worker result vectors, grown in the workers' allocator
    // arenas, left the process's peak RSS higher after the pool.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let (jobs, slots_ref, f) = (&jobs, &slots, &f);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || loop {
                    let job = jobs.lock().expect("parallel queue poisoned").pop();
                    let Some((i, item)) = job else { return };
                    let r = f(item);
                    slots_ref.lock().expect("parallel results poisoned")[i] = Some(r);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
    slots
        .into_inner()
        .expect("parallel results poisoned")
        .into_iter()
        .map(|s| s.expect("parallel worker dropped a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let out = map((0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        assert_eq!(map(vec![7], |i: i32| i + 1), vec![8]);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let serial = map((0..64).collect(), |i: u64| i.wrapping_mul(0x9E37_79B9));
        for workers in [1, 2, 3, 8] {
            override_threads(Some(workers));
            let out = map((0..64).collect(), |i: u64| i.wrapping_mul(0x9E37_79B9));
            assert_eq!(out, serial);
        }
        override_threads(None);
    }
}
