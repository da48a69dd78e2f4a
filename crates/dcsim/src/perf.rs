//! The measured pair-performance table the data-center simulator replays.
//!
//! The paper's simulator "calculates the performance by using the actual
//! statistics that have been measured in the real systems". Here the
//! statistics come from the `tracon-vmsim` testbed: for every ordered
//! application pair we store the steady-state runtime and IOPS of the
//! first application when co-located with the second, plus the solo
//! values (idle neighbour).

use tracon_core::AppId;
use tracon_vmsim::PairMatrix;

/// Neighbour index meaning "the sibling VM is idle".
pub const IDLE: usize = usize::MAX;

/// Replayable pair-performance statistics.
///
/// The pair tables are flat row-major `[n x n]` arrays (`a * n + b`), so
/// the kernel's hot refresh path reads them with one multiply-add and no
/// nested-`Vec` pointer chase.
#[derive(Debug, Clone)]
pub struct PerfTable {
    /// Application names, index-aligned with the table axes.
    pub names: Vec<String>,
    solo_runtime: Vec<f64>,
    solo_iops: Vec<f64>,
    /// Row-major `[n x n]`: steady-state runtime of `a` next to a
    /// continuously running `b` at index `a * n + b`.
    runtime: Vec<f64>,
    /// Row-major `[n x n]`: steady-state IOPS of `a` next to `b`.
    iops: Vec<f64>,
    /// `id_index[id]` is the table index of the application with interned
    /// [`AppId`] `id`. Ids are assigned in lexicographic name order by
    /// every `AppRegistry` built from the same name set, so the map is an
    /// argsort of `names` computed once at construction.
    id_index: Vec<usize>,
}

/// Argsort of `names`: element `i` is the position in `names` of the
/// `i`-th name in lexicographic order — exactly the table index the
/// interned [`AppId`] `i` refers to.
fn id_order(names: &[String]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| names[a].cmp(&names[b]));
    order
}

impl PerfTable {
    /// Builds the table from a measured [`PairMatrix`], flattening its
    /// nested rows.
    pub fn from_pair_matrix(m: &PairMatrix) -> Self {
        Self::from_parts(
            m.names.clone(),
            m.solo_runtime.clone(),
            m.solo_iops.clone(),
            m.runtime.iter().flatten().copied().collect(),
            m.iops.iter().flatten().copied().collect(),
        )
    }

    /// Assembles a table from `n` names, `n` solo values each and two
    /// row-major `n x n` pair tables. Panics on any other length (the
    /// snapshot decoder checks them first, naming the field).
    pub(crate) fn from_parts(
        names: Vec<String>,
        solo_runtime: Vec<f64>,
        solo_iops: Vec<f64>,
        runtime: Vec<f64>,
        iops: Vec<f64>,
    ) -> Self {
        let n = names.len();
        assert_eq!((solo_runtime.len(), solo_iops.len()), (n, n));
        assert_eq!((runtime.len(), iops.len()), (n * n, n * n));
        PerfTable {
            id_index: id_order(&names),
            names,
            solo_runtime,
            solo_iops,
            runtime,
            iops,
        }
    }

    /// Number of applications covered.
    pub fn n_apps(&self) -> usize {
        self.names.len()
    }

    /// Table index of an interned application id — one array load. Valid
    /// for ids from any `AppRegistry` built over this table's name set
    /// (ids are assigned in lexicographic name order).
    #[inline]
    pub fn index_of_id(&self, app: AppId) -> usize {
        self.id_index[app.index()]
    }

    /// Offered storage-network load of application `a` in MB/s when each
    /// of its I/O requests moves `kb_per_io` KB across the link:
    /// `solo_iops * kb_per_io / 1024`. Zero when `kb_per_io` is zero
    /// (local storage).
    pub fn net_demand_mb(&self, a: usize, kb_per_io: f64) -> f64 {
        self.solo_iops[a] * kb_per_io / 1024.0
    }

    /// Solo runtime of application `a`.
    pub fn solo_runtime(&self, a: usize) -> f64 {
        self.solo_runtime[a]
    }

    /// Solo IOPS of application `a`.
    pub fn solo_iops(&self, a: usize) -> f64 {
        self.solo_iops[a]
    }

    /// Steady-state runtime of `a` with neighbour `b` (or [`IDLE`]).
    pub fn runtime(&self, a: usize, b: usize) -> f64 {
        if b == IDLE {
            self.solo_runtime[a]
        } else {
            self.runtime[a * self.names.len() + b]
        }
    }

    /// Steady-state IOPS of `a` with neighbour `b` (or [`IDLE`]).
    pub fn iops(&self, a: usize, b: usize) -> f64 {
        if b == IDLE {
            self.solo_iops[a]
        } else {
            self.iops[a * self.names.len() + b]
        }
    }

    /// Progress rate (fraction of the task's work completed per second)
    /// of `a` with neighbour `b`: `1 / runtime(a, b)`.
    pub fn rate(&self, a: usize, b: usize) -> f64 {
        1.0 / self.runtime(a, b).max(1e-9)
    }

    /// Slowdown of `a` under neighbour `b` relative to running alone.
    pub fn slowdown(&self, a: usize, b: usize) -> f64 {
        self.runtime(a, b) / self.solo_runtime[a].max(1e-9)
    }

    /// The worst pairwise slowdown in the table (diagnostics).
    pub fn max_slowdown(&self) -> f64 {
        let n = self.n_apps();
        let mut worst = 1.0f64;
        for a in 0..n {
            for b in 0..n {
                worst = worst.max(self.slowdown(a, b));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic 2-app table: app 0 is I/O-heavy (bad with itself),
    /// app 1 is CPU-ish (benign).
    pub(crate) fn toy_table() -> PerfTable {
        PerfTable::from_parts(
            vec!["io".into(), "cpu".into()],
            vec![100.0, 100.0],
            vec![200.0, 10.0],
            vec![800.0, 120.0, 110.0, 200.0],
            vec![25.0, 170.0, 9.0, 5.0],
        )
    }

    #[test]
    fn idle_neighbour_gives_solo_values() {
        let t = toy_table();
        assert_eq!(t.runtime(0, IDLE), 100.0);
        assert_eq!(t.iops(0, IDLE), 200.0);
        assert!((t.rate(0, IDLE) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn pair_lookup() {
        let t = toy_table();
        assert_eq!(t.runtime(0, 0), 800.0);
        assert_eq!(t.runtime(0, 1), 120.0);
        assert_eq!(t.slowdown(0, 0), 8.0);
        assert!((t.max_slowdown() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn interned_ids_map_to_table_indices() {
        use tracon_core::AppRegistry;
        let t = toy_table();
        // "cpu" < "io" lexicographically, so AppId(0) = cpu, AppId(1) = io
        // even though the table lists io first.
        let reg = AppRegistry::from_names(t.names.iter().cloned());
        for name in &t.names {
            let id = reg.expect_id(name);
            let by_name = t.names.iter().position(|n| n == name).unwrap();
            assert_eq!(t.index_of_id(id), by_name);
        }
    }

    #[test]
    fn net_demand_scales_with_io_size() {
        let t = toy_table();
        assert_eq!(t.net_demand_mb(0, 0.0), 0.0);
        // 200 IOPS x 512 KB = 100 MB/s.
        assert!((t.net_demand_mb(0, 512.0) - 100.0).abs() < 1e-12);
    }
}
