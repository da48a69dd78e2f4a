//! k-nearest-neighbour inverse-distance regression.
//!
//! TRACON's weighted-mean model (WMM) predicts a response by finding the
//! three nearest profiled data points in PCA space and averaging their
//! responses weighted by the reciprocal of the Euclidean distance.
//!
//! Training sets repeat points: the monitor's rolling window holds
//! hundreds of observations of a handful of configurations. The
//! regressor therefore stores each distinct point (equal coordinate bits)
//! once, with its members' training indices and responses, and a query
//! measures one distance per distinct point. The answer is the one a scan
//! over every individual training point gives, bit for bit: the `k`
//! nearest individuals ordered by (distance, index), and on an exact hit
//! the mean of every coincident response, summed in index order.

use crate::matrix::euclidean_distance;

/// Largest `k` a regressor accepts: a query keeps its `k` nearest
/// individuals in a buffer on the stack.
pub const MAX_K: usize = 16;

/// Distance below which a query counts as an exact hit.
const HIT: f64 = 1e-12;

/// A k-NN inverse-distance-weighted regressor over fixed training points.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    dim: usize,
    k: usize,
    /// Distinct points' coordinates, `dim` per point.
    coords: Vec<f64>,
    /// Point `p`'s members are `members[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
    /// Members' (training index, response), grouped by point, each group
    /// in index order.
    members: Vec<(u32, f64)>,
    /// Per point, its members' responses summed in index order.
    sums: Vec<f64>,
    /// Per training index, its (point, response): the order an exact hit
    /// on several distinct points sums in.
    rows: Vec<(u32, f64)>,
}

impl KnnRegressor {
    /// Builds a regressor over `points` (feature rows) and their `responses`.
    ///
    /// # Panics
    /// Panics when inputs are empty, mismatched or ragged, or when `k` is
    /// 0 or above [`MAX_K`].
    pub fn new<P: AsRef<[f64]>>(points: &[P], responses: &[f64], k: usize) -> Self {
        assert!(!points.is_empty(), "knn with no training points");
        assert_eq!(points.len(), responses.len(), "points/responses mismatch");
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        let dim = points[0].as_ref().len();
        assert!(
            points.iter().all(|p| p.as_ref().len() == dim),
            "ragged training points"
        );
        let n = u32::try_from(points.len()).expect("knn training set exceeds u32 indices");
        let mut knn = KnnRegressor {
            dim,
            k,
            coords: Vec::new(),
            starts: vec![0],
            members: vec![(0, 0.0); points.len()],
            sums: Vec::new(),
            rows: Vec::with_capacity(points.len()),
        };
        // Each row's point, found through an open-addressed table of point
        // ids keyed on the coordinates' bits, and each point's count.
        let mask = (2 * points.len()).next_power_of_two() - 1;
        let mut table = vec![u32::MAX; mask + 1];
        for (r, &y) in points.iter().zip(responses) {
            let r = r.as_ref();
            let bits = || r.iter().map(|x| x.to_bits());
            let hash = bits().fold(0u64, |h, b| {
                (h.rotate_left(5) ^ b).wrapping_mul(0x517c_c1b7_2722_0a95)
            });
            let mut slot = hash as usize & mask;
            let point = loop {
                let p = table[slot];
                if p == u32::MAX {
                    table[slot] = knn.sums.len() as u32;
                    knn.coords.extend_from_slice(r);
                    knn.sums.push(0.0);
                    knn.starts.push(0);
                    break knn.sums.len() - 1;
                }
                if bits().eq(knn.point(p as usize).iter().map(|x| x.to_bits())) {
                    break p as usize;
                }
                slot = (slot + 1) & mask;
            };
            knn.starts[point + 1] += 1;
            knn.rows.push((point as u32, y));
        }
        // Lay the members out point by point, each point's in index order.
        for p in 1..knn.starts.len() {
            knn.starts[p] += knn.starts[p - 1];
        }
        debug_assert_eq!(knn.starts.last(), Some(&n));
        let mut fill = knn.starts.clone();
        for (i, &(p, y)) in knn.rows.iter().enumerate() {
            let p = p as usize;
            knn.members[fill[p] as usize] = (i as u32, y);
            fill[p] += 1;
            knn.sums[p] += y;
        }
        knn
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no training points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn point(&self, p: usize) -> &[f64] {
        &self.coords[p * self.dim..(p + 1) * self.dim]
    }

    fn group(&self, p: usize) -> &[(u32, f64)] {
        &self.members[self.starts[p] as usize..self.starts[p + 1] as usize]
    }

    /// Predicts the response at `query` as the inverse-distance-weighted
    /// mean of the `k` nearest training points. An exact match (distance
    /// below 1e-12) returns the mean response of every coincident point.
    pub fn predict(&self, query: &[f64]) -> f64 {
        let k = self.k.min(self.len());
        // The k nearest individuals so far, ordered by (distance, index).
        let mut nearest = [(0.0, 0u32, 0.0); MAX_K];
        let mut held = 0;
        let (mut hits, mut hit) = (0, 0);
        for p in 0..self.sums.len() {
            let d = euclidean_distance(query, self.point(p));
            if d < HIT {
                hits += 1;
                hit = p;
            }
            if held == k && d > nearest[k - 1].0 {
                continue;
            }
            // Members come in index order: once one misses, all later do.
            for &(i, y) in self.group(p) {
                if held == k {
                    if !closer((d, i), nearest[k - 1]) {
                        break;
                    }
                    held -= 1;
                }
                let mut at = held;
                while at > 0 && closer((d, i), nearest[at - 1]) {
                    nearest[at] = nearest[at - 1];
                    at -= 1;
                }
                nearest[at] = (d, i, y);
                held += 1;
            }
        }
        // Exact hits: avoid division by zero and return the mean response
        // of *all* coincident training points (repeated observations of
        // the same configuration must average, not pick one arbitrarily).
        if hits == 1 {
            return self.sums[hit] / self.group(hit).len() as f64;
        }
        if hits > 1 {
            // Several distinct points within the hit distance: their
            // members merge by index.
            let mut sum = 0.0;
            let mut count = 0usize;
            for &(p, y) in &self.rows {
                if euclidean_distance(query, self.point(p as usize)) < HIT {
                    sum += y;
                    count += 1;
                }
            }
            return sum / count as f64;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for &(d, _, y) in &nearest[..k] {
            let w = 1.0 / d;
            num += w * y;
            den += w;
        }
        num / den
    }
}

/// Whether an individual at (distance, index) `a` is nearer than `b` in
/// the order the full scan keeps: by distance, ties to the lower index.
fn closer(a: (f64, u32), b: (f64, u32, f64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_returns_stored_response() {
        let knn = KnnRegressor::new(
            &[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]],
            &[10.0, 20.0, 30.0],
            3,
        );
        assert_eq!(knn.predict(&[1.0, 1.0]), 20.0);
    }

    #[test]
    fn duplicate_points_average_on_exact_match() {
        let knn = KnnRegressor::new(
            &[vec![1.0], vec![5.0], vec![1.0], vec![1.0]],
            &[10.0, 99.0, 20.0, 30.0],
            3,
        );
        assert!((knn.predict(&[1.0]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn interpolates_between_neighbours() {
        let knn = KnnRegressor::new(&[vec![0.0], vec![2.0]], &[0.0, 2.0], 2);
        // Midpoint: equal weights -> mean response.
        let y = knn.predict(&[1.0]);
        assert!((y - 1.0).abs() < 1e-12);
        // Closer to the right point -> pulled toward 2.0.
        let y = knn.predict(&[1.5]);
        assert!(y > 1.0 && y < 2.0);
    }

    #[test]
    fn k_larger_than_data_is_clamped() {
        let knn = KnnRegressor::new(&[vec![0.0], vec![1.0]], &[4.0, 8.0], 10);
        let y = knn.predict(&[0.5]);
        assert!((y - 6.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_bounded_by_neighbour_responses() {
        let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let rs: Vec<f64> = (0..20).map(|i| (i * i) as f64).collect();
        let knn = KnnRegressor::new(&pts, &rs, 3);
        let y = knn.predict(&[7.3]);
        // Neighbours are 7, 8, 6 -> responses 49, 64, 36.
        assert!((36.0..=64.0).contains(&y), "y = {y}");
    }

    #[test]
    fn weights_favor_nearest() {
        let knn = KnnRegressor::new(&[vec![0.0], vec![10.0], vec![11.0]], &[100.0, 0.0, 0.0], 3);
        // Query at 1.0 is far closer to the 100.0 point.
        let y = knn.predict(&[1.0]);
        assert!(y > 80.0, "y = {y}");
    }

    #[test]
    #[should_panic(expected = "knn with no training points")]
    fn empty_training_panics() {
        KnnRegressor::new::<Vec<f64>>(&[], &[], 3);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_panics() {
        KnnRegressor::new(&[[0.0]], &[1.0], MAX_K + 1);
    }
}
