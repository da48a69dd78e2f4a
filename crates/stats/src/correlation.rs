//! Correlation measures: Pearson's r and Spearman's rank correlation.
//!
//! The experiment analysis uses Spearman's rho to quantify how well the
//! interference models preserve the *ordering* of co-location choices —
//! the property the schedulers actually consume. A model can have a
//! sizable absolute error yet still schedule perfectly if its rankings
//! are right.

use crate::descriptive::{mean, std_dev};

/// Pearson's product-moment correlation coefficient in `[-1, 1]`.
/// Returns 0.0 when either sample is constant or shorter than 2.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx < 1e-300 || sy < 1e-300 {
        return 0.0;
    }
    let cov: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (xs.len() - 1) as f64;
    (cov / (sx * sy)).clamp(-1.0, 1.0)
}

/// Fractional ranks (average ranks for ties), 1-based.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the tie run [i, j).
        let mut j = i + 1;
        while j < n && (xs[order[j]] - xs[order[i]]).abs() < 1e-300 {
            j += 1;
        }
        // Average rank of the run (1-based).
        let avg = (i + 1 + j) as f64 / 2.0;
        for &idx in &order[i..j] {
            out[idx] = avg;
        }
        i = j;
    }
    out
}

/// Spearman's rank correlation coefficient in `[-1, 1]` (Pearson on the
/// fractional ranks; handles ties by average ranking).
///
/// # Panics
/// Panics when the slices differ in length.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    pearson(&ranks(xs), &ranks(ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[5.0], &[2.0]), 0.0);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let xs = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| f64::exp(*x)).collect();
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_reversed_is_minus_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [9.0, 7.0, 4.0, 1.0];
        assert!((spearman(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        // Ranks of ties are averaged.
        let r = ranks(&xs);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_uncorrelated_near_zero() {
        use crate::prng::ChaCha12;
        let mut rng = ChaCha12::seed_from_u64(4);
        let xs: Vec<f64> = (0..2000).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let ys: Vec<f64> = (0..2000).map(|_| rng.range_f64(0.0, 1.0)).collect();
        assert!(spearman(&xs, &ys).abs() < 0.08);
    }
}
