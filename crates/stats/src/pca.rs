//! Principal component analysis.
//!
//! TRACON's weighted-mean model (WMM) projects the 8-dimensional joint
//! characteristics vector onto the first four principal components before
//! running nearest-neighbour interpolation — exactly the construction in
//! Koh et al. (ISPASS'07) that the paper cites.

use crate::descriptive::Scaler;
use crate::eigen::sym_eigen;
use crate::matrix::Matrix;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    scaler: Scaler,
    /// Component directions as columns (d x k).
    components: Matrix,
    /// Eigenvalues (variance explained) per retained component.
    explained: Vec<f64>,
    /// Total variance across all original dimensions.
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA on `rows`, retaining the top `k` components.
    ///
    /// Data are centered and scaled to unit variance first so that
    /// differently-scaled characteristics (requests/s vs CPU fraction)
    /// contribute comparably.
    ///
    /// # Panics
    /// Panics when `rows` is empty, ragged, or `k` exceeds the dimension.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R], k: usize) -> Self {
        assert!(!rows.is_empty(), "Pca::fit on empty data");
        let d = rows[0].as_ref().len();
        assert!(k >= 1 && k <= d, "k={k} out of range for dimension {d}");
        let scaler = Scaler::fit(rows);
        let mut x = Matrix::zeros(rows.len(), d);
        for (i, r) in rows.iter().enumerate() {
            let scaled = r.as_ref().iter().zip(&scaler.means).zip(&scaler.stds);
            for (j, ((v, m), s)) in scaled.enumerate() {
                x[(i, j)] = (v - m) / s;
            }
        }
        // Covariance of the scaled data (population normalization matches the
        // scaler, which also uses n).
        let mut cov = x.gram();
        cov.scale_in_place(1.0 / rows.len() as f64);
        let eig = sym_eigen(&cov);
        let total_variance: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();
        let mut components = Matrix::zeros(d, k);
        for c in 0..k {
            for r in 0..d {
                components[(r, c)] = eig.vectors[(r, c)];
            }
        }
        let explained = eig.values[..k].to_vec();
        Pca {
            scaler,
            components,
            explained,
            total_variance,
        }
    }

    /// Projects a raw (unscaled) observation onto the retained components.
    pub fn project(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.components.cols()];
        self.project_into(row, &mut out);
        out
    }

    /// [`Pca::project`] into `out`, which must hold one zeroed slot per
    /// retained component; allocates nothing.
    pub fn project_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.scaler.means.len());
        assert_eq!(out.len(), self.components.cols());
        let scaled = row.iter().zip(&self.scaler.means).zip(&self.scaler.stds);
        for (i, ((x, m), s)) in scaled.enumerate() {
            let zi = (x - m) / s;
            if zi == 0.0 {
                continue;
            }
            for (c, o) in out.iter_mut().enumerate() {
                *o += zi * self.components[(i, c)];
            }
        }
    }

    /// Variance explained by each retained component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained
    }

    /// Fraction of total variance captured by the retained components,
    /// in `[0, 1]`.
    pub fn explained_variance_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 0.0;
        }
        self.explained.iter().map(|v| v.max(0.0)).sum::<f64>() / self.total_variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::ChaCha12;

    #[test]
    fn recovers_dominant_direction() {
        // Points along the line y = 2x with small noise: PC1 should align
        // with (1, 2) after scaling (which makes it (1,1)/sqrt2 direction).
        let mut rng = ChaCha12::seed_from_u64(7);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let t: f64 = rng.range_f64(-1.0, 1.0);
                let noise: f64 = rng.range_f64(-0.01, 0.01);
                vec![t, 2.0 * t + noise]
            })
            .collect();
        let pca = Pca::fit(&rows, 1);
        assert!(pca.explained_variance_ratio() > 0.99);
        // Projection of two points far apart along the line differ strongly.
        let p1 = pca.project(&[1.0, 2.0]);
        let p2 = pca.project(&[-1.0, -2.0]);
        assert!((p1[0] - p2[0]).abs() > 1.0);
    }

    #[test]
    fn full_rank_projection_preserves_distances() {
        // With k = d on scaled data, PCA is an orthogonal transform of the
        // z-scores, so pairwise distances in z-space are preserved.
        let rows = vec![
            vec![1.0, 5.0, 2.0],
            vec![2.0, 3.0, 8.0],
            vec![0.5, 9.0, 1.0],
            vec![4.0, 1.0, 3.0],
            vec![2.5, 4.0, 4.0],
        ];
        let pca = Pca::fit(&rows, 3);
        let sc = Scaler::fit(&rows);
        let za = sc.transform(&rows[0]);
        let zb = sc.transform(&rows[3]);
        let dz = crate::matrix::euclidean_distance(&za, &zb);
        let pa = pca.project(&rows[0]);
        let pb = pca.project(&rows[3]);
        let dp = crate::matrix::euclidean_distance(&pa, &pb);
        assert!((dz - dp).abs() < 1e-8, "dz={dz} dp={dp}");
        assert!((pca.explained_variance_ratio() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn explained_variance_sorted() {
        let mut rng = ChaCha12::seed_from_u64(42);
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..4).map(|_| rng.range_f64(0.0, 1.0)).collect())
            .collect();
        let pca = Pca::fit(&rows, 4);
        let ev = pca.explained_variance();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn projection_repeats_the_scaled_row_bits() {
        // The projection as it was written over a scaled copy of the row.
        fn reference(pca: &Pca, row: &[f64]) -> Vec<f64> {
            let z = pca.scaler.transform(row);
            let mut out = vec![0.0; pca.components.cols()];
            for (i, zi) in z.iter().enumerate() {
                if *zi == 0.0 {
                    continue;
                }
                for (c, o) in out.iter_mut().enumerate() {
                    *o += zi * pca.components[(i, c)];
                }
            }
            out
        }
        let mut rng = ChaCha12::seed_from_u64(5);
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..6).map(|_| rng.range_f64(-1.0, 3.0)).collect())
            .collect();
        // A constant column scales to exact zeros, which the loop skips.
        for r in &mut rows {
            r[2] = 0.5;
        }
        let pca = Pca::fit(&rows, 4);
        for r in &rows {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pca.project(r)), bits(&reference(&pca, r)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_too_large_panics() {
        Pca::fit(&[vec![1.0, 2.0]], 3);
    }
}
