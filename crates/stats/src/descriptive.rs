//! Descriptive statistics: means, variances, percentiles, z-score
//! normalization. These feed both the modeling pipeline (feature scaling
//! for PCA/k-NN) and the experiment drivers (error bars in the figures).

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n-1 denominator); 0.0 when fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Population variance (n denominator); 0.0 for an empty slice.
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Minimum; returns +inf for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum; returns -inf for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Percentile via linear interpolation between order statistics.
/// `p` is in `[0, 100]`.
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Per-column mean and standard deviation of a design matrix given as rows.
/// Columns with zero spread get a standard deviation of 1.0 so that scaling
/// is always well defined.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    /// Per-column means.
    pub means: Vec<f64>,
    /// Per-column standard deviations (>= tiny positive).
    pub stds: Vec<f64>,
}

impl Scaler {
    /// Fits a scaler on the given rows.
    ///
    /// # Panics
    /// Panics when `rows` is empty or ragged.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "Scaler::fit on empty data");
        let d = rows[0].as_ref().len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; d];
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), d, "ragged rows in Scaler::fit");
            for (m, x) in means.iter_mut().zip(r) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for r in rows {
            for ((s, x), m) in stds.iter_mut().zip(r.as_ref()).zip(&means) {
                *s += (x - m) * (x - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n.max(1.0)).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Scaler { means, stds }
    }

    /// Applies z-score scaling to a single row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len());
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((x, m), s)| (x - m) / s)
            .collect()
    }

    /// Applies the inverse transform to a scaled row.
    pub fn inverse_transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len());
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((z, m), s)| z * s + m)
            .collect()
    }
}

/// Summary of a sample: used for figure error bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

/// Computes a [`Summary`] of a sample (empty samples produce a zeroed
/// summary with infinite min / -infinite max clamped to 0).
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary {
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        };
    }
    Summary {
        mean: mean(xs),
        std_dev: std_dev(xs),
        min: min(xs),
        max: max(xs),
        n: xs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((population_variance(&xs) - 4.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        let s = summarize(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert!((median(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn scaler_roundtrip() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let sc = Scaler::fit(&rows);
        let z = sc.transform(&[3.0, 30.0]);
        assert!(z[0].abs() < 1e-12 && z[1].abs() < 1e-12, "center maps to 0");
        let back = sc.inverse_transform(&z);
        assert!((back[0] - 3.0).abs() < 1e-12);
        assert!((back[1] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn scaler_constant_column_does_not_blow_up() {
        let rows = vec![vec![7.0, 1.0], vec![7.0, 2.0], vec![7.0, 3.0]];
        let sc = Scaler::fit(&rows);
        let z = sc.transform(&[7.0, 2.0]);
        assert!(z[0].abs() < 1e-12);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn summary_fields() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
