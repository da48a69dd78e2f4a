//! Ordinary least squares regression with fit-quality metrics.
//!
//! Used directly by TRACON's linear interference model (LM) and as the
//! inner solver of the stepwise AIC search.

use crate::decomp::{lstsq, DecompError};
use crate::matrix::{dot, Matrix};

/// A fitted ordinary-least-squares model `y ≈ X beta`.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Fitted coefficients, one per design-matrix column.
    pub coefficients: Vec<f64>,
    /// Sum of squared errors on the training data.
    pub sse: f64,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
    /// Number of observations used.
    pub n: usize,
}

impl OlsFit {
    /// Predicts the response for one design row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        dot(&self.coefficients, row)
    }
}

/// Fits `y ≈ X beta` by least squares.
///
/// # Errors
/// Propagates decomposition failures ([`DecompError`]).
///
/// # Panics
/// Panics if `y.len() != x.rows()`.
pub fn fit(x: &Matrix, y: &[f64]) -> Result<OlsFit, DecompError> {
    assert_eq!(x.rows(), y.len(), "design/response length mismatch");
    let beta = lstsq(x, y)?;
    let pred = x.matvec(&beta);
    let sse: f64 = pred.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum();
    let ybar = y.iter().sum::<f64>() / y.len().max(1) as f64;
    let sst: f64 = y.iter().map(|v| (v - ybar) * (v - ybar)).sum();
    let r_squared = if sst > 0.0 { 1.0 - sse / sst } else { 1.0 };
    Ok(OlsFit {
        coefficients: beta,
        sse,
        r_squared,
        n: y.len(),
    })
}

/// Fits with an explicit intercept: prepends a constant-1 column and returns
/// `(intercept, slope coefficients)` packaged in an [`OlsFit`] whose first
/// coefficient is the intercept.
pub fn fit_with_intercept(x: &Matrix, y: &[f64]) -> Result<OlsFit, DecompError> {
    let mut design = Matrix::filled(x.rows(), x.cols() + 1, 1.0);
    for r in 0..x.rows() {
        design.row_mut(r)[1..].copy_from_slice(x.row(r));
    }
    fit(&design, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::ChaCha12;

    #[test]
    fn exact_linear_recovery() {
        // y = 3 + 2a - b, noiseless.
        let mut rng = ChaCha12::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| vec![rng.range_f64(0.0, 10.0), rng.range_f64(0.0, 10.0)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let fit = fit_with_intercept(&x, &y).unwrap();
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-8);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-8);
        assert!((fit.coefficients[2] + 1.0).abs() < 1e-8);
        assert!(fit.sse < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_fit_r_squared_reasonable() {
        let mut rng = ChaCha12::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.range_f64(0.0, 1.0)]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 5.0 * r[0] + rng.range_f64(-0.1, 0.1))
            .collect();
        let fit = fit_with_intercept(&Matrix::from_rows(&rows), &y).unwrap();
        assert!(fit.r_squared > 0.95, "r2={}", fit.r_squared);
        assert!((fit.coefficients[1] - 5.0).abs() < 0.1);
    }

    #[test]
    fn predict_matches_training_fit() {
        let rows = vec![vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]];
        let y = [1.0, 3.0, 5.0]; // y = 1 + 2x with intercept column inline
        let fit = fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert!((fit.predict(&[1.0, 3.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn constant_response_r_squared_one() {
        let rows = vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]];
        let y = [7.0, 7.0, 7.0];
        let fit = fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(fit.sse < 1e-18);
    }
}
