//! Stepwise model selection scored by the Akaike information criterion.
//!
//! The paper uses a bidirectional stepwise algorithm (Draper & Smith) with
//! AIC scoring to choose which of the candidate terms enter the linear and
//! nonlinear interference models: terms are added or removed one at a time
//! and the move with the best AIC is kept, until no move improves.
//!
//! Every candidate of a step shares the current model's columns, so the
//! search factors the current model once per step and extends that
//! factorization by each addition's column, rather than refitting each
//! candidate from scratch; a removal keeps the columns before the dropped
//! one. `Qr::push` repeats the arithmetic of a fresh factorization, so
//! each candidate's fit, and the selected model, hold the same bits as a
//! per-candidate search would.

use crate::decomp::Qr;
use crate::matrix::Matrix;
use crate::ols;

/// Akaike information criterion for a Gaussian-error least-squares model.
///
/// For least squares with unknown error variance the maximized
/// log-likelihood reduces (up to an additive constant that cancels when
/// comparing models on the same data) to `-n/2 * ln(SSE/n)`, giving
/// `AIC = n * ln(SSE / n) + 2k` where `k` counts the free parameters
/// (coefficients plus the error variance). Lower is better.
pub fn aic_gaussian(sse: f64, n: usize, k: usize) -> f64 {
    assert!(n > 0, "AIC needs at least one observation");
    // Guard against log(0) for perfect fits: clamp to a tiny positive SSE.
    let mean_sq = (sse / n as f64).max(1e-300);
    n as f64 * mean_sq.ln() + 2.0 * (k as f64 + 1.0)
}

/// Small-sample-corrected AIC (AICc, Burnham & Anderson — the reference
/// the paper cites for the accuracy/flexibility trade-off).
///
/// `AICc = AIC + 2k(k+1)/(n-k-1)`; the correction term diverges as the
/// parameter count approaches the sample size, which is exactly the
/// regime where plain AIC lets a quadratic basis overfit a small
/// profiling set. Returns infinity when `n <= k + 2` (such a model can
/// never be selected).
pub fn aicc_gaussian(sse: f64, n: usize, k: usize) -> f64 {
    let kk = k as f64 + 1.0; // + error variance
    if (n as f64) <= kk + 2.0 {
        return f64::INFINITY;
    }
    aic_gaussian(sse, n, k) + 2.0 * kk * (kk + 1.0) / (n as f64 - kk - 1.0)
}

/// Result of a stepwise search.
#[derive(Debug, Clone)]
pub struct StepwiseFit {
    /// Indices of the selected candidate columns (in the caller's space).
    pub selected: Vec<usize>,
    /// Intercept of the chosen model.
    pub intercept: f64,
    /// Coefficients aligned with `selected`.
    pub coefficients: Vec<f64>,
    /// AIC of the chosen model.
    pub aic: f64,
    /// SSE of the chosen model on the training data.
    pub sse: f64,
    /// Number of stepwise moves performed.
    pub steps: usize,
}

impl StepwiseFit {
    /// Predicts the response for a full candidate row (the same column
    /// layout the search was given; unselected columns are ignored).
    pub fn predict(&self, full_row: &[f64]) -> f64 {
        let mut y = self.intercept;
        for (c, &j) in self.coefficients.iter().zip(&self.selected) {
            y += c * full_row[j];
        }
        y
    }
}

/// Options for the stepwise search.
#[derive(Debug, Clone, Copy)]
pub struct StepwiseOptions {
    /// Upper bound on selected terms (keeps models parsimonious and the
    /// search bounded). Defaults to 24.
    pub max_terms: usize,
    /// Maximum add/remove moves before giving up. Defaults to 200.
    pub max_steps: usize,
}

impl Default for StepwiseOptions {
    fn default() -> Self {
        StepwiseOptions {
            max_terms: 24,
            max_steps: 200,
        }
    }
}

/// `(intercept, coefficients, sse, aicc)` of a candidate subset fit.
type SubsetFit = (f64, Vec<f64>, f64, f64);

/// The intercept-only model.
fn intercept_only(y: &[f64]) -> SubsetFit {
    let n = y.len();
    let ybar = y.iter().sum::<f64>() / n as f64;
    let sse: f64 = y.iter().map(|v| (v - ybar) * (v - ybar)).sum();
    (ybar, Vec::new(), sse, aicc_gaussian(sse, n, 1))
}

/// Fits `[1 | x_subset]` from scratch by [`ols::fit_with_intercept`], whose
/// least squares falls back to a ridge solve when the design is singular.
fn fit_subset(x: &Matrix, y: &[f64], subset: &[usize]) -> Option<SubsetFit> {
    let fit = ols::fit_with_intercept(&x.select_columns(subset), y).ok()?;
    if !fit.coefficients.iter().all(|c| c.is_finite()) {
        return None;
    }
    Some((
        fit.coefficients[0],
        fit.coefficients[1..].to_vec(),
        fit.sse,
        aicc_gaussian(fit.sse, y.len(), subset.len() + 1),
    ))
}

/// Fits `[1 | x_subset]` given `qr`, its factorization. The same bits as
/// [`fit_subset`]: `qr` holds what [`Qr::new`] makes of that design, and the
/// errors are summed in [`ols::fit`]'s order.
fn fit_factored(qr: &Qr, x: &Matrix, y: &[f64], subset: &[usize]) -> Option<SubsetFit> {
    let beta = match qr.solve(y) {
        Ok(beta) => beta,
        Err(_) => return fit_subset(x, y, subset),
    };
    if !beta.iter().all(|c| c.is_finite()) {
        return None;
    }
    let sse: f64 = y
        .iter()
        .enumerate()
        .map(|(r, q)| {
            let row = x.row(r);
            let p: f64 = std::iter::once(1.0)
                .chain(subset.iter().map(|&j| row[j]))
                .zip(&beta)
                .map(|(a, b)| a * b)
                .sum();
            (p - q) * (p - q)
        })
        .sum();
    let aicc = aicc_gaussian(sse, y.len(), subset.len() + 1);
    Some((beta[0], beta[1..].to_vec(), sse, aicc))
}

/// Bidirectional stepwise selection over the columns of `x`, scored by
/// small-sample-corrected AIC (AICc).
///
/// Starts from the empty (intercept-only) model; at each step evaluates
/// every single-column addition and every single-column removal and applies
/// the best-scoring move if it improves the current AIC.
///
/// Each step factors the current model `[1 | x_selected]` once. An addition
/// extends that factorization by the candidate's column; a removal copies
/// the columns before the dropped one and refactors only the rest. A
/// candidate the factorization finds singular is refit from scratch
/// through the ridge fallback of [`crate::lstsq`]. Every fit holds the
/// bits a fresh [`ols::fit_with_intercept`] of its columns would.
///
/// # Panics
/// Panics when `x` has no rows or `y` length mismatches.
pub fn stepwise_aic(x: &Matrix, y: &[f64], opts: StepwiseOptions) -> StepwiseFit {
    assert!(x.rows() > 0, "stepwise on empty data");
    assert_eq!(x.rows(), y.len(), "design/response mismatch");
    let (n, p) = x.shape();
    let column = |j: usize| (0..n).map(move |r| x[(r, j)]);

    let (mut intercept, mut coeffs, mut sse, mut aic) = intercept_only(y);
    let mut selected: Vec<usize> = Vec::new();
    let mut steps = 0usize;
    let width = opts.max_terms.min(p) + 2;
    let mut current = Qr::empty(n, width);
    let mut trial = Qr::empty(n, width);
    let mut cand: Vec<usize> = Vec::with_capacity(width);

    while steps < opts.max_steps {
        current.truncate(0);
        current.push(std::iter::repeat_n(1.0, n));
        for &j in &selected {
            current.push(column(j));
        }
        // (aicc, subset, intercept, coefficients, sse) of the best move.
        #[allow(clippy::type_complexity)]
        let mut best: Option<(f64, Vec<usize>, f64, Vec<f64>, f64)> = None;
        let mut consider = |cand: &[usize], fit: Option<SubsetFit>| {
            if let Some((ic, cf, s, a)) = fit {
                if a < aic - 1e-9 && best.as_ref().is_none_or(|b| a < b.0) {
                    best = Some((a, cand.to_vec(), ic, cf, s));
                }
            }
        };

        // Candidate additions: the current factorization plus one column.
        if selected.len() < opts.max_terms {
            for j in 0..p {
                if selected.contains(&j) {
                    continue;
                }
                cand.clear();
                cand.extend_from_slice(&selected);
                cand.push(j);
                let fit = (cand.len() < n).then(|| {
                    current.push(column(j));
                    let fit = fit_factored(&current, x, y, &cand);
                    current.truncate(cand.len());
                    fit
                });
                consider(&cand, fit.flatten());
            }
        }
        // Candidate removals: refactored from the dropped column on.
        for i in 0..selected.len() {
            cand.clear();
            cand.extend_from_slice(&selected);
            cand.remove(i);
            let fit = if cand.is_empty() {
                Some(intercept_only(y))
            } else {
                trial.copy_prefix(&current, i + 1);
                for &j in &cand[i..] {
                    trial.push(column(j));
                }
                fit_factored(&trial, x, y, &cand)
            };
            consider(&cand, fit);
        }

        match best {
            Some((a, cand, ic, cf, s)) => {
                aic = a;
                selected = cand;
                intercept = ic;
                coeffs = cf;
                sse = s;
                steps += 1;
            }
            None => break,
        }
    }

    StepwiseFit {
        selected,
        intercept,
        coefficients: coeffs,
        aic,
        sse,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::ChaCha12;

    #[test]
    fn aic_penalizes_parameters() {
        // Same SSE, more parameters -> worse (higher) AIC.
        let a1 = aic_gaussian(10.0, 100, 2);
        let a2 = aic_gaussian(10.0, 100, 5);
        assert!(a2 > a1);
    }

    #[test]
    fn aic_rewards_fit() {
        let a1 = aic_gaussian(10.0, 100, 3);
        let a2 = aic_gaussian(5.0, 100, 3);
        assert!(a2 < a1);
    }

    #[test]
    fn selects_true_variables() {
        // y depends on columns 0 and 2 only; columns 1 and 3 are noise.
        let mut rng = ChaCha12::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..4).map(|_| rng.range_f64(-1.0, 1.0)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 2.0 + 3.0 * r[0] - 4.0 * r[2] + rng.range_f64(-0.05, 0.05))
            .collect();
        let x = Matrix::from_rows(&rows);
        let fit = stepwise_aic(&x, &y, StepwiseOptions::default());
        let mut sel = fit.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 2], "selected {sel:?}");
        assert!((fit.intercept - 2.0).abs() < 0.05);
    }

    #[test]
    fn predict_consistent_with_selection() {
        // Enough points that AICc does not veto single-variable models.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![i as f64, ((i * 7) % 11) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 10.0 + 2.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let fit = stepwise_aic(&x, &y, StepwiseOptions::default());
        // Prediction should reproduce the generating function regardless of
        // which (sufficient) subset was chosen.
        assert!((fit.predict(&[6.0, 3.0]) - 22.0).abs() < 1e-6);
    }

    #[test]
    fn pure_noise_keeps_model_small() {
        let mut rng = ChaCha12::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..6).map(|_| rng.range_f64(-1.0, 1.0)).collect())
            .collect();
        let y: Vec<f64> = (0..200).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let fit = stepwise_aic(&Matrix::from_rows(&rows), &y, StepwiseOptions::default());
        assert!(
            fit.selected.len() <= 2,
            "noise fit selected {:?}",
            fit.selected
        );
    }

    #[test]
    fn respects_max_terms() {
        let mut rng = ChaCha12::seed_from_u64(9);
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..8).map(|_| rng.range_f64(-1.0, 1.0)).collect())
            .collect();
        // Response uses all 8 columns.
        let y: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>()).collect();
        let opts = StepwiseOptions {
            max_terms: 3,
            max_steps: 100,
        };
        let fit = stepwise_aic(&Matrix::from_rows(&rows), &y, opts);
        assert!(fit.selected.len() <= 3);
    }

    #[test]
    fn collinear_duplicate_column_chosen_once() {
        let mut rng = ChaCha12::seed_from_u64(21);
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|_| {
                let a = rng.range_f64(-1.0, 1.0);
                vec![a, a] // identical columns
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 3.0 * r[0] + rng.range_f64(-0.01, 0.01))
            .collect();
        let fit = stepwise_aic(&Matrix::from_rows(&rows), &y, StepwiseOptions::default());
        assert_eq!(
            fit.selected.len(),
            1,
            "should keep only one of two identical columns"
        );
    }
}
