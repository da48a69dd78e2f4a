//! Interference prediction models (paper Section 3.1).
//!
//! Three model families map the joint characteristics of two co-located
//! VMs to a response (the target application's runtime or IOPS):
//!
//! * [`Wmm`](wmm::Wmm) — weighted mean method: PCA to 4 components, then
//!   3-nearest-neighbour inverse-distance interpolation (the baseline),
//! * [`LinearModel`](linear::LinearModel) — least squares over the 8 raw
//!   variables, subset selected stepwise by AIC (equation 1),
//! * [`NonlinearModel`](nonlinear::NonlinearModel) — the full degree-2
//!   expansion fit with Gauss-Newton, subset selected stepwise by AIC
//!   (equation 2).

pub mod linear;
pub mod nonlinear;
pub mod training;
pub mod wmm;

use crate::characteristics::N_JOINT;
use tracon_stats::Matrix;

/// Which response a model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Response {
    /// Application runtime in seconds.
    Runtime,
    /// Application I/O operations per second.
    Iops,
}

impl Response {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Response::Runtime => "runtime",
            Response::Iops => "IOPS",
        }
    }
}

/// Which model family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Weighted mean method (PCA + 3-NN), the paper's baseline.
    Wmm,
    /// Linear model with stepwise AIC selection.
    Linear,
    /// Quadratic model with Gauss-Newton and stepwise AIC selection.
    Nonlinear,
    /// Ablation: the quadratic model *without* the Dom0 CPU parameters —
    /// the paper shows this roughly doubles prediction error (Fig 3a).
    NonlinearNoDom0,
}

impl ModelKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Wmm => "WMM",
            ModelKind::Linear => "LM",
            ModelKind::Nonlinear => "NLM",
            ModelKind::NonlinearNoDom0 => "NLM w/o Dom0",
        }
    }

    /// All kinds compared in the evaluation.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Wmm,
        ModelKind::Linear,
        ModelKind::Nonlinear,
        ModelKind::NonlinearNoDom0,
    ];
}

/// Scale on which a regression model fits its response.
///
/// Runtime grows roughly multiplicatively with interference, which the
/// degree-2 polynomial captures directly. Throughput (IOPS) instead
/// decays *hyperbolically* — `IOPS ~ solo / slowdown` — which no
/// polynomial can represent over a wide contention range (extrapolation
/// even goes negative). Fitting IOPS on the reciprocal scale (seconds
/// per request) turns the response into the same additive/multiplicative
/// structure as runtime; predictions are inverted back to IOPS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResponseScale {
    /// Fit the raw response.
    #[default]
    Linear,
    /// Fit `1 / response` and invert predictions.
    Reciprocal,
}

impl ResponseScale {
    /// The scale used for a given response by the regression models
    /// (the k-NN-based WMM always interpolates on the raw scale).
    pub fn for_response(response: Response) -> ResponseScale {
        match response {
            Response::Runtime => ResponseScale::Linear,
            Response::Iops => ResponseScale::Reciprocal,
        }
    }
}

/// Wraps a model trained on the reciprocal response. The inner
/// prediction is clamped to the (margin-extended) range of the training
/// responses before inversion: a polynomial extrapolating to zero or
/// negative seconds-per-request would otherwise invert into absurd
/// throughputs.
pub struct ReciprocalModel {
    inner: Box<dyn InterferenceModel>,
    lo: f64,
    hi: f64,
}

impl ReciprocalModel {
    /// Wraps a model whose training responses were the reciprocals in
    /// `transformed_responses`.
    pub fn new(inner: Box<dyn InterferenceModel>, transformed_responses: &[f64]) -> Self {
        let lo = transformed_responses
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = transformed_responses.iter().copied().fold(0.0f64, f64::max);
        ReciprocalModel {
            inner,
            lo: (lo * 0.5).max(1e-9),
            hi: (hi * 2.0).max(1e-9),
        }
    }
}

impl InterferenceModel for ReciprocalModel {
    fn predict(&self, features: &[f64; N_JOINT]) -> f64 {
        let z = self.inner.predict(features).clamp(self.lo, self.hi);
        1.0 / z
    }

    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }

    fn n_terms(&self) -> usize {
        self.inner.n_terms()
    }
}

/// A trained interference prediction model.
pub trait InterferenceModel: Send + Sync {
    /// Predicts the response for a joint feature vector.
    fn predict(&self, features: &[f64; N_JOINT]) -> f64;

    /// Model family name.
    fn kind(&self) -> ModelKind;

    /// Number of selected terms (model complexity), for diagnostics.
    fn n_terms(&self) -> usize;
}

/// A training set of joint features and responses.
#[derive(Debug, Clone, Default)]
pub struct TrainingData {
    /// Joint feature vectors.
    pub features: Vec<[f64; N_JOINT]>,
    /// Responses aligned with `features`.
    pub responses: Vec<f64>,
}

impl TrainingData {
    /// Creates a training set.
    ///
    /// # Panics
    /// Panics when lengths mismatch.
    pub fn new(features: Vec<[f64; N_JOINT]>, responses: Vec<f64>) -> Self {
        assert_eq!(
            features.len(),
            responses.len(),
            "features/responses mismatch"
        );
        TrainingData {
            features,
            responses,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when there are no observations.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Appends one observation.
    pub fn push(&mut self, features: [f64; N_JOINT], response: f64) {
        self.features.push(features);
        self.responses.push(response);
    }

    /// Feature rows as `Vec<Vec<f64>>` for the fitting APIs.
    pub fn feature_rows(&self) -> Vec<Vec<f64>> {
        self.features.iter().map(|f| f.to_vec()).collect()
    }

    /// Deterministic interleaved train/test split: every `k`-th
    /// observation (starting at `offset`) goes to the test set.
    ///
    /// # Panics
    /// Panics when `k < 2`.
    pub fn split_every(&self, k: usize, offset: usize) -> (TrainingData, TrainingData) {
        assert!(k >= 2, "split_every requires k >= 2");
        let mut train = TrainingData::default();
        let mut test = TrainingData::default();
        for (i, (f, y)) in self.features.iter().zip(&self.responses).enumerate() {
            if i % k == offset % k {
                test.push(*f, *y);
            } else {
                train.push(*f, *y);
            }
        }
        (train, test)
    }
}

/// The variables among `vars` whose training column varies. A variable
/// every row of which is bit-equal to the first (in a per-application set,
/// the target's own four characteristics) is a constant column, collinear
/// with the intercept once standardized, and so is every quadratic term
/// built from it with another constant; a product with a varying variable
/// is that variable's column scaled by ~1e-14, which least squares
/// rejects as singular. None of them can enter a stepwise model, so the
/// regressions expand and search only the variables this returns.
pub(crate) fn varying_vars(data: &TrainingData, vars: &[usize]) -> Vec<usize> {
    let first = &data.features[0];
    vars.iter()
        .copied()
        .filter(|&v| {
            data.features
                .iter()
                .any(|f| f[v].to_bits() != first[v].to_bits())
        })
        .collect()
}

/// The `rows x terms` design matrix whose cell `(r, t)` is `cell(r, t)`.
pub(crate) fn design(rows: usize, terms: usize, cell: impl Fn(usize, usize) -> f64) -> Matrix {
    let mut x = Matrix::zeros(rows, terms);
    for r in 0..rows {
        for (t, v) in x.row_mut(r).iter_mut().enumerate() {
            *v = cell(r, t);
        }
    }
    x
}

/// Relative prediction error as the paper defines it:
/// `|predicted - actual| / actual`.
pub fn relative_error(predicted: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-12 {
        return if predicted.abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (predicted - actual).abs() / actual.abs()
}

/// Mean and standard deviation of a model's relative errors on a data set
/// (the column heights and error bars of Fig 3).
pub fn evaluate(model: &dyn InterferenceModel, data: &TrainingData) -> tracon_stats::Summary {
    let errors: Vec<f64> = data
        .features
        .iter()
        .zip(&data.responses)
        .map(|(f, &y)| relative_error(model.predict(f), y))
        .collect();
    tracon_stats::summarize(&errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_definition() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn split_every_partitions() {
        let feats: Vec<[f64; 8]> = (0..10).map(|i| [i as f64; 8]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let data = TrainingData::new(feats, ys);
        let (train, test) = data.split_every(5, 0);
        assert_eq!(test.len(), 2);
        assert_eq!(train.len(), 8);
        assert_eq!(test.responses, vec![0.0, 5.0]);
        // Different offset picks different test points.
        let (_, test2) = data.split_every(5, 2);
        assert_eq!(test2.responses, vec![2.0, 7.0]);
    }

    #[test]
    fn kind_names() {
        assert_eq!(ModelKind::Wmm.name(), "WMM");
        assert_eq!(ModelKind::Nonlinear.name(), "NLM");
        assert_eq!(Response::Runtime.name(), "runtime");
    }
}
