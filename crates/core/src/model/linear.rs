//! The linear interference model (paper equation 1):
//! `Y = c + sum a_i X_VM1,i + sum b_i X_VM2,i`, with the variable subset
//! chosen by a stepwise algorithm scored by AIC.

use super::nonlinear::FULL_VARS;
use super::{design, varying_vars, InterferenceModel, ModelKind, TrainingData};
use crate::characteristics::N_JOINT;
use tracon_stats::{stepwise_aic, Scaler, StepwiseFit, StepwiseOptions};

/// A trained linear model.
pub struct LinearModel {
    scaler: Scaler,
    fit: StepwiseFit,
}

impl LinearModel {
    /// Trains a linear model with stepwise AIC selection over the eight
    /// controlled variables, less those constant in `data`
    /// (`model::varying_vars`). Features are standardized first so the
    /// request rates (hundreds per second) and CPU utilizations (0..1)
    /// condition the least-squares problem comparably.
    ///
    /// # Panics
    /// Panics when `data` is empty.
    pub fn train(data: &TrainingData) -> Self {
        assert!(!data.is_empty(), "LM training on empty data");
        let rows = data.feature_rows();
        let scaler = Scaler::fit(&rows);
        let scaled: Vec<Vec<f64>> = rows.iter().map(|r| scaler.transform(r)).collect();
        let vars = varying_vars(data, &FULL_VARS);
        let x = design(scaled.len(), vars.len(), |r, t| scaled[r][vars[t]]);
        let mut fit = stepwise_aic(&x, &data.responses, StepwiseOptions::default());
        for j in &mut fit.selected {
            *j = vars[*j];
        }
        LinearModel { scaler, fit }
    }

    /// AIC of the selected model.
    pub fn aic(&self) -> f64 {
        self.fit.aic
    }

    /// Indices (into the joint feature vector) of the selected variables.
    pub fn selected(&self) -> &[usize] {
        &self.fit.selected
    }
}

impl InterferenceModel for LinearModel {
    fn predict(&self, features: &[f64; N_JOINT]) -> f64 {
        let z = self.scaler.transform(features.as_ref());
        self.fit.predict(&z)
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Linear
    }

    fn n_terms(&self) -> usize {
        self.fit.selected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::ChaCha12;

    fn linear_data(n: usize, seed: u64) -> TrainingData {
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut data = TrainingData::default();
        for _ in 0..n {
            let f: [f64; 8] = std::array::from_fn(|i| {
                if i == 0 || i == 4 {
                    rng.range_f64(0.0, 300.0) // request rates
                } else {
                    rng.range_f64(0.0, 1.0) // utilizations
                }
            });
            // Depends on target reads, background reads, background cpu.
            let y = 50.0 + 0.3 * f[0] + 0.5 * f[4] + 40.0 * f[6] + rng.range_f64(-1.0, 1.0);
            data.push(f, y);
        }
        data
    }

    #[test]
    fn recovers_linear_relationship() {
        let data = linear_data(400, 1);
        let lm = LinearModel::train(&data);
        // Held-out evaluation.
        let test = linear_data(50, 2);
        let summary = super::super::evaluate(&lm, &test);
        assert!(summary.mean < 0.02, "mean rel err = {}", summary.mean);
        // Should select roughly the three informative variables.
        assert!(lm.n_terms() <= 5, "selected {:?}", lm.selected());
    }

    #[test]
    fn fails_on_quadratic_interaction() {
        // Strong product term: a purely linear model cannot capture it —
        // the property that motivates the paper's NLM.
        let mut rng = ChaCha12::seed_from_u64(3);
        let mut data = TrainingData::default();
        for _ in 0..400 {
            let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 1.0));
            let y = 10.0 + 100.0 * f[0] * f[4];
            data.push(f, y);
        }
        let lm = LinearModel::train(&data);
        let summary = super::super::evaluate(&lm, &data);
        assert!(
            summary.mean > 0.1,
            "LM unexpectedly fit a product term: {}",
            summary.mean
        );
    }

    #[test]
    fn reports_kind() {
        let data = linear_data(50, 4);
        let lm = LinearModel::train(&data);
        assert_eq!(lm.kind(), ModelKind::Linear);
        assert!(lm.aic().is_finite());
    }
}
