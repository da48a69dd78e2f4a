//! The nonlinear (quadratic) interference model (paper equation 2).
//!
//! The controlled variables are expanded to every term of the degree-2
//! polynomial `(1 + sum X_VM1,i + sum X_VM2,i)^2` — 8 linear terms, 8
//! squares, and 28 pairwise products. The coefficients are found with the
//! Gauss-Newton method and the term subset is chosen by the same stepwise
//! AIC search as the linear model. A variable constant over the training
//! set (the target's own four in a per-application set) is left out of the
//! expansion: none of its terms could enter the model.
//!
//! A variant without the Dom0 CPU parameters implements the paper's
//! ablation (Fig 3a shows dropping the fourth characteristic roughly
//! doubles the prediction error).

use super::{design, varying_vars, InterferenceModel, ModelKind, TrainingData};
use crate::characteristics::N_JOINT;
use tracon_stats::{stepwise_aic, GaussNewtonOptions, LinearInParams, Scaler, StepwiseOptions};

/// One term of the quadratic basis over the (standardized) joint features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// `z[i]`
    Linear(usize),
    /// `z[i] * z[j]` (squares when `i == j`)
    Product(usize, usize),
}

impl Term {
    /// Evaluates the term on a standardized feature vector.
    #[inline]
    pub fn eval(&self, z: &[f64]) -> f64 {
        match *self {
            Term::Linear(i) => z[i],
            Term::Product(i, j) => z[i] * z[j],
        }
    }
}

/// Builds the degree-2 basis over the given variable indices: all linear
/// terms, all squares, and all pairwise products.
pub fn quadratic_terms(vars: &[usize]) -> Vec<Term> {
    let mut terms = Vec::with_capacity(vars.len() * (vars.len() + 3) / 2);
    for &i in vars {
        terms.push(Term::Linear(i));
    }
    for (a, &i) in vars.iter().enumerate() {
        for &j in &vars[a..] {
            terms.push(Term::Product(i, j));
        }
    }
    terms
}

/// The variable indices of the full model (all eight characteristics).
pub const FULL_VARS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
/// The variable indices of the no-Dom0 ablation (drops indices 3 and 7).
pub const NO_DOM0_VARS: [usize; 6] = [0, 1, 2, 4, 5, 6];

/// A trained quadratic model.
pub struct NonlinearModel {
    scaler: Scaler,
    /// Basis terms of the *candidate* expansion over the variables that
    /// vary in the training set (selection indexes these).
    terms: Vec<Term>,
    /// Indices into `terms` chosen by the stepwise search.
    selected: Vec<usize>,
    /// Intercept.
    intercept: f64,
    /// Coefficients aligned with `selected` (after Gauss-Newton refinement).
    coefficients: Vec<f64>,
    kind: ModelKind,
    /// Iterations used by the Gauss-Newton refinement.
    pub gn_iterations: usize,
    /// Training AIC of the selected model.
    pub aic: f64,
}

impl NonlinearModel {
    /// Trains the full quadratic model.
    pub fn train(data: &TrainingData) -> Self {
        Self::train_with_vars(data, &FULL_VARS, ModelKind::Nonlinear)
    }

    /// Trains the ablated model without the Dom0 CPU characteristics.
    pub fn train_no_dom0(data: &TrainingData) -> Self {
        Self::train_with_vars(data, &NO_DOM0_VARS, ModelKind::NonlinearNoDom0)
    }

    /// Trains over the quadratic basis of those of `vars` that vary in
    /// `data` (`model::varying_vars`): a term built from a constant variable
    /// can never enter the model, so it is not searched.
    fn train_with_vars(data: &TrainingData, vars: &[usize], kind: ModelKind) -> Self {
        assert!(!data.is_empty(), "NLM training on empty data");
        let rows = data.feature_rows();
        let scaler = Scaler::fit(&rows);
        let scaled: Vec<Vec<f64>> = rows.iter().map(|r| scaler.transform(r)).collect();
        let terms = quadratic_terms(&varying_vars(data, vars));

        // Expanded design matrix over the candidate terms.
        let x = design(scaled.len(), terms.len(), |r, t| terms[t].eval(&scaled[r]));
        // Cap model complexity relative to the sample size: with a small
        // profiling set the quadratic basis (up to 44 terms) can otherwise chase
        // noise that even AICc fails to fully penalize.
        let opts = StepwiseOptions {
            max_terms: (data.len() / 8).clamp(3, 24),
            ..StepwiseOptions::default()
        };
        let step = stepwise_aic(&x, &data.responses, opts);

        // Gauss-Newton refinement over the selected basis, as the paper
        // prescribes. The model is linear in its parameters, so this
        // converges in one or two damped steps, but running the true
        // algorithm keeps the training path faithful (and exercises the
        // solver the monitor reuses during online rebuilds).
        let selected = step.selected.clone();
        let sel_terms: Vec<Term> = selected.iter().map(|&i| terms[i]).collect();
        let n_params = sel_terms.len() + 1;
        let model = LinearInParams::new(n_params, move |z: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(1.0);
            for t in &sel_terms {
                out.push(t.eval(z));
            }
        });
        let mut initial = Vec::with_capacity(n_params);
        initial.push(step.intercept);
        initial.extend_from_slice(&step.coefficients);
        let gn = tracon_stats::gauss_newton::fit(
            &model,
            &scaled,
            &data.responses,
            &initial,
            GaussNewtonOptions::default(),
        );

        NonlinearModel {
            scaler,
            terms,
            selected,
            intercept: gn.params[0],
            coefficients: gn.params[1..].to_vec(),
            kind,
            gn_iterations: gn.iterations,
            aic: step.aic,
        }
    }

    /// Selected terms of the final model.
    pub fn selected_terms(&self) -> Vec<Term> {
        self.selected.iter().map(|&i| self.terms[i]).collect()
    }

    /// True when any selected term is a product or square (the model is
    /// genuinely nonlinear in the characteristics).
    pub fn has_interaction_terms(&self) -> bool {
        self.selected_terms()
            .iter()
            .any(|t| matches!(t, Term::Product(_, _)))
    }
}

impl InterferenceModel for NonlinearModel {
    fn predict(&self, features: &[f64; N_JOINT]) -> f64 {
        let z = self.scaler.transform(features.as_ref());
        let mut y = self.intercept;
        for (&idx, c) in self.selected.iter().zip(&self.coefficients) {
            y += c * self.terms[idx].eval(&z);
        }
        y
    }

    fn kind(&self) -> ModelKind {
        self.kind
    }

    fn n_terms(&self) -> usize {
        self.selected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate;
    use tracon_stats::prng::ChaCha12;

    #[test]
    fn quadratic_term_count() {
        // 8 vars: 8 linear + 36 products (incl. 8 squares) = 44.
        assert_eq!(quadratic_terms(&FULL_VARS).len(), 44);
        // 6 vars: 6 + 21 = 27.
        assert_eq!(quadratic_terms(&NO_DOM0_VARS).len(), 27);
    }

    fn product_data(n: usize, seed: u64) -> TrainingData {
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut data = TrainingData::default();
        for _ in 0..n {
            let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 1.0));
            // Product interaction plus a linear part — the structure real
            // I/O interference exhibits.
            let y = 20.0 + 5.0 * f[0] + 80.0 * f[0] * f[4] + 30.0 * f[3] * f[7];
            data.push(f, y);
        }
        data
    }

    #[test]
    fn captures_product_interactions() {
        let train = product_data(500, 1);
        let nlm = NonlinearModel::train(&train);
        let test = product_data(80, 2);
        let summary = evaluate(&nlm, &test);
        assert!(summary.mean < 0.02, "mean rel err = {}", summary.mean);
        assert!(nlm.has_interaction_terms());
    }

    #[test]
    fn no_dom0_ablation_is_worse_when_dom0_matters() {
        let train = product_data(500, 3);
        let full = NonlinearModel::train(&train);
        let ablated = NonlinearModel::train_no_dom0(&train);
        let test = product_data(80, 4);
        let e_full = evaluate(&full, &test).mean;
        let e_ablated = evaluate(&ablated, &test).mean;
        assert!(
            e_ablated > 2.0 * e_full.max(0.005),
            "full = {e_full}, ablated = {e_ablated}"
        );
        assert_eq!(ablated.kind(), ModelKind::NonlinearNoDom0);
    }

    #[test]
    fn ablated_model_never_uses_dom0_variables() {
        let train = product_data(300, 5);
        let ablated = NonlinearModel::train_no_dom0(&train);
        for t in ablated.selected_terms() {
            match t {
                Term::Linear(i) => assert!(i != 3 && i != 7),
                Term::Product(i, j) => {
                    assert!(i != 3 && i != 7 && j != 3 && j != 7)
                }
            }
        }
    }

    #[test]
    fn beats_linear_model_on_interactions() {
        let train = product_data(500, 6);
        let nlm = NonlinearModel::train(&train);
        let lm = crate::model::linear::LinearModel::train(&train);
        let test = product_data(80, 7);
        let e_nlm = evaluate(&nlm, &test).mean;
        let e_lm = evaluate(&lm, &test).mean;
        assert!(e_nlm < e_lm * 0.5, "nlm = {e_nlm}, lm = {e_lm}");
    }

    #[test]
    fn parsimonious_on_linear_truth() {
        // Pure linear ground truth: the stepwise search should not pick
        // many spurious quadratic terms.
        let mut rng = ChaCha12::seed_from_u64(8);
        let mut data = TrainingData::default();
        for _ in 0..400 {
            let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 1.0));
            let y = 5.0 + 10.0 * f[2] + rng.range_f64(-0.05, 0.05);
            data.push(f, y);
        }
        let nlm = NonlinearModel::train(&data);
        assert!(nlm.n_terms() <= 10, "selected {} terms", nlm.n_terms());
    }
}
