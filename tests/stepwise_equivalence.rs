//! Equivalence proof for model training: the per-candidate stepwise search
//! it replaced — every addition and removal refit from scratch by
//! `ols::fit_with_intercept` over the full quadratic basis — must select
//! the same terms with the same bits as the shipped search, which extends
//! one factorization per step and never expands a variable that is
//! constant in the training set.
//!
//! The reference is the literal old code. The first test runs both
//! searches on one design; the second trains the deployed LM and NLM
//! models both ways on every profile set of the small and the full
//! testbed and compares their predictions.

use tracon::core::characteristics::N_JOINT;
use tracon::core::model::nonlinear::{quadratic_terms, Term, FULL_VARS, NO_DOM0_VARS};
use tracon::core::model::ReciprocalModel;
use tracon::core::{
    train_model_scaled, InterferenceModel, ModelKind, Response, ResponseScale, TrainingData,
};
use tracon::dcsim::experiments::ExperimentConfig;
use tracon::dcsim::setup::training_data;
use tracon::dcsim::{Testbed, TestbedConfig};
use tracon::stats::gauss_newton::{self, GaussNewtonOptions, LinearInParams};
use tracon::stats::prng::{check_cases, ChaCha12};
use tracon::stats::{
    aicc_gaussian, ols, stepwise_aic, Matrix, Scaler, StepwiseFit, StepwiseOptions,
};

type SubsetFit = (f64, Vec<f64>, f64, f64);

fn reference_fit_subset(x: &Matrix, y: &[f64], subset: &[usize]) -> Option<SubsetFit> {
    let n = y.len();
    if subset.is_empty() {
        let ybar = y.iter().sum::<f64>() / n as f64;
        let sse: f64 = y.iter().map(|v| (v - ybar) * (v - ybar)).sum();
        return Some((ybar, Vec::new(), sse, aicc_gaussian(sse, n, 1)));
    }
    let sub = x.select_columns(subset);
    let fit = ols::fit_with_intercept(&sub, y).ok()?;
    if !fit.coefficients.iter().all(|c| c.is_finite()) {
        return None;
    }
    let k = subset.len() + 1;
    Some((
        fit.coefficients[0],
        fit.coefficients[1..].to_vec(),
        fit.sse,
        aicc_gaussian(fit.sse, n, k),
    ))
}

/// The search as it was: each candidate subset fit on its own.
fn reference_stepwise(x: &Matrix, y: &[f64], opts: StepwiseOptions) -> StepwiseFit {
    let p = x.cols();
    let (mut intercept, mut coeffs, mut sse, mut aic) =
        reference_fit_subset(x, y, &[]).expect("intercept-only fit cannot fail");
    let mut selected: Vec<usize> = Vec::new();
    let mut steps = 0usize;
    loop {
        if steps >= opts.max_steps {
            break;
        }
        #[allow(clippy::type_complexity)]
        let mut best: Option<(f64, Vec<usize>, f64, Vec<f64>, f64)> = None;
        if selected.len() < opts.max_terms {
            for j in 0..p {
                if selected.contains(&j) {
                    continue;
                }
                let mut cand = selected.clone();
                cand.push(j);
                if let Some((ic, cf, s, a)) = reference_fit_subset(x, y, &cand) {
                    if a < aic - 1e-9 && best.as_ref().is_none_or(|b| a < b.0) {
                        best = Some((a, cand, ic, cf, s));
                    }
                }
            }
        }
        for (i, _) in selected.iter().enumerate() {
            let mut cand = selected.clone();
            cand.remove(i);
            if let Some((ic, cf, s, a)) = reference_fit_subset(x, y, &cand) {
                if a < aic - 1e-9 && best.as_ref().is_none_or(|b| a < b.0) {
                    best = Some((a, cand, ic, cf, s));
                }
            }
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

fn assert_same_fit(got: &StepwiseFit, want: &StepwiseFit, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.selected, want.selected, "{what}: selected");
    assert_eq!(got.steps, want.steps, "{what}: steps");
    assert_eq!(
        got.intercept.to_bits(),
        want.intercept.to_bits(),
        "{what}: intercept"
    );
    assert_eq!(
        bits(&got.coefficients),
        bits(&want.coefficients),
        "{what}: coefficients"
    );
    assert_eq!(got.aic.to_bits(), want.aic.to_bits(), "{what}: aic");
    assert_eq!(got.sse.to_bits(), want.sse.to_bits(), "{what}: sse");
}

/// A set shaped like one application's profile: the target's four
/// characteristics are the same in every row, the background's four vary
/// (one of them too is constant in some sets), and the response grows
/// with background load and its products with the target's.
fn per_app_set(rng: &mut ChaCha12) -> TrainingData {
    let rows = rng.range_usize(20, 131);
    let target: [f64; 4] = [
        rng.range_f64(0.0, 300.0),
        rng.range_f64(0.0, 300.0),
        rng.range_f64(0.0, 1.0),
        rng.range_f64(0.0, 1.0),
    ];
    let fixed_background = (rng.range_usize(0, 3) == 0).then(|| rng.range_usize(4, 8));
    let level = rng.range_f64(0.0, 1.0);
    let mut data = TrainingData::default();
    for _ in 0..rows {
        let f: [f64; N_JOINT] = std::array::from_fn(|i| match i {
            0..4 => target[i],
            _ if Some(i) == fixed_background => level,
            4 | 5 => rng.range_f64(0.0, 300.0),
            _ => rng.range_f64(0.0, 1.0),
        });
        let y = 50.0
            + 0.2 * f[4]
            + 0.002 * f[0] * f[5]
            + 30.0 * f[6] * f[7]
            + 10.0 * f[3] * f[7]
            + rng.range_f64(-2.0, 2.0);
        data.push(f, y);
    }
    data
}

fn scaled_rows(data: &TrainingData) -> (Scaler, Vec<Vec<f64>>) {
    let rows = data.feature_rows();
    let scaler = Scaler::fit(&rows);
    let scaled = rows.iter().map(|r| scaler.transform(r)).collect();
    (scaler, scaled)
}

fn quadratic_design(scaled: &[Vec<f64>], terms: &[Term]) -> Matrix {
    let design: Vec<Vec<f64>> = scaled
        .iter()
        .map(|z| terms.iter().map(|t| t.eval(z)).collect())
        .collect();
    Matrix::from_rows(&design)
}

/// Both searches on the 8-variable linear design and on the 44-term
/// quadratic one, constant columns included, at three complexity caps.
#[test]
fn stepwise_matches_the_per_candidate_search_bit_for_bit() {
    check_cases(0..10, |rng| {
        let data = per_app_set(rng);
        let (_, scaled) = scaled_rows(&data);
        let linear = Matrix::from_rows(&scaled);
        let quadratic = quadratic_design(&scaled, &quadratic_terms(&FULL_VARS));
        for (name, x) in [("linear", &linear), ("quadratic", &quadratic)] {
            for max_terms in [3, 15, 24] {
                let opts = StepwiseOptions {
                    max_terms,
                    ..StepwiseOptions::default()
                };
                let what = format!("{name} design, max_terms {max_terms}");
                let got = stepwise_aic(x, &data.responses, opts);
                assert_same_fit(&got, &reference_stepwise(x, &data.responses, opts), &what);
            }
        }
    });
}

/// `intercept + sum c * term(z)` over standardized features.
struct ReferenceModel {
    scaler: Scaler,
    terms: Vec<Term>,
    intercept: f64,
    coefficients: Vec<f64>,
    kind: ModelKind,
}

impl InterferenceModel for ReferenceModel {
    fn predict(&self, features: &[f64; N_JOINT]) -> f64 {
        let z = self.scaler.transform(features.as_ref());
        let mut y = self.intercept;
        for (t, c) in self.terms.iter().zip(&self.coefficients) {
            y += c * t.eval(&z);
        }
        y
    }

    fn kind(&self) -> ModelKind {
        self.kind
    }

    fn n_terms(&self) -> usize {
        self.terms.len()
    }
}

/// The old `LinearModel::train`: every variable searched.
fn reference_lm(data: &TrainingData) -> ReferenceModel {
    let (scaler, scaled) = scaled_rows(data);
    let fit = reference_stepwise(
        &Matrix::from_rows(&scaled),
        &data.responses,
        StepwiseOptions::default(),
    );
    ReferenceModel {
        scaler,
        terms: fit.selected.iter().map(|&j| Term::Linear(j)).collect(),
        intercept: fit.intercept,
        coefficients: fit.coefficients,
        kind: ModelKind::Linear,
    }
}

/// The old `NonlinearModel::train_with_vars`: the whole quadratic basis of
/// `vars` searched, then the Gauss-Newton refinement.
fn reference_nlm(data: &TrainingData, vars: &[usize], kind: ModelKind) -> ReferenceModel {
    let (scaler, scaled) = scaled_rows(data);
    let terms = quadratic_terms(vars);
    let x = quadratic_design(&scaled, &terms);
    let opts = StepwiseOptions {
        max_terms: (data.len() / 8).clamp(3, 24),
        ..StepwiseOptions::default()
    };
    let step = reference_stepwise(&x, &data.responses, opts);
    let sel_terms: Vec<Term> = step.selected.iter().map(|&i| terms[i]).collect();
    let n_params = sel_terms.len() + 1;
    let basis = sel_terms.clone();
    let model = LinearInParams::new(n_params, move |z: &[f64], out: &mut Vec<f64>| {
        out.clear();
        out.push(1.0);
        for t in &basis {
            out.push(t.eval(z));
        }
    });
    let mut initial = vec![step.intercept];
    initial.extend_from_slice(&step.coefficients);
    let gn = gauss_newton::fit(
        &model,
        &scaled,
        &data.responses,
        &initial,
        GaussNewtonOptions::default(),
    );
    ReferenceModel {
        scaler,
        terms: sel_terms,
        intercept: gn.params[0],
        coefficients: gn.params[1..].to_vec(),
        kind,
    }
}

/// The reference trainer on `scale`, wrapped as `train_model_scaled` wraps.
fn reference_model(
    kind: ModelKind,
    data: &TrainingData,
    scale: ResponseScale,
) -> Box<dyn InterferenceModel> {
    let train = |d: &TrainingData| -> Box<dyn InterferenceModel> {
        Box::new(match kind {
            ModelKind::Linear => reference_lm(d),
            ModelKind::Nonlinear => reference_nlm(d, &FULL_VARS, kind),
            ModelKind::NonlinearNoDom0 => reference_nlm(d, &NO_DOM0_VARS, kind),
            ModelKind::Wmm => unreachable!("WMM has no stepwise search"),
        })
    };
    match scale {
        ResponseScale::Linear => train(data),
        ResponseScale::Reciprocal => {
            let transformed = TrainingData::new(
                data.features.clone(),
                data.responses.iter().map(|&y| 1.0 / y.max(1e-9)).collect(),
            );
            Box::new(ReciprocalModel::new(
                train(&transformed),
                &transformed.responses,
            ))
        }
    }
}

/// Every deployed model (each application's runtime and IOPS models, on
/// the scale the testbed fits them) trained both ways predicts the same
/// bits on every application's profile rows, for LM, NLM and the no-Dom0
/// ablation, on the small and the full testbed.
#[test]
fn trainers_match_the_reference_on_every_profile_set() {
    for cfg in [TestbedConfig::small(), ExperimentConfig::full().testbed] {
        let tb = Testbed::build(&cfg);
        let probes: Vec<[f64; N_JOINT]> = tb
            .profiles
            .iter()
            .flat_map(|set| set.records.iter().map(|r| r.features))
            .collect();
        for set in &tb.profiles {
            for response in [Response::Runtime, Response::Iops] {
                let data = training_data(set, response);
                let scale = ResponseScale::for_response(response);
                for kind in [
                    ModelKind::Linear,
                    ModelKind::Nonlinear,
                    ModelKind::NonlinearNoDom0,
                ] {
                    let what = format!(
                        "{} {} {} ({} rows)",
                        set.target,
                        response.name(),
                        kind.name(),
                        data.len()
                    );
                    let got = train_model_scaled(kind, &data, scale);
                    let want = reference_model(kind, &data, scale);
                    assert_eq!(got.n_terms(), want.n_terms(), "{what}: terms");
                    for f in &probes {
                        assert_eq!(
                            got.predict(f).to_bits(),
                            want.predict(f).to_bits(),
                            "{what}: prediction at {f:?}"
                        );
                    }
                }
            }
        }
    }
}
