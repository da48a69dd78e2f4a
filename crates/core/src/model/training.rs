//! Unified training entry point and evaluation helpers used by the
//! experiment drivers.

use super::linear::LinearModel;
use super::nonlinear::NonlinearModel;
use super::wmm::Wmm;
use super::{evaluate, InterferenceModel, ModelKind, ReciprocalModel, ResponseScale, TrainingData};
use std::sync::Arc;
use tracon_stats::Summary;

/// Trains a model of the requested kind on the raw response scale.
///
/// # Panics
/// Panics when `data` is empty.
pub fn train_model(kind: ModelKind, data: &TrainingData) -> Arc<dyn InterferenceModel> {
    train_model_scaled(kind, data, ResponseScale::Linear)
}

/// Trains a model of the requested kind on the given response scale.
/// The model is shared, not copied: a monitor and the predictors it
/// hands to the scheduler hold the same trained model.
///
/// The WMM baseline interpolates raw responses regardless of scale (the
/// k-NN average is scale-robust); the regression models fit the
/// transformed response and invert at prediction time.
///
/// # Panics
/// Panics when `data` is empty.
pub fn train_model_scaled(
    kind: ModelKind,
    data: &TrainingData,
    scale: ResponseScale,
) -> Arc<dyn InterferenceModel> {
    if kind == ModelKind::Wmm {
        return Arc::new(Wmm::train(data));
    }
    let fit = |d: &TrainingData| -> Box<dyn InterferenceModel> {
        match kind {
            ModelKind::Wmm => unreachable!("handled above"),
            ModelKind::Linear => Box::new(LinearModel::train(d)),
            ModelKind::Nonlinear => Box::new(NonlinearModel::train(d)),
            ModelKind::NonlinearNoDom0 => Box::new(NonlinearModel::train_no_dom0(d)),
        }
    };
    match scale {
        ResponseScale::Linear => fit(data).into(),
        ResponseScale::Reciprocal => {
            let transformed = TrainingData::new(
                data.features.clone(),
                data.responses.iter().map(|&y| 1.0 / y.max(1e-9)).collect(),
            );
            Arc::new(ReciprocalModel::new(
                fit(&transformed),
                &transformed.responses,
            ))
        }
    }
}

/// Result of a train/evaluate round for one model kind.
#[derive(Debug, Clone)]
pub struct EvaluationResult {
    /// Which model was trained.
    pub kind: ModelKind,
    /// Relative-error summary on the held-out set.
    pub error: Summary,
    /// Number of terms the model selected.
    pub n_terms: usize,
}

/// Trains on an interleaved split and evaluates on the held-out points
/// (every `k`-th observation), returning the error summary — the exact
/// procedure behind Fig 3.
pub fn train_and_evaluate(
    kind: ModelKind,
    data: &TrainingData,
    k: usize,
    scale: ResponseScale,
) -> EvaluationResult {
    let (train, test) = data.split_every(k, k / 2);
    let model = train_model_scaled(kind, &train, scale);
    let error = evaluate(model.as_ref(), &test);
    EvaluationResult {
        kind,
        error,
        n_terms: model.n_terms(),
    }
}

/// Cross-validated error: averages [`train_and_evaluate`] over all `k`
/// offsets of the interleaved split.
pub fn cross_validate(
    kind: ModelKind,
    data: &TrainingData,
    k: usize,
    scale: ResponseScale,
) -> Summary {
    let mut errors = Vec::new();
    for offset in 0..k {
        let (train, test) = data.split_every(k, offset);
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let model = train_model_scaled(kind, &train, scale);
        for (f, &y) in test.features.iter().zip(&test.responses) {
            errors.push(super::relative_error(model.predict(f), y));
        }
    }
    tracon_stats::summarize(&errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::ChaCha12;

    fn data(seed: u64) -> TrainingData {
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut d = TrainingData::default();
        for _ in 0..300 {
            let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 1.0));
            let y = 10.0 + 4.0 * f[0] + 20.0 * f[0] * f[4] + rng.range_f64(-0.1, 0.1);
            d.push(f, y);
        }
        d
    }

    #[test]
    fn trains_every_kind() {
        let d = data(1);
        for kind in ModelKind::ALL {
            let m = train_model(kind, &d);
            assert_eq!(m.kind(), kind);
            let y = m.predict(&d.features[0]);
            assert!(y.is_finite());
        }
    }

    #[test]
    fn nlm_wins_cross_validation() {
        let d = data(2);
        let e_nlm = cross_validate(ModelKind::Nonlinear, &d, 5, ResponseScale::Linear);
        let e_lm = cross_validate(ModelKind::Linear, &d, 5, ResponseScale::Linear);
        let e_wmm = cross_validate(ModelKind::Wmm, &d, 5, ResponseScale::Linear);
        assert!(
            e_nlm.mean < e_lm.mean,
            "nlm {} vs lm {}",
            e_nlm.mean,
            e_lm.mean
        );
        assert!(
            e_nlm.mean < e_wmm.mean,
            "nlm {} vs wmm {}",
            e_nlm.mean,
            e_wmm.mean
        );
    }

    #[test]
    fn evaluation_result_fields() {
        let d = data(3);
        let r = train_and_evaluate(ModelKind::Linear, &d, 5, ResponseScale::Linear);
        assert_eq!(r.kind, ModelKind::Linear);
        assert!(r.error.n > 0);
        assert!(r.n_terms >= 1);
    }
}
