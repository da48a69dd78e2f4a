//! The weighted mean method (WMM): the paper's baseline interference
//! model, following Koh et al. (ISPASS'07).
//!
//! Training projects the profiled joint-characteristics vectors onto the
//! first four principal components; prediction finds the three nearest
//! profiled points in PC space and averages their responses weighted by
//! reciprocal Euclidean distance.

use super::{InterferenceModel, ModelKind, TrainingData};
use crate::characteristics::N_JOINT;
use tracon_stats::{KnnRegressor, Pca};

/// Number of principal components retained (paper Section 3.1).
pub const WMM_COMPONENTS: usize = 4;
/// Number of neighbours interpolated (paper Section 3.1).
pub const WMM_NEIGHBOURS: usize = 3;

/// A trained weighted-mean model.
pub struct Wmm {
    pca: Pca,
    knn: KnnRegressor,
}

impl Wmm {
    /// Trains a WMM on the given data.
    ///
    /// # Panics
    /// Panics when `data` is empty.
    pub fn train(data: &TrainingData) -> Self {
        assert!(!data.is_empty(), "WMM training on empty data");
        let pca = Pca::fit(&data.features, WMM_COMPONENTS);
        let projected: Vec<[f64; WMM_COMPONENTS]> = data
            .features
            .iter()
            .map(|r| {
                let mut p = [0.0; WMM_COMPONENTS];
                pca.project_into(r, &mut p);
                p
            })
            .collect();
        let knn = KnnRegressor::new(&projected, &data.responses, WMM_NEIGHBOURS);
        Wmm { pca, knn }
    }

    /// Fraction of the training variance captured by the retained
    /// principal components.
    pub fn explained_variance_ratio(&self) -> f64 {
        self.pca.explained_variance_ratio()
    }
}

impl InterferenceModel for Wmm {
    fn predict(&self, features: &[f64; N_JOINT]) -> f64 {
        let mut p = [0.0; WMM_COMPONENTS];
        self.pca.project_into(features, &mut p);
        self.knn.predict(&p)
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Wmm
    }

    fn n_terms(&self) -> usize {
        WMM_COMPONENTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::ChaCha12;

    fn smooth_data(n: usize, seed: u64) -> TrainingData {
        // Response is a smooth function of the features, so nearest
        // neighbours interpolate well.
        let mut rng = ChaCha12::seed_from_u64(seed);
        let mut data = TrainingData::default();
        for _ in 0..n {
            let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 1.0));
            let y = 100.0 + 50.0 * f[0] + 30.0 * f[4] + 20.0 * f[0] * f[4];
            data.push(f, y);
        }
        data
    }

    #[test]
    fn interpolates_training_points_exactly() {
        let data = smooth_data(100, 1);
        let wmm = Wmm::train(&data);
        // Exact training point hits its stored response.
        let y = wmm.predict(&data.features[7]);
        assert!((y - data.responses[7]).abs() < 1e-9);
    }

    #[test]
    fn generalizes_on_smooth_function() {
        let data = smooth_data(600, 2);
        let wmm = Wmm::train(&data);
        let mut rng = ChaCha12::seed_from_u64(3);
        let mut worst: f64 = 0.0;
        for _ in 0..50 {
            let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.1, 0.9));
            let actual = 100.0 + 50.0 * f[0] + 30.0 * f[4] + 20.0 * f[0] * f[4];
            let rel = (wmm.predict(&f) - actual).abs() / actual;
            worst = worst.max(rel);
        }
        assert!(worst < 0.20, "worst relative error = {worst}");
    }

    #[test]
    fn reports_kind_and_terms() {
        let data = smooth_data(20, 4);
        let wmm = Wmm::train(&data);
        assert_eq!(wmm.kind(), ModelKind::Wmm);
        assert_eq!(wmm.n_terms(), WMM_COMPONENTS);
        assert!(wmm.explained_variance_ratio() > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_training_panics() {
        Wmm::train(&TrainingData::default());
    }
}
