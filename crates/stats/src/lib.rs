//! # tracon-stats
//!
//! The statistics and linear-algebra substrate for the TRACON
//! reproduction. Everything TRACON's interference models need is
//! implemented here from scratch:
//!
//! * [`matrix`] — dense row-major matrices and vector helpers,
//! * [`correlation`] — Pearson and Spearman correlation,
//! * [`decomp`] — Householder QR and Cholesky, least squares,
//! * [`eigen`] — cyclic Jacobi symmetric eigendecomposition,
//! * [`pca`] — principal component analysis (for the weighted-mean model),
//! * [`ols`] — ordinary least squares (for the linear model),
//! * [`gauss_newton`] — damped Gauss-Newton (for the nonlinear model),
//! * [`stepwise`] — bidirectional stepwise selection scored by AIC,
//! * [`knn`] — k-nearest-neighbour inverse-distance regression,
//! * [`descriptive`] — means, variances, percentiles, scalers,
//! * [`dist`] — Gaussian / Poisson / exponential sampling,
//! * [`online`] — sliding windows and drift detection,
//! * [`json`] — the workspace's one JSON codec (wire protocol, WAL, snapshots),
//! * [`prng`] — the two seeded generators (`ChaCha12` for simulated sampling,
//!   `SplitMix64` for routing, jitter, failpoints) and the seeded
//!   property-test loop.
//!
//! The crate depends on nothing outside `std` and is sized
//! for TRACON's workloads: design matrices of a few hundred rows and at
//! most ~45 columns (the full degree-2 expansion of the eight controlled
//! variables).

#![warn(missing_docs)]

pub mod correlation;
pub mod decomp;
pub mod descriptive;
pub mod dist;
pub mod eigen;
pub mod gauss_newton;
pub mod json;
pub mod knn;
pub mod matrix;
pub mod ols;
pub mod online;
pub mod pca;
pub mod prng;
pub mod stepwise;

pub use correlation::{pearson, spearman};
pub use decomp::{lstsq, solve, Cholesky, DecompError, Qr};
pub use descriptive::{mean, median, percentile, std_dev, summarize, variance, Scaler, Summary};
pub use eigen::{sym_eigen, SymEigen};
pub use gauss_newton::{GaussNewtonFit, GaussNewtonOptions, LinearInParams, ParametricModel};
pub use knn::KnnRegressor;
pub use matrix::{dot, euclidean_distance, norm2, Matrix};
pub use ols::OlsFit;
pub use online::{DriftDetector, DriftKind, SlidingWindow};
pub use pca::Pca;
pub use stepwise::{aic_gaussian, aicc_gaussian, stepwise_aic, StepwiseFit, StepwiseOptions};
