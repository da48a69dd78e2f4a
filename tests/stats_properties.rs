//! Seeded property tests of the statistics substrate: the invariants every
//! downstream component (models, schedulers, simulator) relies on.

use std::ops::Range;

use tracon::stats::prng::{check_cases, ChaCha12};
use tracon::stats::{
    aicc_gaussian, dist, lstsq, mean, percentile, std_dev, stepwise_aic, sym_eigen, Matrix, Pca,
    Scaler, StepwiseOptions, Welford,
};
use tracon::vmsim::cpu::fair_share;

const CASES: Range<u64> = 0..128;

fn floats(rng: &mut ChaCha12, len: usize, range: Range<f64>) -> Vec<f64> {
    (0..len)
        .map(|_| rng.range_f64(range.start, range.end))
        .collect()
}

/// Between `len.start` and `len.end - 1` rows of `width` draws each.
fn rows(rng: &mut ChaCha12, len: Range<usize>, width: usize, range: Range<f64>) -> Vec<Vec<f64>> {
    let n = rng.range_usize(len.start, len.end);
    (0..n).map(|_| floats(rng, width, range.clone())).collect()
}

/// fair_share: allocations never exceed demand or capacity, and the
/// allocator is work-conserving (either everyone is satisfied or the
/// capacity is fully used).
#[test]
fn fair_share_properties() {
    check_cases(CASES, |rng| {
        let capacity = rng.range_f64(0.0, 8.0);
        let n = rng.range_usize(1, 8);
        let demands = floats(rng, n, 0.0..3.0);
        let weights = vec![1.0; demands.len()];
        let mut alloc = vec![0.0; demands.len()];
        fair_share(capacity, &demands, &weights, &mut alloc);
        let total: f64 = alloc.iter().sum();
        assert!(total <= capacity + 1e-9);
        let mut all_satisfied = true;
        for (a, d) in alloc.iter().zip(&demands) {
            assert!(*a >= -1e-12);
            assert!(*a <= d + 1e-9);
            if *a < d - 1e-9 {
                all_satisfied = false;
            }
        }
        let demand_total: f64 = demands.iter().sum();
        if !all_satisfied {
            // Overload: capacity must be exhausted (work conservation).
            assert!(total >= capacity.min(demand_total) - 1e-6);
        }
    });
}

/// Equal unsatisfied demands receive equal fair shares.
#[test]
fn fair_share_symmetry() {
    check_cases(CASES, |rng| {
        let capacity = rng.range_f64(0.1, 2.0);
        let demand = rng.range_f64(1.0, 4.0);
        let n = rng.range_usize(2, 6);
        let demands = vec![demand; n];
        let weights = vec![1.0; n];
        let mut alloc = vec![0.0; demands.len()];
        fair_share(capacity, &demands, &weights, &mut alloc);
        for w in alloc.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    });
}

/// Least squares: the fitted prediction error never exceeds what the
/// zero vector achieves (optimality sanity), and residuals are finite.
#[test]
fn lstsq_never_worse_than_zero() {
    check_cases(CASES, |rng| {
        let rows = rows(rng, 4..20, 3, -5.0..5.0);
        let coefs = floats(rng, 3, -3.0..3.0);
        let a = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(&coefs).map(|(x, c)| x * c).sum::<f64>())
            .collect();
        let x = lstsq(&a, &y).unwrap();
        let pred = a.matvec(&x);
        let sse: f64 = pred.iter().zip(&y).map(|(p, q)| (p - q) * (p - q)).sum();
        let sse_zero: f64 = y.iter().map(|v| v * v).sum();
        assert!(sse.is_finite());
        assert!(sse <= sse_zero + 1e-6);
    });
}

/// Symmetric eigendecomposition preserves the trace and produces
/// sorted eigenvalues.
#[test]
fn eigen_trace_and_order() {
    check_cases(CASES, |rng| {
        let vals = floats(rng, 6, -4.0..4.0);
        // Build a symmetric matrix from a random one.
        let n = 3;
        let mut m = Matrix::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            for j in i..n {
                m[(i, j)] = vals[k];
                m[(j, i)] = vals[k];
                k += 1;
            }
        }
        let e = sym_eigen(&m);
        let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
    });
}

/// Full-rank PCA preserves pairwise distances of the z-scores.
#[test]
fn pca_isometry() {
    check_cases(CASES, |rng| {
        let rows = rows(rng, 5..30, 4, -10.0..10.0);
        let pca = Pca::fit(&rows, 4);
        let sc = Scaler::fit(&rows);
        let a = &rows[0];
        let b = rows.last().unwrap();
        let dz = tracon::stats::euclidean_distance(&sc.transform(a), &sc.transform(b));
        let dp = tracon::stats::euclidean_distance(&pca.project(a), &pca.project(b));
        assert!((dz - dp).abs() < 1e-6 * (1.0 + dz));
    });
}

/// Percentiles are monotone in p and bounded by the sample extremes.
#[test]
fn percentile_monotone() {
    check_cases(CASES, |rng| {
        let n = rng.range_usize(1, 40);
        let xs = floats(rng, n, -100.0..100.0);
        let p25 = percentile(&xs, 25.0);
        let p50 = percentile(&xs, 50.0);
        let p75 = percentile(&xs, 75.0);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(p25 <= p50 + 1e-12 && p50 <= p75 + 1e-12);
        assert!(p25 >= lo - 1e-12 && p75 <= hi + 1e-12);
    });
}

/// Welford matches the batch statistics on any sample.
#[test]
fn welford_matches_batch() {
    check_cases(CASES, |rng| {
        let n = rng.range_usize(2, 50);
        let xs = floats(rng, n, -1e3..1e3);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-6 * (1.0 + mean(&xs).abs()));
        assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-6 * (1.0 + std_dev(&xs)));
    });
}

/// AICc is always at least AIC and diverges near saturation.
#[test]
fn aicc_dominates_aic() {
    check_cases(CASES, |rng| {
        let sse = rng.range_f64(0.1, 100.0);
        let n = rng.range_usize(10, 100);
        let k = rng.range_usize(0, 6);
        let aic = tracon::stats::aic_gaussian(sse, n, k);
        let aicc = aicc_gaussian(sse, n, k);
        assert!(aicc >= aic - 1e-12);
    });
}

/// Stepwise selection never returns more terms than allowed and its
/// predictions are finite on training rows.
#[test]
fn stepwise_bounded_and_finite() {
    check_cases(CASES, |rng| {
        let rows = rows(rng, 12..40, 5, -2.0..2.0);
        let max_terms = rng.range_usize(1, 5);
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + r[0] - 2.0 * r[3]).collect();
        let x = Matrix::from_rows(&rows);
        let fit = stepwise_aic(
            &x,
            &y,
            StepwiseOptions {
                max_terms,
                max_steps: 50,
            },
        );
        assert!(fit.selected.len() <= max_terms);
        for r in &rows {
            assert!(fit.predict(r).is_finite());
        }
    });
}

/// Poisson sampling is non-negative and roughly mean-lambda on
/// aggregate (loose bound; the tight test lives in the unit suite).
#[test]
fn poisson_sane() {
    check_cases(CASES, |rng| {
        let lambda = rng.range_f64(0.0, 50.0);
        let xs: Vec<f64> = (0..200)
            .map(|_| dist::poisson(rng, lambda) as f64)
            .collect();
        let m = mean(&xs);
        assert!(xs.iter().all(|&x| x >= 0.0));
        assert!((m - lambda).abs() < 1.5 + lambda * 0.5);
    });
}
