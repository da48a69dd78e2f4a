//! Random sampling utilities: Gaussian (Box-Muller), Poisson (Knuth /
//! normal approximation), exponential inter-arrival times, and the
//! Gaussian-over-ranks discrete sampler the paper uses to build light,
//! medium, and heavy I/O workload mixes.

use crate::prng::ChaCha12;

/// Samples a standard normal via the Box-Muller transform.
pub fn standard_normal(rng: &mut ChaCha12) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1 = 1.0 - rng.unit_f64();
    let u2 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, std_dev^2)`.
///
/// # Panics
/// Panics when `std_dev` is negative.
pub fn normal(rng: &mut ChaCha12, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "negative std_dev");
    mean + std_dev * standard_normal(rng)
}

/// Samples a Poisson-distributed count with the given mean.
///
/// Uses Knuth's multiplication method for small means and a clamped normal
/// approximation for large means (lambda > 30), which is plenty accurate
/// for arrival batching.
///
/// # Panics
/// Panics when `lambda` is negative.
pub fn poisson(rng: &mut ChaCha12, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "negative lambda");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.unit_f64();
        if p <= l {
            return k;
        }
        k += 1;
        // Defensive bound; probability of reaching this is vanishing.
        if k > 10_000 {
            return k;
        }
    }
}

/// Samples an exponential inter-arrival time with the given `rate`
/// (events per unit time). A Poisson arrival process with rate `lambda`
/// has `Exp(lambda)` gaps between events.
///
/// # Panics
/// Panics when `rate` is not positive.
pub fn exponential(rng: &mut ChaCha12, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u = 1.0 - rng.unit_f64();
    -u.ln() / rate
}

/// Samples an integer rank in `[1, n_ranks]` from a Gaussian with the given
/// mean and standard deviation, rounding and clamping to the valid range.
///
/// The paper builds its light / medium / heavy I/O mixes by sampling the
/// IOPS rank of the next application from Gaussians with means 2.5, 4.0,
/// and 5.5 over the 8 ranked benchmarks.
pub fn gaussian_rank(rng: &mut ChaCha12, mean: f64, std_dev: f64, n_ranks: usize) -> usize {
    assert!(n_ranks >= 1);
    let x = normal(rng, mean, std_dev);
    (x.round() as i64).clamp(1, n_ranks as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, std_dev};

    #[test]
    fn normal_moments() {
        let mut rng = ChaCha12::seed_from_u64(1);
        let xs: Vec<f64> = (0..50_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        assert!((mean(&xs) - 5.0).abs() < 0.05, "mean = {}", mean(&xs));
        assert!((std_dev(&xs) - 2.0).abs() < 0.05, "sd = {}", std_dev(&xs));
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut rng = ChaCha12::seed_from_u64(2);
        let xs: Vec<f64> = (0..50_000).map(|_| poisson(&mut rng, 3.0) as f64).collect();
        assert!((mean(&xs) - 3.0).abs() < 0.05);
        // Poisson variance equals the mean.
        assert!((std_dev(&xs).powi(2) - 3.0).abs() < 0.15);
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut rng = ChaCha12::seed_from_u64(3);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| poisson(&mut rng, 200.0) as f64)
            .collect();
        assert!((mean(&xs) - 200.0).abs() < 1.0);
        assert!((std_dev(&xs).powi(2) - 200.0).abs() < 10.0);
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = ChaCha12::seed_from_u64(4);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = ChaCha12::seed_from_u64(5);
        let xs: Vec<f64> = (0..50_000).map(|_| exponential(&mut rng, 4.0)).collect();
        assert!((mean(&xs) - 0.25).abs() < 0.01);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gaussian_rank_in_bounds_and_centered() {
        let mut rng = ChaCha12::seed_from_u64(6);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| gaussian_rank(&mut rng, 4.0, 1.5, 8) as f64)
            .collect();
        assert!(xs.iter().all(|&x| (1.0..=8.0).contains(&x)));
        assert!((mean(&xs) - 4.0).abs() < 0.1, "mean = {}", mean(&xs));
    }

    #[test]
    fn gaussian_rank_mixes_are_ordered() {
        // Light (2.5), medium (4.0), heavy (5.5) mixes should have ordered
        // average I/O ranks - the property the experiments rely on.
        let mut rng = ChaCha12::seed_from_u64(7);
        let avg = |mean_rank: f64, rng: &mut ChaCha12| -> f64 {
            let xs: Vec<f64> = (0..10_000)
                .map(|_| gaussian_rank(rng, mean_rank, 1.5, 8) as f64)
                .collect();
            mean(&xs)
        };
        let light = avg(2.5, &mut rng);
        let medium = avg(4.0, &mut rng);
        let heavy = avg(5.5, &mut rng);
        assert!(light < medium && medium < heavy);
    }
}
