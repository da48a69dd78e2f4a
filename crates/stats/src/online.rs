//! Online statistics and drift detection.
//!
//! TRACON's task & resource monitor tracks the prediction error of the
//! deployed interference model and fires a rebuild event when the error
//! distribution shifts — "a significant shift of the mean or a large surge
//! in the variance" in the paper's words. The primitives here are a
//! Welford online accumulator, a fixed-size sliding window, and a drift
//! detector comparing a recent window against a reference distribution.

use std::collections::VecDeque;

/// Numerically stable online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Fixed-capacity sliding window of the most recent observations.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: VecDeque<f64>,
    capacity: usize,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` observations.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Pushes an observation, evicting the oldest when full. Returns the
    /// evicted value, if any.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let evicted = if self.buf.len() == self.capacity {
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(x);
        evicted
    }

    /// Current number of stored observations.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no observations are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when the window is at capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Copies the window contents (oldest first).
    pub fn to_vec(&self) -> Vec<f64> {
        self.buf.iter().copied().collect()
    }

    /// Mean of the stored observations.
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.buf.iter().sum::<f64>() / self.buf.len() as f64
    }

    /// Unbiased sample variance of the stored observations.
    pub fn variance(&self) -> f64 {
        if self.buf.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.buf.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (self.buf.len() - 1) as f64
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Kind of distribution drift detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// The recent mean shifted significantly from the reference mean.
    MeanShift,
    /// The recent variance surged above the reference variance.
    VarianceSurge,
}

/// Detects drift of a recent window against a frozen reference distribution.
///
/// * Mean shift: `|recent_mean - ref_mean| > mean_threshold * max(ref_std, floor)`
/// * Variance surge: `recent_var > var_threshold * ref_var` (with floor)
#[derive(Debug, Clone)]
pub struct DriftDetector {
    ref_mean: f64,
    ref_std: f64,
    /// Mean-shift threshold in reference standard deviations.
    pub mean_threshold: f64,
    /// Variance-surge multiplier.
    pub var_threshold: f64,
    /// Numerical floor used when the reference spread is ~0.
    pub floor: f64,
}

impl DriftDetector {
    /// Creates a detector calibrated to the reference sample.
    ///
    /// # Panics
    /// Panics when `reference` is empty.
    pub fn from_reference(reference: &[f64], mean_threshold: f64, var_threshold: f64) -> Self {
        assert!(!reference.is_empty(), "empty reference sample");
        let m = crate::descriptive::mean(reference);
        let s = crate::descriptive::std_dev(reference);
        DriftDetector {
            ref_mean: m,
            ref_std: s,
            mean_threshold,
            var_threshold,
            floor: 1e-9,
        }
    }

    /// Tests a recent window in place; returns the first drift kind
    /// triggered.
    pub fn check(&self, recent: &SlidingWindow) -> Option<DriftKind> {
        if recent.len() < 2 {
            return None;
        }
        let m = recent.mean();
        let spread = self.ref_std.max(self.floor);
        if (m - self.ref_mean).abs() > self.mean_threshold * spread {
            return Some(DriftKind::MeanShift);
        }
        let v = recent.variance();
        let ref_var = (self.ref_std * self.ref_std).max(self.floor);
        if v > self.var_threshold * ref_var {
            return Some(DriftKind::VarianceSurge);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::ChaCha12;

    #[test]
    fn welford_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - crate::descriptive::mean(&xs)).abs() < 1e-12);
        assert!((w.variance() - crate::descriptive::variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut win = SlidingWindow::new(3);
        assert_eq!(win.push(1.0), None);
        assert_eq!(win.push(2.0), None);
        assert_eq!(win.push(3.0), None);
        assert!(win.is_full());
        assert_eq!(win.push(4.0), Some(1.0));
        assert_eq!(win.to_vec(), vec![2.0, 3.0, 4.0]);
        assert!((win.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_variance_matches_batch() {
        let mut win = SlidingWindow::new(10);
        let xs = [1.0, 5.0, 3.0, 8.0];
        for &x in &xs {
            win.push(x);
        }
        assert!((win.variance() - crate::descriptive::variance(&xs)).abs() < 1e-12);
    }

    fn window_of(xs: &[f64]) -> SlidingWindow {
        let mut win = SlidingWindow::new(xs.len());
        for &x in xs {
            win.push(x);
        }
        win
    }

    #[test]
    fn window_stats_repeat_the_batch_bits_after_wrapping() {
        let mut rng = ChaCha12::seed_from_u64(3);
        let mut win = SlidingWindow::new(40);
        for _ in 0..137 {
            win.push(rng.range_f64(0.0, 2.0));
        }
        let xs = win.to_vec();
        assert_eq!(
            win.mean().to_bits(),
            crate::descriptive::mean(&xs).to_bits()
        );
        let batch = crate::descriptive::variance(&xs);
        assert_eq!(win.variance().to_bits(), batch.to_bits());
    }

    #[test]
    fn drift_detects_mean_shift() {
        let mut rng = ChaCha12::seed_from_u64(1);
        let reference: Vec<f64> = (0..500).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let det = DriftDetector::from_reference(&reference, 3.0, 4.0);
        // Same distribution: no drift.
        let same: Vec<f64> = (0..100).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        assert_eq!(det.check(&window_of(&same)), None);
        // Shifted by many reference sigmas: mean shift.
        let shifted: Vec<f64> = (0..100).map(|_| 10.0 + rng.range_f64(-1.0, 1.0)).collect();
        assert_eq!(det.check(&window_of(&shifted)), Some(DriftKind::MeanShift));
    }

    #[test]
    fn drift_detects_variance_surge() {
        let mut rng = ChaCha12::seed_from_u64(2);
        let reference: Vec<f64> = (0..500).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let det = DriftDetector::from_reference(&reference, 10.0, 4.0);
        let noisy: Vec<f64> = (0..200).map(|_| rng.range_f64(-10.0, 10.0)).collect();
        assert_eq!(
            det.check(&window_of(&noisy)),
            Some(DriftKind::VarianceSurge)
        );
    }

    #[test]
    fn drift_requires_two_points() {
        let det = DriftDetector::from_reference(&[1.0, 2.0, 3.0], 1.0, 1.0);
        assert_eq!(det.check(&window_of(&[100.0])), None);
    }
}
