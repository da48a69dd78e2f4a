//! Equivalence proof for the k-NN regressor behind the weighted-mean
//! model: the full scan it replaced — every training point's distance
//! measured, the `k` nearest kept in a buffer, and on an exact hit every
//! point rescanned to average the coincident ones — must give the same
//! bits as the shipped regressor, which stores each distinct point once.
//!
//! The reference is the literal old code. The first test compares both on
//! seeded tie- and duplicate-heavy sets; the second runs the monitor's
//! adaptive WMM over a window that repeats a handful of configurations, as
//! the daemon's does, against a WMM built on the reference.

use std::collections::VecDeque;
use tracon::core::characteristics::N_JOINT;
use tracon::core::model::wmm::{WMM_COMPONENTS, WMM_NEIGHBOURS};
use tracon::core::{AdaptiveModel, ModelKind, MonitorConfig, TrainingData};
use tracon::stats::prng::{check_cases, ChaCha12};
use tracon::stats::{euclidean_distance, KnnRegressor, Pca};

/// The regressor as it was: one distance per training point.
struct FullScan {
    points: Vec<Vec<f64>>,
    responses: Vec<f64>,
    k: usize,
}

impl FullScan {
    fn predict(&self, query: &[f64]) -> f64 {
        let k = self.k.min(self.points.len());
        let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for (i, p) in self.points.iter().enumerate() {
            let d = euclidean_distance(query, p);
            if nearest.len() < k {
                nearest.push((d, i));
                nearest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            } else if d < nearest[k - 1].0 {
                nearest[k - 1] = (d, i);
                nearest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            }
        }
        if nearest[0].0 < 1e-12 {
            let mut sum = 0.0;
            let mut count = 0usize;
            for (i, p) in self.points.iter().enumerate() {
                if euclidean_distance(query, p) < 1e-12 {
                    sum += self.responses[i];
                    count += 1;
                }
            }
            return sum / count as f64;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for &(d, i) in &nearest {
            let w = 1.0 / d;
            num += w * self.responses[i];
            den += w;
        }
        num / den
    }
}

/// A coordinate on a coarse grid (steps of 0.5 in [-1, 1]), so distances
/// tie across points.
fn grid(rng: &mut ChaCha12) -> f64 {
    [-1.0, -0.5, 0.0, 0.5, 1.0][rng.range_usize(0, 5)]
}

/// `p` moved by a few 1e-13 in one coordinate: within the exact-hit
/// distance of `p` but not bit-equal to it.
fn nudged(rng: &mut ChaCha12, p: &[f64]) -> Vec<f64> {
    let mut q = p.to_vec();
    let c = rng.range_usize(0, q.len());
    let step = [1e-13, -2e-13, 3e-13][rng.range_usize(0, 3)];
    q[c] += step;
    assert_ne!(q[c].to_bits(), p[c].to_bits());
    q
}

#[test]
fn distinct_point_knn_matches_the_full_scan_bit_for_bit() {
    let mut queries = 0usize;
    check_cases(0..2_000, |rng| {
        let dim = rng.range_usize(1, 9);
        let distinct = rng.range_usize(1, 13);
        let rows = rng.range_usize(1, 301);
        let k = rng.range_usize(1, 6);
        let mut configs: Vec<Vec<f64>> = Vec::with_capacity(distinct);
        while configs.len() < distinct {
            let p: Vec<f64> = match rng.range_usize(0, 6) {
                // A near-duplicate of an earlier point: a query at either
                // hits both.
                0 if !configs.is_empty() => {
                    let of = configs[rng.range_usize(0, configs.len())].clone();
                    nudged(rng, &of)
                }
                // A signed zero: distinct bits at distance zero.
                1 if !configs.is_empty() => {
                    let of = &configs[rng.range_usize(0, configs.len())];
                    of.iter()
                        .map(|&x| if x == 0.0 { -0.0 } else { x })
                        .collect()
                }
                _ => (0..dim).map(|_| grid(rng)).collect(),
            };
            configs.push(p);
        }
        let points: Vec<Vec<f64>> = (0..rows)
            .map(|_| configs[rng.range_usize(0, distinct)].clone())
            .collect();
        let responses: Vec<f64> = (0..rows).map(|_| rng.range_f64(0.1, 100.0)).collect();
        let shipped = KnnRegressor::new(&points, &responses, k);
        let reference = FullScan {
            points,
            responses,
            k,
        };
        let mut probe = |q: &[f64], kind: &str| {
            let (got, want) = (shipped.predict(q), reference.predict(q));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{kind} query {q:?}: shipped {got}, full scan {want} (dim {dim}, k {k})"
            );
            queries += 1;
        };
        for p in &configs {
            probe(p, "training");
            let near = nudged(rng, p);
            probe(&near, "near");
        }
        for _ in 0..12 {
            let off: Vec<f64> = (0..dim)
                .map(|_| grid(rng) + [0.25, 0.0, rng.range_f64(-0.3, 0.3)][rng.range_usize(0, 3)])
                .collect();
            probe(&off, "off-grid");
        }
    });
    assert!(queries > 40_000, "only {queries} queries");
}

/// WMM as it was trained and queried, on the full-scan k-NN.
struct ReferenceWmm {
    pca: Pca,
    knn: FullScan,
}

impl ReferenceWmm {
    fn train(window: &VecDeque<([f64; N_JOINT], f64)>) -> Self {
        let rows: Vec<Vec<f64>> = window.iter().map(|(f, _)| f.to_vec()).collect();
        let pca = Pca::fit(&rows, WMM_COMPONENTS);
        let points = rows.iter().map(|r| pca.project(r)).collect();
        let knn = FullScan {
            points,
            responses: window.iter().map(|&(_, y)| y).collect(),
            k: WMM_NEIGHBOURS,
        };
        ReferenceWmm { pca, knn }
    }

    fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
        self.knn.predict(&self.pca.project(f))
    }
}

#[test]
fn adaptive_wmm_matches_a_full_scan_wmm_across_rebuilds() {
    let mut rng = ChaCha12::seed_from_u64(39);
    let unit =
        |rng: &mut ChaCha12| -> [f64; 4] { std::array::from_fn(|_| rng.range_f64(0.0, 1.0)) };
    // One application's solo profile beside each of eight neighbours or
    // idle: the nine rows a daemon's window repeats.
    let solo = unit(&mut rng);
    let configs: Vec<[f64; N_JOINT]> = (0..9)
        .map(|n| {
            let background = if n == 0 { [0.0; 4] } else { unit(&mut rng) };
            std::array::from_fn(|i| if i < 4 { solo[i] } else { background[i - 4] })
        })
        .collect();
    let base: Vec<f64> = (0..9).map(|_| rng.range_f64(50.0, 400.0)).collect();
    // The initial fit is on a profiling campaign's distinct rows.
    let mut initial = TrainingData::default();
    for _ in 0..125 {
        let background = unit(&mut rng);
        let f = std::array::from_fn(|i| if i < 4 { solo[i] } else { background[i - 4] });
        initial.push(f, rng.range_f64(50.0, 400.0));
    }
    let cfg = MonitorConfig::default();
    let mut monitor = AdaptiveModel::new(ModelKind::Wmm, &initial, cfg);
    let mut window: VecDeque<([f64; N_JOINT], f64)> = initial
        .features
        .iter()
        .copied()
        .zip(initial.responses.iter().copied())
        .collect();
    let mut reference = ReferenceWmm::train(&window);
    let mut rebuilds = 0;
    for step in 0..2_000 {
        for (c, f) in configs.iter().enumerate() {
            let (got, want) = (monitor.predict(f), reference.predict(f));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "step {step}, config {c}: {got} vs {want}"
            );
        }
        let c = rng.range_usize(0, configs.len());
        let actual = base[c] * rng.range_f64(0.85, 1.15);
        let outcome = monitor.observe(configs[c], actual);
        assert_eq!(
            outcome.predicted.to_bits(),
            reference.predict(&configs[c]).to_bits()
        );
        if window.len() >= cfg.window_capacity {
            window.pop_front();
        }
        window.push_back((configs[c], actual));
        if outcome.rebuilt {
            reference = ReferenceWmm::train(&window);
            rebuilds += 1;
        }
    }
    assert_eq!(rebuilds, 2_000 / cfg.rebuild_every);
}
