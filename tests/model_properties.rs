//! Seeded property tests of the model layer: whatever the training data,
//! the trained models and the predictor must satisfy the invariants the
//! schedulers rely on.

use tracon::core::{
    train_model_scaled, AppModelSet, AppProfile, Characteristics, ClassKey, ModelKind, Objective,
    Predictor, ResponseScale, ScoringPolicy, TrainingData,
};
use tracon::stats::prng::{check_cases, ChaCha12};

const CASES: std::ops::Range<u64> = 0..24;

fn arbitrary_training_data(rng: &mut ChaCha12) -> TrainingData {
    let mut d = TrainingData::default();
    for _ in 0..rng.range_usize(12, 60) {
        let f: [f64; 8] = std::array::from_fn(|_| rng.range_f64(0.0, 300.0));
        d.push(f, rng.range_f64(20.0, 2000.0));
    }
    d
}

fn arbitrary_background(rng: &mut ChaCha12, max: f64) -> [f64; 4] {
    std::array::from_fn(|_| rng.range_f64(0.0, max))
}

/// Every model family trains on arbitrary (positive-response) data
/// and produces finite predictions on its own training rows.
#[test]
fn models_train_and_predict_finite() {
    check_cases(CASES, |rng| {
        let data = arbitrary_training_data(rng);
        for kind in [ModelKind::Wmm, ModelKind::Linear, ModelKind::Nonlinear] {
            for scale in [ResponseScale::Linear, ResponseScale::Reciprocal] {
                let m = train_model_scaled(kind, &data, scale);
                for f in &data.features {
                    let y = m.predict(f);
                    assert!(y.is_finite(), "{kind:?}/{scale:?} produced {y}");
                    if scale == ResponseScale::Reciprocal {
                        assert!(y >= 0.0, "reciprocal-scale prediction negative: {y}");
                    }
                }
            }
        }
    });
}

/// The predictor's clamps hold for arbitrary neighbour
/// characteristics: runtime in [solo, 30 x solo], IOPS in
/// [0, solo_iops].
#[test]
fn predictor_clamps_hold() {
    check_cases(CASES, |rng| {
        let data = arbitrary_training_data(rng);
        let bg = arbitrary_background(rng, 500.0);
        let solo_runtime = rng.range_f64(10.0, 1000.0);
        let solo_iops = rng.range_f64(1.0, 500.0);
        let mut p = Predictor::new();
        let runtime = train_model_scaled(ModelKind::Nonlinear, &data, ResponseScale::Linear);
        let iops = train_model_scaled(ModelKind::Nonlinear, &data, ResponseScale::Reciprocal);
        p.add_app(
            AppProfile {
                name: "app".into(),
                solo: Characteristics::new(50.0, 10.0, 0.5, 0.05),
                solo_runtime,
                solo_iops,
            },
            AppModelSet { runtime, iops },
        );
        let nb = Characteristics::new(
            bg[0],
            bg[1],
            (bg[2] / 500.0).min(1.0),
            (bg[3] / 500.0).min(1.0),
        );
        let rt = p.predict_runtime("app", &nb);
        assert!(rt >= solo_runtime - 1e-9);
        assert!(rt <= 30.0 * solo_runtime + 1e-9);
        let io = p.predict_iops("app", &nb);
        assert!((0.0..=solo_iops + 1e-9).contains(&io));
    });
}

/// Scoring-policy invariants: the excess is bounded by the clamp
/// window (with arbitrary, structure-free training data the model may
/// legitimately rank idle above a neighbour, so excess >= 0 is only a
/// property of monotone-interference models, not of the machinery),
/// and the memoized score equals the recomputed one.
fn check_scoring_policy(data: &TrainingData, bg: [f64; 4]) {
    let mut p = Predictor::new();
    let runtime = train_model_scaled(ModelKind::Nonlinear, data, ResponseScale::Linear);
    let iops = train_model_scaled(ModelKind::Nonlinear, data, ResponseScale::Reciprocal);
    p.add_app(
        AppProfile {
            name: "app".into(),
            solo: Characteristics::new(80.0, 20.0, 0.6, 0.08),
            solo_runtime: 100.0,
            solo_iops: 100.0,
        },
        AppModelSet { runtime, iops },
    );
    // Register the neighbour too, so its id can name the slot class.
    let nb_runtime = train_model_scaled(ModelKind::Nonlinear, data, ResponseScale::Linear);
    let nb_iops = train_model_scaled(ModelKind::Nonlinear, data, ResponseScale::Reciprocal);
    p.add_app(
        AppProfile {
            name: "nb".into(),
            solo: Characteristics::new(60.0, 15.0, 0.4, 0.06),
            solo_runtime: 100.0,
            solo_iops: 100.0,
        },
        AppModelSet {
            runtime: nb_runtime,
            iops: nb_iops,
        },
    );
    let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
    let app = p.registry().expect_id("app");
    let key = ClassKey::from_neighbours([p.registry().expect_id("nb")]);
    let nb = Characteristics::new(
        bg[0],
        bg[1],
        (bg[2] / 300.0).min(1.0),
        (bg[3] / 300.0).min(1.0),
    );
    let excess = scoring.excess_score(app, key, &nb);
    assert!(excess.is_finite());
    // Both scores live in [solo, 30 x solo], so the excess is bounded.
    assert!((-29.0 * 100.0 - 1e-6..=29.0 * 100.0 + 1e-6).contains(&excess));
    // Memoization returns the same value.
    let s1 = scoring.score(app, key, &nb);
    let s2 = scoring.score(app, key, &nb);
    assert_eq!(s1.to_bits(), s2.to_bits());
}

#[test]
fn scoring_policy_invariants() {
    check_cases(CASES, |rng| {
        let data = arbitrary_training_data(rng);
        check_scoring_policy(&data, arbitrary_background(rng, 300.0));
    });
}

/// The shrunk counterexample an earlier form of the property (excess >= 0)
/// failed on: mostly-zero feature rows with responses at the floor.
#[test]
fn scoring_policy_invariants_on_the_saved_sparse_case() {
    #[rustfmt::skip]
    let rows: [([f64; 8], f64); 12] = [
        ([0.0, 0.0, 40.097736283989235, 126.47602729819114, 225.75137472240334, 242.79561485253623, 0.0, 0.0], 623.5209368718907),
        ([0.0, 0.0, 0.0, 0.0, 100.28417823031805, 0.0, 0.0, 0.0], 1546.8011680935228),
        ([0.0, 0.0, 112.62929483620587, 265.8704793677414, 0.0, 0.0, 0.0, 0.0], 20.0),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 272.06453017159424, 0.0], 20.0),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 141.74048603837815, 0.0], 20.0),
        ([0.0, 0.0, 0.0, 153.83135543050463, 0.0, 0.0, 0.0, 0.0], 859.2801582465758),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 733.4347643839416),
        ([0.0, 0.0, 0.0, 199.98661789770966, 0.0, 0.0, 243.31157382696188, 0.0], 1462.766097501808),
        ([155.7967049940965, 274.88264573736916, 74.46244486724085, 89.32024732958595, 212.1899879958056, 24.27764847774944, 88.29654715179596, 48.86123307374552], 1035.79992860912),
        ([191.95230928620256, 97.95305041230819, 172.88746437144297, 88.9075351345986, 137.88364152369033, 219.48738590485326, 61.556231049322996, 109.6709824476369], 803.2344895770271),
        ([106.27692188330211, 238.8812026918642, 291.2206844627304, 167.56737683800804, 259.7746194932975, 235.87443611561497, 262.9941727270456, 123.46483758303029], 1847.6490697265538),
        ([276.6475470153675, 102.2407249341852, 156.87468978710987, 154.4506749021469, 67.93826851113784, 144.41179753853407, 94.6845492140564, 158.379625457253], 396.77577685063136),
    ];
    let mut data = TrainingData::default();
    for (f, y) in rows {
        data.push(f, y);
    }
    #[rustfmt::skip]
    let bg = [128.49216975749997, 65.07834460471916, 69.00379060254494, 209.98264986104004];
    check_scoring_policy(&data, bg);
}
