//! Pinned fingerprints of everything `Testbed::build` measures, bit for
//! bit: every pair-table cell and every profile record, at the quick
//! experiment configuration and at the full one the benchmark and
//! `tracon serve` build. The quick pin was recorded on the commit that
//! still had the array-based two-VM engine, so it is what holds the
//! N-guest engine to that engine's arithmetic at N = 2 — a change to the
//! fixed point's iteration cap, fold order or RNG draw order moves it.

use tracon::dcsim::experiments::ExperimentConfig;
use tracon::dcsim::Testbed;

/// Recorded at `6913ca3` (the last commit with `vmsim::multi`).
const QUICK_TESTBED: u64 = 0x36cd_840c_7a64_f814;

/// Recorded at `8d136d4`, the last commit that solved every engine step
/// afresh and trained the models after all profiling had finished.
const FULL_TESTBED: u64 = 0xdf70_b080_87f0_71e5;

/// FNV-1a over the raw bits of every pair-table cell (with both pair
/// predictions after each cell when `predictions` is set), then every
/// profile set's solo statistics and records.
fn fingerprint(tb: &Testbed, predictions: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: f64| h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
    let names = tb.app_names();
    for (a, app) in names.iter().enumerate() {
        fold(tb.perf.solo_runtime(a));
        fold(tb.perf.solo_iops(a));
        for (b, other) in names.iter().enumerate() {
            fold(tb.perf.runtime(a, b));
            fold(tb.perf.iops(a, b));
            if predictions {
                fold(tb.predictor.predict_pair_runtime(app, other));
                fold(tb.predictor.predict_pair_iops(app, other));
            }
        }
    }
    for set in &tb.profiles {
        set.solo.as_features().into_iter().for_each(&mut fold);
        fold(set.solo_runtime);
        fold(set.solo_iops);
        for r in &set.records {
            r.features.into_iter().for_each(&mut fold);
            r.background_observed.into_iter().for_each(&mut fold);
            fold(r.runtime);
            fold(r.iops);
        }
    }
    h
}

#[test]
fn quick_testbed_matches_the_pair_engine_bit_for_bit() {
    let h = fingerprint(&Testbed::build(&ExperimentConfig::quick().testbed), false);
    assert_eq!(
        h, QUICK_TESTBED,
        "quick testbed fingerprint {h:#018x} is not the pinned {QUICK_TESTBED:#018x}"
    );
}

/// The testbed the benchmark and `tracon serve` build, with the trained
/// models' predictions for every pair, so the order the models are
/// trained and registered in is pinned too.
#[test]
fn full_testbed_and_its_predictions_hold_still() {
    let h = fingerprint(&Testbed::build(&ExperimentConfig::full().testbed), true);
    assert_eq!(
        h, FULL_TESTBED,
        "full testbed fingerprint {h:#018x} is not the pinned {FULL_TESTBED:#018x}"
    );
}
