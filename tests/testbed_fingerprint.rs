//! One pinned fingerprint of everything `Testbed::build` measures at the
//! quick experiment configuration: every pair-table cell and every
//! profile record, bit for bit. The pin was recorded on the commit that
//! still had the array-based two-VM engine, so it is what holds the
//! N-guest engine to that engine's arithmetic at N = 2 — a change to the
//! fixed point's iteration cap, fold order or RNG draw order moves it.

use tracon::dcsim::experiments::ExperimentConfig;
use tracon::dcsim::Testbed;

/// Recorded at `6913ca3` (the last commit with `vmsim::multi`).
const QUICK_TESTBED: u64 = 0x36cd_840c_7a64_f814;

#[test]
fn quick_testbed_matches_the_pair_engine_bit_for_bit() {
    let tb = Testbed::build(&ExperimentConfig::quick().testbed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: f64| h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
    let n = tb.perf.n_apps();
    for a in 0..n {
        fold(tb.perf.solo_runtime(a));
        fold(tb.perf.solo_iops(a));
        for b in 0..n {
            fold(tb.perf.runtime(a, b));
            fold(tb.perf.iops(a, b));
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
    assert_eq!(
        h, QUICK_TESTBED,
        "quick testbed fingerprint {h:#018x} is not the pinned {QUICK_TESTBED:#018x}"
    );
}
