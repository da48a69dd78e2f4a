//! Fluid-rate model of the Xen credit scheduler.
//!
//! The credit scheduler is, at steady state, a weighted max-min fair
//! allocator: every runnable vCPU receives CPU time proportional to its
//! weight, and capacity a domain does not use is redistributed to the
//! others (work conservation). The classic progressive-filling algorithm
//! computes exactly this allocation for a set of demands and weights.

/// Computes the weighted max-min fair allocation of `capacity` among
/// consumers with the given `demands` and `weights` into `alloc`, a
/// caller-owned buffer of the same length.
///
/// The co-run engine's fixed point calls this twice per round, and the
/// disk once, on fixed-size arrays. It is `#[inline]` so that those calls
/// compile with the array's length as a constant (the checks and loops
/// unroll for two to six consumers); the slice signature is the one
/// implementation every caller shares.
///
/// Properties:
/// * no consumer receives more than its demand,
/// * total allocation never exceeds `capacity`,
/// * when the system is overloaded, unsatisfied consumers receive shares
///   proportional to their weights (work-conserving redistribution of the
///   capacity left by satisfied consumers).
///
/// # Panics
/// Panics when the slices differ in length, or any demand/weight is
/// negative or non-finite.
#[inline]
pub fn fair_share(capacity: f64, demands: &[f64], weights: &[f64], alloc: &mut [f64]) {
    let n = demands.len();
    // One pass checks every input; when any fails, a cold function
    // repeats the checks in their documented order to raise the panic.
    // (This runs twice per fixed-point round of every co-run step.)
    let mut ok = weights.len() == n && alloc.len() == n && capacity >= 0.0 && capacity.is_finite();
    if ok {
        for i in 0..n {
            let (d, w) = (demands[i], weights[i]);
            ok &= (0.0..f64::INFINITY).contains(&d) & (0.0..f64::INFINITY).contains(&w);
        }
    }
    if !ok {
        bad_input(capacity, demands, weights, alloc.len());
    }
    let (weights, alloc) = (&weights[..n], &mut alloc[..n]);
    alloc.fill(0.0);
    let mut remaining = capacity;

    // Progressive filling: raise the fair level until either everyone is
    // satisfied or the capacity runs out. At most n rounds. A consumer is
    // satisfied exactly when its allocation has reached its demand.
    for _ in 0..n {
        // Summed from -0.0 in index order, as `Iterator::sum` does.
        let mut active_weight = -0.0;
        for i in 0..n {
            if demands[i] > alloc[i] {
                active_weight += weights[i];
            }
        }
        if active_weight <= 0.0 || remaining <= 1e-15 {
            break;
        }
        // Tentatively hand each active consumer its weighted share of the
        // remaining capacity; consumers whose demand is below the share
        // are capped and their surplus is re-distributed next round.
        let mut next_remaining = remaining;
        let mut progressed = false;
        for i in 0..n {
            if demands[i] <= alloc[i] {
                continue;
            }
            let share = remaining * weights[i] / active_weight;
            let need = demands[i] - alloc[i];
            if need <= share {
                alloc[i] = demands[i];
                next_remaining -= need;
                progressed = true;
            }
        }
        if !progressed {
            // Nobody was capped this round: distribute the remainder
            // proportionally and finish.
            for i in 0..n {
                if demands[i] > alloc[i] {
                    alloc[i] += remaining * weights[i] / active_weight;
                }
            }
            next_remaining = 0.0;
        }
        remaining = next_remaining.max(0.0);
        if remaining <= 1e-15 {
            break;
        }
    }
}

/// Raises [`fair_share`]'s panic for inputs that failed its check, with
/// the message and in the order of the checks it documents.
#[cold]
#[inline(never)]
fn bad_input(capacity: f64, demands: &[f64], weights: &[f64], alloc_len: usize) -> ! {
    assert_eq!(
        demands.len(),
        weights.len(),
        "demands/weights length mismatch"
    );
    assert_eq!(demands.len(), alloc_len, "demands/alloc length mismatch");
    assert!(
        capacity >= 0.0 && capacity.is_finite(),
        "bad capacity {capacity}"
    );
    for (&d, &w) in demands.iter().zip(weights) {
        assert!(d >= 0.0 && d.is_finite(), "bad demand {d}");
        assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
    }
    unreachable!("fair_share rejected inputs that pass every check")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::check_cases;

    const EQ: f64 = 1e-12;

    /// `fair_share` as it was before its checks became one pass and its
    /// loops plain indexed ones: the reference it must match bit for bit.
    fn reference(capacity: f64, demands: &[f64], weights: &[f64], alloc: &mut [f64]) {
        assert_eq!(
            demands.len(),
            weights.len(),
            "demands/weights length mismatch"
        );
        assert_eq!(demands.len(), alloc.len(), "demands/alloc length mismatch");
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "bad capacity {capacity}"
        );
        for (&d, &w) in demands.iter().zip(weights) {
            assert!(d >= 0.0 && d.is_finite(), "bad demand {d}");
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
        }
        let n = demands.len();
        alloc.fill(0.0);
        let mut remaining = capacity;
        for _ in 0..n {
            let active_weight: f64 = (0..n)
                .filter(|&i| demands[i] > alloc[i])
                .map(|i| weights[i])
                .sum();
            if active_weight <= 0.0 || remaining <= 1e-15 {
                break;
            }
            let mut next_remaining = remaining;
            let mut progressed = false;
            for i in 0..n {
                if demands[i] <= alloc[i] {
                    continue;
                }
                let share = remaining * weights[i] / active_weight;
                let need = demands[i] - alloc[i];
                if need <= share {
                    alloc[i] = demands[i];
                    next_remaining -= need;
                    progressed = true;
                }
            }
            if !progressed {
                for i in 0..n {
                    if demands[i] > alloc[i] {
                        alloc[i] += remaining * weights[i] / active_weight;
                    }
                }
                next_remaining = 0.0;
            }
            remaining = next_remaining.max(0.0);
            if remaining <= 1e-15 {
                break;
            }
        }
    }

    #[test]
    fn matches_the_reference_bit_for_bit() {
        // Demands and weights from a few values, zeros of both signs and
        // repeats among them; capacities around the total demand and
        // around the 1e-15 cut-off.
        const DEMANDS: [f64; 8] = [0.0, -0.0, 1e-16, 0.005, 0.1, 0.5, 1.0, 1.0 / 3.0];
        const WEIGHTS: [f64; 6] = [0.0, -0.0, 1.0, 2.0, 256.0, 0.7];
        const CUTOFF: [f64; 6] = [0.0, -0.0, 5e-16, 1e-15, 1.0000000000000002e-15, 2e-15];
        check_cases(0..4000, |rng| {
            let n = rng.range_usize(1, 6);
            let demands: Vec<f64> = (0..n)
                .map(|_| match rng.range_usize(0, 3) {
                    0 => rng.range_f64(0.0, 1.0),
                    _ => DEMANDS[rng.range_usize(0, DEMANDS.len())],
                })
                .collect();
            let weights: Vec<f64> = match rng.range_usize(0, 3) {
                0 => vec![256.0; n],
                1 => (0..n).map(|_| rng.range_f64(0.1, 4.0)).collect(),
                _ => (0..n)
                    .map(|_| WEIGHTS[rng.range_usize(0, WEIGHTS.len())])
                    .collect(),
            };
            let total: f64 = demands.iter().sum();
            let capacity = match rng.range_usize(0, 4) {
                0 => CUTOFF[rng.range_usize(0, CUTOFF.len())],
                // Under-loaded.
                1 => total * rng.range_f64(1.0, 3.0),
                // Over-loaded.
                2 => total * rng.range_f64(0.0, 1.0),
                _ => [0.5, 1.0, 2.0][rng.range_usize(0, 3)],
            };
            let mut got = vec![f64::NAN; n];
            let mut want = vec![f64::NAN; n];
            fair_share(capacity, &demands, &weights, &mut got);
            reference(capacity, &demands, &weights, &mut want);
            let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "capacity {capacity:e} demands {demands:?} weights {weights:?}"
            );
        });
    }

    #[test]
    #[should_panic(expected = "demands/weights length mismatch")]
    fn weights_of_another_length_panic() {
        fair_share(1.0, &[0.5, 0.5], &[1.0], &mut [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "demands/alloc length mismatch")]
    fn an_allocation_of_another_length_panics() {
        fair_share(1.0, &[0.5, 0.5], &[1.0, 1.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "bad capacity inf")]
    fn an_infinite_capacity_panics() {
        fair_share(f64::INFINITY, &[0.5], &[1.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "bad demand NaN")]
    fn a_nan_demand_panics() {
        fair_share(1.0, &[0.5, f64::NAN], &[1.0, 1.0], &mut [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bad weight -1")]
    fn a_negative_weight_panics() {
        fair_share(1.0, &[0.5, 0.5], &[1.0, -1.0], &mut [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bad demand -1")]
    fn the_first_bad_input_names_the_panic() {
        // The reference checks each consumer's demand before its weight,
        // and consumers in index order.
        fair_share(1.0, &[0.5, -1.0, 0.5], &[1.0, 1.0, -2.0], &mut [0.0; 3]);
    }

    /// The allocation as a fresh vector (tests only; shipped callers
    /// own the buffer).
    fn shares(capacity: f64, demands: &[f64], weights: &[f64]) -> Vec<f64> {
        let mut alloc = vec![f64::NAN; demands.len()];
        fair_share(capacity, demands, weights, &mut alloc);
        alloc
    }

    fn total(a: &[f64]) -> f64 {
        a.iter().sum()
    }

    #[test]
    fn underloaded_everyone_satisfied() {
        let a = shares(2.0, &[0.5, 0.3, 0.1], &[1.0, 1.0, 1.0]);
        assert!((a[0] - 0.5).abs() < EQ);
        assert!((a[1] - 0.3).abs() < EQ);
        assert!((a[2] - 0.1).abs() < EQ);
    }

    #[test]
    fn overloaded_equal_weights_split_evenly() {
        let a = shares(1.0, &[1.0, 1.0], &[1.0, 1.0]);
        assert!((a[0] - 0.5).abs() < EQ);
        assert!((a[1] - 0.5).abs() < EQ);
    }

    #[test]
    fn small_demand_surplus_redistributed() {
        // Consumer 2 only wants 0.1; the other two split the rest evenly.
        let a = shares(1.0, &[1.0, 1.0, 0.1], &[1.0, 1.0, 1.0]);
        assert!((a[2] - 0.1).abs() < EQ);
        assert!((a[0] - 0.45).abs() < EQ);
        assert!((a[1] - 0.45).abs() < EQ);
        assert!((total(&a) - 1.0).abs() < EQ);
    }

    #[test]
    fn weighted_split() {
        // Weight 2:1 -> allocation 2:1 when both are unsatisfied.
        let a = shares(0.9, &[1.0, 1.0], &[2.0, 1.0]);
        assert!((a[0] - 0.6).abs() < EQ);
        assert!((a[1] - 0.3).abs() < EQ);
    }

    #[test]
    fn weighted_with_cap() {
        // Heavy-weight consumer only needs 0.2; light one takes the rest.
        let a = shares(1.0, &[0.2, 5.0], &[10.0, 1.0]);
        assert!((a[0] - 0.2).abs() < EQ);
        assert!((a[1] - 0.8).abs() < EQ);
    }

    #[test]
    fn never_exceeds_capacity_or_demand() {
        let demands = [0.7, 0.4, 1.2, 0.0, 0.05];
        let weights = [1.0, 2.0, 0.5, 1.0, 3.0];
        for &cap in &[0.0, 0.3, 1.0, 2.0, 5.0] {
            let a = shares(cap, &demands, &weights);
            assert!(total(&a) <= cap + 1e-9, "cap={cap} total={}", total(&a));
            for (x, d) in a.iter().zip(&demands) {
                assert!(*x <= d + 1e-9);
                assert!(*x >= 0.0);
            }
        }
    }

    #[test]
    fn zero_capacity_gives_zero() {
        let a = shares(0.0, &[1.0, 2.0], &[1.0, 1.0]);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_weight_consumer_starves_under_load() {
        let a = shares(1.0, &[1.0, 1.0], &[1.0, 0.0]);
        assert!((a[0] - 1.0).abs() < EQ);
        assert!(a[1].abs() < EQ);
    }

    #[test]
    fn empty_input() {
        let a = shares(1.0, &[], &[]);
        assert!(a.is_empty());
    }

    #[test]
    fn table1_cpu_doubling_scenario() {
        // Two CPU-saturating guests plus a nearly idle Dom0 on one core:
        // each guest gets ~0.5 -> runtime doubles (Table 1, Calc/CPU-high).
        let a = shares(1.0, &[1.0, 1.0, 0.005], &[256.0, 256.0, 256.0]);
        assert!((a[0] - a[1]).abs() < EQ);
        assert!(a[0] > 0.49 && a[0] < 0.50);
        assert!((a[2] - 0.005).abs() < EQ);
    }

    #[test]
    fn work_conserving_when_one_idle() {
        // Table 1, SeqRead/CPU-high: the reader's tiny CPU demand and Dom0's
        // I/O handling are both satisfied; the burner gets the rest.
        let a = shares(1.0, &[0.05, 1.0, 0.10], &[256.0, 256.0, 256.0]);
        assert!((a[0] - 0.05).abs() < EQ);
        assert!((a[2] - 0.10).abs() < EQ);
        assert!((a[1] - 0.85).abs() < EQ);
    }
}
