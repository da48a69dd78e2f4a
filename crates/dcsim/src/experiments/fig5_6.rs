//! Figs 5 and 6: NLM's ability to locate the extremes.
//!
//! Fig 5 compares each application's NLM-*predicted minimum* runtime
//! (over all possible co-located partners) against the *measured*
//! minimum, average, and maximum runtimes. Fig 6 does the same for the
//! predicted *maximum* IOPS. Paper shape: the predicted minimum runtime
//! tracks the measured minimum and never exceeds the measured average;
//! the predicted maximum IOPS sits close to the measured maximum.

use crate::setup::Testbed;

/// One application's row in Fig 5 or Fig 6.
#[derive(Debug, Clone)]
pub struct ExtremeRow {
    /// Application name.
    pub app: String,
    /// NLM-predicted extreme (min runtime for Fig 5, max IOPS for Fig 6).
    pub predicted: f64,
    /// Measured minimum over all partners.
    pub measured_min: f64,
    /// Measured average over all partners.
    pub measured_avg: f64,
    /// Measured maximum over all partners.
    pub measured_max: f64,
}

/// The combined Fig 5 + Fig 6 result.
#[derive(Debug, Clone)]
pub struct Fig5And6 {
    /// Fig 5 rows (runtime; web excluded as in the paper).
    pub runtime: Vec<ExtremeRow>,
    /// Fig 6 rows (IOPS).
    pub iops: Vec<ExtremeRow>,
    /// Spearman rank correlation between predicted and measured pair
    /// runtimes, per application: the ordering quality the scheduler
    /// consumes (1.0 = every neighbour ranked correctly).
    pub rank_correlation: Vec<(String, f64)>,
}

/// Runs the Fig 5/6 analysis on a built testbed.
pub fn run(testbed: &Testbed) -> Fig5And6 {
    let perf = &testbed.perf;
    let n = perf.n_apps();
    let mut runtime = Vec::new();
    let mut iops = Vec::new();
    let mut rank_correlation = Vec::new();
    for a in 0..n {
        let name = perf.names[a].clone();
        // Predicted extremes over every possible partner.
        let mut pred_min_rt = f64::INFINITY;
        let mut pred_max_io = 0.0f64;
        for b in 0..n {
            let other = &perf.names[b];
            let rt = testbed.predictor.predict_pair_runtime(&name, other);
            let io = testbed.predictor.predict_pair_iops(&name, other);
            pred_min_rt = pred_min_rt.min(rt);
            pred_max_io = pred_max_io.max(io);
        }
        // Measured extremes from the pair matrix.
        let rts: Vec<f64> = (0..n).map(|b| perf.runtime(a, b)).collect();
        let ios: Vec<f64> = (0..n).map(|b| perf.iops(a, b)).collect();
        // Ordering quality: do the predictions rank neighbours like the
        // measurements do?
        let preds: Vec<f64> = (0..n)
            .map(|b| {
                testbed
                    .predictor
                    .predict_pair_runtime(&name, &perf.names[b])
            })
            .collect();
        rank_correlation.push((name.clone(), tracon_stats::spearman(&preds, &rts)));
        if name != "web" {
            runtime.push(ExtremeRow {
                app: name.clone(),
                predicted: pred_min_rt,
                measured_min: tracon_stats::descriptive::min(&rts),
                measured_avg: tracon_stats::mean(&rts),
                measured_max: tracon_stats::descriptive::max(&rts),
            });
        }
        iops.push(ExtremeRow {
            app: name,
            predicted: pred_max_io,
            measured_min: tracon_stats::descriptive::min(&ios),
            measured_avg: tracon_stats::mean(&ios),
            measured_max: tracon_stats::descriptive::max(&ios),
        });
    }
    Fig5And6 {
        runtime,
        iops,
        rank_correlation,
    }
}

impl Fig5And6 {
    fn render_panel(header: &str, rows: &[ExtremeRow]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        let _ = writeln!(
            out,
            "{:10} {:>10} {:>10} {:>10} {:>10}",
            "benchmark", "predicted", "meas min", "meas avg", "meas max"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:10} {:10.1} {:10.1} {:10.1} {:10.1}",
                r.app, r.predicted, r.measured_min, r.measured_avg, r.measured_max
            );
        }
        out
    }

    /// Renders both figures' series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = Self::render_panel(
            "Fig 5: NLM predicted minimum runtime vs measured min/avg/max (s)",
            &self.runtime,
        );
        let _ = writeln!(out);
        out.push_str(&Self::render_panel(
            "Fig 6: NLM predicted maximum IOPS vs measured min/avg/max",
            &self.iops,
        ));
        let _ = writeln!(
            out,
            "\nneighbour-ranking quality (Spearman rho, predicted vs measured runtimes):"
        );
        for (app, rho) in &self.rank_correlation {
            let _ = writeln!(out, "  {app:10} {rho:+.3}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    #[test]
    fn predicted_min_runtime_tracks_measured_min() {
        let tb = shared();
        let fig = run(tb);
        for r in &fig.runtime {
            // The paper: "the predicted minimum never goes beyond the
            // measured average or maximum runtimes".
            assert!(
                r.predicted <= r.measured_avg * 1.05,
                "{}: predicted {} above measured avg {}",
                r.app,
                r.predicted,
                r.measured_avg
            );
            // And it should sit near the measured minimum.
            assert!(
                (r.predicted - r.measured_min).abs() / r.measured_min < 0.5,
                "{}: predicted {} far from measured min {}",
                r.app,
                r.predicted,
                r.measured_min
            );
        }
    }

    #[test]
    fn predicted_max_iops_close_to_measured_max() {
        let tb = shared();
        let fig = run(tb);
        for r in &fig.iops {
            assert!(
                r.predicted >= r.measured_min,
                "{}: predicted max IOPS {} below measured min {}",
                r.app,
                r.predicted,
                r.measured_min
            );
            assert!(
                (r.predicted - r.measured_max).abs() / r.measured_max < 0.5,
                "{}: predicted {} far from measured max {}",
                r.app,
                r.predicted,
                r.measured_max
            );
        }
    }

    #[test]
    fn predictions_rank_neighbours_correctly_for_sensitive_apps() {
        let tb = shared();
        let fig = run(tb);
        // The scheduler only needs the ordering, and only for the
        // applications that actually care where they land. Insensitive
        // apps (email, web) have near-constant predictions — their rho is
        // legitimately ~0 and harmless.
        for sensitive in ["blastn", "dedup", "video"] {
            let (_, rho) = fig
                .rank_correlation
                .iter()
                .find(|(n, _)| n == sensitive)
                .expect("app present");
            assert!(*rho > 0.6, "{sensitive}: Spearman rho {rho}");
        }
    }

    #[test]
    fn web_excluded_from_runtime_panel() {
        let tb = shared();
        let fig = run(tb);
        assert!(fig.runtime.iter().all(|r| r.app != "web"));
        assert_eq!(fig.iops.len(), 8);
        assert_eq!(fig.runtime.len(), 7);
    }
}
