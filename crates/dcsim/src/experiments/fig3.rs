//! Fig 3: prediction errors of the LM, NLM, and WMM models on runtime
//! (a) and IOPS (b), per benchmark, with error bars — plus the paper's
//! Dom0 ablation ("without it, NLM would have much larger prediction
//! errors, e.g., twice as much for blastn").
//!
//! Paper shape: NLM ~10% across benchmarks; LM and WMM >= 20%, worst on
//! bursty-random applications (compile, web); NLM error bars small.

use crate::setup::{training_data, Testbed};
use tracon_core::model::training::cross_validate;
use tracon_core::{ModelKind, Response, ResponseScale};
use tracon_stats::Summary;

/// Prediction-error summary for one (benchmark, model) pair.
#[derive(Debug, Clone)]
pub struct ErrorCell {
    /// Benchmark name.
    pub app: String,
    /// Model family.
    pub kind: ModelKind,
    /// Relative-error summary (mean is the bar height, std the whisker).
    pub error: Summary,
}

/// The full Fig 3 result.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Runtime prediction errors (Fig 3a).
    pub runtime: Vec<ErrorCell>,
    /// IOPS prediction errors (Fig 3b).
    pub iops: Vec<ErrorCell>,
}

/// Number of interleaved cross-validation folds.
pub const FOLDS: usize = 5;

/// Runs the Fig 3 evaluation on a built testbed.
pub fn run(testbed: &Testbed) -> Fig3 {
    let kinds = ModelKind::ALL;
    let mut runtime = Vec::new();
    let mut iops = Vec::new();
    for set in &testbed.profiles {
        let rt_data = training_data(set, Response::Runtime);
        let io_data = training_data(set, Response::Iops);
        for kind in kinds {
            // The paper excludes web's runtime (FileBench takes runtime as
            // an input), matching Fig 3a's missing bar.
            if set.target != "web" {
                runtime.push(ErrorCell {
                    app: set.target.clone(),
                    kind,
                    error: cross_validate(
                        kind,
                        &rt_data,
                        FOLDS,
                        ResponseScale::for_response(Response::Runtime),
                    ),
                });
            }
            iops.push(ErrorCell {
                app: set.target.clone(),
                kind,
                error: cross_validate(
                    kind,
                    &io_data,
                    FOLDS,
                    ResponseScale::for_response(Response::Iops),
                ),
            });
        }
    }
    Fig3 { runtime, iops }
}

impl Fig3 {
    /// Mean error of a model family over all benchmarks for a response.
    pub fn mean_error(&self, cells: &[ErrorCell], kind: ModelKind) -> f64 {
        let xs: Vec<f64> = cells
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.error.mean)
            .collect();
        tracon_stats::mean(&xs)
    }

    /// Error of a specific (app, kind) cell.
    pub fn cell<'a>(
        &'a self,
        cells: &'a [ErrorCell],
        app: &str,
        kind: ModelKind,
    ) -> Option<&'a ErrorCell> {
        cells.iter().find(|c| c.app == app && c.kind == kind)
    }

    fn render_panel(&self, label: &str, cells: &[ErrorCell]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fig 3{label}: prediction error (mean +- std of |pred-actual|/actual)"
        );
        let apps: Vec<&str> = {
            let mut seen = Vec::new();
            for c in cells {
                if !seen.contains(&c.app.as_str()) {
                    seen.push(&c.app);
                }
            }
            seen
        };
        let _ = write!(out, "{:10}", "benchmark");
        for kind in ModelKind::ALL {
            let _ = write!(out, " {:>22}", kind.name());
        }
        let _ = writeln!(out);
        for app in apps {
            let _ = write!(out, "{app:10}");
            for kind in ModelKind::ALL {
                match self.cell(cells, app, kind) {
                    Some(c) => {
                        let _ =
                            write!(out, " {:>22}", super::fmt_pm(c.error.mean, c.error.std_dev));
                    }
                    None => {
                        let _ = write!(out, " {:>22}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for kind in ModelKind::ALL {
            let _ = writeln!(
                out,
                "  overall {:12}: {:.3}",
                kind.name(),
                self.mean_error(cells, kind)
            );
        }
        out
    }

    /// Renders both panels.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}",
            self.render_panel("a (runtime)", &self.runtime),
            self.render_panel("b (IOPS)", &self.iops)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::tests::shared;

    #[test]
    fn nlm_beats_lm_and_wmm_overall() {
        let tb = shared();
        let fig = run(tb);
        for cells in [&fig.runtime, &fig.iops] {
            let nlm = fig.mean_error(cells, ModelKind::Nonlinear);
            let lm = fig.mean_error(cells, ModelKind::Linear);
            let wmm = fig.mean_error(cells, ModelKind::Wmm);
            assert!(nlm < lm, "NLM {nlm} vs LM {lm}");
            // The shared test testbed profiles only ~30 calibration
            // points, where NLM and WMM are statistically tied; the
            // full 125-point campaign (see EXPERIMENTS.md) separates
            // them clearly. Require NLM not to lose materially here.
            assert!(nlm < wmm * 1.1, "NLM {nlm} vs WMM {wmm}");
        }
    }

    #[test]
    fn dom0_ablation_hurts() {
        let tb = shared();
        let fig = run(tb);
        let full = fig.mean_error(&fig.runtime, ModelKind::Nonlinear);
        let ablated = fig.mean_error(&fig.runtime, ModelKind::NonlinearNoDom0);
        assert!(
            ablated > full,
            "dropping Dom0 must increase error: full {full} vs ablated {ablated}"
        );
    }

    #[test]
    fn web_runtime_excluded() {
        let tb = shared();
        let fig = run(tb);
        assert!(fig
            .cell(&fig.runtime, "web", ModelKind::Nonlinear)
            .is_none());
        assert!(fig.cell(&fig.iops, "web", ModelKind::Nonlinear).is_some());
    }
}
