//! Application behaviour models.
//!
//! An application is a sequence of *phases*. Each phase declares the
//! resource consumption of the application when it runs at full speed:
//! a CPU utilization, read/write request rates, a request size, and a
//! sequentiality. The engine scales a phase's progress by a rate
//! multiplier `r in [0, 1]` when resources are contended — at multiplier
//! `r` the application consumes `background_cpu + r * cpu` CPU and issues
//! `r * (read_rps + write_rps)` requests per second, and the phase's
//! nominal duration stretches by `1 / r`.
//!
//! `background_cpu` models CPU burned independently of I/O progress (the
//! paper's synthetic load generator runs its arithmetic loop concurrently
//! with its I/O loop), while `cpu` is progress-coupled compute (a real
//! application blocked on I/O stops computing).

/// One phase of an application's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Nominal (uncontended) duration of the phase in seconds.
    pub nominal_s: f64,
    /// Read request rate at full speed, requests/s.
    pub read_rps: f64,
    /// Write request rate at full speed, requests/s.
    pub write_rps: f64,
    /// Request size, KiB.
    pub req_kb: f64,
    /// Stream sequentiality in `[0, 1]`.
    pub sequentiality: f64,
    /// Progress-coupled CPU utilization at full speed, in vCPUs.
    pub cpu: f64,
    /// Progress-independent CPU burn, in vCPUs (synthetic loads).
    pub background_cpu: f64,
}

impl Phase {
    /// A pure-compute phase.
    pub fn compute(nominal_s: f64, cpu: f64) -> Self {
        Phase {
            nominal_s,
            read_rps: 0.0,
            write_rps: 0.0,
            req_kb: 0.0,
            sequentiality: 0.0,
            cpu,
            background_cpu: 0.0,
        }
    }

    /// Total I/O request rate at full speed.
    pub fn io_rps(&self) -> f64 {
        self.read_rps + self.write_rps
    }

    /// True when the phase performs no I/O.
    pub fn is_compute_only(&self) -> bool {
        self.io_rps() < 1e-9
    }
}

/// A complete application model.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// Human-readable benchmark name.
    pub name: String,
    /// Phase program, executed in order (cyclically when `endless`).
    pub phases: Vec<Phase>,
    /// Endless applications loop over their phases forever (synthetic
    /// background workloads); finite applications terminate after the
    /// last phase.
    pub endless: bool,
    /// Multiplicative demand jitter: each phase's demands are scaled by
    /// independent `N(1, jitter)` draws (clamped positive) when entered.
    /// This is the run-to-run variability of real benchmarks.
    pub jitter: f64,
    /// Whether the benchmark's runtime is a meaningful response (FileBench
    /// web takes its runtime as an *input*, so the paper evaluates only its
    /// IOPS).
    pub runtime_meaningful: bool,
}

impl AppModel {
    /// Creates a finite application with the given phases.
    ///
    /// # Panics
    /// Panics when `phases` is empty or any phase has a non-positive
    /// nominal duration.
    pub fn new(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        let name = name.into();
        assert!(!phases.is_empty(), "app {name} has no phases");
        for (i, p) in phases.iter().enumerate() {
            assert!(p.nominal_s > 0.0, "app {name} phase {i} has nominal_s <= 0");
        }
        AppModel {
            name,
            phases,
            endless: false,
            jitter: 0.0,
            runtime_meaningful: true,
        }
    }

    /// Marks the application as endless (cyclic background workload).
    pub fn endless(mut self) -> Self {
        self.endless = true;
        self
    }

    /// Sets the demand jitter.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(jitter >= 0.0, "negative jitter");
        self.jitter = jitter;
        self
    }

    /// Marks the runtime response as not meaningful (IOPS-only benchmark).
    pub fn iops_only(mut self) -> Self {
        self.runtime_meaningful = false;
        self
    }

    /// Total nominal (uncontended) duration across all phases.
    pub fn nominal_runtime(&self) -> f64 {
        self.phases.iter().map(|p| p.nominal_s).sum()
    }

    /// Nominal total number of I/O requests across all phases.
    pub fn nominal_requests(&self) -> f64 {
        self.phases.iter().map(|p| p.io_rps() * p.nominal_s).sum()
    }

    /// Nominal average IOPS when running uncontended.
    pub fn nominal_iops(&self) -> f64 {
        let t = self.nominal_runtime();
        if t > 0.0 {
            self.nominal_requests() / t
        } else {
            0.0
        }
    }

    /// Returns a copy with every phase's nominal duration scaled by
    /// `factor` (demand *rates* unchanged). Useful to shrink benchmarks
    /// for fast tests while preserving their interference behaviour.
    ///
    /// # Panics
    /// Panics when `factor` is not positive.
    pub fn time_scaled(&self, factor: f64) -> AppModel {
        assert!(factor > 0.0, "non-positive time scale");
        let mut out = self.clone();
        for p in &mut out.phases {
            p.nominal_s *= factor;
        }
        out
    }

    /// Returns an endless (cyclic) copy of this application — used when a
    /// finite benchmark serves as a steady background workload during
    /// pairwise interference profiling.
    pub fn as_endless(&self) -> AppModel {
        let mut out = self.clone();
        out.endless = true;
        out
    }

    /// Nominal average CPU utilization (progress-coupled plus background).
    pub fn nominal_cpu(&self) -> f64 {
        let t = self.nominal_runtime();
        if t <= 0.0 {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| (p.cpu + p.background_cpu) * p.nominal_s)
            .sum::<f64>()
            / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_helpers() {
        let p = Phase::compute(10.0, 0.8);
        assert!(p.is_compute_only());
        assert_eq!(p.io_rps(), 0.0);
        let q = Phase {
            read_rps: 30.0,
            write_rps: 20.0,
            ..p
        };
        assert_eq!(q.io_rps(), 50.0);
        assert!(!q.is_compute_only());
    }

    #[test]
    fn nominal_aggregates() {
        let app = AppModel::new(
            "t",
            vec![
                Phase {
                    nominal_s: 10.0,
                    read_rps: 100.0,
                    write_rps: 0.0,
                    req_kb: 64.0,
                    sequentiality: 0.5,
                    cpu: 0.2,
                    background_cpu: 0.0,
                },
                Phase::compute(10.0, 1.0),
            ],
        );
        assert_eq!(app.nominal_runtime(), 20.0);
        assert_eq!(app.nominal_requests(), 1000.0);
        assert!((app.nominal_iops() - 50.0).abs() < 1e-12);
        assert!((app.nominal_cpu() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn builder_flags() {
        let app = AppModel::new("t", vec![Phase::compute(1.0, 0.5)])
            .endless()
            .with_jitter(0.1)
            .iops_only();
        assert!(app.endless);
        assert_eq!(app.jitter, 0.1);
        assert!(!app.runtime_meaningful);
    }

    #[test]
    #[should_panic(expected = "has no phases")]
    fn empty_phases_panics() {
        AppModel::new("bad", vec![]);
    }

    #[test]
    #[should_panic(expected = "nominal_s <= 0")]
    fn zero_duration_panics() {
        AppModel::new("bad", vec![Phase::compute(0.0, 0.5)]);
    }
}
