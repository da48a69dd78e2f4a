//! Extension experiment: the full TRACON control loop inside the data
//! center (paper Fig 2 — the task & resource monitor feeding realized
//! measurements back into the prediction models while the system runs).
//!
//! A data center is deployed with a *stale* prediction module — models
//! trained for a host whose storage has since been replaced (the Fig 7
//! scenario, now at cluster scale). The adaptive arm runs as ONE
//! continuous simulation with TRACON's [`Monitor`] attached: every
//! completion feeds the per-application monitors, and whenever a monitor
//! rebuild fires the kernel swaps the scheduler's predictor *mid-run* —
//! no segment restarts, no post-hoc replay. We compare:
//!
//! * **stale** — the mismatched predictor, never updated,
//! * **adaptive** — the same starting point, adapted online by the
//!   monitor as the simulation runs,
//! * **fresh** — the deployment testbed's own predictor, trained on the
//!   actual host but against synthetic calibration workloads: the
//!   reference that online data beats, because the monitors learn the
//!   application pairs the cluster actually runs.
//!
//! The reporting stays segmented: completions of the continuous adaptive
//! run are bucketed into wall-clock segments, and each segment's
//! prediction error is measured against the predictor snapshot the
//! scheduler held at that segment's start.

use crate::arrival::{poisson_trace, ArrivalEvent, WorkloadMix};
use crate::engine::{CompletionInfo, SchedulerKind, SimObserver, Simulation};
use crate::perf::IDLE;
use crate::setup::{Testbed, TestbedConfig};
use std::collections::BTreeMap;
use tracon_core::{
    AppProfile, Characteristics, ModelKind, Monitor, MonitorConfig, Objective, Predictor,
    TrainingData,
};
use tracon_vmsim::HostConfig;

/// Parameters of the adaptation-in-the-loop experiment.
#[derive(Debug, Clone)]
pub struct ExtAdaptiveConfig {
    /// Number of machines.
    pub machines: usize,
    /// Arrival rate, tasks/minute.
    pub lambda: f64,
    /// Segment length, seconds (reporting granularity of the continuous
    /// adaptive run; the stale/fresh reference arms run per segment).
    pub segment_s: f64,
    /// Number of segments.
    pub segments: usize,
    /// Testbed time scale.
    pub time_scale: f64,
    /// Base seed.
    pub seed: u64,
}

impl ExtAdaptiveConfig {
    /// Full-scale settings.
    pub fn full() -> Self {
        ExtAdaptiveConfig {
            machines: 32,
            lambda: 60.0,
            segment_s: 3600.0,
            segments: 6,
            time_scale: 0.25,
            seed: 0xADA97,
        }
    }

    /// Reduced settings for tests.
    pub fn small() -> Self {
        ExtAdaptiveConfig {
            machines: 8,
            lambda: 30.0,
            segment_s: 1200.0,
            segments: 4,
            time_scale: 0.08,
            seed: 0xADA97,
        }
    }
}

/// Per-segment outcome for the three predictors.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Segment index (0-based).
    pub segment: usize,
    /// Completed tasks with the stale predictor.
    pub stale: usize,
    /// Completed tasks with the adaptive predictor (continuous run,
    /// bucketed by completion time).
    pub adaptive: usize,
    /// Completed tasks with the deployment testbed's own,
    /// synthetic-profile-trained predictor.
    pub fresh: usize,
    /// Mean relative runtime-prediction error of the predictor snapshot
    /// the scheduler held at the segment's start, on the segment's
    /// realized observations.
    pub adaptive_error: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct ExtAdaptive {
    /// One row per segment.
    pub rows: Vec<SegmentRow>,
    /// Monitor rebuilds across all per-application models during the
    /// continuous adaptive run.
    pub rebuilds: usize,
    /// Drift events the monitors flagged during the adaptive run.
    pub drifts: usize,
    /// How many times the kernel swapped the scheduler's predictor
    /// mid-simulation.
    pub predictor_swaps: usize,
    /// Completions the monitor observed in the adaptive run.
    pub observed: usize,
}

/// Builds a predictor from a profile source testbed, but keeping the
/// *deployment* testbed's solo statistics (the monitor knows the current
/// solo profiles; only the interference models are stale). The models
/// are the profile source's own, shared, not trained again.
fn stale_predictor(deploy: &Testbed, profile_source: &Testbed) -> Predictor {
    let mut p = Predictor::new();
    let ids = tracon_core::AppRegistry::from_names(deploy.perf.names.iter().cloned());
    for set in &profile_source.profiles {
        let name = set.target.clone();
        let i = deploy.perf.index_of_id(ids.expect_id(&name));
        p.add_app(
            AppProfile {
                name,
                solo: deploy.app_chars[&set.target],
                solo_runtime: deploy.perf.solo_runtime(i),
                solo_iops: deploy.perf.solo_iops(i),
            },
            profile_source.predictor.models(&set.target).clone(),
        );
    }
    p
}

/// Distills the stale predictor's behaviour into per-application training
/// sets (pair-table index order) by sampling its predictions over the
/// known neighbour profiles plus the idle slot. These seed the monitor
/// windows so the adaptive models start exactly as wrong as the deployed
/// stale module.
fn distill(deploy: &Testbed, base: &Predictor) -> (Vec<TrainingData>, Vec<TrainingData>) {
    let mut rt_all = Vec::new();
    let mut io_all = Vec::new();
    for name in &deploy.perf.names {
        let mut rt = TrainingData::default();
        let mut io = TrainingData::default();
        let t = deploy.app_chars[name];
        for nb_name in &deploy.perf.names {
            let nb = deploy.app_chars[nb_name];
            let f = tracon_core::joint_features(&t, &nb);
            rt.push(f, base.predict_runtime(name, &nb));
            io.push(f, base.predict_iops(name, &nb));
        }
        let idle = Characteristics::idle();
        let f = tracon_core::joint_features(&t, &idle);
        rt.push(f, base.predict_runtime(name, &idle));
        io.push(f, base.predict_iops(name, &idle));
        rt_all.push(rt);
        io_all.push(io);
    }
    (rt_all, io_all)
}

/// Wraps the [`Monitor`] with wall-clock segmentation: buckets
/// completions per segment and measures each segment's realized runtimes
/// against the predictor snapshot the scheduler held when the segment
/// began. Individual task runtimes vary hugely under neighbour churn (a
/// co-resident may depart seconds after placement), so the error is
/// evaluated against the *class-conditional mean* — the average realized
/// runtime per (application, neighbour-at-start) class — which isolates
/// model staleness from irreducible outcome noise.
struct SegmentTracker {
    inner: Monitor,
    segment_s: f64,
    segments: usize,
    current: usize,
    /// Predictor snapshot at the current segment's start.
    snapshot: Predictor,
    /// (app, neighbour-at-start) -> (runtime sum, count), this segment.
    groups: BTreeMap<(usize, usize), (f64, usize)>,
    completed: usize,
    /// Finalized (completed, error) per segment.
    done: Vec<(usize, f64)>,
}

impl SegmentTracker {
    fn new(inner: Monitor, segment_s: f64, segments: usize) -> Self {
        let snapshot = inner.export_predictor();
        SegmentTracker {
            inner,
            segment_s,
            segments,
            current: 0,
            snapshot,
            groups: BTreeMap::new(),
            completed: 0,
            done: Vec::new(),
        }
    }

    fn finalize_segment(&mut self) {
        let mut errors = Vec::new();
        for (&(app, nb), &(sum, count)) in &self.groups {
            let name = &self.inner.app_names()[app];
            let nb_chars = if nb == IDLE {
                Characteristics::idle()
            } else {
                self.inner.solo_chars(nb)
            };
            let pred = self.snapshot.predict_runtime(name, &nb_chars);
            let group_mean = sum / count as f64;
            // Weight each class by its observation count.
            for _ in 0..count {
                errors.push(tracon_core::relative_error(pred, group_mean));
            }
        }
        self.done
            .push((self.completed, tracon_stats::mean(&errors)));
        self.groups.clear();
        self.completed = 0;
        self.snapshot = self.inner.export_predictor();
    }

    fn advance_to(&mut self, seg: usize) {
        while self.current < seg && self.current + 1 < self.segments {
            self.finalize_segment();
            self.current += 1;
        }
    }

    /// Flushes the open segment and returns the per-segment series plus
    /// the monitor.
    fn finish(mut self) -> (Vec<(usize, f64)>, Monitor) {
        while self.done.len() < self.segments {
            self.finalize_segment();
        }
        (self.done, self.inner)
    }
}

impl SimObserver for SegmentTracker {
    fn on_completion(&mut self, info: &CompletionInfo) {
        let seg = ((info.time / self.segment_s).floor() as usize).min(self.segments - 1);
        self.advance_to(seg);
        self.completed += 1;
        if info.runtime >= 1.0 {
            // Degenerate records clipped by the horizon are skipped.
            let e = self
                .groups
                .entry((info.app_idx, info.neighbor_at_start))
                .or_insert((0.0, 0));
            e.0 += info.runtime;
            e.1 += 1;
        }
        self.inner.on_completion(info);
    }

    fn updated_predictor(&mut self) -> Option<Predictor> {
        self.inner.updated_predictor()
    }
}

/// Runs the adaptation-in-the-loop experiment.
pub fn run(cfg: &ExtAdaptiveConfig) -> ExtAdaptive {
    // Deployment environment: local SATA. Stale profiles: iSCSI host.
    let deploy = Testbed::build(&TestbedConfig {
        host: HostConfig::testbed(),
        time_scale: cfg.time_scale,
        model_kind: ModelKind::Nonlinear,
        calibration_points: 45,
        seed: cfg.seed,
    });
    let stale_src = Testbed::build(&TestbedConfig {
        host: HostConfig::class("iscsi"),
        time_scale: cfg.time_scale,
        model_kind: ModelKind::Nonlinear,
        calibration_points: 45,
        seed: cfg.seed.wrapping_add(1),
    });
    let stale = stale_predictor(&deploy, &stale_src);

    // Per-segment arrival traces (shared by all three arms; the adaptive
    // arm sees them concatenated on one continuous clock).
    let traces: Vec<Vec<ArrivalEvent>> = (0..cfg.segments)
        .map(|seg| {
            let seed = cfg.seed.wrapping_add(100 + seg as u64);
            poisson_trace(cfg.lambda, cfg.segment_s, WorkloadMix::Medium, seed)
        })
        .collect();
    let mut combined: Vec<ArrivalEvent> = Vec::new();
    for (seg, trace) in traces.iter().enumerate() {
        let offset = seg as f64 * cfg.segment_s;
        combined.extend(trace.iter().map(|a| ArrivalEvent {
            time: a.time + offset,
            app_idx: a.app_idx,
        }));
    }

    // The adaptive arm: one continuous simulation. The monitors start
    // from the stale module's behaviour (distilled into their windows)
    // and rebuild with the WMM every `rebuild_every` realized
    // observations — the observation stream only covers the known
    // neighbour classes, where local interpolation is the right tool.
    let (init_rt, init_io) = distill(&deploy, &stale);
    let monitor_cfg = MonitorConfig {
        window_capacity: 60,
        rebuild_every: 20,
        ..MonitorConfig::default()
    };
    let monitor = Monitor::new(
        &stale,
        &deploy.perf.names,
        ModelKind::Wmm,
        &init_rt,
        &init_io,
        monitor_cfg,
    );
    let initial = monitor.export_predictor();
    let mut tracker = SegmentTracker::new(monitor, cfg.segment_s, cfg.segments);
    let horizon = cfg.segments as f64 * cfg.segment_s;
    Simulation::new(&deploy, cfg.machines, SchedulerKind::Mibs(8))
        .with_objective(Objective::MinRuntime)
        .with_queue_capacity(8)
        .with_predictor(&initial)
        .run_with_observer(&combined, Some(horizon), &mut tracker);
    let (adaptive_rows, monitor) = tracker.finish();

    // Reference arms, per segment: the stale predictor and the
    // deployment testbed's own.
    let mut rows = Vec::new();
    for (seg, trace) in traces.iter().enumerate() {
        let r_stale = Simulation::new(&deploy, cfg.machines, SchedulerKind::Mibs(8))
            .with_objective(Objective::MinRuntime)
            .with_queue_capacity(8)
            .with_predictor(&stale)
            .run(trace, Some(cfg.segment_s));
        let r_fresh = Simulation::new(&deploy, cfg.machines, SchedulerKind::Mibs(8))
            .with_objective(Objective::MinRuntime)
            .with_queue_capacity(8)
            .run(trace, Some(cfg.segment_s));
        let (adaptive, adaptive_error) = adaptive_rows[seg];
        rows.push(SegmentRow {
            segment: seg,
            stale: r_stale.completed,
            adaptive,
            fresh: r_fresh.completed,
            adaptive_error,
        });
    }
    ExtAdaptive {
        rows,
        rebuilds: monitor.total_rebuilds(),
        drifts: monitor.total_drifts(),
        predictor_swaps: monitor.predictor_swaps(),
        observed: monitor.observed(),
    }
}

impl ExtAdaptive {
    /// Renders the per-segment series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Adaptation-in-the-loop extension: MIBS_8 throughput per segment"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10} {:>18}",
            "segment", "stale", "adaptive", "fresh", "adaptive rt error"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>10} {:>10} {:>17.1}%",
                r.segment,
                r.stale,
                r.adaptive,
                r.fresh,
                r.adaptive_error * 100.0
            );
        }
        let _ = writeln!(
            out,
            "\nmonitor: {} completions observed, {} model rebuilds, {} drift events,",
            self.observed, self.rebuilds, self.drifts
        );
        let _ = writeln!(out, "{} mid-run predictor swaps", self.predictor_swaps);
        let _ = writeln!(
            out,
            "\nThe adaptive arm starts from the stale (wrong-storage) models and adapts"
        );
        let _ = writeln!(
            out,
            "online: every completion feeds the monitor, and each rebuild swaps the"
        );
        let _ = writeln!(
            out,
            "scheduler's predictor mid-simulation; its prediction error collapses after"
        );
        let _ = writeln!(
            out,
            "the first segment and its throughput passes the fresh arm's, whose models"
        );
        let _ = writeln!(
            out,
            "were trained on synthetic calibration profiles: online data from the"
        );
        let _ = writeln!(out, "pairs the cluster runs beats them.");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_reduces_prediction_error() {
        let fig = run(&ExtAdaptiveConfig::small());
        let first = fig.rows.first().unwrap();
        let last = fig.rows.last().unwrap();
        assert!(
            first.adaptive_error > 0.15,
            "stale models should start wrong: {}",
            first.adaptive_error
        );
        assert!(
            last.adaptive_error < first.adaptive_error * 0.5,
            "adaptation should halve the error: {} -> {}",
            first.adaptive_error,
            last.adaptive_error
        );
    }

    #[test]
    fn adaptive_throughput_not_worse_than_stale() {
        let fig = run(&ExtAdaptiveConfig::small());
        // After warm-up, the adaptive predictor should not trail the stale
        // one (sum over the post-warm-up segments).
        let adaptive: usize = fig.rows.iter().skip(1).map(|r| r.adaptive).sum();
        let stale: usize = fig.rows.iter().skip(1).map(|r| r.stale).sum();
        assert!(
            adaptive as f64 >= stale as f64 * 0.97,
            "adaptive {adaptive} vs stale {stale}"
        );
    }

    #[test]
    fn monitor_adapts_mid_simulation() {
        let fig = run(&ExtAdaptiveConfig::small());
        assert!(fig.observed > 0, "monitor saw no completions");
        assert!(
            fig.rebuilds > 0,
            "monitor never rebuilt a model mid-run: {} observations",
            fig.observed
        );
        assert!(
            fig.predictor_swaps > 0,
            "kernel never swapped the predictor mid-run"
        );
    }
}
