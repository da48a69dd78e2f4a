//! Fig 7: online model learning. A blastn interference model trained on
//! a host with local storage is applied to an otherwise-identical host
//! whose storage is remote (iSCSI). Prediction errors surge (paper:
//! runtime 12% -> 160%, IOPS 12% -> 83%); TRACON keeps collecting
//! statistics, gradually replaces the training window, and rebuilds the
//! model every 160 new data points, after which the error returns to the
//! ~10% level. A control run that stays on local storage stays flat.

use tracon_core::{AdaptiveModel, ModelKind, MonitorConfig, ResponseScale, TrainingData};
use tracon_stats::prng::ChaCha12;
use tracon_vmsim::{apps, AppModel, Engine, HostConfig, Profiler};

/// Parameters of the adaptation experiment.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Initial training points collected on local storage (paper: 500).
    pub initial_points: usize,
    /// Streamed observations after the storage switch.
    pub stream_points: usize,
    /// Rebuild interval (paper: 160).
    pub rebuild_every: usize,
    /// Benchmark time scale.
    pub time_scale: f64,
    /// Base seed.
    pub seed: u64,
}

impl Fig7Config {
    /// Paper-faithful sizes.
    pub fn full() -> Self {
        Fig7Config {
            initial_points: 500,
            stream_points: 500,
            rebuild_every: 160,
            time_scale: 0.25,
            seed: 0xF167,
        }
    }

    /// Reduced sizes for tests.
    pub fn small() -> Self {
        Fig7Config {
            initial_points: 150,
            stream_points: 160,
            rebuild_every: 50,
            time_scale: 0.08,
            seed: 0xF167,
        }
    }
}

/// One error-trajectory sample.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryPoint {
    /// Stream observation index.
    pub index: usize,
    /// Windowed mean relative error of the runtime model.
    pub runtime_error: f64,
    /// Windowed mean relative error of the IOPS model.
    pub iops_error: f64,
}

/// The Fig 7 result.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Training-set error of the initial models on local storage.
    pub initial_runtime_error: f64,
    /// Training-set error of the initial IOPS model.
    pub initial_iops_error: f64,
    /// Error trajectory on the iSCSI host with adaptation enabled.
    pub adapted: Vec<TrajectoryPoint>,
    /// Error trajectory of the control run (local storage throughout).
    pub control: Vec<TrajectoryPoint>,
    /// Rebuild count during the adapted run (per model).
    pub rebuilds: usize,
}

fn random_background(rng: &mut ChaCha12) -> AppModel {
    let level = |rng: &mut ChaCha12| -> f64 { rng.range_usize(0, 5) as f64 * 0.25 };
    apps::synthetic(level(rng), level(rng), level(rng))
}

/// Collects `(features, runtime, iops)` observations of blastn against
/// random synthetic backgrounds on the given host.
fn collect(
    host: HostConfig,
    target: &AppModel,
    n: usize,
    seed: u64,
) -> (TrainingData, TrainingData) {
    let profiler = Profiler::new(Engine::new(host));
    let mut rng = ChaCha12::seed_from_u64(seed);
    let mut runtime = TrainingData::default();
    let mut iops = TrainingData::default();
    // The solo profile is the constant half of the feature vector.
    let (solo, _, _) = profiler.solo(target, seed);
    for k in 0..n {
        let bg = random_background(&mut rng);
        let set = profiler.profile_one(target, &solo, &bg, seed.wrapping_add(1 + k as u64));
        runtime.push(set.0, set.1);
        iops.push(set.0, set.2);
    }
    (runtime, iops)
}

/// Feeds `data` to `model` in order and returns each observation's
/// prediction error.
fn stream(model: &mut AdaptiveModel, data: &TrainingData) -> Vec<f64> {
    let observations = data.features.iter().zip(&data.responses);
    observations
        .map(|(f, &y)| model.observe(*f, y).error)
        .collect()
}

fn windowed_errors(history: &[f64], window: usize) -> Vec<(usize, f64)> {
    history
        .chunks(window)
        .enumerate()
        .map(|(i, chunk)| {
            (
                (i + 1) * window.min(history.len()),
                tracon_stats::mean(chunk),
            )
        })
        .collect()
}

/// Runs the Fig 7 adaptation experiment.
pub fn run(cfg: &Fig7Config) -> Fig7 {
    let target = apps::Benchmark::Blastn.model().time_scaled(cfg.time_scale);
    let local = HostConfig::testbed();
    let remote = HostConfig::class("iscsi");

    // Initial models trained on local-storage observations.
    let (rt_data, io_data) = collect(local, &target, cfg.initial_points, cfg.seed);
    let monitor_cfg = MonitorConfig {
        window_capacity: cfg.initial_points,
        rebuild_every: cfg.rebuild_every,
        ..MonitorConfig::default()
    };
    let mut rt_adapt = AdaptiveModel::new(ModelKind::Nonlinear, &rt_data, monitor_cfg);
    let mut io_adapt = AdaptiveModel::new_scaled(
        ModelKind::Nonlinear,
        ResponseScale::Reciprocal,
        &io_data,
        monitor_cfg,
    );
    let initial_runtime_error = initial_error(&rt_adapt, &rt_data);
    let initial_iops_error = initial_error(&io_adapt, &io_data);

    // Control models (never see the remote host).
    let mut rt_control = AdaptiveModel::new(ModelKind::Nonlinear, &rt_data, monitor_cfg);
    let mut io_control = AdaptiveModel::new_scaled(
        ModelKind::Nonlinear,
        ResponseScale::Reciprocal,
        &io_data,
        monitor_cfg,
    );

    // Stream observations.
    let (rt_remote, io_remote) = collect(
        remote,
        &target,
        cfg.stream_points,
        cfg.seed.wrapping_add(777),
    );
    let (rt_local2, io_local2) = collect(
        local,
        &target,
        cfg.stream_points,
        cfg.seed.wrapping_add(888),
    );

    let window = (cfg.rebuild_every / 4).max(10);
    let pack = |rt: Vec<f64>, io: Vec<f64>| -> Vec<TrajectoryPoint> {
        let rts = windowed_errors(&rt, window);
        let ios = windowed_errors(&io, window);
        rts.iter()
            .zip(&ios)
            .map(|(&(i, re), &(_, ie))| TrajectoryPoint {
                index: i,
                runtime_error: re,
                iops_error: ie,
            })
            .collect()
    };
    let adapted = pack(
        stream(&mut rt_adapt, &rt_remote),
        stream(&mut io_adapt, &io_remote),
    );
    let control = pack(
        stream(&mut rt_control, &rt_local2),
        stream(&mut io_control, &io_local2),
    );

    Fig7 {
        initial_runtime_error,
        initial_iops_error,
        adapted,
        control,
        rebuilds: rt_adapt.rebuilds(),
    }
}

fn initial_error(model: &AdaptiveModel, data: &TrainingData) -> f64 {
    let errs: Vec<f64> = data
        .features
        .iter()
        .zip(&data.responses)
        .map(|(f, &y)| tracon_core::relative_error(model.predict(f), y))
        .collect();
    tracon_stats::mean(&errs)
}

impl Fig7 {
    /// Mean error over the first reporting window of the adapted run.
    pub fn early_error(&self) -> (f64, f64) {
        self.adapted
            .first()
            .map(|p| (p.runtime_error, p.iops_error))
            .unwrap_or((0.0, 0.0))
    }

    /// Mean error over the last reporting window of the adapted run.
    pub fn late_error(&self) -> (f64, f64) {
        self.adapted
            .last()
            .map(|p| (p.runtime_error, p.iops_error))
            .unwrap_or((0.0, 0.0))
    }

    /// Renders the trajectory series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fig 7: online model learning (blastn, local -> iSCSI storage)"
        );
        let _ = writeln!(
            out,
            "initial training error: runtime {:.3}, IOPS {:.3}; rebuilds every window of new data: {}",
            self.initial_runtime_error, self.initial_iops_error, self.rebuilds
        );
        let _ = writeln!(
            out,
            "{:>8} {:>16} {:>16} {:>16} {:>16}",
            "obs", "adapt rt err", "adapt io err", "ctrl rt err", "ctrl io err"
        );
        for (a, c) in self.adapted.iter().zip(&self.control) {
            let _ = writeln!(
                out,
                "{:8} {:16.3} {:16.3} {:16.3} {:16.3}",
                a.index, a.runtime_error, a.iops_error, c.runtime_error, c.iops_error
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_recovers_from_storage_switch() {
        let fig = run(&Fig7Config::small());
        let (early_rt, early_io) = fig.early_error();
        let (late_rt, late_io) = fig.late_error();
        // Errors surge right after the switch...
        assert!(
            early_rt > 2.0 * fig.initial_runtime_error.max(0.02),
            "no runtime-error surge: early {early_rt} vs initial {}",
            fig.initial_runtime_error
        );
        // ...and recover after rebuilds.
        assert!(fig.rebuilds >= 2, "rebuilds = {}", fig.rebuilds);
        assert!(
            late_rt < early_rt * 0.7,
            "runtime error did not recover: {early_rt} -> {late_rt}"
        );
        assert!(
            late_io <= early_io,
            "IOPS error did not improve: {early_io} -> {late_io}"
        );
    }

    #[test]
    fn control_run_stays_flat() {
        let fig = run(&Fig7Config::small());
        let first = fig.control.first().unwrap();
        let last = fig.control.last().unwrap();
        assert!(
            first.runtime_error < 0.5,
            "control surged: {}",
            first.runtime_error
        );
        assert!(
            last.runtime_error < 0.5,
            "control degraded: {}",
            last.runtime_error
        );
    }
}
