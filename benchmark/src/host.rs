//! The host snapshot printed with every result: timings from different
//! hosts, file systems or dependency sources are not comparable, so
//! each result says where it was taken.

use crate::report::json_string;
use std::path::Path;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub wal_fs: String,
    pub rustc: String,
    pub commit: String,
    pub deps_source: String,
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| default.to_string())
}

/// File-system type of the mount holding `path`: the longest mount
/// point in `/proc/mounts` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.is_none_or(|(len, _)| point.len() > len) {
            best = Some((point.len(), kind));
        }
    }
    best.map_or("unknown", |(_, kind)| kind).to_string()
}

impl Host {
    /// `run.sh` passes what only the build knows through the
    /// environment; a bare binary run reports those as unknown.
    pub fn snapshot(work_dir: &Path) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            wal_fs: fs_type(work_dir),
            rustc: env_or("TRACON_BENCH_RUSTC", "unknown"),
            commit: env_or("TRACON_BENCH_COMMIT", "unknown"),
            deps_source: env_or("TRACON_BENCH_DEPS_SOURCE", "unknown"),
        }
    }

    pub fn json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"wal_fs\": {}, \"rustc\": {}, \
             \"git_commit\": {}, \"deps_source\": {}}}, \"workload\": {}, \"seed\": {seed}, \
             \"seconds\": {seconds}, \"trace\": {trace}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.wal_fs),
            json_string(&self.rustc),
            json_string(&self.commit),
            json_string(&self.deps_source),
            json_string(workload),
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
