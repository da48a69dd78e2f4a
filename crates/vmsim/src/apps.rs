//! The data-intensive benchmark suite of the paper (Table 3), the
//! microbenchmarks used in the motivating Table 1, and the synthetic
//! calibration workload generator (Section 3.1).
//!
//! Benchmark models preserve each application's published qualitative
//! behaviour and its I/O-intensity *rank* (Table 3: email=1 lowest ...
//! video=8 highest). Absolute data sizes are scaled down by roughly 10x
//! so a full profiling campaign (8 apps x 126 backgrounds) simulates in
//! seconds; runtimes and IOPS keep their relative structure, which is all
//! the models and schedulers consume.

use crate::app::{AppModel, Phase};

/// Identifier for the eight paper benchmarks, ordered by Table 3's
/// I/O-intensity rank (low to high).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Postmark email-server workload (rank 1, lowest IOPS).
    Email,
    /// FileBench web-server workload (rank 2; IOPS-only response).
    Web,
    /// NIH BLAST protein search over the NR database (rank 3).
    Blastp,
    /// Linux kernel compilation (rank 4).
    Compile,
    /// Parsec frequent-itemset mining (rank 5).
    Freqmine,
    /// NIH BLAST nucleotide search over the NT database (rank 6).
    Blastn,
    /// Parsec deduplication/compression pipeline (rank 7).
    Dedup,
    /// Parsec H.264 video encoding (rank 8, highest IOPS).
    Video,
}

impl Benchmark {
    /// All benchmarks in rank order (email first, video last).
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Email,
        Benchmark::Web,
        Benchmark::Blastp,
        Benchmark::Compile,
        Benchmark::Freqmine,
        Benchmark::Blastn,
        Benchmark::Dedup,
        Benchmark::Video,
    ];

    /// The benchmark's I/O intensity rank from Table 3 (1 = lowest IOPS).
    pub fn io_rank(&self) -> usize {
        match self {
            Benchmark::Email => 1,
            Benchmark::Web => 2,
            Benchmark::Blastp => 3,
            Benchmark::Compile => 4,
            Benchmark::Freqmine => 5,
            Benchmark::Blastn => 6,
            Benchmark::Dedup => 7,
            Benchmark::Video => 8,
        }
    }

    /// Benchmark with the given Table 3 rank (1-8).
    ///
    /// # Panics
    /// Panics when `rank` is outside `1..=8`.
    pub fn from_io_rank(rank: usize) -> Benchmark {
        assert!((1..=8).contains(&rank), "rank {rank} out of range");
        Benchmark::ALL[rank - 1]
    }

    /// Lower-case name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Email => "email",
            Benchmark::Web => "web",
            Benchmark::Blastp => "blastp",
            Benchmark::Compile => "compile",
            Benchmark::Freqmine => "freqmine",
            Benchmark::Blastn => "blastn",
            Benchmark::Dedup => "dedup",
            Benchmark::Video => "video",
        }
    }

    /// Builds the behaviour model for this benchmark.
    pub fn model(&self) -> AppModel {
        match self {
            Benchmark::Email => email(),
            Benchmark::Web => web(),
            Benchmark::Blastp => blastp(),
            Benchmark::Compile => compile(),
            Benchmark::Freqmine => freqmine(),
            Benchmark::Blastn => blastn(),
            Benchmark::Dedup => dedup(),
            Benchmark::Video => video(),
        }
    }
}

fn repeat_cycles(cycle: Vec<Phase>, n: usize) -> Vec<Phase> {
    let mut phases = Vec::with_capacity(cycle.len() * n);
    for _ in 0..n {
        phases.extend_from_slice(&cycle);
    }
    phases
}

/// Postmark email-server workload: huge numbers of tiny create / read /
/// write / delete operations on small files. Low aggregate IOPS, fully
/// random access, very light CPU.
pub fn email() -> AppModel {
    let cycle = vec![Phase {
        nominal_s: 30.0,
        read_rps: 8.0,
        write_rps: 10.0,
        req_kb: 4.0,
        sequentiality: 0.08,
        cpu: 0.08,
        background_cpu: 0.0,
    }];
    AppModel::new("email", repeat_cycles(cycle, 12)).with_jitter(0.08)
}

/// FileBench web-server profile: 100 threads doing open/read/close over
/// 10,000 small files with a log append every ten operations. Bursty
/// random reads; runtime is an input to FileBench, so only IOPS is a
/// meaningful response (the paper excludes web from runtime figures).
pub fn web() -> AppModel {
    let cycle = vec![
        Phase {
            nominal_s: 6.0,
            read_rps: 34.0,
            write_rps: 3.5,
            req_kb: 16.0,
            sequentiality: 0.15,
            cpu: 0.12,
            background_cpu: 0.0,
        },
        Phase {
            nominal_s: 4.0,
            read_rps: 10.0,
            write_rps: 1.0,
            req_kb: 16.0,
            sequentiality: 0.15,
            cpu: 0.07,
            background_cpu: 0.0,
        },
    ];
    AppModel::new("web", repeat_cycles(cycle, 36))
        .with_jitter(0.12)
        .iops_only()
}

/// BLAST protein search (NR database, 11 GB): streams database chunks and
/// spends most of its time in alignment compute. CPU-bound with steady
/// moderately-sequential reads.
pub fn blastp() -> AppModel {
    let cycle = vec![Phase {
        nominal_s: 72.0,
        read_rps: 32.0,
        write_rps: 2.0,
        req_kb: 64.0,
        sequentiality: 0.95,
        cpu: 0.97,
        background_cpu: 0.0,
    }];
    AppModel::new("blastp", repeat_cycles(cycle, 5)).with_jitter(0.05)
}

/// Linux 2.6.18 kernel compilation: alternates bursts of small random
/// source reads, compute-heavy compilation, and object-file writes.
/// The burstiness is what defeats the linear interference model.
pub fn compile() -> AppModel {
    let cycle = vec![
        Phase {
            nominal_s: 3.0,
            read_rps: 120.0,
            write_rps: 0.0,
            req_kb: 8.0,
            sequentiality: 0.40,
            cpu: 0.35,
            background_cpu: 0.0,
        },
        Phase {
            nominal_s: 3.0,
            read_rps: 15.0,
            write_rps: 5.0,
            req_kb: 8.0,
            sequentiality: 0.40,
            cpu: 0.85,
            background_cpu: 0.0,
        },
        Phase {
            nominal_s: 2.0,
            read_rps: 10.0,
            write_rps: 105.0,
            req_kb: 16.0,
            sequentiality: 0.50,
            cpu: 0.40,
            background_cpu: 0.0,
        },
    ];
    AppModel::new("compile", repeat_cycles(cycle, 45)).with_jitter(0.18)
}

/// Parsec freqmine: reads the transaction database, then mines frequent
/// itemsets with bursts of random I/O against the FP-tree spill files.
pub fn freqmine() -> AppModel {
    let cycle = vec![
        Phase {
            nominal_s: 3.0,
            read_rps: 330.0,
            write_rps: 20.0,
            req_kb: 16.0,
            sequentiality: 0.80,
            cpu: 0.40,
            background_cpu: 0.0,
        },
        Phase {
            nominal_s: 3.0,
            read_rps: 18.0,
            write_rps: 2.0,
            req_kb: 16.0,
            sequentiality: 0.60,
            cpu: 0.85,
            background_cpu: 0.0,
        },
    ];
    AppModel::new("freqmine", repeat_cycles(cycle, 60)).with_jitter(0.15)
}

/// BLAST nucleotide search (NT database, 12 GB): like blastp but far more
/// I/O intensive — large sequential scans with heavy overlapped compute.
pub fn blastn() -> AppModel {
    let cycle = vec![Phase {
        nominal_s: 72.0,
        read_rps: 225.0,
        write_rps: 5.0,
        req_kb: 256.0,
        sequentiality: 0.90,
        cpu: 0.50,
        background_cpu: 0.0,
    }];
    AppModel::new("blastn", repeat_cycles(cycle, 5)).with_jitter(0.05)
}

/// Parsec dedup: pipelined chunking / hashing / compression of a single
/// large stream, reading the input and writing the compressed archive.
pub fn dedup() -> AppModel {
    let cycle = vec![Phase {
        nominal_s: 40.0,
        read_rps: 200.0,
        write_rps: 85.0,
        req_kb: 128.0,
        sequentiality: 0.85,
        cpu: 0.40,
        background_cpu: 0.0,
    }];
    AppModel::new("dedup", repeat_cycles(cycle, 9)).with_jitter(0.08)
}

/// Parsec x264 encoding of a 1.5 GB stream: the highest-IOPS benchmark —
/// large sequential frame reads plus encoded output writes, with heavy
/// compute overlapped.
pub fn video() -> AppModel {
    let cycle = vec![Phase {
        nominal_s: 45.0,
        read_rps: 280.0,
        write_rps: 65.0,
        req_kb: 128.0,
        sequentiality: 0.90,
        cpu: 0.45,
        background_cpu: 0.0,
    }];
    AppModel::new("video", repeat_cycles(cycle, 8)).with_jitter(0.07)
}

// ---------------------------------------------------------------------------
// Microbenchmarks (Table 1)
// ---------------------------------------------------------------------------

/// `Calc`: the paper's CPU-intensive microbenchmark — pure algorithmic
/// computation, no I/O.
pub fn calc() -> AppModel {
    AppModel::new("calc", vec![Phase::compute(300.0, 1.0)])
}

/// `SeqRead`: the paper's data-intensive microbenchmark — sequentially
/// reads a large file at full device speed with negligible compute.
pub fn seq_read() -> AppModel {
    AppModel::new(
        "seqread",
        vec![Phase {
            nominal_s: 300.0,
            read_rps: 265.0,
            write_rps: 0.0,
            req_kb: 256.0,
            sequentiality: 0.97,
            cpu: 0.06,
            background_cpu: 0.0,
        }],
    )
}

/// `SeqWrite`: sequentially writes a large file (the write-side twin of
/// [`seq_read`]).
pub fn seq_write() -> AppModel {
    AppModel::new(
        "seqwrite",
        vec![Phase {
            nominal_s: 300.0,
            read_rps: 0.0,
            write_rps: 240.0,
            req_kb: 256.0,
            sequentiality: 0.95,
            cpu: 0.07,
            background_cpu: 0.0,
        }],
    )
}

/// `RandRead`: small random reads across a large file — seek-bound, the
/// slowest access pattern on mechanical storage.
pub fn rand_read() -> AppModel {
    AppModel::new(
        "randread",
        vec![Phase {
            nominal_s: 300.0,
            read_rps: 70.0,
            write_rps: 0.0,
            req_kb: 4.0,
            sequentiality: 0.02,
            cpu: 0.04,
            background_cpu: 0.0,
        }],
    )
}

/// `RandWrite`: small random writes across a large file.
pub fn rand_write() -> AppModel {
    AppModel::new(
        "randwrite",
        vec![Phase {
            nominal_s: 300.0,
            read_rps: 0.0,
            write_rps: 65.0,
            req_kb: 4.0,
            sequentiality: 0.02,
            cpu: 0.04,
            background_cpu: 0.0,
        }],
    )
}

// ---------------------------------------------------------------------------
// Synthetic calibration workloads (Section 3.1's 125-point generator)
// ---------------------------------------------------------------------------

/// Peak read rate of the synthetic generator at 100% intensity, req/s.
pub const SYNTH_READ_MAX_RPS: f64 = 300.0;
/// Peak write rate of the synthetic generator at 100% intensity, req/s.
pub const SYNTH_WRITE_MAX_RPS: f64 = 200.0;
/// Request size used by the synthetic generator, KiB.
pub const SYNTH_REQ_KB: f64 = 64.0;
/// Sequentiality of the synthetic generator's file access.
pub const SYNTH_SEQ: f64 = 0.70;

/// Maps a generator intensity level in `[0, 1]` to a fraction of the peak
/// request rate.
///
/// The paper's generator controls intensity "by adjusting the length of
/// sleep interval between each iteration", so the rate is
/// `1 / (service + (1 - level) * sleep_max)` — strongly convex in the
/// level: 25% intensity produces ~6% of the peak rate, 50% ~9%, 75% ~17%,
/// and only 100% (no sleep) reaches the device-bound peak. This matches
/// the paper's Table 1, where the CPU&I/O-*medium* neighbour slows
/// SeqRead by just 1.78x while the *high* one costs 16.11x.
pub fn synthetic_rate_fraction(level: f64) -> f64 {
    assert!((0.0..=1.0).contains(&level), "level {level} out of [0,1]");
    if level <= 0.0 {
        return 0.0;
    }
    const SERVICE_MS: f64 = 3.0;
    const SLEEP_MAX_MS: f64 = 60.0;
    let period_ms = SERVICE_MS + (1.0 - level) * SLEEP_MAX_MS;
    SERVICE_MS / period_ms
}

/// Builds one synthetic background workload with the given intensities in
/// `[0, 1]` (the paper uses the grid {0, 0.25, 0.5, 0.75, 1.0}^3).
///
/// The CPU burn runs concurrently with the I/O loops (it is
/// `background_cpu`, independent of I/O progress); driving the I/O costs a
/// small amount of progress-coupled CPU. The workload is endless — it
/// provides interference for as long as the foreground application runs.
pub fn synthetic(cpu_level: f64, read_level: f64, write_level: f64) -> AppModel {
    for (name, l) in [
        ("cpu", cpu_level),
        ("read", read_level),
        ("write", write_level),
    ] {
        assert!((0.0..=1.0).contains(&l), "{name} level {l} out of [0,1]");
    }
    let read_rps = synthetic_rate_fraction(read_level) * SYNTH_READ_MAX_RPS;
    let write_rps = synthetic_rate_fraction(write_level) * SYNTH_WRITE_MAX_RPS;
    let io_driving_cpu = 0.02 + 0.10 * (read_level + write_level) / 2.0;
    let phase = Phase {
        nominal_s: 10.0,
        read_rps,
        write_rps,
        req_kb: SYNTH_REQ_KB,
        sequentiality: SYNTH_SEQ,
        cpu: if read_rps + write_rps > 0.0 {
            io_driving_cpu
        } else {
            0.0
        },
        background_cpu: cpu_level,
    };
    AppModel::new(
        format!(
            "synthetic(c{:.0},r{:.0},w{:.0})",
            cpu_level * 100.0,
            read_level * 100.0,
            write_level * 100.0
        ),
        vec![phase],
    )
    .endless()
}

/// An idle virtual machine (the "no interference" background).
pub fn idle() -> AppModel {
    AppModel::new("idle", vec![Phase::compute(10.0, 0.0)]).endless()
}

/// The full 5x5x5 calibration grid of Section 3.1 — 125 synthetic
/// background workloads including the idle (0, 0, 0) corner.
pub fn calibration_grid() -> Vec<AppModel> {
    let levels = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut out = Vec::with_capacity(125);
    for &c in &levels {
        for &r in &levels {
            for &w in &levels {
                out.push(synthetic(c, r, w));
            }
        }
    }
    out
}

/// The Table 1 App2 column workloads: CPU-high, I/O-high, CPU&I/O-medium,
/// CPU&I/O-high.
pub fn table1_backgrounds() -> [(&'static str, AppModel); 4] {
    [
        ("CPU high", synthetic(1.0, 0.0, 0.0)),
        ("I/O high", synthetic(0.0, 1.0, 1.0)),
        ("CPU&I/O medium", synthetic(0.5, 0.5, 0.5)),
        ("CPU&I/O high", synthetic(1.0, 1.0, 1.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_benchmarks_build() {
        for b in Benchmark::ALL {
            let m = b.model();
            assert!(!m.phases.is_empty());
            assert!(m.nominal_runtime() > 0.0);
            assert_eq!(m.name, b.name());
            assert!(!m.endless);
        }
    }

    #[test]
    fn ranks_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_io_rank(b.io_rank()), b);
        }
    }

    #[test]
    fn nominal_iops_respects_table3_ranks() {
        // The benchmarks' uncontended IOPS must be strictly ordered by
        // their Table 3 ranks — the experiments' light/medium/heavy mixes
        // depend on this ordering.
        let mut prev = -1.0;
        for b in Benchmark::ALL {
            let iops = b.model().nominal_iops();
            assert!(
                iops > prev,
                "{} nominal IOPS {iops} not above previous rank's {prev}",
                b.name()
            );
            prev = iops;
        }
    }

    #[test]
    fn web_is_iops_only() {
        assert!(!web().runtime_meaningful);
        assert!(email().runtime_meaningful);
    }

    #[test]
    fn calibration_grid_has_125_workloads() {
        let grid = calibration_grid();
        assert_eq!(grid.len(), 125);
        assert!(grid.iter().all(|w| w.endless));
        // The (0,0,0) corner is effectively idle.
        let idle_corner = &grid[0];
        assert!(idle_corner.phases[0].io_rps() < 1e-9);
        assert!(idle_corner.phases[0].background_cpu < 1e-9);
    }

    #[test]
    fn synthetic_levels_map_to_rates() {
        let w = synthetic(0.5, 1.0, 0.25);
        let p = &w.phases[0];
        assert!((p.background_cpu - 0.5).abs() < 1e-12);
        // 100% intensity has no sleep: peak rate.
        assert!((p.read_rps - SYNTH_READ_MAX_RPS).abs() < 1e-12);
        // 25% intensity sleeps 45 ms per 3 ms of service: ~6% of peak.
        let want = synthetic_rate_fraction(0.25) * SYNTH_WRITE_MAX_RPS;
        assert!((p.write_rps - want).abs() < 1e-12);
        assert!(w.endless);
    }

    #[test]
    fn synthetic_rate_fraction_is_convex_and_monotone() {
        assert_eq!(synthetic_rate_fraction(0.0), 0.0);
        assert!((synthetic_rate_fraction(1.0) - 1.0).abs() < 1e-12);
        let f25 = synthetic_rate_fraction(0.25);
        let f50 = synthetic_rate_fraction(0.5);
        let f75 = synthetic_rate_fraction(0.75);
        assert!(f25 < f50 && f50 < f75 && f75 < 1.0);
        // Sleep-loop behaviour: 50% intensity is far below 50% of peak.
        assert!(f50 < 0.25, "f50 = {f50}");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn synthetic_rejects_bad_level() {
        synthetic(1.5, 0.0, 0.0);
    }

    #[test]
    fn microbenchmarks() {
        let c = calc();
        assert!(c.phases[0].is_compute_only());
        assert!((c.phases[0].cpu - 1.0).abs() < 1e-12);
        let s = seq_read();
        assert!(s.phases[0].read_rps > 200.0);
        assert!(s.phases[0].sequentiality > 0.9);
        let w = seq_write();
        assert!(w.phases[0].write_rps > 200.0 && w.phases[0].read_rps == 0.0);
        let rr = rand_read();
        assert!(rr.phases[0].sequentiality < 0.1 && rr.phases[0].req_kb <= 8.0);
        let rw = rand_write();
        assert!(rw.phases[0].write_rps > 0.0 && rw.phases[0].read_rps == 0.0);
    }

    #[test]
    fn random_io_is_seek_bound_on_disk() {
        use crate::config::HostConfig;
        use crate::engine::Engine;
        let e = Engine::new(HostConfig::testbed());
        // Random reads achieve far lower IOPS than sequential reads.
        let seq = e.solo_run(&seq_read().time_scaled(0.2), 1).iops[0];
        let rnd = e.solo_run(&rand_read().time_scaled(0.2), 1).iops[0];
        assert!(rnd < seq / 2.0, "rand {rnd} vs seq {seq}");
    }

    #[test]
    fn table1_backgrounds_shapes() {
        let bgs = table1_backgrounds();
        assert_eq!(bgs.len(), 4);
        // CPU high: all CPU, no I/O.
        assert!(bgs[0].1.phases[0].io_rps() < 1e-9);
        assert!((bgs[0].1.phases[0].background_cpu - 1.0).abs() < 1e-12);
        // I/O high: no background CPU burn, maximal I/O.
        assert!(bgs[1].1.phases[0].background_cpu < 1e-12);
        assert!(bgs[1].1.phases[0].io_rps() > 400.0);
    }
}
