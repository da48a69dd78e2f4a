//! Host hardware configuration for the virtualized testbed.
//!
//! The paper's testbed is a Dell machine (2.93 GHz Core2 Duo E7500, 4 GB
//! RAM, 1 TB Samsung SATA disk) running Xen 3.1.2 with two guest VMs of
//! 1 vCPU / 512 MB each. Both guest vCPUs and the driver domain contend
//! for CPU (the paper's Table 1 shows clean 2x slowdown for co-located
//! CPU-bound apps, i.e. the guests are multiplexed on the same core), and
//! all I/O is routed through Dom0.
//!
//! The constants here are calibrated so that the Table 1 structure is
//! reproduced: ~2x CPU fair-sharing, ~10x collision of two sequential
//! readers, and a further degradation (to ~16x) when the co-located
//! application also saturates the CPU and starves Dom0.

/// Parameters of the (mechanical) storage device behind the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Sequential transfer bandwidth in MB/s.
    pub seq_bandwidth_mb: f64,
    /// Average cost of a non-sequential access (seek + rotational delay), ms.
    pub seek_ms: f64,
    /// Fixed per-request overhead (controller, protocol; iSCSI adds network
    /// round-trip time here), ms.
    pub per_req_overhead_ms: f64,
    /// Absolute cap on requests per second regardless of size.
    pub iops_cap: f64,
    /// Sequentiality decay exponent under stream mixing: a stream holding
    /// a `share` of the request mix keeps effective sequentiality
    /// `seq * share^mix_degradation`. Higher values model devices whose
    /// sequential runs are destroyed faster by interleaving.
    pub mix_degradation: f64,
}

impl DiskParams {
    /// Local 1 TB SATA hard drive (the paper's testbed disk).
    pub fn local_sata() -> Self {
        DiskParams {
            seq_bandwidth_mb: 100.0,
            seek_ms: 12.0,
            per_req_overhead_ms: 0.05,
            iops_cap: 15_000.0,
            mix_degradation: 3.0,
        }
    }

    /// Remote storage reached over a congested iSCSI path (the Fig. 7
    /// adaptation scenario): a fraction of the local bandwidth, network
    /// round trips folded into both the per-request overhead and the
    /// effective positioning cost, and the same mixing behaviour as the
    /// backing disk. Every response is several times slower than on
    /// local storage, which is what makes the locally-trained models
    /// drift as dramatically as the paper reports (runtime error
    /// 12% -> 160%).
    pub fn iscsi() -> Self {
        DiskParams {
            seq_bandwidth_mb: 30.0,
            seek_ms: 30.0,
            per_req_overhead_ms: 2.0,
            iops_cap: 3_000.0,
            mix_degradation: 3.0,
        }
    }

    /// An early-generation SATA solid-state drive (the paper's future-work
    /// target): no mechanical positioning, so stream mixing costs almost
    /// nothing — the device-level interference that motivates TRACON
    /// largely disappears, leaving only bandwidth sharing and the Dom0
    /// CPU path.
    pub fn ssd() -> Self {
        DiskParams {
            seq_bandwidth_mb: 250.0,
            seek_ms: 0.05,
            per_req_overhead_ms: 0.03,
            iops_cap: 35_000.0,
            mix_degradation: 0.2,
        }
    }

    /// A RAID-0 stripe over `n` disks like [`DiskParams::local_sata`]:
    /// aggregate bandwidth and IOPS scale with the stripe width, and the
    /// independent spindles absorb part of the interleaving (competing
    /// streams often hit different disks), softening the sequentiality
    /// decay.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn raid0(n: usize) -> Self {
        assert!(n > 0, "RAID-0 needs at least one disk");
        let base = DiskParams::local_sata();
        let width = n as f64;
        DiskParams {
            seq_bandwidth_mb: base.seq_bandwidth_mb * width,
            seek_ms: base.seek_ms,
            per_req_overhead_ms: base.per_req_overhead_ms,
            iops_cap: base.iops_cap * width * 0.8,
            // Interleaved streams land on different spindles ~ (n-1)/n of
            // the time, so the per-stream sequentiality decay softens.
            mix_degradation: base.mix_degradation / width.sqrt(),
        }
    }
}

/// Full host configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// CPU capacity (in cores) of the pool shared by the guest vCPUs and
    /// the driver domain. The paper's measurements behave as a single
    /// shared core (Table 1 row 1 shows 1.96x for two CPU-bound guests).
    pub cpu_capacity: f64,
    /// Scheduling weight of each guest domain (Xen credit default 256).
    pub guest_weight: f64,
    /// Scheduling weight of the driver domain.
    pub dom0_weight: f64,
    /// Dom0 CPU seconds consumed per I/O request handled (grant mapping,
    /// block backend, interrupt routing).
    pub dom0_cost_per_req_s: f64,
    /// Dom0 baseline CPU demand (housekeeping) in cores.
    pub dom0_base_cpu: f64,
    /// Scheduling-latency penalty factor: when the runnable vCPUs saturate
    /// the host CPU (total demand ramps through `[0.9, 1.05] x capacity`),
    /// the I/O path efficiency is multiplied by
    /// `1 / (1 + dom0_latency_gamma * saturation)` with saturation in
    /// `[0, 1]`. Models the delayed wakeups of the driver domain when it
    /// must wait out whole scheduler timeslices.
    pub dom0_latency_gamma: f64,
    /// Storage device parameters.
    pub disk: DiskParams,
    /// Simulation step granularity in seconds (upper bound; steps shrink to
    /// hit phase boundaries exactly).
    pub dt_max: f64,
    /// Safety cap: a co-run aborts after this many simulated seconds.
    pub max_sim_time: f64,
}

impl HostConfig {
    /// The calibrated testbed configuration with local SATA storage.
    pub fn testbed() -> Self {
        HostConfig {
            cpu_capacity: 1.0,
            guest_weight: 256.0,
            dom0_weight: 256.0,
            dom0_cost_per_req_s: 0.000_5,
            dom0_base_cpu: 0.005,
            dom0_latency_gamma: 0.55,
            disk: DiskParams::local_sata(),
            dt_max: 0.25,
            max_sim_time: 200_000.0,
        }
    }

    /// The fixed class names [`HostConfig::class`] resolves, with
    /// `raid0x<N>` standing for the parametric RAID-0 family
    /// (`raid0x4` = a four-disk stripe).
    pub fn class_names() -> &'static [&'static str] {
        &["local", "iscsi", "ssd", "raid0x<N>"]
    }

    /// The testbed host with the named storage class: `"local"` (SATA),
    /// `"iscsi"` (remote storage), `"ssd"`, or `"raid0x<N>"` (an `N`-disk
    /// stripe). Returns `None` for unknown names.
    pub fn try_class(name: &str) -> Option<Self> {
        let disk = match name {
            "local" => DiskParams::local_sata(),
            "iscsi" => DiskParams::iscsi(),
            "ssd" => DiskParams::ssd(),
            _ => {
                let n: usize = name.strip_prefix("raid0x")?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                DiskParams::raid0(n)
            }
        };
        Some(HostConfig {
            disk,
            ..HostConfig::testbed()
        })
    }

    /// The testbed host with the named storage class (see
    /// [`HostConfig::try_class`]).
    ///
    /// # Panics
    /// Panics on an unknown class name.
    pub fn class(name: &str) -> Self {
        HostConfig::try_class(name).unwrap_or_else(|| {
            panic!(
                "unknown machine class '{name}' (known: {})",
                HostConfig::class_names().join(", ")
            )
        })
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig::testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let t = HostConfig::testbed();
        assert!(t.cpu_capacity > 0.0);
        assert!(t.disk.seq_bandwidth_mb > 0.0);
        assert!(t.dt_max > 0.0 && t.dt_max < 10.0);

        let i = HostConfig::class("iscsi");
        assert!(i.disk.per_req_overhead_ms > t.disk.per_req_overhead_ms);
        assert!(i.disk.seq_bandwidth_mb < t.disk.seq_bandwidth_mb);
        // Non-disk parameters identical: same host, different storage.
        assert_eq!(i.cpu_capacity, t.cpu_capacity);
        assert_eq!(i.dom0_cost_per_req_s, t.dom0_cost_per_req_s);
    }

    #[test]
    fn default_is_testbed() {
        assert_eq!(HostConfig::default(), HostConfig::testbed());
    }

    #[test]
    fn ssd_has_no_meaningful_seek() {
        let s = DiskParams::ssd();
        assert!(s.seek_ms < 0.1);
        assert!(s.iops_cap > DiskParams::local_sata().iops_cap);
        assert!(s.mix_degradation < DiskParams::local_sata().mix_degradation);
    }

    #[test]
    fn raid0_scales_with_width() {
        let one = DiskParams::raid0(1);
        let four = DiskParams::raid0(4);
        assert!((one.seq_bandwidth_mb - DiskParams::local_sata().seq_bandwidth_mb).abs() < 1e-9);
        assert!((four.seq_bandwidth_mb - 400.0).abs() < 1e-9);
        assert!(four.iops_cap > one.iops_cap);
        assert!(four.mix_degradation < one.mix_degradation);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn raid0_zero_panics() {
        DiskParams::raid0(0);
    }

    #[test]
    fn class_registry_resolves_known_names() {
        assert_eq!(HostConfig::class("local"), HostConfig::testbed());
        assert_eq!(HostConfig::class("iscsi").disk, DiskParams::iscsi());
        assert_eq!(HostConfig::class("ssd").disk, DiskParams::ssd());
        assert_eq!(HostConfig::class("raid0x4").disk, DiskParams::raid0(4));
        assert!(HostConfig::try_class("nope").is_none());
        assert!(HostConfig::try_class("raid0x0").is_none());
        assert!(HostConfig::try_class("raid0xfour").is_none());
        assert!(!HostConfig::class_names().is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown machine class")]
    fn unknown_class_panics() {
        HostConfig::class("floppy");
    }
}
