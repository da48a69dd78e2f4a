//! Fluid-rate model of a shared (mechanical) storage device behind a
//! Xen-style driver domain.
//!
//! The model captures the three effects that dominate I/O interference for
//! data-intensive applications on rotating media:
//!
//! 1. **Per-request service time**: transfer time at sequential bandwidth
//!    plus a seek penalty paid with probability `1 - effective
//!    sequentiality`, plus fixed per-request overhead (where iSCSI's
//!    network round trip lands).
//! 2. **Stream mixing**: concurrent streams destroy each other's
//!    sequentiality — the head must move between the streams' file
//!    extents, so each stream's effective sequentiality shrinks as
//!    `seq / (1 + mix_degradation * (n_active - 1))`. This is the source
//!    of the ~10x collision of two sequential readers in Table 1.
//! 3. **Driver-domain throttling**: all requests funnel through Dom0,
//!    which needs CPU to post and complete them; when Dom0 is starved or
//!    the host CPU is saturated, the I/O path slows down further (the
//!    16.11x cell of Table 1).

use crate::config::DiskParams;

/// One VM's aggregate I/O demand during a simulation step.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoDemand {
    /// Requested read rate, requests per second.
    pub read_rps: f64,
    /// Requested write rate, requests per second.
    pub write_rps: f64,
    /// Request size in KiB.
    pub req_kb: f64,
    /// Stream sequentiality in `[0, 1]` when running alone.
    pub sequentiality: f64,
}

impl IoDemand {
    /// Total requested requests per second.
    pub fn total_rps(&self) -> f64 {
        self.read_rps + self.write_rps
    }

    /// True when the demand is effectively zero.
    pub fn is_idle(&self) -> bool {
        self.total_rps() < 1e-9
    }
}

/// Result of one disk allocation round: the fraction of each VM's requested
/// rate that the device can actually serve this step. The caller owns it
/// and hands it back to every [`Disk::allocate`] call, so a round
/// allocates nothing once the vectors have grown to the guest count.
#[derive(Debug, Clone, Default)]
pub struct DiskAllocation {
    /// Per-VM service fraction in `[0, 1]`: served = requested * fraction.
    pub fractions: Vec<f64>,
    /// Device utilization implied by the requested rates (1.0 = saturated).
    pub requested_utilization: f64,
    /// Scratch: per-VM device-time demand, and the unit fair-share weights.
    utilizations: Vec<f64>,
    weights: Vec<f64>,
}

/// Shared-disk allocator.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
}

impl Disk {
    /// Creates a disk with the given parameters.
    pub fn new(params: DiskParams) -> Self {
        Disk { params }
    }

    /// Device parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Mean service time (seconds) for one request of a stream with the
    /// given size and *effective* sequentiality.
    pub fn service_time_s(&self, req_kb: f64, effective_seq: f64) -> f64 {
        let transfer_s = (req_kb / 1024.0) / self.params.seq_bandwidth_mb;
        let seek_s = self.params.seek_ms / 1e3 * (1.0 - effective_seq.clamp(0.0, 1.0));
        let overhead_s = self.params.per_req_overhead_ms / 1e3;
        transfer_s + seek_s + overhead_s
    }

    /// Effective sequentiality of a stream issuing `own_rps` requests per
    /// second while the device serves `total_rps` in aggregate.
    ///
    /// A sequential run only survives while consecutive device requests
    /// come from the same stream; with interleaving, the probability that
    /// the head is still positioned for this stream decays with the
    /// stream's share of the request mix. `mix_degradation` is the decay
    /// exponent: `seq_eff = seq * share^mix_degradation`.
    pub fn effective_sequentiality(&self, seq: f64, own_rps: f64, total_rps: f64) -> f64 {
        let seq = seq.clamp(0.0, 1.0);
        if total_rps <= own_rps + 1e-9 || own_rps <= 0.0 {
            return seq;
        }
        let share = (own_rps / total_rps).clamp(0.0, 1.0);
        seq * share.powf(self.params.mix_degradation)
    }

    /// Allocates device capacity among the VMs' demands.
    ///
    /// `path_efficiency` in `(0, 1]` scales the device's usable capacity to
    /// account for driver-domain CPU starvation (computed by the engine
    /// from the host's CPU state). Service is **max-min fair by
    /// utilization** — what a fair per-guest I/O scheduler (CFQ in Dom0)
    /// provides: a small stream whose device-time demand fits inside its
    /// fair share is served in full, and only the streams exceeding their
    /// share are throttled. Note the asymmetry this creates: a small
    /// stream still *degrades* a big sequential stream (it destroys the
    /// big stream's sequentiality and occupies device time) while being
    /// largely protected itself — exactly the behaviour behind Table 1's
    /// SeqRead column. The result is written into the caller-owned `out`.
    pub fn allocate(&self, demands: &[IoDemand], path_efficiency: f64, out: &mut DiskAllocation) {
        let eff = path_efficiency.clamp(1e-6, 1.0);
        let total_rps: f64 = demands.iter().map(|d| d.total_rps()).sum();
        out.utilizations.clear();
        out.utilizations.extend(demands.iter().map(|d| {
            if d.is_idle() {
                return 0.0;
            }
            let eseq = self.effective_sequentiality(d.sequentiality, d.total_rps(), total_rps);
            d.total_rps() * self.service_time_s(d.req_kb, eseq)
        }));
        out.requested_utilization = out.utilizations.iter().sum();
        // Max-min fair device-time allocation (granted device time lands
        // in `fractions` and is turned into service fractions in place).
        out.weights.resize(demands.len(), 1.0);
        out.fractions.resize(demands.len(), 0.0);
        crate::cpu::fair_share(eff, &out.utilizations, &out.weights, &mut out.fractions);
        // Absolute IOPS cap (controller limit / iSCSI target cap), applied
        // as a uniform scale on top of the fair allocation.
        let iops_frac = if total_rps > self.params.iops_cap {
            self.params.iops_cap / total_rps
        } else {
            1.0
        };
        for ((f, u), d) in out.fractions.iter_mut().zip(&out.utilizations).zip(demands) {
            *f = if d.is_idle() {
                1.0
            } else {
                (*f / u.max(1e-12)).min(1.0) * iops_frac
            };
        }
    }

    /// Convenience: the standalone throughput (requests/s) of a single
    /// stream with the given shape, assuming a healthy I/O path.
    pub fn solo_rps(&self, req_kb: f64, sequentiality: f64) -> f64 {
        let st = self.service_time_s(req_kb, sequentiality.clamp(0.0, 1.0));
        (1.0 / st).min(self.params.iops_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskParams;

    fn disk() -> Disk {
        Disk::new(DiskParams::local_sata())
    }

    /// One allocation round into a fresh result.
    fn allocate(d: &Disk, demands: &[IoDemand], path_efficiency: f64) -> DiskAllocation {
        let mut out = DiskAllocation::default();
        d.allocate(demands, path_efficiency, &mut out);
        out
    }

    #[test]
    fn sequential_solo_throughput_near_bandwidth() {
        let d = disk();
        // 256 KiB sequential requests at seq = 0.97.
        let rps = d.solo_rps(256.0, 0.97);
        let mbps = rps * 256.0 / 1024.0;
        // A nearly-sequential stream should reach a large fraction of the
        // device bandwidth (seeks on 3% of requests cost some).
        assert!(mbps > 55.0 && mbps <= 100.0, "mbps = {mbps}");
    }

    #[test]
    fn random_solo_throughput_is_seek_bound() {
        let d = disk();
        // 4 KiB fully random requests: ~1/11ms ≈ 90 IOPS.
        let rps = d.solo_rps(4.0, 0.0);
        assert!(rps > 60.0 && rps < 120.0, "rps = {rps}");
    }

    #[test]
    fn two_sequential_streams_collapse() {
        // The Table 1 SeqRead vs SeqRead scenario: per-stream throughput
        // should drop by roughly an order of magnitude.
        let d = disk();
        let solo = d.solo_rps(256.0, 0.97);
        let demand = IoDemand {
            read_rps: solo,
            write_rps: 0.0,
            req_kb: 256.0,
            sequentiality: 0.97,
        };
        let alloc = allocate(&d, &[demand, demand], 1.0);
        let per_stream = solo * alloc.fractions[0];
        let slowdown = solo / per_stream;
        assert!(
            (6.0..16.0).contains(&slowdown),
            "slowdown = {slowdown}, per_stream = {per_stream}"
        );
    }

    #[test]
    fn idle_neighbour_causes_no_degradation() {
        let d = disk();
        let solo = d.solo_rps(256.0, 0.97);
        let demand = IoDemand {
            read_rps: solo,
            write_rps: 0.0,
            req_kb: 256.0,
            sequentiality: 0.97,
        };
        let idle = IoDemand::default();
        let alloc = allocate(&d, &[demand, idle], 1.0);
        assert!((alloc.fractions[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn path_efficiency_scales_service() {
        let d = disk();
        let solo = d.solo_rps(256.0, 0.97);
        let demand = IoDemand {
            read_rps: solo,
            write_rps: 0.0,
            req_kb: 256.0,
            sequentiality: 0.97,
        };
        let healthy = allocate(&d, &[demand], 1.0);
        let starved = allocate(&d, &[demand], 0.5);
        assert!((healthy.fractions[0] - 1.0).abs() < 1e-6);
        assert!(
            (starved.fractions[0] - 0.5).abs() < 0.02,
            "frac = {}",
            starved.fractions[0]
        );
    }

    #[test]
    fn iops_cap_enforced() {
        let d = disk();
        // Tiny requests, fully sequential: service time is overhead-bound,
        // so only the IOPS cap limits the rate.
        let demand = IoDemand {
            read_rps: 100_000.0,
            write_rps: 0.0,
            req_kb: 0.5,
            sequentiality: 1.0,
        };
        let alloc = allocate(&d, &[demand], 1.0);
        let served = demand.total_rps() * alloc.fractions[0];
        assert!(served <= d.params().iops_cap * 1.001, "served = {served}");
    }

    #[test]
    fn under_demand_fully_served() {
        let d = disk();
        let demand = IoDemand {
            read_rps: 10.0,
            write_rps: 5.0,
            req_kb: 64.0,
            sequentiality: 0.5,
        };
        let alloc = allocate(&d, &[demand, IoDemand::default()], 1.0);
        assert!((alloc.fractions[0] - 1.0).abs() < 1e-9);
        assert!(alloc.requested_utilization < 1.0);
    }

    #[test]
    fn iscsi_slower_than_local() {
        let local = disk();
        let remote = Disk::new(DiskParams::iscsi());
        assert!(remote.solo_rps(256.0, 0.97) < local.solo_rps(256.0, 0.97));
        assert!(remote.solo_rps(4.0, 0.0) < local.solo_rps(4.0, 0.0));
    }

    #[test]
    fn effective_sequentiality_decays_with_competitor_share() {
        let d = disk();
        let alone = d.effective_sequentiality(0.9, 100.0, 100.0);
        let light = d.effective_sequentiality(0.9, 100.0, 150.0);
        let heavy = d.effective_sequentiality(0.9, 100.0, 500.0);
        assert_eq!(alone, 0.9);
        assert!(
            light < alone && heavy < light,
            "alone={alone} light={light} heavy={heavy}"
        );
        // Idle stream is untouched.
        assert_eq!(d.effective_sequentiality(0.9, 0.0, 500.0), 0.9);
    }

    #[test]
    fn mixed_read_write_demand_counts_both() {
        let d = disk();
        let demand = IoDemand {
            read_rps: 50.0,
            write_rps: 50.0,
            req_kb: 64.0,
            sequentiality: 0.5,
        };
        assert!((demand.total_rps() - 100.0).abs() < 1e-12);
        assert!(!demand.is_idle());
        assert!(IoDemand::default().is_idle());
        // Reads and writes count identically toward device time.
        let alloc = allocate(&d, &[demand], 1.0);
        assert!(alloc.requested_utilization > 0.0);
    }
}
