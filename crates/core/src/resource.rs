//! Pluggable resource dimensions and heterogeneous machine classes.
//!
//! TRACON's original model is hardwired to one homogeneous CPU+disk box:
//! the four [`crate::characteristics::Characteristics`] features are a
//! *2-dimension* view (the [`ResourceDim::Disk`] axis contributes the
//! read/write request rates, the [`ResourceDim::Cpu`] axis the guest and
//! Dom0 utilizations). This module opens that up:
//!
//! * [`ResourceDim`] names the contended resource axes. The two legacy
//!   axes are always present; [`ResourceDim::Network`] generalizes the
//!   iSCSI "faked as a slower disk" parameterization into a real
//!   shared-bandwidth dimension with an analytic M/M/1 contention model
//!   (see [`tracon_stats::queueing`]).
//! * [`DimVec`] is a small-vec backed, `ResourceDim`-indexed demand
//!   vector — the per-task demand a service client may attach to a
//!   submission, and the conversion target of
//!   [`crate::characteristics::Characteristics::demands`].
//! * [`MachineClass`] describes one hardware class of a heterogeneous
//!   cluster: a solo runtime/IOPS factor relative to the reference
//!   (local-storage) class, and an optional shared-link capacity that
//!   activates the network dimension for hosts of the class.
//!
//! ## Adding a dimension
//!
//! 1. Add a variant to [`ResourceDim`] (append — wire names are stable).
//! 2. Give [`crate::characteristics::Characteristics`] a carrier field
//!    (with a zero default so 2-dim snapshots stay readable) and map it
//!    in `Characteristics::demands`.
//! 3. Express the dimension's contention analytically (like
//!    [`MachineClass::slowdown`]) or extend the learned feature vector.
//!    Analytic factors must be **exactly 1.0 at zero demand** so
//!    existing scenarios replay bit-identically.

use tracon_stats::queueing::mm1_slowdown;

/// One contended resource axis of the interference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceDim {
    /// Storage I/O: request streams through the driver domain to the
    /// host's disk (legacy axis 1; features: read and write req/s).
    Disk,
    /// CPU time shared by the guest vCPUs and the driver domain (legacy
    /// axis 2; features: guest and Dom0 utilization).
    Cpu,
    /// Shared network-link bandwidth on remote-storage hosts (new axis;
    /// feature: offered load in MB/s).
    Network,
}

/// Number of resource dimensions currently defined.
pub const N_DIMS: usize = 3;
/// Number of legacy dimensions the 4-feature `Characteristics` view
/// spans (disk + CPU).
pub const N_LEGACY_DIMS: usize = 2;

impl ResourceDim {
    /// Every dimension, in index order.
    pub const ALL: [ResourceDim; N_DIMS] =
        [ResourceDim::Disk, ResourceDim::Cpu, ResourceDim::Network];

    /// Dense index of the dimension (its position in [`ResourceDim::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name (the key in a protocol `demand` map).
    pub fn name(self) -> &'static str {
        match self {
            ResourceDim::Disk => "disk",
            ResourceDim::Cpu => "cpu",
            ResourceDim::Network => "network",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<ResourceDim> {
        ResourceDim::ALL.into_iter().find(|d| d.name() == name)
    }
}

/// A `ResourceDim`-indexed demand vector, small-vec backed: one `f64`
/// lane per dimension plus a presence bitmask, `Copy` and allocation
/// free. Unset dimensions read as zero demand; [`DimVec::is_set`]
/// distinguishes "explicitly zero" from "not specified" (a protocol
/// `demand` map omitting a dimension falls back to legacy defaults).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DimVec {
    vals: [f64; N_DIMS],
    set: u8,
}

impl DimVec {
    /// An empty vector (no dimension set).
    pub fn new() -> Self {
        DimVec::default()
    }

    /// Sets a dimension's demand.
    pub fn set(&mut self, dim: ResourceDim, value: f64) {
        self.vals[dim.index()] = value;
        self.set |= 1 << dim.index();
    }

    /// Builder-style [`DimVec::set`].
    pub fn with(mut self, dim: ResourceDim, value: f64) -> Self {
        self.set(dim, value);
        self
    }

    /// The demand on a dimension (zero when unset).
    #[inline]
    pub fn get(&self, dim: ResourceDim) -> f64 {
        self.vals[dim.index()]
    }

    /// Whether the dimension was explicitly set.
    #[inline]
    pub fn is_set(&self, dim: ResourceDim) -> bool {
        self.set & (1 << dim.index()) != 0
    }

    /// Number of explicitly set dimensions.
    pub fn len(&self) -> usize {
        self.set.count_ones() as usize
    }

    /// Whether no dimension is set.
    pub fn is_empty(&self) -> bool {
        self.set == 0
    }

    /// Iterates the explicitly set `(dimension, demand)` pairs in
    /// dimension-index order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceDim, f64)> + '_ {
        ResourceDim::ALL
            .into_iter()
            .filter(|d| self.is_set(*d))
            .map(|d| (d, self.get(d)))
    }
}

/// One hardware class of a heterogeneous cluster. The reference class
/// (local storage, nominal speed) is [`MachineClass::local`]; remote
/// classes scale every task's solo performance and may route storage
/// traffic through a shared, capacity-limited link.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineClass {
    /// Class name (e.g. `"local"`, `"iscsi"`).
    pub name: String,
    /// Solo runtime multiplier relative to the reference class
    /// (`>= 1.0` for slower hardware / remote storage).
    pub runtime_factor: f64,
    /// Solo IOPS multiplier relative to the reference class
    /// (`<= 1.0` for remote storage).
    pub iops_factor: f64,
    /// Capacity in MB/s of the shared network link hosts of this class
    /// push their storage traffic through. `None` disables the network
    /// dimension for the class (local storage).
    pub net_capacity_mb: Option<f64>,
}

impl MachineClass {
    /// The reference class: local storage, nominal speed, no network
    /// dimension. Simulations over only this class are bit-identical to
    /// the pre-class (2-dim) engine.
    pub fn local() -> Self {
        MachineClass {
            name: "local".to_string(),
            runtime_factor: 1.0,
            iops_factor: 1.0,
            net_capacity_mb: None,
        }
    }

    /// A remote-storage class whose hosts share an iSCSI-style link of
    /// the given capacity, with solo runtime/IOPS factors.
    pub fn remote(name: &str, runtime_factor: f64, iops_factor: f64, net_capacity_mb: f64) -> Self {
        MachineClass {
            name: name.to_string(),
            runtime_factor,
            iops_factor,
            net_capacity_mb: Some(net_capacity_mb),
        }
    }

    /// Whether this class is indistinguishable from the reference class
    /// (the fast path: scoring and the event kernel skip every class
    /// adjustment, keeping legacy scenarios bit-identical).
    #[inline]
    pub fn is_reference(&self) -> bool {
        self.runtime_factor == 1.0 && self.iops_factor == 1.0 && self.net_capacity_mb.is_none()
    }

    /// M/M/1 contention factor of the class's shared link alone (the
    /// hardware factors excluded). Exactly `1.0` when the class has no
    /// capacitated link or the offered load is zero.
    #[inline]
    pub fn link_contention(&self, net_demand_mb: f64) -> f64 {
        match self.net_capacity_mb {
            Some(cap) => mm1_slowdown(net_demand_mb, cap),
            None => 1.0,
        }
    }

    /// Total runtime slowdown of a task on a host of this class whose
    /// residents offer `net_demand_mb` MB/s to the shared link: the solo
    /// runtime factor times the M/M/1 link contention factor. Exactly
    /// `runtime_factor` at zero demand, exactly `1.0` for the reference
    /// class.
    #[inline]
    pub fn slowdown(&self, net_demand_mb: f64) -> f64 {
        match self.net_capacity_mb {
            Some(cap) => self.runtime_factor * mm1_slowdown(net_demand_mb, cap),
            None => self.runtime_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_names_roundtrip() {
        for d in ResourceDim::ALL {
            assert_eq!(ResourceDim::parse(d.name()), Some(d));
        }
        assert_eq!(ResourceDim::parse("tape"), None);
        assert_eq!(ResourceDim::Disk.index(), 0);
        assert_eq!(ResourceDim::Network.index(), 2);
    }

    #[test]
    fn dimvec_set_get_iter() {
        let mut v = DimVec::new();
        assert!(v.is_empty());
        assert_eq!(v.get(ResourceDim::Network), 0.0);
        assert!(!v.is_set(ResourceDim::Network));
        v.set(ResourceDim::Network, 40.0);
        let v = v.with(ResourceDim::Disk, 120.0);
        assert_eq!(v.len(), 2);
        assert!(v.is_set(ResourceDim::Disk));
        assert!(!v.is_set(ResourceDim::Cpu));
        assert_eq!(v.get(ResourceDim::Cpu), 0.0);
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(
            pairs,
            vec![(ResourceDim::Disk, 120.0), (ResourceDim::Network, 40.0)]
        );
    }

    #[test]
    fn local_class_is_reference() {
        let local = MachineClass::local();
        assert!(local.is_reference());
        assert_eq!(local.slowdown(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(local.slowdown(1e9).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn remote_class_slowdown_composes_factors() {
        let iscsi = MachineClass::remote("iscsi", 1.5, 0.6, 100.0);
        assert!(!iscsi.is_reference());
        // Zero demand: the solo factor alone, exactly.
        assert_eq!(iscsi.slowdown(0.0).to_bits(), 1.5f64.to_bits());
        // Half utilization doubles the link latency on top.
        assert!((iscsi.slowdown(50.0) - 3.0).abs() < 1e-12);
        // A capacitated class with unit factors is NOT the reference
        // class (it still keys scoring), but its zero-demand slowdown is
        // exactly one, which is what the zero-demand identity test pins.
        let capped = MachineClass::remote("capped", 1.0, 1.0, 100.0);
        assert!(!capped.is_reference());
        assert_eq!(capped.slowdown(0.0).to_bits(), 1.0f64.to_bits());
    }
}
