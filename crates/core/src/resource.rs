//! The resource dimensions a task's demand is stated in.
//!
//! [`ResourceDim`] names the contended axes and [`DimVec`] is a
//! `ResourceDim`-indexed demand vector: what a `tracond` client may
//! attach to a `submit` as its `demand` map, echoed back by `task`. The
//! scheduler does not read it; interference is priced from the four
//! [`crate::characteristics::Characteristics`] features, which span the
//! disk axis (read and write request rates) and the CPU axis (guest and
//! Dom0 utilization).

/// One contended resource axis of the interference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceDim {
    /// Storage I/O: request streams through the driver domain to the
    /// host's disk (features: read and write req/s).
    Disk,
    /// CPU time shared by the guest vCPUs and the driver domain
    /// (features: guest and Dom0 utilization).
    Cpu,
    /// Network bandwidth, in MB/s. Carried on the wire; no model
    /// prices it.
    Network,
}

/// Number of resource dimensions currently defined.
pub const N_DIMS: usize = 3;

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
/// `demand` map may omit any dimension).
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
}
