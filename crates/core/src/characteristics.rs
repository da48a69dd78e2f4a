//! The application characteristics TRACON models (paper Table 2):
//! read requests per second, write requests per second, local CPU
//! utilization in the guest domain, and the global (Dom0) CPU utilization
//! attributable to the application's I/O handling.

/// Number of per-VM characteristics (Table 2).
pub const N_CHARACTERISTICS: usize = 4;
/// Number of joint features for a two-VM model (both VMs' characteristics).
pub const N_JOINT: usize = 2 * N_CHARACTERISTICS;

/// One VM's resource characteristics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Characteristics {
    /// Read requests per second (iostat in Dom0).
    pub read_rps: f64,
    /// Write requests per second (iostat in Dom0).
    pub write_rps: f64,
    /// Local CPU utilization in the guest domain, `[0, 1]` (xentop).
    pub cpu_util: f64,
    /// Dom0 CPU utilization from handling this VM's I/O, `[0, 1]`.
    pub dom0_util: f64,
}

impl Characteristics {
    /// Creates a characteristics vector.
    pub fn new(read_rps: f64, write_rps: f64, cpu_util: f64, dom0_util: f64) -> Self {
        Characteristics {
            read_rps,
            write_rps,
            cpu_util,
            dom0_util,
        }
    }

    /// The characteristics of an idle VM.
    pub fn idle() -> Self {
        Characteristics::default()
    }

    /// As a fixed-size feature array `[read, write, cpu, dom0]` — the
    /// learned models' input encoding.
    pub fn as_array(&self) -> [f64; N_CHARACTERISTICS] {
        [self.read_rps, self.write_rps, self.cpu_util, self.dom0_util]
    }

    /// Builds from a feature array.
    pub fn from_array(a: [f64; N_CHARACTERISTICS]) -> Self {
        Characteristics::new(a[0], a[1], a[2], a[3])
    }

    /// Total request rate.
    pub fn total_rps(&self) -> f64 {
        self.read_rps + self.write_rps
    }

    /// Elementwise sum — used to aggregate several co-located neighbours
    /// into one background-load vector when a machine hosts more than two
    /// VMs (an extension beyond the paper's two-VM setting).
    pub fn combine(&self, other: &Characteristics) -> Characteristics {
        Characteristics {
            read_rps: self.read_rps + other.read_rps,
            write_rps: self.write_rps + other.write_rps,
            cpu_util: (self.cpu_util + other.cpu_util).min(1.0),
            dom0_util: (self.dom0_util + other.dom0_util).min(1.0),
        }
    }
}

/// Joint feature vector for a two-VM interference model: VM1's (the
/// target's) characteristics followed by VM2's (the background's).
pub fn joint_features(vm1: &Characteristics, vm2: &Characteristics) -> [f64; N_JOINT] {
    let a = vm1.as_array();
    let b = vm2.as_array();
    [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_roundtrip() {
        let c = Characteristics::new(10.0, 5.0, 0.5, 0.1);
        assert_eq!(Characteristics::from_array(c.as_array()), c);
        assert_eq!(c.total_rps(), 15.0);
    }

    #[test]
    fn idle_is_zero() {
        let i = Characteristics::idle();
        assert_eq!(i.as_array(), [0.0; 4]);
    }

    #[test]
    fn joint_layout() {
        let a = Characteristics::new(1.0, 2.0, 3.0, 4.0);
        let b = Characteristics::new(5.0, 6.0, 7.0, 8.0);
        assert_eq!(
            joint_features(&a, &b),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
    }

    #[test]
    fn combine_caps_utilizations() {
        let a = Characteristics::new(10.0, 0.0, 0.8, 0.6);
        let b = Characteristics::new(5.0, 5.0, 0.7, 0.7);
        let c = a.combine(&b);
        assert_eq!(c.read_rps, 15.0);
        assert_eq!(c.write_rps, 5.0);
        assert_eq!(c.cpu_util, 1.0);
        assert_eq!(c.dom0_util, 1.0);
    }
}
