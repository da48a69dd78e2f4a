//! # tracon-vmsim
//!
//! A fluid-rate simulator of the paper's virtualized testbed: one
//! physical host running a Xen-style stack — a driver domain (Dom0) that
//! performs I/O on behalf of the guest VMs (two on the paper's testbed)
//! — with a credit CPU scheduler and a shared mechanical disk.
//!
//! This crate is the *substitution* for the paper's physical hardware
//! (see `DESIGN.md`): the paper only consumes measured interference
//! statistics (co-located runtimes, IOPS, and per-VM resource
//! characteristics), and this simulator produces statistics with the
//! same structure:
//!
//! * fair-share CPU multiplexing doubles the runtime of co-located
//!   CPU-bound applications (Table 1, 1.96x),
//! * two sequential readers destroy each other's sequentiality and
//!   collapse by roughly an order of magnitude (Table 1, 10.23x),
//! * a neighbour that saturates both CPU and I/O starves the driver
//!   domain and degrades the I/O path even further (Table 1, 16.11x),
//! * interference is *nonlinear* (products of the two VMs' demands),
//!   which is exactly why the paper's quadratic model beats the linear
//!   one.
//!
//! Modules:
//! * [`config`] — host hardware parameters (local SATA and iSCSI presets),
//! * [`cpu`] — weighted max-min fair share (credit scheduler fluid model),
//! * [`disk`] — mechanical disk with stream-mixing interference,
//! * [`app`] — phased application behaviour models,
//! * [`apps`] — the 8 paper benchmarks, microbenchmarks, synthetic loads,
//! * [`engine`] — the co-run engine (N guests; the paper's testbed is N = 2),
//! * [`profiler`] — training-set and pair-matrix measurement harness.

#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod config;
pub mod cpu;
pub mod disk;
pub mod engine;
pub mod profiler;

pub use app::{AppModel, Phase};
pub use apps::Benchmark;
pub use config::{DiskParams, HostConfig};
pub use engine::{CoRunOutcome, Engine, IntervalSample, RunOutcome, VmObservation, MAX_GUESTS};
pub use profiler::{PairMatrix, PairRun, ProfileRecord, ProfileSet, Profiler};
