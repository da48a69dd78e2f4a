//! # tracon-dcsim
//!
//! The discrete-event data-center simulator that evaluates TRACON at
//! scale (paper Section 4.2): 8 to 10,000 machines, two VMs each, static
//! and dynamic (Poisson) workloads. Running tasks progress at rates taken
//! from the *measured* pair-performance table produced by the
//! `tracon-vmsim` testbed, with remaining-work rescaling whenever a
//! neighbour changes.
//!
//! * [`setup`] — profiles the 8 benchmarks, trains the models, builds the
//!   predictor and the measured pair table; saves and reloads the
//!   measured data as a JSON snapshot,
//! * [`perf`] — the replayable pair-performance statistics,
//! * [`arrival`] — light/medium/heavy Gaussian rank mixes and Poisson
//!   arrival traces,
//! * [`engine`] — the event-driven simulation and the paper's metrics
//!   (Speedup, IOBoost, normalized throughput),
//! * [`experiments`] — one driver per table/figure of the evaluation.

#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod experiments;
pub mod perf;
pub mod setup;
mod snapshot;

pub use arrival::{poisson_n, poisson_trace, static_batch, ArrivalEvent, WorkloadMix};
pub use engine::{
    io_boost, normalized_throughput, speedup, AdaptiveObserver, ArrivalInfo, CompletionInfo,
    PlacementInfo, QueueBackend, SchedulerKind, SimObserver, SimResult, Simulation,
    TaskObservation,
};
pub use perf::{PerfTable, IDLE};
pub use setup::{Testbed, TestbedConfig};
