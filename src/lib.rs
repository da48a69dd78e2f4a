//! # TRACON
//!
//! A from-scratch Rust reproduction of **"TRACON: Interference-Aware
//! Scheduling for Data-Intensive Applications in Virtualized
//! Environments"** (Chiang & Huang, SC'11).
//!
//! TRACON is a Task and Resource Allocation CONtrol framework for
//! virtualized data centers. Co-located data-intensive applications
//! interfere through the shared I/O path far more severely than through
//! the CPU (the paper measures up to 16x slowdowns); TRACON mitigates
//! this with three components:
//!
//! 1. **Interference prediction models** ([`core::model`]) that map the
//!    resource characteristics of two co-located VMs to an application's
//!    runtime or IOPS — a weighted-mean baseline (PCA + 3-NN), a linear
//!    model, and the paper's nonlinear (quadratic, Gauss-Newton,
//!    stepwise-AIC) model.
//! 2. **Interference-aware schedulers** ([`core::sched`]) — MIOS
//!    (online), MIBS (batch Min-Min pairing), and MIX (best-first-job
//!    batch) — that place tasks where the models predict the least
//!    interference.
//! 3. A **task & resource monitor** ([`core::monitor`]) that tracks
//!    prediction error and rebuilds models online when the environment
//!    drifts.
//!
//! This crate is a facade over the workspace:
//!
//! * [`stats`] ([`tracon_stats`]) — the statistics substrate (QR,
//!   Jacobi eigen, PCA, OLS, Gauss-Newton, stepwise AICc, k-NN,
//!   distributions, drift detection), all implemented from scratch.
//! * [`vmsim`] ([`tracon_vmsim`]) — the virtualized-host interference
//!   testbed that substitutes for the paper's Xen hardware: a credit-
//!   scheduler CPU model, a driver-domain I/O path, a mechanical-disk
//!   model with stream-mixing interference, and behaviour models for the
//!   paper's eight data-intensive benchmarks.
//! * [`core`] ([`tracon_core`]) — the paper's contribution: models,
//!   monitor, predictor, schedulers.
//! * [`dcsim`] ([`tracon_dcsim`]) — the discrete-event data-center
//!   simulator (8 to 10,000 machines) and one experiment driver per
//!   table/figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use tracon::dcsim::{SchedulerKind, Simulation, Testbed, TestbedConfig};
//! use tracon::dcsim::arrival::{static_batch, WorkloadMix};
//!
//! // Profile the benchmarks, train the NLM models, measure the pair matrix.
//! let testbed = Testbed::build(&TestbedConfig::full());
//!
//! // Schedule a batch of 32 tasks onto 16 machines with MIBS vs FIFO.
//! let trace = static_batch(32, WorkloadMix::Medium, 42);
//! let fifo = Simulation::new(&testbed, 16, SchedulerKind::Fifo).run(&trace, None);
//! let mibs = Simulation::new(&testbed, 16, SchedulerKind::Mibs(32)).run(&trace, None);
//! println!("speedup over FIFO: {:.2}", tracon::dcsim::speedup(&fifo, &mibs));
//! ```
//!
//! See `examples/` for runnable scenarios; `tracon experiment NAME`
//! (`crates/cli`) regenerates every table and figure of the paper.

#![warn(missing_docs)]

pub use tracon_core as core;
pub use tracon_dcsim as dcsim;
pub use tracon_stats as stats;
pub use tracon_vmsim as vmsim;

pub use tracon_core::{
    Characteristics, InterferenceModel, ModelKind, Objective, Predictor, Response, TrainingData,
};
pub use tracon_dcsim::{SchedulerKind, SimResult, Simulation, Testbed, TestbedConfig};
pub use tracon_vmsim::{AppModel, Benchmark, Engine, HostConfig};
