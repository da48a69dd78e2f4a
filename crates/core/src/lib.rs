//! # tracon-core
//!
//! The paper's primary contribution: the TRACON Task and Resource
//! Allocation CONtrol framework.
//!
//! * [`characteristics`] — the four per-VM resource characteristics the
//!   models consume (Table 2) and the joint two-VM feature encoding.
//! * [`model`] — the three interference prediction model families:
//!   weighted mean (PCA + 3-NN), linear (stepwise AIC), and nonlinear
//!   (full quadratic expansion, Gauss-Newton, stepwise AIC), plus the
//!   no-Dom0 ablation and evaluation utilities.
//! * [`monitor`] — the task & resource monitor's online adaptation loop:
//!   error tracking, drift detection, and periodic model rebuilds.
//! * [`interner`] — the application-id interning layer (`AppId`,
//!   `AppRegistry`, packed `ClassKey`) that keeps the scheduler hot path
//!   allocation-free.
//! * [`par`] — deterministic fork-join helpers (scoped threads) used by
//!   MIX's head-candidate search and the dcsim experiment sweeps.
//! * [`predictor`] — the prediction module that scores candidate task
//!   placements for the schedulers, backed by dense per-(app, class)
//!   lookup tables.
//! * [`resource`] — the resource dimensions (`ResourceDim`, `DimVec`)
//!   a service client may state a task's demand in; no scheduler reads
//!   them.
//! * [`sched`] — the FIFO baseline and the three interference-aware
//!   schedulers: MIOS (Algorithm 1), MIBS (Algorithm 2), MIX
//!   (Algorithm 3), over a neighbour-class-indexed cluster state that
//!   keeps scheduling cost independent of cluster size. The cluster is
//!   homogeneous, as in the paper.
//!
//! The crate is substrate-agnostic: it consumes characteristics and
//! responses from *any* source. The companion `tracon-vmsim` crate
//! produces them from a simulated virtualized testbed, and
//! `tracon-dcsim` drives these schedulers inside a data-center
//! discrete-event simulation.

#![warn(missing_docs)]

pub mod characteristics;
pub mod interner;
pub mod model;
pub mod monitor;
pub mod par;
pub mod predictor;
pub mod resource;
pub mod sched;

pub use characteristics::{joint_features, Characteristics, N_CHARACTERISTICS, N_JOINT};
pub use interner::{AppId, AppRegistry, ClassKey, MAX_NEIGHBOURS};
pub use model::{
    evaluate,
    linear::LinearModel,
    nonlinear::NonlinearModel,
    relative_error,
    training::{train_model, train_model_scaled},
    wmm::Wmm,
    InterferenceModel, ModelKind, Response, ResponseScale, TrainingData,
};
pub use monitor::{AdaptiveModel, MonitorConfig, ObserveOutcome};
pub use predictor::{AppModelSet, AppProfile, Objective, Predictor, ScoringPolicy};
pub use resource::{DimVec, ResourceDim, N_DIMS};
pub use sched::{
    Assignment, ClusterState, Fifo, FreeClass, Mibs, MibsAblation, MibsVariant, Mios, Mix,
    Resident, Scheduler, Task, VmRef,
};
