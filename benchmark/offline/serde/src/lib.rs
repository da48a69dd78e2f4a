//! Offline stand-in for `serde`. The tracon library crates only name
//! `Serialize` and `Deserialize` in derives, so the traits are markers
//! and the derives (see `serde_derive`) expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Marker standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
