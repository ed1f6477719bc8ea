//! # contention-model — the paper's contribution
//!
//! Implements every model in Steffenel, *Modeling Network Contention
//! Effects on All-to-All Operations* (CLUSTER 2006):
//!
//! * [`hockney`] — the α/β transmission model and the Proposition 1
//!   All-to-All lower bound;
//! * [`med`] — the message exchange digraph with the Claims 1–3 start-up
//!   and bandwidth bounds for arbitrary total-exchange instances;
//! * [`throughput`] — §6: the `βF`/`βC`/`ρ` synthetic-gap model;
//! * [`signature`] — §7: the contention signature `(γ, δ, M)` with
//!   least-squares fitting and breakpoint selection;
//! * `regression` (crate-private) — the least squares both fits run: one
//!   or two regressors, normal equations solved by Cholesky;
//! * [`saturation`] — the γ(n) ramp for half-saturated networks;
//! * [`calibration`] — §8's measurement pipeline, data side;
//! * [`metrics`] — the paper's `(measured/estimated − 1)·100 %` error.
//!
//! The signature and the ramp each write their formula once, as a
//! function of a lower bound (`predict_from`); `predict(n, m)` feeds it
//! Proposition 1's bound.
//!
//! The crate is measurement-source-agnostic and has no dependencies: it
//! fits from plain `(size, time)` data. The crates above it (the paper-figure drivers,
//! the scenario engine) run the simulator to produce those inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod error;
pub mod hockney;
pub mod med;
pub mod metrics;
#[cfg(test)]
mod piecewise;
mod regression;
pub mod saturation;
pub mod signature;
pub mod throughput;

/// Commonly used items.
pub mod prelude {
    pub use crate::calibration::{Calibration, CalibrationInput};
    pub use crate::error::ModelError;
    pub use crate::hockney::HockneyParams;
    pub use crate::med::Med;
    pub use crate::metrics::{estimation_error_percent, AccuracyPoint};
    pub use crate::saturation::SaturationModel;
    pub use crate::signature::ContentionSignature;
    pub use crate::throughput::ThroughputModel;
}

pub use prelude::*;
