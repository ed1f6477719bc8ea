//! # contention-lab — measurement drivers and paper experiments
//!
//! Binds the simulator stack to the paper's experimental procedure, on
//! the three clusters of [`simmpi::presets`]. A leaf crate: only the
//! `repro` binary, the root facade and the examples use it.
//!
//! * [`runner`] — ping-pong/Hockney measurement, All-to-All sweeps and
//!   the full §8 calibration pipeline;
//! * [`experiments`] — one module per paper figure (2–14) plus the fitted
//!   parameter table, all registered for the `repro` binary, and the
//!   paper's own results per testbed ([`experiments::paper`]);
//! * [`report`] — CSV/markdown tables and ASCII charts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod descriptive;
pub mod experiments;
pub mod report;
pub mod runner;
