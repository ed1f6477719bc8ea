//! # alltoall-contention
//!
//! Facade crate for the reproduction of Steffenel, *Modeling Network
//! Contention Effects on All-to-All Operations* (CLUSTER 2006).
//!
//! The workspace builds, from scratch:
//!
//! * [`simnet`] — a packet-level discrete-event network simulator with
//!   TCP-like (lossy, retransmitting) and GM-like (lossless, backpressured)
//!   transports, finite-buffer switches and oversubscribable uplinks;
//! * [`simmpi`] — an MPI-like layer (eager/rendezvous point-to-point,
//!   Direct Exchange and baseline All-to-All algorithms, timing harnesses)
//!   and the paper's three clusters as presets (Fast Ethernet, Gigabit
//!   Ethernet, Myrinet);
//! * [`contention_model`] — the paper's contribution: Hockney parameters,
//!   total-exchange lower bounds, the §6 throughput-under-contention model
//!   and the §7 contention-signature model `(γ, δ, M)`, with the least
//!   squares both fits run;
//! * [`contention_lab`] — the paper's §8 measurement procedure and one
//!   experiment module per paper figure.
//!
//! ## Quickstart
//!
//! The library entry point is the [`contention_scenario`] crate's
//! [`Session`](contention_scenario::session::Session) facade: build a
//! scenario programmatically, run it (streaming progress if you want it),
//! and render a versioned report.
//!
//! ```no_run
//! use alltoall_contention::prelude::*;
//!
//! let spec = ScenarioBuilder::new("my-sweep")
//!     .preset("gigabit-ethernet")
//!     .uniform(AllToAllAlgorithm::DirectExchange)
//!     .nodes([8, 16, 24])
//!     .message_bytes([64 * 1024, 512 * 1024])
//!     .build()
//!     .expect("valid spec");
//! let session = Session::builder().workers(4).build().unwrap();
//! let report = session.run(&spec).expect("runs");
//! println!("{}", report.render(ReportFormat::Text));
//! ```

pub use contention_lab;
pub use contention_model;
pub use contention_scenario;
pub use simmpi;
pub use simnet;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use contention_lab::runner::{
        calibrate_report, calibrate_signature, default_sample_sizes, measure_alltoall_curve,
        measure_hockney, SweepConfig,
    };
    pub use contention_model::calibration::{Calibration, CalibrationInput};
    pub use contention_model::hockney::HockneyParams;
    pub use contention_model::metrics::{estimation_error_percent, AccuracyPoint};
    pub use contention_model::signature::ContentionSignature;
    pub use contention_model::throughput::ThroughputModel;
    pub use contention_scenario::prelude::{
        CalibrationCache, CancelToken, CtnError, ModelKind, Placement, Report, ReportFormat,
        RunEvent, ScenarioBuilder, ScenarioSpec, Session, SessionBuilder,
    };
    pub use contention_scenario::registry;
    pub use contention_scenario::spec::{TopologySpec, WorkloadSpec};
    pub use simmpi::alltoall::AllToAllAlgorithm;
    pub use simmpi::presets::ClusterPreset;
    pub use simnet::config::{LinkConfig, SwitchConfig};
}
