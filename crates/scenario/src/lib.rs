//! # contention-scenario — the declarative scenario engine
//!
//! The paper measures All-to-All contention on three fixed clusters; this
//! crate turns that hard-coded world into data, and wraps it in an
//! embeddable, concurrency-safe library facade:
//!
//! * [`session`] — the **[`Session`](session::Session)** facade: owned
//!   execution policy, an instance-owned calibration cache, streaming
//!   [`RunEvent`](session::RunEvent)s and a cancellation token;
//! * [`builder`] — the fluent
//!   [`ScenarioBuilder`](builder::ScenarioBuilder); TOML parsing is one
//!   front-end to it;
//! * [`spec`] — [`ScenarioSpec`](spec::ScenarioSpec): topology, transport,
//!   MPI overrides, workload and sweep grid as one declarative value, with
//!   a TOML round-trip (see [`toml`], a dependency-free subset parser);
//! * [`topology`] — spec → [`Fabric`](topology::Fabric) (one routed
//!   topology per scenario, shared by every cell) → [`simmpi::World`],
//!   via the parameterized generators in [`simnet::generate`];
//! * [`workload`] — spec → a cell's traffic in one walk: its per-rank
//!   programs and its MED lower bound for the model-error column;
//! * [`executor`] — the parallel batch executor: one flat cell queue
//!   across all scenarios, deterministic per-cell seeding (results are
//!   byte-identical for any worker count);
//! * [`report`] — the versioned [`Report`](report::Report) with one
//!   render path for text/CSV/JSON;
//! * [`metrics`] — per-run telemetry
//!   ([`SessionMetrics`](metrics::SessionMetrics)): cell wall-clock
//!   spans, worker occupancy, calibration-cache counters, and optional
//!   engine telemetry, exportable as metrics JSON or a Chrome
//!   trace-event timeline;
//! * [`error`] — the typed [`CtnError`](error::CtnError) hierarchy;
//! * [`registry`] — built-in scenarios (all constructed through the
//!   builder), including the three paper clusters re-expressed as specs.
//!
//! The `ctnsim` binary exposes all of it: `ctnsim list`, `ctnsim run
//! <name|file.toml> [--format text|csv|json]`, `ctnsim sweep <name>
//! --nodes … --sizes …`.
//!
//! ## Example
//!
//! ```
//! use contention_scenario::prelude::*;
//!
//! let spec = ScenarioBuilder::new("quick")
//!     .single_switch(8, LinkConfig::gigabit_ethernet(), SwitchConfig::commodity_ethernet())
//!     .incast(1)
//!     .nodes([4])
//!     .message_bytes([32 * 1024])
//!     .build()
//!     .expect("valid spec");
//! let session = Session::builder().workers(2).base_seed(1).build().unwrap();
//! let report = session.run(&spec).expect("runs");
//! assert_eq!(report.batches[0].cells.len(), 1);
//! println!("{}", report.render(ReportFormat::Text));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod calibrate;
pub mod error;
pub mod executor;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod session;
pub mod spec;
pub mod toml;
pub mod topology;
pub mod workload;

/// Commonly used items.
pub mod prelude {
    pub use crate::builder::ScenarioBuilder;
    pub use crate::error::CtnError;
    pub use crate::executor::{
        BatchResult, CellResult, CellStatus, FaultPlan, GuardLimits, ModelKind,
    };
    pub use crate::metrics::{CacheStats, CellMetrics, SessionMetrics, WorkerMetrics};
    pub use crate::registry;
    pub use crate::report::{Report, ReportFormat, SCHEMA_VERSION, SUPERVISED_SCHEMA_VERSION};
    pub use crate::session::{CalibrationCache, CancelToken, RunEvent, Session, SessionBuilder};
    pub use crate::spec::{
        Backend, MpiSpec, ScenarioSpec, SpecError, SweepSpec, TopologySpec, TransportSpec,
        WorkloadSpec,
    };
    pub use simnet::config::{LinkConfig, SwitchConfig};
    pub use simnet::generate::{
        DragonflyParams, FatTreeParams, Placement, SingleSwitchParams, StarParams, TorusParams,
        TreeParams,
    };
}
