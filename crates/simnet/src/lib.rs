//! # simnet — packet-level discrete-event network simulator
//!
//! This crate stands in for the physical clusters of Steffenel's CLUSTER
//! 2006 paper (Grid'5000's icluster2 and GdX, plus a Myrinet 2000 fabric).
//! It simulates hosts, switches and links at packet granularity with two
//! transports:
//!
//! * a **TCP-like** transport whose loss recovery (RTO with a 200 ms floor,
//!   exponential backoff, fast retransmit) reproduces the straggler
//!   connections the paper observes when All-to-All traffic saturates
//!   Ethernet switches;
//! * a **GM-like** transport (Myrinet): lossless, fixed-window, no timers.
//!
//! Contention emerges mechanistically — finite shared switch buffers tail-
//! drop under burst collisions, TCP backs off and stalls — rather than being
//! injected as a synthetic slowdown, so the model crates can *measure* a
//! contention signature the same way the paper measures one on hardware.
//!
//! ## Example
//!
//! ```
//! use simnet::prelude::*;
//!
//! let mut b = TopologyBuilder::new();
//! let hosts = b.add_hosts(2);
//! let sw = b.add_switch(SwitchConfig::commodity_ethernet());
//! for &h in &hosts {
//!     b.link_host(h, sw, LinkConfig::gigabit_ethernet());
//! }
//! let cfg = SimConfig::default();
//! let mut sim = Simulator::new(b.build().unwrap(), cfg);
//! let conn = sim.open_connection(hosts[0], hosts[1], TransportKind::Tcp(TcpConfig::default()));
//! sim.send(conn, 1_000_000, 42);
//! while let Some(n) = sim.poll() {
//!     if let Notification::Delivered { tag, at, .. } = n {
//!         assert_eq!(tag, 42);
//!         assert!(at.as_secs_f64() > 0.0);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use contention_obs as obs;

pub mod config;
pub mod engine;
pub mod event;
pub mod fluid;
pub mod generate;
pub mod guard;
pub mod ids;
pub mod packet;
pub mod stats;
pub mod time;
pub mod topology;
pub mod transport;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::{
        GmConfig, LinkConfig, SimConfig, SwitchConfig, TcpConfig, TransportKind,
    };
    pub use crate::engine::{BlockedConn, Simulator};
    pub use crate::guard::{GuardStop, RunGuard, GUARD_CHECK_INTERVAL};
    pub use crate::ids::{ConnId, HostId, SwitchId};
    pub use crate::packet::{Notification, PackedPacket, PacketKind};
    pub use crate::stats::NetStats;
    pub use crate::time::SimTime;
    pub use crate::topology::{Topology, TopologyBuilder, TopologyError};
    pub use contention_obs::{EngineRecorder, NoopRecorder, Recorder};
}

pub use prelude::*;
