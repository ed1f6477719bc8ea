//! # simmpi — a simulated MPI layer over [`simnet`]
//!
//! Stands in for LAM-MPI/MPICH in the paper's experiments. It provides:
//!
//! * ranks mapped onto hosts by two worlds, the packet [`world::World`]
//!   and the flow-level [`fluid::FluidWorld`], which share one rank
//!   program counter (next op, outstanding parts, barriers, finish times,
//!   the host-set check) and keep only their own protocols;
//! * blocking point-to-point semantics with an **eager/rendezvous**
//!   protocol (envelope overheads, unexpected-message queueing, RTS/CTS
//!   handshakes) — the source of the paper's small-message non-linearity
//!   (Fig. 5) and of the `M` cutoff in the signature model;
//! * the paper's **Direct Exchange** All-to-All (Algorithm 1) plus baseline
//!   algorithms (Bruck, pairwise, ring, nonblocking post-all); the rotated
//!   rounds and the post-all each have one generator over a per-pair byte
//!   count, which irregular (`MPI_Alltoallv`-style) exchanges share;
//! * measurement harnesses: ping-pong (Hockney α/β), timed All-to-All
//!   repetitions, and the §3 network stress test;
//! * the paper's three clusters as [`presets`] (a topology + transport +
//!   [`MpiConfig`] that builds a [`World`]), and the [`runner`] sweep
//!   helper every driver above this crate parallelizes with.
//!
//! ## Example: time one All-to-All
//!
//! ```
//! use simnet::prelude::*;
//! use simmpi::prelude::*;
//!
//! let mut b = TopologyBuilder::new();
//! let hosts = b.add_hosts(4);
//! let sw = b.add_switch(SwitchConfig::commodity_ethernet());
//! for &h in &hosts {
//!     b.link_host(h, sw, LinkConfig::gigabit_ethernet());
//! }
//! let cfg = SimConfig::default();
//! let sim = Simulator::new(b.build().unwrap(), cfg);
//! let mut world = World::new(sim, hosts, MpiConfig::default(),
//!                            TransportKind::Tcp(TcpConfig::default()));
//! let times = alltoall_times(&mut world, AllToAllAlgorithm::DirectExchange,
//!                            64 * 1024, 1, 3);
//! assert_eq!(times.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alltoall;
pub mod config;
pub mod fluid;
pub mod harness;
pub mod ops;
pub mod presets;
mod program;
pub mod runner;
pub mod world;

/// Commonly used items.
pub mod prelude {
    pub use crate::alltoall::AllToAllAlgorithm;
    pub use crate::config::MpiConfig;
    pub use crate::fluid::FluidWorld;
    pub use crate::harness::{alltoall_times, ping_pong, stress_run, PingPongPoint, StressResult};
    pub use crate::ops::{Op, Rank};
    pub use crate::world::{RunInterrupt, RunResult, World};
}

pub use prelude::*;
