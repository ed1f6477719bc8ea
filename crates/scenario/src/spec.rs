//! The declarative scenario description: what fabric, what transport, what
//! workload, over what sweep grid.
//!
//! A [`ScenarioSpec`] is the unit the batch executor runs and the `ctnsim`
//! CLI loads from TOML. Specs are plain data — building worlds and
//! programs from them lives in [`crate::topology`] and
//! [`crate::workload`].

use crate::toml::{self, TomlError, Value};
use simnet::generate::Placement;
use simnet::prelude::*;
use std::collections::BTreeMap;

/// A link description (bandwidth + latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way latency in nanoseconds.
    pub latency_ns: u64,
}

impl LinkSpec {
    /// Conversion to the simulator type.
    pub fn to_config(self) -> LinkConfig {
        LinkConfig {
            bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec,
            latency_ns: self.latency_ns,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        let l = LinkConfig::gigabit_ethernet();
        Self {
            bandwidth_bytes_per_sec: l.bandwidth_bytes_per_sec,
            latency_ns: l.latency_ns,
        }
    }
}

/// Switch buffering description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Shared buffer pool in bytes.
    pub shared_buffer_bytes: u64,
    /// Per-port cap within the pool, bytes.
    pub per_port_cap_bytes: u64,
}

impl SwitchSpec {
    /// Conversion to the simulator type.
    pub fn to_config(self) -> SwitchConfig {
        SwitchConfig {
            shared_buffer_bytes: self.shared_buffer_bytes,
            per_port_cap_bytes: self.per_port_cap_bytes,
        }
    }
}

impl Default for SwitchSpec {
    fn default() -> Self {
        let s = SwitchConfig::commodity_ethernet();
        Self {
            shared_buffer_bytes: s.shared_buffer_bytes,
            per_port_cap_bytes: s.per_port_cap_bytes,
        }
    }
}

/// Which fabric family a scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// One of the paper's calibrated clusters, by preset name
    /// (`fast-ethernet`, `gigabit-ethernet`, `myrinet`).
    Preset {
        /// Preset name.
        preset: String,
    },
    /// `hosts` hosts on one switch.
    SingleSwitch {
        /// Host count (capacity).
        hosts: usize,
        /// Host link.
        link: LinkSpec,
        /// The switch.
        switch: SwitchSpec,
    },
    /// Leaf switches around a core with explicit uplink parameters.
    StarOfSwitches {
        /// Leaf switch count.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Host ↔ leaf link.
        edge_link: LinkSpec,
        /// Leaf ↔ core link.
        uplink: LinkSpec,
        /// Parallel uplinks per leaf.
        uplinks_per_leaf: usize,
        /// Leaf switch buffering.
        edge_switch: SwitchSpec,
        /// Core switch buffering.
        core_switch: SwitchSpec,
    },
    /// Two-level tree whose uplink bandwidth derives from an
    /// oversubscription ratio.
    Tree {
        /// Leaf switch count.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Host ↔ leaf link.
        edge_link: LinkSpec,
        /// Total host bandwidth per leaf ÷ total uplink bandwidth.
        oversubscription: f64,
        /// Parallel uplinks per leaf.
        uplinks_per_leaf: usize,
        /// Uplink one-way latency, nanoseconds.
        uplink_latency_ns: u64,
        /// Leaf switch buffering.
        edge_switch: SwitchSpec,
        /// Core switch buffering.
        core_switch: SwitchSpec,
    },
    /// k-ary fat-tree.
    FatTree {
        /// Pod arity (even).
        k: usize,
        /// Hosts per edge switch.
        hosts_per_edge: usize,
        /// Uniform link.
        link: LinkSpec,
        /// Uniform switch buffering.
        switch: SwitchSpec,
    },
    /// 2-D torus of switches, dimension-ordered routing.
    Torus2d {
        /// Ring length along x.
        x: usize,
        /// Ring length along y.
        y: usize,
        /// Hosts per switch.
        hosts_per_switch: usize,
        /// Uniform link.
        link: LinkSpec,
        /// Uniform switch buffering.
        switch: SwitchSpec,
    },
    /// 3-D torus of switches, dimension-ordered routing.
    Torus3d {
        /// Ring length along x.
        x: usize,
        /// Ring length along y.
        y: usize,
        /// Ring length along z.
        z: usize,
        /// Hosts per switch.
        hosts_per_switch: usize,
        /// Uniform link.
        link: LinkSpec,
        /// Uniform switch buffering.
        switch: SwitchSpec,
    },
    /// Dragonfly: fully-meshed router groups joined by single global
    /// links, minimal-path routed.
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Routers per group (local full mesh).
        routers_per_group: usize,
        /// Hosts per router.
        hosts_per_router: usize,
        /// Host ↔ router link.
        host_link: LinkSpec,
        /// Intra-group link.
        local_link: LinkSpec,
        /// Inter-group (global) link.
        global_link: LinkSpec,
        /// Uniform router buffering.
        switch: SwitchSpec,
    },
}

impl TopologySpec {
    /// Short family name used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Preset { .. } => "preset",
            TopologySpec::SingleSwitch { .. } => "single-switch",
            TopologySpec::StarOfSwitches { .. } => "star-of-switches",
            TopologySpec::Tree { .. } => "tree",
            TopologySpec::FatTree { .. } => "fat-tree",
            TopologySpec::Torus2d { .. } => "torus-2d",
            TopologySpec::Torus3d { .. } => "torus-3d",
            TopologySpec::Dragonfly { .. } => "dragonfly",
        }
    }
}

/// Transport every connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSpec {
    /// TCP-like lossy transport with the given window.
    Tcp {
        /// Send window in bytes.
        window_bytes: u64,
    },
    /// GM-like lossless transport with the given window.
    Gm {
        /// Send window in bytes.
        window_bytes: u64,
    },
}

impl TransportSpec {
    /// Conversion to the simulator type.
    pub fn to_kind(self) -> TransportKind {
        match self {
            TransportSpec::Tcp { window_bytes } => TransportKind::Tcp(TcpConfig {
                window_bytes,
                ..TcpConfig::default()
            }),
            TransportSpec::Gm { window_bytes } => TransportKind::Gm(GmConfig {
                window_bytes,
                ..GmConfig::default()
            }),
        }
    }
}

impl Default for TransportSpec {
    fn default() -> Self {
        TransportSpec::Tcp {
            window_bytes: TcpConfig::default().window_bytes,
        }
    }
}

/// Optional overrides of the MPI protocol stack; unset fields keep the
/// topology's defaults (the preset's values on preset topologies,
/// [`simmpi::MpiConfig::default`] otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MpiSpec {
    /// Eager/rendezvous threshold in bytes.
    pub eager_threshold: Option<u64>,
    /// Per-message sender CPU overhead, nanoseconds.
    pub send_overhead_ns: Option<u64>,
    /// Per-message receiver CPU overhead, nanoseconds.
    pub recv_overhead_ns: Option<u64>,
    /// OS scheduling hiccup probability.
    pub hiccup_probability: Option<f64>,
}

impl MpiSpec {
    /// Applies the overrides onto `base`.
    pub fn apply(&self, mut base: simmpi::MpiConfig) -> simmpi::MpiConfig {
        if let Some(v) = self.eager_threshold {
            base.eager_threshold = v;
        }
        if let Some(v) = self.send_overhead_ns {
            base.send_overhead_ns = v;
        }
        if let Some(v) = self.recv_overhead_ns {
            base.recv_overhead_ns = v;
        }
        if let Some(v) = self.hiccup_probability {
            base.hiccup_probability = v;
        }
        base
    }

    fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// Traffic pattern of one phase.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's uniform All-to-All under a named algorithm
    /// (`direct`, `direct-nb`, `bruck`, `pairwise`, `ring`).
    Uniform {
        /// Algorithm name (see [`simmpi::AllToAllAlgorithm::name`]).
        algorithm: String,
    },
    /// Irregular exchange where `hot_ranks` senders transmit
    /// `factor ×` larger blocks than everyone else.
    Skewed {
        /// Number of heavy senders.
        hot_ranks: usize,
        /// Size multiplier for heavy senders.
        factor: f64,
        /// Post-all nonblocking schedule instead of rotated rounds.
        nonblocking: bool,
    },
    /// Irregular exchange keeping each off-diagonal pair with probability
    /// `density` (seeded per cell).
    Sparse {
        /// Pair survival probability in `(0, 1]`.
        density: f64,
        /// Post-all nonblocking schedule instead of rotated rounds.
        nonblocking: bool,
    },
    /// Each rank sends its full payload to exactly one partner under a
    /// seeded random permutation (derangement).
    Permutation,
    /// Everyone sends to `receivers` sink ranks (round-robin) — the
    /// buffer-exhausting incast of the paper's §3 stress test.
    Incast {
        /// Number of sinks.
        receivers: usize,
    },
    /// `senders` source ranks broadcast-style send to everyone else.
    Outcast {
        /// Number of sources.
        senders: usize,
    },
    /// Multiple phases separated by barriers.
    Phases {
        /// The phases, in order.
        phases: Vec<WorkloadSpec>,
    },
}

impl WorkloadSpec {
    /// Short name used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::Skewed { .. } => "skewed",
            WorkloadSpec::Sparse { .. } => "sparse",
            WorkloadSpec::Permutation => "permutation",
            WorkloadSpec::Incast { .. } => "incast",
            WorkloadSpec::Outcast { .. } => "outcast",
            WorkloadSpec::Phases { .. } => "phases",
        }
    }
}

/// The sweep grid and repetition policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Node counts to run.
    pub nodes: Vec<usize>,
    /// Per-pair message sizes in bytes.
    pub message_bytes: Vec<u64>,
    /// Discarded warm-up repetitions per cell.
    pub warmup: usize,
    /// Measured repetitions per cell.
    pub reps: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self {
            nodes: vec![4, 8],
            message_bytes: vec![64 * 1024, 256 * 1024],
            warmup: 0,
            reps: 1,
        }
    }
}

/// Which simulation tier executes a scenario's cells.
///
/// The packet engine replays every MTU-sized frame through the switch
/// queues — it is the calibrated reference and the default, but tops out
/// around a million events per second. The fluid tier models each
/// transfer as a flow with a max-min fair share of every link on its
/// route and advances time only at flow start/finish boundaries, trading
/// per-packet effects (buffer occupancy, drops, retransmits) for
/// orders-of-magnitude more hosts. See the README "Backends" section for
/// the measured per-scenario error bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Per-packet discrete-event engine (the calibrated reference).
    #[default]
    Packet,
    /// Flow-level max-min fair-sharing engine for 1k–4k-host fabrics.
    Fluid,
}

impl Backend {
    /// All backends, in documentation order.
    pub fn all() -> [Backend; 2] {
        [Backend::Packet, Backend::Fluid]
    }

    /// The TOML / CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Packet => "packet",
            Backend::Fluid => "fluid",
        }
    }

    /// Inverse of [`Backend::name`].
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::all().into_iter().find(|b| b.name() == name)
    }
}

/// A complete, runnable scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique name (registry key, report column).
    pub name: String,
    /// One-line description shown by `ctnsim list`.
    pub description: String,
    /// The fabric.
    pub topology: TopologySpec,
    /// How ranks map onto the fabric's hosts (TOML: a top-level
    /// `placement = "scatter" | "pack" | "random"`; scatter when absent).
    pub placement: Placement,
    /// The transport.
    pub transport: TransportSpec,
    /// MPI-stack overrides.
    pub mpi: MpiSpec,
    /// The traffic.
    pub workload: WorkloadSpec,
    /// The grid.
    pub sweep: SweepSpec,
    /// Which simulation tier runs the cells (TOML: a top-level
    /// `backend = "packet" | "fluid"`; packet when absent).
    pub backend: Backend,
}

/// Spec validation / decoding failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// TOML-level failure.
    Toml(TomlError),
    /// Structural failure (missing/ill-typed/inconsistent field).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Toml(e) => write!(f, "{e}"),
            SpecError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TomlError> for SpecError {
    fn from(e: TomlError) -> Self {
        SpecError::Toml(e)
    }
}

fn invalid(msg: impl Into<String>) -> SpecError {
    SpecError::Invalid(msg.into())
}

/// Buffer sizes at or above this are treated as lossless-grade (no
/// backpressure deadlock risk) by the fluid-backend GM validation.
pub(crate) const LOSSLESS_BUFFER_FLOOR: u64 = 1 << 60;

/// FNV-1a over `bytes` — the crate's one hashing primitive (fingerprints,
/// name-derived seeds).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn validate_link(l: &LinkSpec, what: &str) -> Result<(), SpecError> {
    if !(l.bandwidth_bytes_per_sec.is_finite() && l.bandwidth_bytes_per_sec > 0.0) {
        return Err(invalid(format!(
            "{what}.bandwidth_bytes_per_sec must be positive and finite, got {}",
            l.bandwidth_bytes_per_sec
        )));
    }
    Ok(())
}

fn validate_switch(s: &SwitchSpec, what: &str) -> Result<(), SpecError> {
    if s.shared_buffer_bytes == 0 || s.per_port_cap_bytes == 0 {
        return Err(invalid(format!("{what} buffer sizes must be positive")));
    }
    Ok(())
}

impl ScenarioSpec {
    /// Validates internal consistency (positive grids, ratios, known
    /// algorithm names, capacity respected).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(invalid("name must not be empty"));
        }
        if self.sweep.nodes.is_empty() || self.sweep.message_bytes.is_empty() {
            return Err(invalid("sweep grid must not be empty"));
        }
        if self.sweep.reps == 0 {
            return Err(invalid("sweep.reps must be at least 1"));
        }
        if self.sweep.message_bytes.contains(&0) {
            return Err(invalid("message sizes must be positive"));
        }
        if self.sweep.nodes.iter().any(|&n| n < 2) {
            return Err(invalid("every node count must be at least 2"));
        }
        let capacity = crate::topology::capacity(&self.topology)?;
        if let Some(&too_big) = self.sweep.nodes.iter().find(|&&n| n > capacity) {
            return Err(invalid(format!(
                "node count {too_big} exceeds the topology's {capacity}-host capacity"
            )));
        }
        self.validate_workload(&self.workload)?;
        if self.placement != Placement::Scatter
            && matches!(self.topology, TopologySpec::Preset { .. })
        {
            return Err(invalid(format!(
                "placement {:?} is not available on preset topologies (presets scatter)",
                self.placement.name()
            )));
        }
        match &self.topology {
            TopologySpec::Preset { .. } => {}
            TopologySpec::SingleSwitch { link, switch, .. } => {
                validate_link(link, "topology.link")?;
                validate_switch(switch, "topology.switch")?;
            }
            TopologySpec::StarOfSwitches {
                edge_link,
                uplink,
                edge_switch,
                core_switch,
                ..
            } => {
                validate_link(edge_link, "topology.edge_link")?;
                validate_link(uplink, "topology.uplink")?;
                validate_switch(edge_switch, "topology.edge_switch")?;
                validate_switch(core_switch, "topology.core_switch")?;
            }
            TopologySpec::Tree {
                edge_link,
                oversubscription,
                edge_switch,
                core_switch,
                ..
            } => {
                validate_link(edge_link, "topology.edge_link")?;
                validate_switch(edge_switch, "topology.edge_switch")?;
                validate_switch(core_switch, "topology.core_switch")?;
                if !(oversubscription.is_finite() && *oversubscription > 0.0) {
                    return Err(invalid("tree oversubscription must be positive"));
                }
            }
            TopologySpec::FatTree {
                k, link, switch, ..
            } => {
                validate_link(link, "topology.link")?;
                validate_switch(switch, "topology.switch")?;
                if *k < 2 || *k % 2 != 0 {
                    return Err(invalid(format!("fat-tree arity {k} must be even and >= 2")));
                }
            }
            TopologySpec::Torus2d {
                x,
                y,
                hosts_per_switch,
                link,
                switch,
            } => {
                validate_link(link, "topology.link")?;
                validate_switch(switch, "topology.switch")?;
                if *x == 0 || *y == 0 || *x * *y < 2 || *hosts_per_switch == 0 {
                    return Err(invalid("torus needs ≥ 2 switches and ≥ 1 host each"));
                }
            }
            TopologySpec::Torus3d {
                x,
                y,
                z,
                hosts_per_switch,
                link,
                switch,
            } => {
                validate_link(link, "topology.link")?;
                validate_switch(switch, "topology.switch")?;
                if *x == 0 || *y == 0 || *z == 0 || *x * *y * *z < 2 || *hosts_per_switch == 0 {
                    return Err(invalid("torus needs ≥ 2 switches and ≥ 1 host each"));
                }
            }
            TopologySpec::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
                host_link,
                local_link,
                global_link,
                switch,
            } => {
                validate_link(host_link, "topology.host_link")?;
                validate_link(local_link, "topology.local_link")?;
                validate_link(global_link, "topology.global_link")?;
                validate_switch(switch, "topology.switch")?;
                if *groups == 0
                    || *routers_per_group == 0
                    || *hosts_per_router == 0
                    || *groups * *routers_per_group < 2
                {
                    return Err(invalid("dragonfly needs ≥ 2 routers and ≥ 1 host each"));
                }
            }
        }
        if let Some(p) = self.mpi.hiccup_probability {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(invalid(format!(
                    "mpi.hiccup_probability {p} must be in [0, 1]"
                )));
            }
        }
        if self.backend == Backend::Fluid
            && matches!(self.transport, TransportSpec::Gm { .. })
            && self.finite_buffer_switch().is_some()
        {
            let what = self.finite_buffer_switch().expect("checked");
            return Err(invalid(format!(
                "backend = \"fluid\" cannot combine a GM transport with the \
                 finite-buffer switch {what}: the fluid tier's packet-engine \
                 calibration run can deadlock when lossless backpressure \
                 exhausts a finite shared buffer (GM never retransmits). Use \
                 lossless-grade buffers (>= 2^60 bytes) or a TCP transport"
            )));
        }
        Ok(())
    }

    /// The first topology switch whose buffering is not lossless-grade
    /// (either field below [`LOSSLESS_BUFFER_FLOOR`]), with its TOML path.
    fn finite_buffer_switch(&self) -> Option<&'static str> {
        let finite = |s: &SwitchSpec| {
            s.shared_buffer_bytes < LOSSLESS_BUFFER_FLOOR
                || s.per_port_cap_bytes < LOSSLESS_BUFFER_FLOOR
        };
        match &self.topology {
            // Presets carry the paper's calibrated fabrics, which are known
            // to drain under the packet engine's GM flow control.
            TopologySpec::Preset { .. } => None,
            TopologySpec::SingleSwitch { switch, .. }
            | TopologySpec::FatTree { switch, .. }
            | TopologySpec::Torus2d { switch, .. }
            | TopologySpec::Torus3d { switch, .. }
            | TopologySpec::Dragonfly { switch, .. } => finite(switch).then_some("topology.switch"),
            TopologySpec::StarOfSwitches {
                edge_switch,
                core_switch,
                ..
            }
            | TopologySpec::Tree {
                edge_switch,
                core_switch,
                ..
            } => {
                if finite(edge_switch) {
                    Some("topology.edge_switch")
                } else {
                    finite(core_switch).then_some("topology.core_switch")
                }
            }
        }
    }

    fn validate_workload(&self, w: &WorkloadSpec) -> Result<(), SpecError> {
        let min_n = *self.sweep.nodes.iter().min().expect("non-empty");
        match w {
            WorkloadSpec::Uniform { algorithm } => {
                crate::workload::algorithm_by_name(algorithm)
                    .ok_or_else(|| invalid(format!("unknown algorithm {algorithm:?}")))?;
                if algorithm == "pairwise" && self.sweep.nodes.iter().any(|n| !n.is_power_of_two())
                {
                    return Err(invalid("pairwise requires power-of-two node counts"));
                }
                Ok(())
            }
            WorkloadSpec::Skewed {
                hot_ranks, factor, ..
            } => {
                if *hot_ranks == 0 || *hot_ranks >= min_n {
                    return Err(invalid(format!(
                        "skewed hot_ranks {hot_ranks} must be in 1..{min_n}"
                    )));
                }
                if !(factor.is_finite() && *factor >= 1.0) {
                    return Err(invalid("skewed factor must be >= 1"));
                }
                Ok(())
            }
            WorkloadSpec::Sparse { density, .. } => {
                if !(*density > 0.0 && *density <= 1.0) {
                    return Err(invalid("sparse density must be in (0, 1]"));
                }
                Ok(())
            }
            WorkloadSpec::Permutation => Ok(()),
            WorkloadSpec::Incast { receivers } => {
                if *receivers == 0 || *receivers >= min_n {
                    return Err(invalid(format!(
                        "incast receivers {receivers} must be in 1..{min_n}"
                    )));
                }
                Ok(())
            }
            WorkloadSpec::Outcast { senders } => {
                if *senders == 0 || *senders >= min_n {
                    return Err(invalid(format!(
                        "outcast senders {senders} must be in 1..{min_n}"
                    )));
                }
                Ok(())
            }
            WorkloadSpec::Phases { phases } => {
                if phases.is_empty() {
                    return Err(invalid("phases must not be empty"));
                }
                for p in phases {
                    if matches!(p, WorkloadSpec::Phases { .. }) {
                        return Err(invalid("phases cannot nest"));
                    }
                    self.validate_workload(p)?;
                }
                Ok(())
            }
        }
    }

    /// Parses and validates a TOML document.
    ///
    /// TOML is one front-end to the
    /// [`ScenarioBuilder`](crate::builder::ScenarioBuilder): the decoded
    /// sections feed the same builder (and the same validation) a
    /// programmatic caller would use, so the two routes cannot drift.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        let value = toml::parse(input)?;
        Self::from_value(&value)
    }

    /// Serializes to a TOML document that [`ScenarioSpec::from_toml_str`]
    /// parses back to an equal spec.
    pub fn to_toml_string(&self) -> String {
        toml::serialize(&self.to_value())
    }

    fn from_value(v: &Value) -> Result<Self, SpecError> {
        let mut b = crate::builder::ScenarioBuilder::new(req_str(v, "name")?);
        if let Some(description) = opt_str(v, "description")? {
            b = b.description(description);
        }
        b = b.topology(decode_topology(
            v.get("topology")
                .ok_or_else(|| invalid("missing [topology]"))?,
        )?);
        if let Some(name) = opt_str(v, "placement")? {
            b = b.placement(
                Placement::parse(&name)
                    .ok_or_else(|| invalid(format!("unknown placement {name:?}")))?,
            );
        }
        if let Some(name) = opt_str(v, "backend")? {
            b = b.backend(
                Backend::parse(&name)
                    .ok_or_else(|| invalid(format!("unknown backend {name:?}")))?,
            );
        }
        if let Some(t) = v.get("transport") {
            b = b.transport(decode_transport(t)?);
        }
        if let Some(m) = v.get("mpi") {
            b = b.mpi(decode_mpi(m)?);
        }
        b = b.workload(decode_workload(
            v.get("workload")
                .ok_or_else(|| invalid("missing [workload]"))?,
        )?);
        if let Some(s) = v.get("sweep") {
            b = b.sweep(decode_sweep(s)?);
        }
        b.build()
    }

    /// A stable fingerprint of the calibration-relevant spec parts: the
    /// fabric (topology), transport and MPI overrides — everything a
    /// calibration's outcome can depend on besides its seed. Specs that
    /// differ only in name, workload or sweep grid share it. The
    /// executor's calibration caches key on (fingerprint, seed); since
    /// seeds are name-derived (byte-identity), the fingerprint's job in
    /// that key is to keep *same-named* specs with different fabrics
    /// (edited TOML files, sweep overrides) from wrongly sharing a fit.
    pub fn fabric_fingerprint(&self) -> u64 {
        let mut fabric = BTreeMap::new();
        fabric.insert("topology".to_string(), encode_topology(&self.topology));
        // Placement changes which hosts a calibration's ranks land on, so
        // it is part of the fabric for caching purposes.
        fabric.insert(
            "placement".to_string(),
            Value::Str(self.placement.name().to_string()),
        );
        fabric.insert("transport".to_string(), encode_transport(&self.transport));
        fabric.insert("mpi".to_string(), encode_mpi(&self.mpi));
        // Omitted for the packet default so every pre-fluid fingerprint
        // (and the calibration caches keyed on them) stays stable.
        if self.backend != Backend::default() {
            fabric.insert(
                "backend".to_string(),
                Value::Str(self.backend.name().to_string()),
            );
        }
        let encoded = toml::serialize(&Value::Table(fabric));
        fnv1a(encoded.as_bytes())
    }

    fn to_value(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert("name".into(), Value::Str(self.name.clone()));
        if !self.description.is_empty() {
            root.insert("description".into(), Value::Str(self.description.clone()));
        }
        root.insert("topology".into(), encode_topology(&self.topology));
        if self.placement != Placement::default() {
            root.insert(
                "placement".into(),
                Value::Str(self.placement.name().to_string()),
            );
        }
        if self.backend != Backend::default() {
            root.insert(
                "backend".into(),
                Value::Str(self.backend.name().to_string()),
            );
        }
        root.insert("transport".into(), encode_transport(&self.transport));
        if !self.mpi.is_empty() {
            root.insert("mpi".into(), encode_mpi(&self.mpi));
        }
        root.insert("workload".into(), encode_workload(&self.workload));
        root.insert("sweep".into(), encode_sweep(&self.sweep));
        Value::Table(root)
    }
}

// ---- decoding helpers -------------------------------------------------

fn req_str(v: &Value, key: &str) -> Result<String, SpecError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid(format!("missing string field {key:?}")))
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| invalid(format!("{key} must be a string"))),
    }
}

fn req_usize(v: &Value, key: &str) -> Result<usize, SpecError> {
    let i = v
        .get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| invalid(format!("missing integer field {key:?}")))?;
    usize::try_from(i).map_err(|_| invalid(format!("{key} must be non-negative")))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, SpecError> {
    let i = v
        .get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| invalid(format!("missing integer field {key:?}")))?;
    u64::try_from(i).map_err(|_| invalid(format!("{key} must be non-negative")))
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => req_u64(v, key).map(Some),
    }
}

fn req_f64(v: &Value, key: &str) -> Result<f64, SpecError> {
    v.get(key)
        .and_then(Value::as_float)
        .ok_or_else(|| invalid(format!("missing number field {key:?}")))
}

fn opt_bool(v: &Value, key: &str, default: bool) -> Result<bool, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| invalid(format!("{key} must be a boolean"))),
    }
}

fn decode_link(v: &Value) -> Result<LinkSpec, SpecError> {
    Ok(LinkSpec {
        bandwidth_bytes_per_sec: req_f64(v, "bandwidth_bytes_per_sec")?,
        latency_ns: req_u64(v, "latency_ns")?,
    })
}

fn decode_switch(v: &Value) -> Result<SwitchSpec, SpecError> {
    Ok(SwitchSpec {
        shared_buffer_bytes: req_u64(v, "shared_buffer_bytes")?,
        per_port_cap_bytes: req_u64(v, "per_port_cap_bytes")?,
    })
}

fn sub<'v>(v: &'v Value, key: &str) -> Result<&'v Value, SpecError> {
    v.get(key)
        .ok_or_else(|| invalid(format!("missing [{key}] table")))
}

fn decode_topology(v: &Value) -> Result<TopologySpec, SpecError> {
    let kind = req_str(v, "kind")?;
    match kind.as_str() {
        "preset" => Ok(TopologySpec::Preset {
            preset: req_str(v, "preset")?,
        }),
        "single-switch" => Ok(TopologySpec::SingleSwitch {
            hosts: req_usize(v, "hosts")?,
            link: decode_link(sub(v, "link")?)?,
            switch: decode_switch(sub(v, "switch")?)?,
        }),
        "star-of-switches" => Ok(TopologySpec::StarOfSwitches {
            leaves: req_usize(v, "leaves")?,
            hosts_per_leaf: req_usize(v, "hosts_per_leaf")?,
            edge_link: decode_link(sub(v, "edge_link")?)?,
            uplink: decode_link(sub(v, "uplink")?)?,
            uplinks_per_leaf: req_usize(v, "uplinks_per_leaf")?,
            edge_switch: decode_switch(sub(v, "edge_switch")?)?,
            core_switch: decode_switch(sub(v, "core_switch")?)?,
        }),
        "tree" => Ok(TopologySpec::Tree {
            leaves: req_usize(v, "leaves")?,
            hosts_per_leaf: req_usize(v, "hosts_per_leaf")?,
            edge_link: decode_link(sub(v, "edge_link")?)?,
            oversubscription: req_f64(v, "oversubscription")?,
            uplinks_per_leaf: req_usize(v, "uplinks_per_leaf")?,
            uplink_latency_ns: req_u64(v, "uplink_latency_ns")?,
            edge_switch: decode_switch(sub(v, "edge_switch")?)?,
            core_switch: decode_switch(sub(v, "core_switch")?)?,
        }),
        "fat-tree" => Ok(TopologySpec::FatTree {
            k: req_usize(v, "k")?,
            hosts_per_edge: req_usize(v, "hosts_per_edge")?,
            link: decode_link(sub(v, "link")?)?,
            switch: decode_switch(sub(v, "switch")?)?,
        }),
        "torus-2d" => Ok(TopologySpec::Torus2d {
            x: req_usize(v, "x")?,
            y: req_usize(v, "y")?,
            hosts_per_switch: req_usize(v, "hosts_per_switch")?,
            link: decode_link(sub(v, "link")?)?,
            switch: decode_switch(sub(v, "switch")?)?,
        }),
        "torus-3d" => Ok(TopologySpec::Torus3d {
            x: req_usize(v, "x")?,
            y: req_usize(v, "y")?,
            z: req_usize(v, "z")?,
            hosts_per_switch: req_usize(v, "hosts_per_switch")?,
            link: decode_link(sub(v, "link")?)?,
            switch: decode_switch(sub(v, "switch")?)?,
        }),
        "dragonfly" => Ok(TopologySpec::Dragonfly {
            groups: req_usize(v, "groups")?,
            routers_per_group: req_usize(v, "routers_per_group")?,
            hosts_per_router: req_usize(v, "hosts_per_router")?,
            host_link: decode_link(sub(v, "host_link")?)?,
            local_link: decode_link(sub(v, "local_link")?)?,
            global_link: decode_link(sub(v, "global_link")?)?,
            switch: decode_switch(sub(v, "switch")?)?,
        }),
        other => Err(invalid(format!("unknown topology kind {other:?}"))),
    }
}

fn decode_transport(v: &Value) -> Result<TransportSpec, SpecError> {
    let kind = req_str(v, "kind")?;
    let window_bytes = opt_u64(v, "window_bytes")?;
    match kind.as_str() {
        "tcp" => Ok(TransportSpec::Tcp {
            window_bytes: window_bytes.unwrap_or(TcpConfig::default().window_bytes),
        }),
        "gm" => Ok(TransportSpec::Gm {
            window_bytes: window_bytes.unwrap_or_else(|| GmConfig::default().window_bytes),
        }),
        other => Err(invalid(format!("unknown transport kind {other:?}"))),
    }
}

fn decode_mpi(v: &Value) -> Result<MpiSpec, SpecError> {
    Ok(MpiSpec {
        eager_threshold: opt_u64(v, "eager_threshold")?,
        send_overhead_ns: opt_u64(v, "send_overhead_ns")?,
        recv_overhead_ns: opt_u64(v, "recv_overhead_ns")?,
        hiccup_probability: match v.get("hiccup_probability") {
            None => None,
            Some(p) => Some(
                p.as_float()
                    .ok_or_else(|| invalid("hiccup_probability must be a number"))?,
            ),
        },
    })
}

fn decode_workload(v: &Value) -> Result<WorkloadSpec, SpecError> {
    let kind = req_str(v, "kind")?;
    match kind.as_str() {
        "uniform" => Ok(WorkloadSpec::Uniform {
            algorithm: opt_str(v, "algorithm")?.unwrap_or_else(|| "direct".into()),
        }),
        "skewed" => Ok(WorkloadSpec::Skewed {
            hot_ranks: req_usize(v, "hot_ranks")?,
            factor: req_f64(v, "factor")?,
            nonblocking: opt_bool(v, "nonblocking", true)?,
        }),
        "sparse" => Ok(WorkloadSpec::Sparse {
            density: req_f64(v, "density")?,
            nonblocking: opt_bool(v, "nonblocking", true)?,
        }),
        "permutation" => Ok(WorkloadSpec::Permutation),
        "incast" => Ok(WorkloadSpec::Incast {
            receivers: req_usize(v, "receivers")?,
        }),
        "outcast" => Ok(WorkloadSpec::Outcast {
            senders: req_usize(v, "senders")?,
        }),
        "phases" => {
            let phases = v
                .get("phases")
                .and_then(Value::as_array)
                .ok_or_else(|| invalid("phases workload needs a phases array"))?;
            Ok(WorkloadSpec::Phases {
                phases: phases
                    .iter()
                    .map(decode_workload)
                    .collect::<Result<_, _>>()?,
            })
        }
        other => Err(invalid(format!("unknown workload kind {other:?}"))),
    }
}

fn decode_sweep(v: &Value) -> Result<SweepSpec, SpecError> {
    let ints = |key: &str| -> Result<Vec<i64>, SpecError> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| invalid(format!("sweep.{key} must be an array")))?
            .iter()
            .map(|x| {
                x.as_int()
                    .ok_or_else(|| invalid(format!("sweep.{key} entries must be integers")))
            })
            .collect()
    };
    Ok(SweepSpec {
        nodes: ints("nodes")?
            .into_iter()
            .map(|i| usize::try_from(i).map_err(|_| invalid("negative node count")))
            .collect::<Result<_, _>>()?,
        message_bytes: ints("message_bytes")?
            .into_iter()
            .map(|i| u64::try_from(i).map_err(|_| invalid("negative message size")))
            .collect::<Result<_, _>>()?,
        warmup: match v.get("warmup") {
            None => 0,
            Some(_) => req_usize(v, "warmup")?,
        },
        reps: match v.get("reps") {
            None => 1,
            Some(_) => req_usize(v, "reps")?,
        },
    })
}

// ---- encoding helpers -------------------------------------------------

fn table(entries: Vec<(&str, Value)>) -> Value {
    Value::Table(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn encode_link(l: &LinkSpec) -> Value {
    table(vec![
        (
            "bandwidth_bytes_per_sec",
            Value::Float(l.bandwidth_bytes_per_sec),
        ),
        ("latency_ns", Value::Int(l.latency_ns as i64)),
    ])
}

fn encode_switch(s: &SwitchSpec) -> Value {
    table(vec![
        (
            "shared_buffer_bytes",
            Value::Int(s.shared_buffer_bytes as i64),
        ),
        (
            "per_port_cap_bytes",
            Value::Int(s.per_port_cap_bytes as i64),
        ),
    ])
}

fn encode_topology(t: &TopologySpec) -> Value {
    match t {
        TopologySpec::Preset { preset } => table(vec![
            ("kind", Value::Str("preset".into())),
            ("preset", Value::Str(preset.clone())),
        ]),
        TopologySpec::SingleSwitch {
            hosts,
            link,
            switch,
        } => table(vec![
            ("kind", Value::Str("single-switch".into())),
            ("hosts", Value::Int(*hosts as i64)),
            ("link", encode_link(link)),
            ("switch", encode_switch(switch)),
        ]),
        TopologySpec::StarOfSwitches {
            leaves,
            hosts_per_leaf,
            edge_link,
            uplink,
            uplinks_per_leaf,
            edge_switch,
            core_switch,
        } => table(vec![
            ("kind", Value::Str("star-of-switches".into())),
            ("leaves", Value::Int(*leaves as i64)),
            ("hosts_per_leaf", Value::Int(*hosts_per_leaf as i64)),
            ("edge_link", encode_link(edge_link)),
            ("uplink", encode_link(uplink)),
            ("uplinks_per_leaf", Value::Int(*uplinks_per_leaf as i64)),
            ("edge_switch", encode_switch(edge_switch)),
            ("core_switch", encode_switch(core_switch)),
        ]),
        TopologySpec::Tree {
            leaves,
            hosts_per_leaf,
            edge_link,
            oversubscription,
            uplinks_per_leaf,
            uplink_latency_ns,
            edge_switch,
            core_switch,
        } => table(vec![
            ("kind", Value::Str("tree".into())),
            ("leaves", Value::Int(*leaves as i64)),
            ("hosts_per_leaf", Value::Int(*hosts_per_leaf as i64)),
            ("edge_link", encode_link(edge_link)),
            ("oversubscription", Value::Float(*oversubscription)),
            ("uplinks_per_leaf", Value::Int(*uplinks_per_leaf as i64)),
            ("uplink_latency_ns", Value::Int(*uplink_latency_ns as i64)),
            ("edge_switch", encode_switch(edge_switch)),
            ("core_switch", encode_switch(core_switch)),
        ]),
        TopologySpec::FatTree {
            k,
            hosts_per_edge,
            link,
            switch,
        } => table(vec![
            ("kind", Value::Str("fat-tree".into())),
            ("k", Value::Int(*k as i64)),
            ("hosts_per_edge", Value::Int(*hosts_per_edge as i64)),
            ("link", encode_link(link)),
            ("switch", encode_switch(switch)),
        ]),
        TopologySpec::Torus2d {
            x,
            y,
            hosts_per_switch,
            link,
            switch,
        } => table(vec![
            ("kind", Value::Str("torus-2d".into())),
            ("x", Value::Int(*x as i64)),
            ("y", Value::Int(*y as i64)),
            ("hosts_per_switch", Value::Int(*hosts_per_switch as i64)),
            ("link", encode_link(link)),
            ("switch", encode_switch(switch)),
        ]),
        TopologySpec::Torus3d {
            x,
            y,
            z,
            hosts_per_switch,
            link,
            switch,
        } => table(vec![
            ("kind", Value::Str("torus-3d".into())),
            ("x", Value::Int(*x as i64)),
            ("y", Value::Int(*y as i64)),
            ("z", Value::Int(*z as i64)),
            ("hosts_per_switch", Value::Int(*hosts_per_switch as i64)),
            ("link", encode_link(link)),
            ("switch", encode_switch(switch)),
        ]),
        TopologySpec::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
            host_link,
            local_link,
            global_link,
            switch,
        } => table(vec![
            ("kind", Value::Str("dragonfly".into())),
            ("groups", Value::Int(*groups as i64)),
            ("routers_per_group", Value::Int(*routers_per_group as i64)),
            ("hosts_per_router", Value::Int(*hosts_per_router as i64)),
            ("host_link", encode_link(host_link)),
            ("local_link", encode_link(local_link)),
            ("global_link", encode_link(global_link)),
            ("switch", encode_switch(switch)),
        ]),
    }
}

fn encode_transport(t: &TransportSpec) -> Value {
    match t {
        TransportSpec::Tcp { window_bytes } => table(vec![
            ("kind", Value::Str("tcp".into())),
            ("window_bytes", Value::Int(*window_bytes as i64)),
        ]),
        TransportSpec::Gm { window_bytes } => table(vec![
            ("kind", Value::Str("gm".into())),
            ("window_bytes", Value::Int(*window_bytes as i64)),
        ]),
    }
}

fn encode_mpi(m: &MpiSpec) -> Value {
    let mut entries = Vec::new();
    if let Some(v) = m.eager_threshold {
        entries.push(("eager_threshold", Value::Int(v as i64)));
    }
    if let Some(v) = m.send_overhead_ns {
        entries.push(("send_overhead_ns", Value::Int(v as i64)));
    }
    if let Some(v) = m.recv_overhead_ns {
        entries.push(("recv_overhead_ns", Value::Int(v as i64)));
    }
    if let Some(v) = m.hiccup_probability {
        entries.push(("hiccup_probability", Value::Float(v)));
    }
    table(entries)
}

fn encode_workload(w: &WorkloadSpec) -> Value {
    match w {
        WorkloadSpec::Uniform { algorithm } => table(vec![
            ("kind", Value::Str("uniform".into())),
            ("algorithm", Value::Str(algorithm.clone())),
        ]),
        WorkloadSpec::Skewed {
            hot_ranks,
            factor,
            nonblocking,
        } => table(vec![
            ("kind", Value::Str("skewed".into())),
            ("hot_ranks", Value::Int(*hot_ranks as i64)),
            ("factor", Value::Float(*factor)),
            ("nonblocking", Value::Bool(*nonblocking)),
        ]),
        WorkloadSpec::Sparse {
            density,
            nonblocking,
        } => table(vec![
            ("kind", Value::Str("sparse".into())),
            ("density", Value::Float(*density)),
            ("nonblocking", Value::Bool(*nonblocking)),
        ]),
        WorkloadSpec::Permutation => table(vec![("kind", Value::Str("permutation".into()))]),
        WorkloadSpec::Incast { receivers } => table(vec![
            ("kind", Value::Str("incast".into())),
            ("receivers", Value::Int(*receivers as i64)),
        ]),
        WorkloadSpec::Outcast { senders } => table(vec![
            ("kind", Value::Str("outcast".into())),
            ("senders", Value::Int(*senders as i64)),
        ]),
        WorkloadSpec::Phases { phases } => table(vec![
            ("kind", Value::Str("phases".into())),
            (
                "phases",
                Value::Array(phases.iter().map(encode_workload).collect()),
            ),
        ]),
    }
}

fn encode_sweep(s: &SweepSpec) -> Value {
    table(vec![
        (
            "nodes",
            Value::Array(s.nodes.iter().map(|&n| Value::Int(n as i64)).collect()),
        ),
        (
            "message_bytes",
            Value::Array(
                s.message_bytes
                    .iter()
                    .map(|&m| Value::Int(m as i64))
                    .collect(),
            ),
        ),
        ("warmup", Value::Int(s.warmup as i64)),
        ("reps", Value::Int(s.reps as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_inconsistencies() {
        let mut spec = crate::registry::builtin()
            .into_iter()
            .find(|s| s.name == "fat-tree-uniform")
            .expect("registered");
        spec.validate().unwrap();
        spec.sweep.nodes = vec![10_000];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn every_builtin_round_trips_through_toml() {
        for spec in crate::registry::builtin() {
            let text = spec.to_toml_string();
            let parsed = ScenarioSpec::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", spec.name));
            assert_eq!(spec, parsed, "round-trip of {}", spec.name);
        }
    }

    #[test]
    fn physically_impossible_parameters_are_rejected() {
        let mut spec = crate::registry::by_name("incast-burst").expect("registered");
        spec.validate().unwrap();
        if let TopologySpec::SingleSwitch { ref mut link, .. } = spec.topology {
            link.bandwidth_bytes_per_sec = 0.0;
        }
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        if let TopologySpec::SingleSwitch { ref mut link, .. } = spec.topology {
            link.bandwidth_bytes_per_sec = f64::INFINITY;
        }
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        if let TopologySpec::SingleSwitch {
            ref mut link,
            ref mut switch,
            ..
        } = spec.topology
        {
            link.bandwidth_bytes_per_sec = 125e6;
            switch.shared_buffer_bytes = 0;
        }
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        let mut spec = crate::registry::by_name("incast-burst").expect("registered");
        spec.mpi.hiccup_probability = Some(1.5);
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.mpi.hiccup_probability = Some(1.0);
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let doc = r#"
name = "x"
[topology]
kind = "moebius"
[workload]
kind = "uniform"
"#;
        assert!(matches!(
            ScenarioSpec::from_toml_str(doc),
            Err(SpecError::Invalid(_))
        ));
    }
}
