//! The declarative scenario description: what fabric, what transport, what
//! workload, over what sweep grid.
//!
//! A [`ScenarioSpec`] is the unit the batch executor runs and the `ctnsim`
//! CLI loads from TOML. Specs are plain data — building worlds and
//! programs from them lives in [`crate::topology`] and
//! [`crate::workload`].

use crate::toml::{self, TomlError, Value};
use simmpi::alltoall::AllToAllAlgorithm;
use simnet::generate::{
    DragonflyParams, FatTreeParams, Placement, SingleSwitchParams, StarParams, TorusParams,
    TreeParams,
};
use simnet::prelude::*;
use std::collections::BTreeMap;

/// Which fabric family a scenario runs on. A generated family *holds*
/// its generator's own parameters: what they mean, which combinations are
/// valid and how many hosts they make are facts of
/// [`simnet::generate`], not of this crate (see "One owner per family"
/// there). What this enum adds per family is the variant, its report
/// [`kind`](TopologySpec::kind) and its TOML key list.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// One of the paper's calibrated clusters, by preset name
    /// (`fast-ethernet`, `gigabit-ethernet`, `myrinet`).
    Preset {
        /// Preset name.
        preset: String,
    },
    /// Hosts on one switch.
    SingleSwitch(SingleSwitchParams),
    /// Leaf switches around a core with explicit uplink parameters.
    StarOfSwitches(StarParams),
    /// Two-level tree whose uplink bandwidth derives from an
    /// oversubscription ratio.
    Tree(TreeParams),
    /// k-ary fat-tree.
    FatTree(FatTreeParams),
    /// 2-D torus of switches, dimension-ordered routing: `dims` is
    /// `[x, y, 1]`.
    Torus2d(TorusParams),
    /// 3-D torus of switches, dimension-ordered routing.
    Torus3d(TorusParams),
    /// Dragonfly: fully-meshed router groups joined by single global
    /// links, minimal-path routed.
    Dragonfly(DragonflyParams),
}

impl TopologySpec {
    /// Short family name used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Preset { .. } => "preset",
            TopologySpec::SingleSwitch(_) => "single-switch",
            TopologySpec::StarOfSwitches(_) => "star-of-switches",
            TopologySpec::Tree(_) => "tree",
            TopologySpec::FatTree(_) => "fat-tree",
            TopologySpec::Torus2d(_) => "torus-2d",
            TopologySpec::Torus3d(_) => "torus-3d",
            TopologySpec::Dragonfly(_) => "dragonfly",
        }
    }

    /// The generator's own preconditions for a generated family (presets
    /// are looked up by name when their capacity is read).
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        if matches!(self, TopologySpec::Torus2d(p) if p.dims[2] != 1) {
            // The torus-2d TOML form has no `z` key to carry it.
            return Err(invalid("a torus-2d topology takes dims [x, y, 1]"));
        }
        match self {
            TopologySpec::Preset { .. } => Ok(()),
            TopologySpec::SingleSwitch(p) => p.check(),
            TopologySpec::StarOfSwitches(p) => p.check(),
            TopologySpec::Tree(p) => p.check(),
            TopologySpec::FatTree(p) => p.check(),
            TopologySpec::Torus2d(p) | TopologySpec::Torus3d(p) => p.check(),
            TopologySpec::Dragonfly(p) => p.check(),
        }
        .map_err(|m| invalid(format!("topology.{m}")))
    }

    /// The fabric's switches by TOML name. Empty for presets: they carry
    /// the paper's calibrated fabrics, which are known to drain under the
    /// packet engine's GM flow control.
    fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        match self {
            TopologySpec::Preset { .. } => Vec::new(),
            TopologySpec::SingleSwitch(p) => p.switches(),
            TopologySpec::StarOfSwitches(p) => p.switches(),
            TopologySpec::Tree(p) => p.switches(),
            TopologySpec::FatTree(p) => p.switches(),
            TopologySpec::Torus2d(p) | TopologySpec::Torus3d(p) => p.switches(),
            TopologySpec::Dragonfly(p) => p.switches(),
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
    /// The paper's uniform All-to-All under one algorithm (TOML: its
    /// [`name`](AllToAllAlgorithm::name) — `direct`, `direct-nb`, `bruck`,
    /// `pairwise` or `ring`; `direct` when absent).
    Uniform {
        /// The algorithm that runs it.
        algorithm: AllToAllAlgorithm,
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

impl ScenarioSpec {
    /// Validates internal consistency (positive grids, ratios, capacity
    /// respected, every integer within the TOML range).
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
        self.topology.check()?;
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
        if let Some(p) = self.mpi.hiccup_probability {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(invalid(format!(
                    "mpi.hiccup_probability {p} must be in [0, 1]"
                )));
            }
        }
        if self.backend == Backend::Fluid && matches!(self.transport, TransportSpec::Gm { .. }) {
            if let Some(what) = self.finite_buffer_switch() {
                return Err(invalid(format!(
                    "backend = \"fluid\" cannot combine a GM transport with the \
                     finite-buffer switch topology.{what}: the fluid tier's packet-engine \
                     calibration run can deadlock when lossless backpressure \
                     exhausts a finite shared buffer (GM never retransmits). Use \
                     lossless-grade buffers (>= 2^60 bytes) or a TCP transport"
                )));
            }
        }
        out_of_toml_range("", &self.to_value())
    }

    /// The first topology switch whose buffering is not lossless-grade
    /// (either field below [`LOSSLESS_BUFFER_FLOOR`]), by TOML name.
    fn finite_buffer_switch(&self) -> Option<&'static str> {
        self.topology
            .switches()
            .into_iter()
            .find(|(_, s)| {
                s.shared_buffer_bytes < LOSSLESS_BUFFER_FLOOR
                    || s.per_port_cap_bytes < LOSSLESS_BUFFER_FLOOR
            })
            .map(|(name, _)| name)
    }

    fn validate_workload(&self, w: &WorkloadSpec) -> Result<(), SpecError> {
        let min_n = *self.sweep.nodes.iter().min().expect("non-empty");
        match w {
            WorkloadSpec::Uniform { algorithm } => {
                if *algorithm == AllToAllAlgorithm::PairwiseExchange
                    && self.sweep.nodes.iter().any(|n| !n.is_power_of_two())
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

/// The first integer of an encoded spec that does not fit TOML's signed
/// 64-bit range, by field path. Every integer the encoder writes is
/// unsigned, so a negative one is a value above `i64::MAX` that wrapped.
fn out_of_toml_range(path: &str, v: &Value) -> Result<(), SpecError> {
    let at = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    match v {
        Value::Int(i) if *i < 0 => Err(invalid(format!(
            "{path} = {} exceeds the largest TOML integer, {}",
            *i as u64,
            i64::MAX
        ))),
        Value::Table(t) => t.iter().try_for_each(|(k, v)| out_of_toml_range(&at(k), v)),
        Value::Array(a) => a
            .iter()
            .enumerate()
            .try_for_each(|(idx, v)| out_of_toml_range(&format!("{path}[{idx}]"), v)),
        _ => Ok(()),
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

fn decode_link(v: &Value, key: &str) -> Result<LinkConfig, SpecError> {
    let v = sub(v, key)?;
    Ok(LinkConfig {
        bandwidth_bytes_per_sec: req_f64(v, "bandwidth_bytes_per_sec")?,
        latency_ns: req_u64(v, "latency_ns")?,
    })
}

fn decode_switch(v: &Value, key: &str) -> Result<SwitchConfig, SpecError> {
    let v = sub(v, key)?;
    Ok(SwitchConfig {
        shared_buffer_bytes: req_u64(v, "shared_buffer_bytes")?,
        per_port_cap_bytes: req_u64(v, "per_port_cap_bytes")?,
    })
}

fn sub<'v>(v: &'v Value, key: &str) -> Result<&'v Value, SpecError> {
    v.get(key)
        .ok_or_else(|| invalid(format!("missing [{key}] table")))
}

fn decode_torus(v: &Value, z: usize) -> Result<TorusParams, SpecError> {
    Ok(TorusParams {
        dims: [req_usize(v, "x")?, req_usize(v, "y")?, z],
        hosts_per_switch: req_usize(v, "hosts_per_switch")?,
        link: decode_link(v, "link")?,
        switch: decode_switch(v, "switch")?,
    })
}

fn decode_topology(v: &Value) -> Result<TopologySpec, SpecError> {
    let kind = req_str(v, "kind")?;
    match kind.as_str() {
        "preset" => Ok(TopologySpec::Preset {
            preset: req_str(v, "preset")?,
        }),
        "single-switch" => Ok(TopologySpec::SingleSwitch(SingleSwitchParams {
            hosts: req_usize(v, "hosts")?,
            link: decode_link(v, "link")?,
            switch: decode_switch(v, "switch")?,
        })),
        "star-of-switches" => Ok(TopologySpec::StarOfSwitches(StarParams {
            leaves: req_usize(v, "leaves")?,
            hosts_per_leaf: req_usize(v, "hosts_per_leaf")?,
            edge_link: decode_link(v, "edge_link")?,
            uplink: decode_link(v, "uplink")?,
            uplinks_per_leaf: req_usize(v, "uplinks_per_leaf")?,
            edge_switch: decode_switch(v, "edge_switch")?,
            core_switch: decode_switch(v, "core_switch")?,
        })),
        "tree" => Ok(TopologySpec::Tree(TreeParams {
            leaves: req_usize(v, "leaves")?,
            hosts_per_leaf: req_usize(v, "hosts_per_leaf")?,
            edge_link: decode_link(v, "edge_link")?,
            uplinks_per_leaf: req_usize(v, "uplinks_per_leaf")?,
            oversubscription: req_f64(v, "oversubscription")?,
            uplink_latency_ns: req_u64(v, "uplink_latency_ns")?,
            edge_switch: decode_switch(v, "edge_switch")?,
            core_switch: decode_switch(v, "core_switch")?,
        })),
        "fat-tree" => Ok(TopologySpec::FatTree(FatTreeParams {
            k: req_usize(v, "k")?,
            hosts_per_edge: req_usize(v, "hosts_per_edge")?,
            link: decode_link(v, "link")?,
            switch: decode_switch(v, "switch")?,
        })),
        "torus-2d" => Ok(TopologySpec::Torus2d(decode_torus(v, 1)?)),
        "torus-3d" => Ok(TopologySpec::Torus3d(decode_torus(v, req_usize(v, "z")?)?)),
        "dragonfly" => Ok(TopologySpec::Dragonfly(DragonflyParams {
            groups: req_usize(v, "groups")?,
            routers_per_group: req_usize(v, "routers_per_group")?,
            hosts_per_router: req_usize(v, "hosts_per_router")?,
            host_link: decode_link(v, "host_link")?,
            local_link: decode_link(v, "local_link")?,
            global_link: decode_link(v, "global_link")?,
            switch: decode_switch(v, "switch")?,
        })),
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
            algorithm: match opt_str(v, "algorithm")? {
                None => AllToAllAlgorithm::DirectExchange,
                Some(name) => AllToAllAlgorithm::parse(&name)
                    .ok_or_else(|| invalid(format!("unknown algorithm {name:?}")))?,
            },
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

fn encode_link(l: &LinkConfig) -> Value {
    table(vec![
        (
            "bandwidth_bytes_per_sec",
            Value::Float(l.bandwidth_bytes_per_sec),
        ),
        ("latency_ns", Value::Int(l.latency_ns as i64)),
    ])
}

fn encode_switch(s: &SwitchConfig) -> Value {
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
    let count = |n: usize| Value::Int(n as i64);
    let mut entries = vec![("kind", Value::Str(t.kind().into()))];
    entries.extend(match t {
        TopologySpec::Preset { preset } => vec![("preset", Value::Str(preset.clone()))],
        TopologySpec::SingleSwitch(p) => vec![
            ("hosts", count(p.hosts)),
            ("link", encode_link(&p.link)),
            ("switch", encode_switch(&p.switch)),
        ],
        TopologySpec::StarOfSwitches(p) => vec![
            ("leaves", count(p.leaves)),
            ("hosts_per_leaf", count(p.hosts_per_leaf)),
            ("edge_link", encode_link(&p.edge_link)),
            ("uplink", encode_link(&p.uplink)),
            ("uplinks_per_leaf", count(p.uplinks_per_leaf)),
            ("edge_switch", encode_switch(&p.edge_switch)),
            ("core_switch", encode_switch(&p.core_switch)),
        ],
        TopologySpec::Tree(p) => vec![
            ("leaves", count(p.leaves)),
            ("hosts_per_leaf", count(p.hosts_per_leaf)),
            ("edge_link", encode_link(&p.edge_link)),
            ("oversubscription", Value::Float(p.oversubscription)),
            ("uplinks_per_leaf", count(p.uplinks_per_leaf)),
            ("uplink_latency_ns", Value::Int(p.uplink_latency_ns as i64)),
            ("edge_switch", encode_switch(&p.edge_switch)),
            ("core_switch", encode_switch(&p.core_switch)),
        ],
        TopologySpec::FatTree(p) => vec![
            ("k", count(p.k)),
            ("hosts_per_edge", count(p.hosts_per_edge)),
            ("link", encode_link(&p.link)),
            ("switch", encode_switch(&p.switch)),
        ],
        TopologySpec::Torus2d(p) | TopologySpec::Torus3d(p) => {
            let mut torus = vec![
                ("x", count(p.dims[0])),
                ("y", count(p.dims[1])),
                ("hosts_per_switch", count(p.hosts_per_switch)),
                ("link", encode_link(&p.link)),
                ("switch", encode_switch(&p.switch)),
            ];
            if matches!(t, TopologySpec::Torus3d(_)) {
                torus.push(("z", count(p.dims[2])));
            }
            torus
        }
        TopologySpec::Dragonfly(p) => vec![
            ("groups", count(p.groups)),
            ("routers_per_group", count(p.routers_per_group)),
            ("hosts_per_router", count(p.hosts_per_router)),
            ("host_link", encode_link(&p.host_link)),
            ("local_link", encode_link(&p.local_link)),
            ("global_link", encode_link(&p.global_link)),
            ("switch", encode_switch(&p.switch)),
        ],
    });
    table(entries)
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
            ("algorithm", Value::Str(algorithm.name().into())),
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
        let TopologySpec::SingleSwitch(valid) = spec.topology else {
            panic!("incast-burst runs on a single switch");
        };
        for bandwidth_bytes_per_sec in [0.0, f64::INFINITY] {
            spec.topology = TopologySpec::SingleSwitch(SingleSwitchParams {
                link: LinkConfig {
                    bandwidth_bytes_per_sec,
                    ..valid.link
                },
                ..valid
            });
            assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        }
        spec.topology = TopologySpec::SingleSwitch(SingleSwitchParams {
            switch: SwitchConfig {
                shared_buffer_bytes: 0,
                ..valid.switch
            },
            ..valid
        });
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // More hosts than a route id can index.
        spec.topology = TopologySpec::SingleSwitch(SingleSwitchParams {
            hosts: 100_000,
            ..valid
        });
        let Err(SpecError::Invalid(m)) = spec.validate() else {
            panic!("100 000 hosts validated");
        };
        assert!(m.starts_with("topology.hosts = 100000"), "{m}");

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
        let doc = r#"
name = "x"
[topology]
kind = "preset"
preset = "myrinet"
[workload]
kind = "uniform"
algorithm = "quicksort"
"#;
        let err = ScenarioSpec::from_toml_str(doc).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"invalid scenario: unknown algorithm "quicksort""#
        );
    }

    /// A spec that validates is one the TOML encoder can write: an
    /// integer above `i64::MAX` is rejected by name, and every spec that
    /// does validate re-parses equal.
    #[test]
    fn integers_beyond_the_toml_range_are_rejected_by_name() {
        use crate::builder::ScenarioBuilder;
        fn probe() -> ScenarioBuilder {
            ScenarioBuilder::new("probe")
                .single_switch(
                    4,
                    LinkConfig::gigabit_ethernet(),
                    SwitchConfig::commodity_ethernet(),
                )
                .tcp(64 * 1024)
                .uniform(AllToAllAlgorithm::DirectExchange)
                .nodes([2])
                .message_bytes([16384])
        }
        let edit = |field: &str, v: u64| match field {
            "transport.window_bytes" => probe().tcp(v),
            "sweep.message_bytes[0]" => probe().message_bytes([v]),
            "sweep.warmup" => probe().warmup(v as usize),
            "topology.switch.per_port_cap_bytes" => {
                let switch = SwitchConfig {
                    shared_buffer_bytes: v,
                    per_port_cap_bytes: v,
                };
                probe().single_switch(4, LinkConfig::gigabit_ethernet(), switch)
            }
            "topology.link.latency_ns" => {
                let link = LinkConfig {
                    latency_ns: v,
                    ..LinkConfig::gigabit_ethernet()
                };
                probe().single_switch(4, link, SwitchConfig::commodity_ethernet())
            }
            "mpi.eager_threshold" => probe().mpi(MpiSpec {
                eager_threshold: Some(v),
                ..MpiSpec::default()
            }),
            other => unreachable!("{other}"),
        };
        let fields = [
            "transport.window_bytes",
            "sweep.message_bytes[0]",
            "sweep.warmup",
            "topology.switch.per_port_cap_bytes",
            "topology.link.latency_ns",
            "mpi.eager_threshold",
        ];
        for field in fields {
            for v in [i64::MAX as u64, 1 << 63, u64::MAX] {
                match edit(field, v).build() {
                    Ok(spec) => {
                        assert!(v <= i64::MAX as u64, "{field} = {v} validated");
                        let text = spec.to_toml_string();
                        assert_eq!(ScenarioSpec::from_toml_str(&text), Ok(spec), "{text}");
                    }
                    Err(e) => assert_eq!(
                        e.to_string(),
                        format!(
                            "invalid scenario: {field} = {v} exceeds the largest TOML \
                             integer, 9223372036854775807"
                        )
                    ),
                }
            }
        }
    }
}
