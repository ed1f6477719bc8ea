//! The fluent [`ScenarioBuilder`]: programmatic construction of validated
//! [`ScenarioSpec`]s.
//!
//! TOML strings serve hand-written scenario files well, but the
//! interesting workloads are *generated* — parameter sweeps, placement
//! ablations, per-algorithm grids. The builder is the canonical way to
//! construct a spec in code; the TOML parser is one front-end to it
//! (`ScenarioSpec::from_toml_str` decodes the document and feeds this
//! builder), and every built-in in [`crate::registry`] is itself built
//! through it, so anything the registry ships is expressible here by
//! construction.
//!
//! ## Example
//!
//! ```
//! use contention_scenario::prelude::*;
//!
//! let spec = ScenarioBuilder::new("doc-builder")
//!     .description("4 hosts on one switch, direct exchange")
//!     .single_switch(4, LinkConfig::gigabit_ethernet(), SwitchConfig::commodity_ethernet())
//!     .tcp(64 * 1024)
//!     .uniform("direct")
//!     .nodes([2, 4])
//!     .message_bytes([16 * 1024])
//!     .reps(1)
//!     .build()
//!     .expect("valid spec");
//! assert_eq!(spec.sweep.nodes, vec![2, 4]);
//! // The TOML round-trip is the same spec.
//! let reparsed = ScenarioSpec::from_toml_str(&spec.to_toml_string()).unwrap();
//! assert_eq!(spec, reparsed);
//! ```

use crate::spec::{
    Backend, MpiSpec, ScenarioSpec, SpecError, SweepSpec, TopologySpec, TransportSpec, WorkloadSpec,
};
use simnet::config::{LinkConfig, SwitchConfig};
use simnet::generate::{FatTreeParams, Placement, SingleSwitchParams, TorusParams};

/// Fluent constructor of validated [`ScenarioSpec`]s.
///
/// Topology and workload are required; everything else defaults the same
/// way an omitted TOML section does (TCP transport, scatter placement, no
/// MPI overrides, the default sweep grid). [`ScenarioBuilder::build`]
/// runs the full [`ScenarioSpec::validate`], so a spec that builds is a
/// spec that runs.
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    name: String,
    description: String,
    topology: Option<TopologySpec>,
    placement: Placement,
    transport: TransportSpec,
    mpi: MpiSpec,
    workload: Option<WorkloadSpec>,
    sweep: SweepSpec,
    backend: Backend,
}

impl ScenarioBuilder {
    /// Starts a scenario named `name` (the registry key / report column).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// One-line description shown by `ctnsim list`.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    // ---- topology ------------------------------------------------------

    /// Any fabric, as a [`TopologySpec`] value — the general form behind
    /// the shape-specific sugar below.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// One of the paper's calibrated clusters (`fast-ethernet`,
    /// `gigabit-ethernet`, `myrinet`).
    pub fn preset(self, preset: impl Into<String>) -> Self {
        self.topology(TopologySpec::Preset {
            preset: preset.into(),
        })
    }

    /// `hosts` hosts on one switch.
    pub fn single_switch(self, hosts: usize, link: LinkConfig, switch: SwitchConfig) -> Self {
        self.topology(TopologySpec::SingleSwitch(SingleSwitchParams {
            hosts,
            link,
            switch,
        }))
    }

    /// k-ary fat-tree.
    pub fn fat_tree(
        self,
        k: usize,
        hosts_per_edge: usize,
        link: LinkConfig,
        switch: SwitchConfig,
    ) -> Self {
        self.topology(TopologySpec::FatTree(FatTreeParams {
            k,
            hosts_per_edge,
            link,
            switch,
        }))
    }

    /// 2-D torus of switches, dimension-ordered routing.
    pub fn torus_2d(
        self,
        x: usize,
        y: usize,
        hosts_per_switch: usize,
        link: LinkConfig,
        switch: SwitchConfig,
    ) -> Self {
        self.topology(TopologySpec::Torus2d(TorusParams {
            dims: [x, y, 1],
            hosts_per_switch,
            link,
            switch,
        }))
    }

    /// 3-D torus of switches, dimension-ordered routing.
    pub fn torus_3d(
        self,
        x: usize,
        y: usize,
        z: usize,
        hosts_per_switch: usize,
        link: LinkConfig,
        switch: SwitchConfig,
    ) -> Self {
        self.topology(TopologySpec::Torus3d(TorusParams {
            dims: [x, y, z],
            hosts_per_switch,
            link,
            switch,
        }))
    }

    // ---- placement / transport / MPI ----------------------------------

    /// How ranks map onto the fabric's hosts (default scatter).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Which simulation tier runs the cells (default packet).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Any transport, as a [`TransportSpec`] value.
    pub fn transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// TCP-like lossy transport with the given send window.
    pub fn tcp(self, window_bytes: u64) -> Self {
        self.transport(TransportSpec::Tcp { window_bytes })
    }

    /// GM-like lossless transport with the given send window.
    pub fn gm(self, window_bytes: u64) -> Self {
        self.transport(TransportSpec::Gm { window_bytes })
    }

    /// Replaces all MPI-stack overrides at once.
    pub fn mpi(mut self, mpi: MpiSpec) -> Self {
        self.mpi = mpi;
        self
    }

    /// Overrides the eager/rendezvous threshold in bytes.
    pub fn eager_threshold(mut self, bytes: u64) -> Self {
        self.mpi.eager_threshold = Some(bytes);
        self
    }

    /// Overrides the OS scheduling hiccup probability.
    pub fn hiccup_probability(mut self, p: f64) -> Self {
        self.mpi.hiccup_probability = Some(p);
        self
    }

    // ---- workload ------------------------------------------------------

    /// Any traffic pattern, as a [`WorkloadSpec`] value.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Uniform All-to-All under a named algorithm (`direct`, `direct-nb`,
    /// `bruck`, `pairwise`, `ring`).
    pub fn uniform(self, algorithm: impl Into<String>) -> Self {
        self.workload(WorkloadSpec::Uniform {
            algorithm: algorithm.into(),
        })
    }

    /// Skewed irregular exchange: `hot_ranks` senders transmit `factor ×`
    /// larger blocks.
    pub fn skewed(self, hot_ranks: usize, factor: f64, nonblocking: bool) -> Self {
        self.workload(WorkloadSpec::Skewed {
            hot_ranks,
            factor,
            nonblocking,
        })
    }

    /// Sparse irregular exchange keeping each pair with probability
    /// `density`.
    pub fn sparse(self, density: f64, nonblocking: bool) -> Self {
        self.workload(WorkloadSpec::Sparse {
            density,
            nonblocking,
        })
    }

    /// Seeded random permutation traffic.
    pub fn permutation(self) -> Self {
        self.workload(WorkloadSpec::Permutation)
    }

    /// All-to-one incast onto `receivers` sink ranks.
    pub fn incast(self, receivers: usize) -> Self {
        self.workload(WorkloadSpec::Incast { receivers })
    }

    /// `senders` source ranks send to everyone else.
    pub fn outcast(self, senders: usize) -> Self {
        self.workload(WorkloadSpec::Outcast { senders })
    }

    /// Multiple barrier-separated phases, in order.
    pub fn phases(self, phases: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workload(WorkloadSpec::Phases {
            phases: phases.into_iter().collect(),
        })
    }

    // ---- sweep ---------------------------------------------------------

    /// Replaces the whole sweep grid at once.
    pub fn sweep(mut self, sweep: SweepSpec) -> Self {
        self.sweep = sweep;
        self
    }

    /// Node counts to run.
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.sweep.nodes = nodes.into_iter().collect();
        self
    }

    /// Per-pair message sizes in bytes.
    pub fn message_bytes(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.sweep.message_bytes = sizes.into_iter().collect();
        self
    }

    /// Discarded warm-up repetitions per cell.
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.sweep.warmup = warmup;
        self
    }

    /// Measured repetitions per cell.
    pub fn reps(mut self, reps: usize) -> Self {
        self.sweep.reps = reps;
        self
    }

    // ---- build ---------------------------------------------------------

    /// Assembles and validates the spec. Fails with the same
    /// [`SpecError::Invalid`] diagnostics the TOML front-end produces —
    /// both routes share this one validation.
    pub fn build(self) -> Result<ScenarioSpec, SpecError> {
        let Some(topology) = self.topology else {
            return Err(SpecError::Invalid(format!(
                "{}: a scenario needs a topology (builder: .preset/.single_switch/… )",
                self.name
            )));
        };
        let Some(workload) = self.workload else {
            return Err(SpecError::Invalid(format!(
                "{}: a scenario needs a workload (builder: .uniform/.incast/… )",
                self.name
            )));
        };
        let spec = ScenarioSpec {
            name: self.name,
            description: self.description,
            topology,
            placement: self.placement,
            transport: self.transport,
            mpi: self.mpi,
            workload,
            sweep: self.sweep,
            backend: self.backend,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_an_omitted_toml_section() {
        let spec = ScenarioBuilder::new("b")
            .single_switch(
                8,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .uniform("direct")
            .build()
            .unwrap();
        assert_eq!(spec.transport, TransportSpec::default());
        assert_eq!(spec.placement, Placement::default());
        assert_eq!(spec.mpi, MpiSpec::default());
        assert_eq!(spec.sweep, SweepSpec::default());
        assert!(spec.description.is_empty());
    }

    #[test]
    fn missing_topology_or_workload_is_a_spec_error() {
        let no_topo = ScenarioBuilder::new("x").uniform("direct").build();
        assert!(matches!(no_topo, Err(SpecError::Invalid(m)) if m.contains("topology")));
        let no_workload = ScenarioBuilder::new("x")
            .single_switch(
                4,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .build();
        assert!(matches!(no_workload, Err(SpecError::Invalid(m)) if m.contains("workload")));
    }

    #[test]
    fn build_runs_full_validation() {
        let over_capacity = ScenarioBuilder::new("x")
            .single_switch(
                4,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .uniform("direct")
            .nodes([64])
            .build();
        assert!(matches!(over_capacity, Err(SpecError::Invalid(_))));
        let bad_algo = ScenarioBuilder::new("x")
            .single_switch(
                4,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .uniform("quantum")
            .build();
        assert!(matches!(bad_algo, Err(SpecError::Invalid(_))));
    }

    #[test]
    fn later_setters_win() {
        let spec = ScenarioBuilder::new("x")
            .preset("fast-ethernet")
            .single_switch(
                8,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .incast(1)
            .uniform("direct")
            .tcp(1024)
            .gm(2048)
            .nodes([4])
            .nodes([2, 4])
            .build()
            .unwrap();
        assert!(matches!(
            spec.topology,
            TopologySpec::SingleSwitch(SingleSwitchParams { hosts: 8, .. })
        ));
        assert!(matches!(spec.workload, WorkloadSpec::Uniform { .. }));
        assert_eq!(spec.transport, TransportSpec::Gm { window_bytes: 2048 });
        assert_eq!(spec.sweep.nodes, vec![2, 4]);
    }
}
