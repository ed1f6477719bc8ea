//! Turns a [`TopologySpec`] into a runnable [`World`]. What a family's
//! parameters mean is [`simnet::generate`]'s business; this module only
//! dispatches to it.
//!
//! The unit of work is the [`Fabric`]: a scenario's network resolved
//! once. [`Fabric::world_with`] / [`Fabric::fluid_cell`] then produce one
//! cell's packet world or fluid inputs on it, both from one private cell
//! resolution (topology, placed hosts, seeded MPI stack, transport) so the
//! two backends cannot place or seed a cell differently;
//! [`build_world`] and [`build_fluid_fabric`] are the from-scratch
//! conveniences (fresh fabric, one use) for tests, examples and one-off
//! callers.

use crate::spec::{ScenarioSpec, SpecError, TopologySpec};
use simmpi::prelude::*;
use simmpi::presets::ClusterPreset;
use simnet::generate::{self, Generated, Placement};
use simnet::prelude::*;
use std::sync::Arc;

fn preset_by_name(name: &str) -> Result<ClusterPreset, SpecError> {
    ClusterPreset::all()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| {
            SpecError::Invalid(format!(
                "unknown preset {name:?} (expected one of {:?})",
                ClusterPreset::all().map(|p| p.name)
            ))
        })
}

/// Host capacity of a topology spec (the generator's own count for a
/// generated family, in checked arithmetic).
pub fn capacity(t: &TopologySpec) -> Result<usize, SpecError> {
    match t {
        TopologySpec::Preset { preset } => return Ok(preset_by_name(preset)?.max_hosts()),
        TopologySpec::SingleSwitch(p) => p.capacity(),
        TopologySpec::StarOfSwitches(p) => p.capacity(),
        TopologySpec::Tree(p) => p.capacity(),
        TopologySpec::FatTree(p) => p.capacity(),
        TopologySpec::Torus2d(p) | TopologySpec::Torus3d(p) => p.capacity(),
        TopologySpec::Dragonfly(p) => p.capacity(),
    }
    .ok_or_else(|| SpecError::Invalid("topology host count overflows".into()))
}

/// One scenario's network, resolved once and shared — immutably, by
/// reference — by everything that runs on it: the Hockney ping-pong, the
/// signature/saturation sample All-to-Alls and every `(n, m)` cell.
///
/// A generated topology is a pure function of its [`TopologySpec`]
/// (nothing about it is seeded: ECMP spreading is a fixed hash of the
/// flow's endpoints, and the seed only enters through rank placement and
/// the MPI/transport streams, which are per cell), and building it —
/// generation plus one BFS per attachment root — dwarfs everything else a
/// small cell does. So the routed [`Topology`] is built exactly once per
/// fabric and handed out as an `Arc`: packet simulators hold a clone of
/// the `Arc`, fluid worlds borrow the topology, nobody copies its routing
/// tables. The
/// generator's host layout rides along because
/// [`Placement::place`](simnet::generate::Placement::place) needs it for
/// every cell.
///
/// A preset's wiring depends on the rank count (only as many edge
/// switches as the job needs) and costs microseconds, so the preset
/// variant just carries the resolved preset and wires it per cell.
pub struct Fabric {
    wiring: Wiring,
    /// What every cell on the fabric shares besides the wiring, read from
    /// the spec once so a cell cannot be built with another spec's: the
    /// MPI stack (a preset's or the defaults, plus the spec's overrides;
    /// seeded per cell) and the transport.
    mpi: simmpi::MpiConfig,
    transport: TransportKind,
}

enum Wiring {
    /// A paper cluster, wired per cell.
    Preset(ClusterPreset),
    Generated {
        topo: Arc<Topology>,
        /// The generator's output the topology was built from; placement
        /// reads its host groups.
        layout: Generated,
        /// The rank→host policy.
        placement: Placement,
    },
}

impl Fabric {
    /// Resolves the spec's topology: generates and routes a generated
    /// fabric (the expensive step — do it once), looks a preset up.
    /// Parameters no generator accepts are an error here too, so a spec
    /// that never went through [`ScenarioSpec::validate`] cannot panic a
    /// generator.
    pub fn build(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        spec.topology.check()?;
        let layout = match &spec.topology {
            TopologySpec::Preset { preset } => {
                // Presets carry their own MPI stack and transport; apply
                // the spec's MPI overrides on top.
                let preset = preset_by_name(preset)?;
                return Ok(Fabric {
                    mpi: spec.mpi.apply(preset.mpi),
                    transport: preset.transport,
                    wiring: Wiring::Preset(preset),
                });
            }
            TopologySpec::SingleSwitch(p) => generate::single_switch(p),
            TopologySpec::StarOfSwitches(p) => generate::star_of_switches(p),
            TopologySpec::Tree(p) => generate::two_level_tree(p),
            TopologySpec::FatTree(p) => generate::fat_tree(p),
            TopologySpec::Torus2d(p) | TopologySpec::Torus3d(p) => generate::torus(p),
            TopologySpec::Dragonfly(p) => generate::dragonfly(p),
        };
        let topo = layout
            .builder
            .build()
            .map_err(|e| SpecError::Invalid(format!("topology failed to build: {e}")))?;
        Ok(Fabric {
            wiring: Wiring::Generated {
                topo: Arc::new(topo),
                layout,
                placement: spec.placement,
            },
            mpi: spec.mpi.apply(simmpi::MpiConfig::default()),
            transport: spec.transport.to_kind(),
        })
    }

    /// The routed topology every cell of the scenario shares; `None` for
    /// presets, which wire a fresh one per cell.
    pub fn shared_topology(&self) -> Option<&Arc<Topology>> {
        match &self.wiring {
            Wiring::Preset(_) => None,
            Wiring::Generated { topo, .. } => Some(topo),
        }
    }

    /// Resolves one `n`-rank cell for both backends: the topology, the
    /// hosts the spec's [`Placement`] puts the ranks on (presets place
    /// round-robin), and the simulator and MPI configs seeded from `seed`
    /// by [`simmpi::config::seed_cell`]. The transport is `self.transport`.
    fn cell(
        &self,
        n: usize,
        seed: u64,
    ) -> (Arc<Topology>, Vec<HostId>, SimConfig, simmpi::MpiConfig) {
        let (topo, hosts) = match &self.wiring {
            Wiring::Preset(preset) => {
                let (topo, hosts) = preset.build_fabric(n);
                (Arc::new(topo), hosts)
            }
            Wiring::Generated {
                topo,
                layout,
                placement,
            } => (Arc::clone(topo), placement.place(layout, n, seed)),
        };
        let (sim_config, mpi) = simmpi::config::seed_cell(self.mpi, seed);
        (topo, hosts, sim_config, mpi)
    }

    /// An `n`-rank packet world on this fabric with a telemetry recorder
    /// attached to the simulator, every stochastic element seeded from
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the spec's capacity (callers validate first).
    pub fn world_with<R: Recorder>(&self, n: usize, seed: u64, recorder: R) -> World<R> {
        let (topo, hosts, sim_config, mpi) = self.cell(n, seed);
        let sim = Simulator::with_recorder(topo, sim_config, recorder);
        World::new(sim, hosts, mpi, self.transport)
    }

    /// What the fluid backend runs one `n`-rank cell on: the routed
    /// topology (the shared one, or a preset's fresh wiring), the
    /// rank→host map and the effective MPI stack, resolved and seeded
    /// exactly as for [`Fabric::world_with`]. The caller lends the
    /// topology to a [`simmpi::FluidWorld`].
    ///
    /// # Panics
    /// Panics if `n` exceeds the spec's capacity (callers validate first).
    pub fn fluid_cell(
        &self,
        n: usize,
        seed: u64,
    ) -> (Arc<Topology>, Vec<HostId>, simmpi::MpiConfig) {
        let (topo, hosts, _, mpi) = self.cell(n, seed);
        (topo, hosts, mpi)
    }
}

/// Builds an `n`-rank world for the scenario from scratch: a fresh
/// [`Fabric`] used once. Sessions build the fabric once per scenario and
/// call [`Fabric::world_with`] per cell instead.
///
/// # Panics
/// Panics if `n` exceeds the spec's capacity (callers validate first).
pub fn build_world(spec: &ScenarioSpec, n: usize, seed: u64) -> Result<World, SpecError> {
    Ok(Fabric::build(spec)?.world_with(n, seed, NoopRecorder))
}

/// Builds the bare fabric for the fluid backend from scratch:
/// [`Fabric::fluid_cell`] on a fresh [`Fabric`], with the topology handed
/// over by value.
///
/// # Panics
/// Panics if `n` exceeds the spec's capacity (callers validate first).
pub fn build_fluid_fabric(
    spec: &ScenarioSpec,
    n: usize,
    seed: u64,
) -> Result<(Topology, Vec<HostId>, simmpi::MpiConfig), SpecError> {
    let fabric = Fabric::build(spec)?;
    let (topo, hosts, mpi) = fabric.fluid_cell(n, seed);
    drop(fabric);
    let topo = Arc::into_inner(topo).expect("the fabric was this function's own");
    Ok((topo, hosts, mpi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin;
    use crate::spec::Backend;

    #[test]
    fn capacities_are_positive_for_all_builtins() {
        for spec in builtin() {
            assert!(capacity(&spec.topology).unwrap() >= 2, "{}", spec.name);
        }
    }

    #[test]
    fn worlds_build_for_all_builtins() {
        for spec in builtin() {
            if spec.backend == Backend::Fluid {
                // Huge-fabric fluid builtins never build a packet world.
                continue;
            }
            let n = *spec.sweep.nodes.iter().min().unwrap();
            let world = build_world(&spec, n, 7).unwrap();
            assert_eq!(world.n_ranks(), n, "{}", spec.name);
        }
    }

    #[test]
    fn a_fabric_lends_one_topology_to_every_cell() {
        let spec = crate::registry::by_name("fat-tree-uniform").unwrap();
        let fabric = Fabric::build(&spec).unwrap();
        let topo = Arc::clone(fabric.shared_topology().expect("generated"));
        let a = fabric.world_with(8, 1, NoopRecorder);
        let b = fabric.world_with(16, 2, NoopRecorder);
        let (fluid_topo, hosts, _) = fabric.fluid_cell(8, 1);
        for lent in [a.sim().topology(), b.sim().topology(), &*fluid_topo] {
            assert!(std::ptr::eq(lent, &*topo), "a cell got a copy");
        }
        assert_eq!(hosts.len(), 8);
        // Same placement on both tiers, and nothing seeded in the fabric.
        let from_scratch = build_world(&spec, 8, 1).unwrap();
        for (s, d) in [(hosts[0], hosts[7]), (hosts[3], hosts[1])] {
            assert!(from_scratch
                .sim()
                .topology()
                .route(s, d)
                .eq(topo.route(s, d)));
        }

        let preset = crate::registry::by_name("paper-myrinet").unwrap();
        let fabric = Fabric::build(&preset).unwrap();
        assert!(fabric.shared_topology().is_none(), "presets wire per cell");
        assert_eq!(fabric.world_with(4, 1, NoopRecorder).n_ranks(), 4);
    }

    #[test]
    fn fluid_fabric_matches_the_packet_world_mapping() {
        for spec in builtin() {
            if spec.backend == Backend::Fluid {
                continue;
            }
            let n = *spec.sweep.nodes.iter().min().unwrap();
            let world = build_world(&spec, n, 7).unwrap();
            let (topo, hosts, mpi) = build_fluid_fabric(&spec, n, 7).unwrap();
            assert_eq!(hosts.len(), n, "{}", spec.name);
            assert_eq!(
                topo.n_hosts,
                world.sim().topology().n_hosts,
                "{}",
                spec.name
            );
            assert_eq!(mpi.seed, 7 ^ 0x5A5A_5A5A, "{}", spec.name);
        }
    }
}
