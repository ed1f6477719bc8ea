//! Equivalence property: every builtin registry spec is reconstructible
//! through the fluent `ScenarioBuilder` sugar — same spec, same fabric
//! fingerprint, same TOML round-trip — and grid-only edits (the
//! programmatic-sweep use case) never move the fabric fingerprint the
//! calibration caches key on.

use contention_scenario::builder::ScenarioBuilder;
use contention_scenario::prelude::AllToAllAlgorithm;
use contention_scenario::registry::builtin;
use contention_scenario::spec::{
    Backend, ScenarioSpec, SpecError, TopologySpec, TransportSpec, WorkloadSpec,
};
use proptest::prelude::*;

/// Reassembles a spec through the builder's shape-specific sugar (falling
/// back to the general `.topology()` form only for the parameter-heavy
/// fabrics) — the compile-time proof that the fluent surface covers every
/// shipped scenario.
fn rebuild(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut b = ScenarioBuilder::new(spec.name.clone()).description(spec.description.clone());
    b = match &spec.topology {
        TopologySpec::Preset { preset } => b.preset(preset.clone()),
        TopologySpec::SingleSwitch(p) => b.single_switch(p.hosts, p.link, p.switch),
        TopologySpec::FatTree(p) => b.fat_tree(p.k, p.hosts_per_edge, p.link, p.switch),
        TopologySpec::Torus2d(p) => {
            b.torus_2d(p.dims[0], p.dims[1], p.hosts_per_switch, p.link, p.switch)
        }
        TopologySpec::Torus3d(p) => {
            let [x, y, z] = p.dims;
            b.torus_3d(x, y, z, p.hosts_per_switch, p.link, p.switch)
        }
        other => b.topology(other.clone()),
    };
    b = b.placement(spec.placement).mpi(spec.mpi);
    b = match spec.transport {
        TransportSpec::Tcp { window_bytes } => b.tcp(window_bytes),
        TransportSpec::Gm { window_bytes } => b.gm(window_bytes),
    };
    b = match &spec.workload {
        WorkloadSpec::Uniform { algorithm } => b.uniform(*algorithm),
        WorkloadSpec::Skewed {
            hot_ranks,
            factor,
            nonblocking,
        } => b.skewed(*hot_ranks, *factor, *nonblocking),
        WorkloadSpec::Sparse {
            density,
            nonblocking,
        } => b.sparse(*density, *nonblocking),
        WorkloadSpec::Permutation => b.permutation(),
        WorkloadSpec::Incast { receivers } => b.incast(*receivers),
        WorkloadSpec::Outcast { senders } => b.outcast(*senders),
        WorkloadSpec::Phases { phases } => b.phases(phases.clone()),
    };
    b.backend(spec.backend)
        .nodes(spec.sweep.nodes.clone())
        .message_bytes(spec.sweep.message_bytes.clone())
        .warmup(spec.sweep.warmup)
        .reps(spec.sweep.reps)
        .build()
        .expect("rebuilt builtin validates")
}

#[test]
fn validation_is_sufficient_for_construction() {
    // The builder and the TOML front-end refuse the same fabrics with the
    // same message. Both of these used to validate and then die in a generator
    // assert (exit 101 from ctnsim, a lost run worker in ctnd).
    for name in ["sparse-star", "mixed-phases-tree"] {
        let mut spec = contention_scenario::registry::by_name(name).expect("registered");
        match &mut spec.topology {
            TopologySpec::StarOfSwitches(p) => p.uplinks_per_leaf = 0,
            TopologySpec::Tree(p) => p.uplinks_per_leaf = 0,
            other => panic!("unexpected fabric {}", other.kind()),
        }
        let built = ScenarioBuilder::new("x")
            .topology(spec.topology.clone())
            .uniform(AllToAllAlgorithm::DirectExchange)
            .build();
        let parsed = ScenarioSpec::from_toml_str(&spec.to_toml_string());
        for err in [built.unwrap_err(), parsed.unwrap_err()] {
            assert!(
                matches!(&err, SpecError::Invalid(m) if m.contains("topology.uplinks_per_leaf")),
                "{err}"
            );
        }
    }

    // Host capacity is checked arithmetic in its one home: this torus
    // used to overflow (debug panic / release wrap to a tiny fabric).
    let torus =
        contention_scenario::registry::by_name("torus-neighbor-exchange").expect("registered");
    let with_dims = |dims| {
        let mut spec = torus.clone();
        match &mut spec.topology {
            TopologySpec::Torus2d(p) => p.dims = dims,
            other => panic!("unexpected fabric {}", other.kind()),
        }
        spec
    };
    let huge = with_dims([8_589_934_592, 2_147_483_649, 1]);
    assert!(matches!(huge.validate(), Err(SpecError::Invalid(_))));
    assert!(contention_scenario::topology::capacity(&huge.topology).is_err());
    // A 2-D torus has no z to serialize.
    let deep = with_dims([2, 2, 3]).validate();
    assert!(matches!(deep, Err(SpecError::Invalid(m)) if m.contains("torus-2d")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder reconstruction is exact: equal spec, equal fabric
    /// fingerprint, and the TOML round-trip of the rebuilt spec decodes
    /// back to the registry original.
    #[test]
    fn every_builtin_reconstructs_through_the_builder(pick in 0usize..1024) {
        let all = builtin();
        let original = &all[pick % all.len()];
        let rebuilt = rebuild(original);
        prop_assert_eq!(&rebuilt, original, "rebuild of {}", original.name);
        prop_assert_eq!(
            rebuilt.fabric_fingerprint(),
            original.fabric_fingerprint(),
            "fingerprint of {}", original.name
        );
        let reparsed = ScenarioSpec::from_toml_str(&rebuilt.to_toml_string())
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", original.name)))?;
        prop_assert_eq!(&reparsed, original, "TOML round-trip of {}", original.name);
    }

    /// Grid-only edits (nodes/sizes/reps — the programmatic sweep case)
    /// keep the fabric fingerprint, so cached calibrations stay valid;
    /// the edited spec still TOML round-trips exactly.
    #[test]
    fn grid_edits_keep_the_fabric_fingerprint(
        pick in 0usize..1024,
        keep_nodes in 1usize..4,
        size_kib in 1u64..2048,
        reps in 1usize..4,
    ) {
        let all = builtin();
        let original = &all[pick % all.len()];
        let nodes: Vec<usize> = original
            .sweep
            .nodes
            .iter()
            .copied()
            .take(keep_nodes.min(original.sweep.nodes.len()))
            .collect();
        let edited = rebuild(original);
        let mut b = ScenarioBuilder::new(edited.name.clone())
            .description(edited.description.clone())
            .topology(edited.topology.clone())
            .placement(edited.placement)
            .transport(edited.transport)
            .mpi(edited.mpi)
            .workload(edited.workload.clone())
            .backend(edited.backend)
            .nodes(nodes)
            .message_bytes([size_kib * 1024])
            .reps(reps);
        // Pairwise exchange only allows power-of-two node counts; keep the
        // property about *grids*, not workload legality.
        if edited.workload == (WorkloadSpec::Uniform { algorithm: AllToAllAlgorithm::PairwiseExchange }) {
            b = b.uniform(AllToAllAlgorithm::DirectExchange);
        }
        let swept = match b.build() {
            Ok(s) => s,
            // Some random grids are legitimately invalid for the workload
            // (e.g. incast receivers >= min node count); that is the
            // validator doing its job, not a fingerprint property.
            Err(_) => return Ok(()),
        };
        prop_assert_eq!(
            swept.fabric_fingerprint(),
            original.fabric_fingerprint(),
            "grid edit moved the fingerprint of {}", original.name
        );
        let reparsed = ScenarioSpec::from_toml_str(&swept.to_toml_string())
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", swept.name)))?;
        prop_assert_eq!(reparsed, swept);
    }
}

/// The proptests above index builtins modulo the registry length; this
/// anchor makes a registry growth/shrink visible here too.
#[test]
fn registry_ships_thirteen_packet_and_two_fluid_builtins() {
    let all = builtin();
    assert_eq!(all.len(), 15);
    let packet = all.iter().filter(|s| s.backend == Backend::Packet).count();
    assert_eq!(packet, 13, "packet builtin count moved");
    assert_eq!(all.len() - packet, 2, "fluid builtin count moved");
}
