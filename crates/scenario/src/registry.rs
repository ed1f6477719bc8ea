//! The built-in scenario library: the paper's three clusters re-expressed
//! as specs, plus fabrics and workloads the paper could not measure —
//! multi-level trees with controlled oversubscription, fat-trees, tori
//! and dragonflies under scatter/pack/random placement, and irregular
//! exchanges.
//!
//! Every builtin is constructed through the
//! [`ScenarioBuilder`] — the registry is
//! both the scenario library and the living proof that the programmatic
//! API expresses everything the engine can run.

use crate::builder::ScenarioBuilder;
use crate::spec::{Backend, ScenarioSpec, TopologySpec, WorkloadSpec};
use simnet::config::{LinkConfig, SwitchConfig};
use simnet::generate::{DragonflyParams, Placement, StarParams, TreeParams};

fn kib(n: u64) -> u64 {
    n * 1024
}

fn paper_cluster(preset: &str, description: &str, nodes: Vec<usize>) -> ScenarioSpec {
    // Preset topologies carry their own transport/MPI stacks; the
    // builder's transport default is ignored for them.
    ScenarioBuilder::new(format!("paper-{preset}"))
        .description(description)
        .preset(preset)
        .uniform("direct")
        .nodes(nodes)
        .message_bytes([kib(64), kib(256), kib(512)])
        .warmup(1)
        .reps(2)
        .build()
        .expect("paper preset builtin is valid")
}

/// All built-in scenarios, in presentation order.
pub fn builtin() -> Vec<ScenarioSpec> {
    let fast_link = LinkConfig {
        bandwidth_bytes_per_sec: 125e6,
        latency_ns: 20_000,
    };
    let small_switch = SwitchConfig {
        shared_buffer_bytes: 256 * 1024,
        per_port_cap_bytes: 64 * 1024,
    };
    let deep_switch = SwitchConfig {
        shared_buffer_bytes: 4 * 1024 * 1024,
        per_port_cap_bytes: 1024 * 1024,
    };
    let lossless_switch = SwitchConfig {
        shared_buffer_bytes: u64::MAX / 4,
        per_port_cap_bytes: u64::MAX / 8,
    };
    let valid = |b: ScenarioBuilder| b.build().expect("builtin scenario is valid");

    vec![
        paper_cluster(
            "fast-ethernet",
            "Steffenel's icluster2 Fast Ethernet testbed (Figs. 6-8) as a spec",
            vec![8, 16, 24],
        ),
        paper_cluster(
            "gigabit-ethernet",
            "Steffenel's GdX Gigabit Ethernet testbed (Figs. 9-11) as a spec",
            vec![8, 16, 24],
        ),
        paper_cluster(
            "myrinet",
            "Steffenel's icluster2 Myrinet 2000 testbed (Figs. 12-14) as a spec",
            vec![8, 16],
        ),
        valid(
            ScenarioBuilder::new("fat-tree-uniform")
                .description(
                    "Uniform All-to-All on a 4-ary fat-tree: rearrangeably non-blocking, \
                     contention comes from ECMP collisions, not capacity",
                )
                .fat_tree(4, 4, fast_link, small_switch)
                .tcp(kib(64))
                .uniform("direct-nb")
                .nodes([8, 16])
                .message_bytes([kib(64), kib(256)])
                .warmup(1)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("oversubscribed-tree-skewed")
                .description(
                    "Skewed irregular exchange over a 4:1 oversubscribed two-level tree \
                     (the Oltchik-style partitioning stress: hot senders share thin uplinks)",
                )
                .topology(TopologySpec::Tree(TreeParams {
                    leaves: 4,
                    hosts_per_leaf: 6,
                    edge_link: fast_link,
                    oversubscription: 4.0,
                    uplinks_per_leaf: 1,
                    uplink_latency_ns: 10_000,
                    edge_switch: small_switch,
                    core_switch: small_switch,
                }))
                .tcp(kib(64))
                .skewed(2, 4.0, true)
                .nodes([8, 16, 24])
                .message_bytes([kib(32), kib(128)])
                .warmup(1)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("incast-burst")
                .description(
                    "All-to-one incast on a shallow-buffered switch: the paper's \u{a7}3 \
                     buffer-exhaustion stress as a reusable scenario",
                )
                .single_switch(16, fast_link, small_switch)
                .tcp(kib(64))
                .incast(1)
                .nodes([4, 8, 16])
                .message_bytes([kib(128), kib(512)])
                .warmup(0)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("sparse-star")
                .description(
                    "Sparse (40%) irregular exchange over a star of switches — the Bienz \
                     irregular-communication regime single-switch models miss",
                )
                .topology(TopologySpec::StarOfSwitches(StarParams {
                    leaves: 3,
                    hosts_per_leaf: 8,
                    edge_link: fast_link,
                    uplink: LinkConfig {
                        bandwidth_bytes_per_sec: 250e6,
                        latency_ns: 10_000,
                    },
                    uplinks_per_leaf: 2,
                    edge_switch: small_switch,
                    core_switch: deep_switch,
                }))
                .tcp(kib(64))
                .sparse(0.4, true)
                .nodes([8, 16, 24])
                .message_bytes([kib(64), kib(256)])
                .warmup(1)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("permutation-lossless")
                .description(
                    "Random permutation traffic on a lossless single switch: the \
                     contention-free baseline every irregular pattern is judged against",
                )
                .single_switch(
                    24,
                    LinkConfig {
                        bandwidth_bytes_per_sec: 250e6,
                        latency_ns: 4_000,
                    },
                    lossless_switch,
                )
                .gm(kib(1024))
                .hiccup_probability(0.0)
                .permutation()
                .nodes([8, 16, 24])
                .message_bytes([kib(256), kib(1024)])
                .warmup(0)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("mixed-phases-tree")
                .description(
                    "Multi-phase mix (permutation, then incast, then uniform) over an \
                     oversubscribed tree — the shifting-bottleneck case single-pattern \
                     models cannot fit",
                )
                .topology(TopologySpec::Tree(TreeParams {
                    leaves: 2,
                    hosts_per_leaf: 8,
                    edge_link: fast_link,
                    oversubscription: 2.0,
                    uplinks_per_leaf: 2,
                    uplink_latency_ns: 10_000,
                    edge_switch: small_switch,
                    core_switch: deep_switch,
                }))
                .tcp(kib(64))
                .phases([
                    WorkloadSpec::Permutation,
                    WorkloadSpec::Incast { receivers: 2 },
                    WorkloadSpec::Uniform {
                        algorithm: "direct".into(),
                    },
                ])
                .nodes([8, 16])
                .message_bytes([kib(64), kib(128)])
                .warmup(0)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("torus-neighbor-exchange")
                .description(
                    "Ring-algorithm All-to-All on a packed 4\u{d7}4 torus: neighbour-heavy \
                     rounds meet dimension-ordered routing, so contention concentrates on \
                     the rings the packing straddles",
                )
                .torus_2d(4, 4, 2, fast_link, deep_switch)
                .placement(Placement::Pack)
                .tcp(kib(64))
                .uniform("ring")
                .nodes([8, 16, 32])
                .message_bytes([kib(64), kib(256)])
                .warmup(1)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("torus3d-random-permutation")
                .description(
                    "Permutation traffic on a 3\u{d7}3\u{d7}3 torus under seeded random \
                     placement — the fragmented-batch-queue regime where e-cube routes \
                     collide unpredictably (Bienz-style placement sensitivity)",
                )
                // GM never retransmits, so the torus must be lossless
                // (Myrinet-style link-level backpressure) — a dropped
                // frame would deadlock the permutation.
                .torus_3d(3, 3, 3, 1, fast_link, lossless_switch)
                .placement(Placement::RandomSeeded)
                .gm(kib(256))
                .permutation()
                .nodes([8, 16, 27])
                .message_bytes([kib(128), kib(512)])
                .warmup(0)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("dragonfly-adversarial-uniform")
                .description(
                    "Uniform All-to-All on a packed dragonfly (4 groups \u{d7} 4 routers \
                     \u{d7} 2 hosts): packing fills whole groups, so every cross-group \
                     byte funnels through single global links — the adversarial pattern \
                     minimal routing cannot dodge",
                )
                .topology(TopologySpec::Dragonfly(DragonflyParams {
                    groups: 4,
                    routers_per_group: 4,
                    hosts_per_router: 2,
                    host_link: fast_link,
                    local_link: fast_link,
                    global_link: LinkConfig {
                        bandwidth_bytes_per_sec: 250e6,
                        latency_ns: 40_000,
                    },
                    switch: small_switch,
                }))
                .placement(Placement::Pack)
                .tcp(kib(64))
                .uniform("direct")
                .nodes([8, 16, 24])
                .message_bytes([kib(64), kib(256)])
                .warmup(1)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("packed-vs-scattered-fattree")
                .description(
                    "The fat-tree-uniform fabric under Pack placement — diff its report \
                     against fat-tree-uniform to read the placement cost directly \
                     (same grid, same seeds, only the rank\u{2192}host map differs)",
                )
                .fat_tree(4, 4, fast_link, small_switch)
                .placement(Placement::Pack)
                .tcp(kib(64))
                .uniform("direct-nb")
                .nodes([8, 16])
                .message_bytes([kib(64), kib(256)])
                .warmup(1)
                .reps(2),
        ),
        valid(
            ScenarioBuilder::new("fat-tree-1024-alltoall")
                .description(
                    "Uniform All-to-All across a full 16-ary fat-tree (1024 hosts, ~1M \
                     simultaneous flows) — the capacity-planning scale only the fluid \
                     tier can reach",
                )
                .fat_tree(16, 8, fast_link, deep_switch)
                .tcp(kib(64))
                .uniform("direct-nb")
                .nodes([1024])
                .message_bytes([kib(1024)])
                .warmup(0)
                .reps(1)
                .backend(Backend::Fluid),
        ),
        valid(
            ScenarioBuilder::new("dragonfly-4k-adversarial")
                .description(
                    "Permutation traffic on a packed 16\u{d7}16\u{d7}16 dragonfly (4096 \
                     hosts): packing fills whole groups, so the permutation's cross-group \
                     bytes all funnel through single global links — fluid tier only",
                )
                .topology(TopologySpec::Dragonfly(DragonflyParams {
                    groups: 16,
                    routers_per_group: 16,
                    hosts_per_router: 16,
                    host_link: fast_link,
                    local_link: fast_link,
                    global_link: LinkConfig {
                        bandwidth_bytes_per_sec: 250e6,
                        latency_ns: 40_000,
                    },
                    switch: lossless_switch,
                }))
                .placement(Placement::Pack)
                .gm(kib(1024))
                .permutation()
                .nodes([4096])
                .message_bytes([kib(1024)])
                .warmup(0)
                .reps(1)
                .backend(Backend::Fluid),
        ),
    ]
}

/// Looks up a built-in scenario by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    builtin().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_six_valid_unique_scenarios() {
        let all = builtin();
        assert!(all.len() >= 6, "only {} scenarios", all.len());
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        for spec in &all {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn paper_clusters_are_present() {
        for name in [
            "paper-fast-ethernet",
            "paper-gigabit-ethernet",
            "paper-myrinet",
        ] {
            assert!(by_name(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn non_tree_fabrics_and_placements_are_present() {
        for (name, kind, placement) in [
            ("torus-neighbor-exchange", "torus-2d", Placement::Pack),
            (
                "torus3d-random-permutation",
                "torus-3d",
                Placement::RandomSeeded,
            ),
            (
                "dragonfly-adversarial-uniform",
                "dragonfly",
                Placement::Pack,
            ),
            ("packed-vs-scattered-fattree", "fat-tree", Placement::Pack),
        ] {
            let spec = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(spec.topology.kind(), kind, "{name}");
            assert_eq!(spec.placement, placement, "{name}");
        }
        // The placement-ablation pair shares fabric and grid, so their
        // reports diff cell-for-cell.
        let scattered = by_name("fat-tree-uniform").unwrap();
        let packed = by_name("packed-vs-scattered-fattree").unwrap();
        assert_eq!(scattered.topology, packed.topology);
        assert_eq!(scattered.sweep, packed.sweep);
    }
}
