//! Property-based tests of the topology generators: every generated
//! fabric must be a valid routable topology with the structural invariants
//! its parameters promise.

use contention_scenario::builder::ScenarioBuilder;
use contention_scenario::prelude::AllToAllAlgorithm;
use contention_scenario::spec::{SpecError, TopologySpec};
use contention_scenario::topology::{self, Fabric};
use proptest::prelude::*;
use simnet::generate::{
    dragonfly, fat_tree, single_switch, star_of_switches, torus, two_level_tree, DragonflyParams,
    FatTreeParams, Generated, Placement, SingleSwitchParams, StarParams, TorusParams, TreeParams,
};
use simnet::ids::{HostId, TxId};
use simnet::prelude::*;
use simnet::topology::Endpoint;

fn gbe() -> LinkConfig {
    LinkConfig::gigabit_ethernet()
}

fn sw() -> SwitchConfig {
    SwitchConfig::commodity_ethernet()
}

/// Sum of link bandwidths (bytes/sec) of all transmitters owned by pool
/// `pool` whose packets land on `to`.
fn bandwidth_into(topo: &Topology, pool: usize, to: Endpoint) -> f64 {
    topo.tx_params
        .iter()
        .filter(|tx| tx.pool.index() == pool && tx.to == to)
        .map(|tx| 1e9 / tx.ns_per_byte)
        .sum()
}

/// The family table: generator family `family` (0..6) with its counts
/// taken *as given* from `n` (zeros included) and every link / switch set
/// to `link` / `switch` — as the scenario tier holds the parameters, and
/// as the generator applied to the very same parameters. A 2-D torus is
/// the 3-D one with `n[2] == 1`.
fn family(
    family: usize,
    n: [usize; 4],
    link: LinkConfig,
    switch: SwitchConfig,
) -> (TopologySpec, Box<dyn FnOnce() -> Generated>) {
    match family {
        0 => {
            let p = SingleSwitchParams {
                hosts: n[0],
                link,
                switch,
            };
            (
                TopologySpec::SingleSwitch(p),
                Box::new(move || single_switch(&p)),
            )
        }
        1 => {
            let p = StarParams {
                leaves: n[0],
                hosts_per_leaf: n[1],
                edge_link: link,
                uplink: link,
                uplinks_per_leaf: n[2],
                edge_switch: switch,
                core_switch: switch,
            };
            (
                TopologySpec::StarOfSwitches(p),
                Box::new(move || star_of_switches(&p)),
            )
        }
        2 => {
            let p = TreeParams {
                leaves: n[0],
                hosts_per_leaf: n[1],
                edge_link: link,
                uplinks_per_leaf: n[2],
                oversubscription: 2.0,
                uplink_latency_ns: 5_000,
                edge_switch: switch,
                core_switch: switch,
            };
            (TopologySpec::Tree(p), Box::new(move || two_level_tree(&p)))
        }
        3 => {
            let p = FatTreeParams {
                k: n[0],
                hosts_per_edge: n[1],
                link,
                switch,
            };
            (TopologySpec::FatTree(p), Box::new(move || fat_tree(&p)))
        }
        4 => {
            let p = TorusParams {
                dims: [n[0], n[1], n[2]],
                hosts_per_switch: n[3],
                link,
                switch,
            };
            (TopologySpec::Torus3d(p), Box::new(move || torus(&p)))
        }
        _ => {
            let p = DragonflyParams {
                groups: n[0],
                routers_per_group: n[1],
                hosts_per_router: n[2],
                host_link: link,
                local_link: link,
                global_link: link,
                switch,
            };
            (TopologySpec::Dragonfly(p), Box::new(move || dragonfly(&p)))
        }
    }
}

/// One valid fabric of family `family`, sized by three small positive
/// knobs, plus its per-switch coordinates when the family routes
/// dimension-ordered. Every family offers equal-cost choices for some
/// sizes: parallel uplinks, fat-tree aggregation/core fan-out, torus
/// midpoints, dragonfly local detours.
fn generate_family(
    family_index: usize,
    a: usize,
    b: usize,
    c: usize,
) -> (Generated, Option<Vec<[u16; 3]>>) {
    // At least two switches everywhere; the fat-tree's first count is its
    // (even) arity.
    let first = if family_index == 3 {
        2 * (1 + a % 2)
    } else {
        a + 1
    };
    let (spec, generate) = family(family_index, [first, b, c, 1 + (a + b) % 2], gbe(), sw());
    // Switch s sits at (x, y, z) with x fastest — the generator's own
    // numbering.
    let coords = match spec {
        TopologySpec::Torus3d(p) => Some(
            (0..p.dims.iter().product::<usize>())
                .map(|s| {
                    [
                        (s % p.dims[0]) as u16,
                        ((s / p.dims[0]) % p.dims[1]) as u16,
                        (s / (p.dims[0] * p.dims[1])) as u16,
                    ]
                })
                .collect(),
        ),
        _ => None,
    };
    (generate(), coords)
}

/// The builder's ECMP mixing hash, restated.
fn ecmp_hash(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Reference route construction: the per-hop algorithm the builder used
/// before it tabulated next-hop candidates per destination. For every
/// ordered host pair it walks from the source, at each node filtering
/// the adjacency down to the neighbours one BFS step closer to the
/// destination, then picking dimension-ordered (when the node has
/// coordinates) or by the ECMP hash of `(src, dst, node)`.
///
/// Works from the built topology alone: transmitters are created in
/// pairs (`2k` = a→b, `2k+1` = b→a) in link order, so the sender of
/// transmitter `i` is the receiver of `i ^ 1`, and listing transmitters
/// by sender in index order reproduces the builder's adjacency order.
fn reference_routes(topo: &Topology, coords: Option<&[[u16; 3]]>) -> Vec<Vec<TxId>> {
    let n_hosts = topo.n_hosts;
    let n_switches = topo.pool_capacity.len() - n_hosts;
    let node_of = |e: Endpoint| match e {
        Endpoint::Host(h) => h.index(),
        Endpoint::Switch(s) => n_hosts + s.index(),
        Endpoint::Bus(h) => n_hosts + n_switches + h.index(),
    };
    let has_bus = topo
        .tx_params
        .iter()
        .any(|tx| matches!(tx.to, Endpoint::Bus(_)));
    let n_nodes = n_hosts + n_switches + if has_bus { n_hosts } else { 0 };
    let mut adjacency: Vec<Vec<(TxId, usize)>> = vec![Vec::new(); n_nodes];
    for (i, tx) in topo.tx_params.iter().enumerate() {
        let from = node_of(topo.tx_params[i ^ 1].to);
        adjacency[from].push((TxId::new(i), node_of(tx.to)));
    }
    let coord_of = |node: usize| -> Option<[u16; 3]> {
        let coords = coords?;
        (node >= n_hosts && node < n_hosts + n_switches).then(|| coords[node - n_hosts])
    };

    let mut routes = vec![Vec::new(); n_hosts * n_hosts];
    for dst in 0..n_hosts {
        let mut dist = vec![u32::MAX; n_nodes];
        dist[dst] = 0;
        let mut queue = std::collections::VecDeque::from([dst]);
        while let Some(u) = queue.pop_front() {
            for &(_, v) in &adjacency[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        for src in (0..n_hosts).filter(|&src| src != dst) {
            let mut at = src;
            while at != dst {
                let candidates: Vec<(TxId, usize)> = adjacency[at]
                    .iter()
                    .copied()
                    .filter(|&(_, v)| dist[v] + 1 == dist[at])
                    .collect();
                let dimension_ordered = coord_of(at).map(|a| {
                    *candidates
                        .iter()
                        .min_by_key(|&&(tx, v)| {
                            let dim = match coord_of(v) {
                                Some(c) => (0..3).find(|&d| a[d] != c[d]).unwrap_or(3),
                                None => 3,
                            };
                            (dim, tx.index())
                        })
                        .expect("BFS guarantees progress")
                });
                let (tx, next) = dimension_ordered.unwrap_or_else(|| {
                    let h = ecmp_hash(src as u64, dst as u64, at as u64);
                    candidates[(h % candidates.len() as u64) as usize]
                });
                routes[src * n_hosts + dst].push(tx);
                at = next;
            }
        }
    }
    routes
}

/// Every route equals the reference's, and has the properties the route
/// table and the fluid tier rely on instead of storing or checking them:
/// a route id divides back to its destination, the last hop lands on the
/// destination host, and no serializer slot repeats within a route (so a
/// fluid flow never double-counts its demand on a shared bus slot).
fn assert_routes_match_reference(topo: &Topology, coords: Option<&[[u16; 3]]>) {
    let reference = reference_routes(topo, coords);
    for src in 0..topo.n_hosts {
        for dst in (0..topo.n_hosts).filter(|&dst| dst != src) {
            let (s, d) = (HostId::new(src), HostId::new(dst));
            let route = topo.route(s, d);
            assert_eq!(
                route,
                &reference[src * topo.n_hosts + dst][..],
                "route {src} -> {dst}"
            );
            assert_eq!(topo.route_dst(topo.route_id(s, d)), d);
            let last = route.last().expect("a route has hops");
            assert_eq!(topo.tx_params[last.index()].to, Endpoint::Host(d));
            let mut slots: Vec<u32> = route
                .iter()
                .map(|tx| topo.tx_params[tx.index()].serializer)
                .collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), route.len(), "slot repeats on {src} -> {dst}");
        }
    }
}

#[test]
fn checks_name_the_offending_field() {
    // The generators assert through `check`, so a parameter set that
    // checks is one that generates; what fails says which field.
    let err = |r: Result<(), String>| r.unwrap_err();
    let star = StarParams {
        leaves: 3,
        hosts_per_leaf: 4,
        edge_link: gbe(),
        uplink: gbe(),
        uplinks_per_leaf: 0,
        edge_switch: sw(),
        core_switch: sw(),
    };
    assert!(err(star.check()).contains("uplinks_per_leaf"));
    let tree = TreeParams {
        leaves: 2,
        hosts_per_leaf: 2,
        edge_link: gbe(),
        uplinks_per_leaf: 0,
        oversubscription: 2.0,
        uplink_latency_ns: 0,
        edge_switch: sw(),
        core_switch: SwitchConfig {
            shared_buffer_bytes: 0,
            ..sw()
        },
    };
    assert!(err(tree.check()).contains("uplinks_per_leaf"));
    let wired = TreeParams {
        uplinks_per_leaf: 1,
        ..tree
    };
    assert!(err(wired.check()).contains("core_switch.shared_buffer_bytes"));
    let no_ratio = TreeParams {
        oversubscription: f64::NAN,
        ..wired
    };
    assert!(err(no_ratio.check()).contains("oversubscription"));
    // A ratio small enough to push the derived uplink to infinity.
    let runaway = TreeParams {
        oversubscription: f64::MIN_POSITIVE,
        core_switch: sw(),
        ..wired
    };
    assert!(err(runaway.check()).contains("uplink.bandwidth_bytes_per_sec"));

    let torus = |dims, hosts_per_switch| TorusParams {
        dims,
        hosts_per_switch,
        link: gbe(),
        switch: sw(),
    };
    assert!(err(torus([1, 1, 1], 2).check()).contains("at least 2 switches"));
    assert!(err(torus([2, 0, 1], 2).check()).contains("y must be"));
    // Coordinates are u16; beyond that `as u16` would alias switches.
    assert!(err(torus([70_000, 1, 1], 1).check()).contains("x must be at most"));
    let huge = torus([60_000, 60_000, 60_000], usize::MAX / 2);
    assert_eq!(huge.capacity(), None);
    assert!(err(huge.check()).contains("overflows"));

    // Route ids are `dst·n + src` in a u32: past 65 536 hosts a fabric is
    // a typed error naming its count fields, before anything allocates.
    let single = SingleSwitchParams {
        hosts: 100_000,
        link: gbe(),
        switch: sw(),
    };
    assert!(err(single.check()).starts_with("hosts = 100000 exceeds the 65536 hosts"));
    let fat = FatTreeParams {
        k: 80,
        hosts_per_edge: 40,
        link: gbe(),
        switch: sw(),
    };
    assert_eq!(fat.capacity(), Some(128_000));
    assert!(err(fat.check()).starts_with("k * k/2 * hosts_per_edge = 128000"));
    let largest = FatTreeParams {
        k: 64,
        hosts_per_edge: 32,
        ..fat
    };
    assert_eq!(largest.check(), Ok(()));
}

/// Presets put a shared-serializer I/O bus between every host and its
/// NIC; the generators never do, so the bus-node numbering of the route
/// construction gets its own fixed case: parallel uplinks behind buses.
#[test]
fn bus_fabric_routes_match_the_per_hop_reference() {
    let (_, generate) = family(1, [3, 4, 3, 0], gbe(), sw());
    let mut g = generate();
    g.builder.host_io_bus(250e6, 500);
    let topo = g.builder.build().unwrap();
    assert_eq!(topo.hop_count(g.hosts[0], g.hosts[11]), 6);
    assert_routes_match_reference(&topo, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Validation is sufficient for construction, for all six families
    /// with every count from 0 up and every link / switch valid, dead
    /// (zero bandwidth) or bufferless: a spec that validates builds its
    /// fabric without a panic and with exactly the capacity validation
    /// computed; one that does not says which field is at fault. (Most
    /// draws are invalid and cost microseconds; the valid ones build
    /// fabrics of at most 256 hosts.)
    #[test]
    fn a_spec_that_validates_builds_the_fabric_it_promised(
        family_index in 0usize..6,
        n in (0usize..=4, 0usize..=4, 0usize..=4, 0usize..=4),
        wires in 0usize..3,
    ) {
        let mut link = gbe();
        let mut switch = sw();
        match wires {
            0 => {}
            1 => link.bandwidth_bytes_per_sec = 0.0,
            _ => switch.shared_buffer_bytes = 0,
        }
        let (spec, _) = family(family_index, [n.0, n.1, n.2, n.3], link, switch);
        let built = ScenarioBuilder::new("drawn")
            .topology(spec)
            .uniform(AllToAllAlgorithm::DirectExchange)
            .nodes([2])
            .message_bytes([1024])
            .build();
        match built {
            Ok(spec) => {
                let fabric = std::panic::catch_unwind(|| Fabric::build(&spec));
                prop_assert!(fabric.is_ok(), "{:?} validated, then panicked", spec.topology);
                let fabric = fabric.unwrap();
                prop_assert!(fabric.is_ok(), "{:?}: {:?}", spec.topology, fabric.err());
                let hosts = fabric.unwrap().shared_topology().expect("generated").n_hosts;
                prop_assert_eq!(hosts, topology::capacity(&spec.topology).unwrap());
            }
            // The grid's two ranks not fitting is the one failure here
            // that is not about a topology field.
            Err(SpecError::Invalid(m)) => prop_assert!(
                m.starts_with("topology.") || m.contains("-host capacity"),
                "{}", m
            ),
            Err(other) => prop_assert!(false, "{}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A topology is a pure function of its builder: for all six
    /// generator families, generating the same fabric twice — and
    /// building one builder twice — yields identical transmitters and
    /// identical route tables.
    #[test]
    fn builds_are_pure_functions_of_the_generator_parameters(
        family in 0usize..6,
        a in 1usize..4,
        b in 1usize..4,
        c in 1usize..4,
    ) {
        let (g1, _) = generate_family(family, a, b, c);
        let (g2, _) = generate_family(family, a, b, c);
        let first = g1.builder.build().unwrap();
        for other in [g1.builder.build().unwrap(), g2.builder.build().unwrap()] {
            prop_assert_eq!(
                format!("{:?}", first.tx_params),
                format!("{:?}", other.tx_params)
            );
            prop_assert_eq!(&first.pool_capacity, &other.pool_capacity);
            for &s in &g1.hosts {
                for &d in g1.hosts.iter().filter(|&&d| d != s) {
                    prop_assert_eq!(first.route(s, d), other.route(s, d), "{} -> {}", s, d);
                }
            }
        }
    }

    /// The tabulated route construction picks, hop for hop, what the
    /// per-hop reference picks — ECMP-hashed families and the
    /// dimension-ordered torus alike, at random sizes.
    #[test]
    fn tabulated_routes_match_the_per_hop_reference(
        family in 0usize..6,
        a in 1usize..5,
        b in 1usize..5,
        c in 1usize..4,
    ) {
        let (g, coords) = generate_family(family, a, b, c);
        let topo = g.builder.build().unwrap();
        assert_routes_match_reference(&topo, coords.as_deref());
    }

    /// Fat-trees for k ∈ {2, 4} and 2–8 hosts per edge: every pair routes,
    /// route lengths are symmetric, and hop counts land exactly in the
    /// {2, 4, 6} classes the tree depth dictates.
    #[test]
    fn fat_tree_routes_respect_depth_classes(
        k_half in 1usize..3,       // k ∈ {2, 4}
        hosts_per_edge in 2usize..9,
    ) {
        let k = 2 * k_half;
        let p = FatTreeParams { k, hosts_per_edge, link: gbe(), switch: sw() };
        let g = fat_tree(&p);
        prop_assert_eq!(g.capacity(), k * (k / 2) * hosts_per_edge);
        prop_assert_eq!(g.edge_switches.len(), k * k / 2);
        prop_assert_eq!(g.agg_switches.len(), k * k / 2);
        prop_assert_eq!(g.core_switches.len(), (k / 2) * (k / 2));
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        let edge_of = |h: HostId| h.index() / hosts_per_edge;
        let pod_of = |h: HostId| edge_of(h) / (k / 2);
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let fwd = topo.hop_count(a, b);
                let rev = topo.hop_count(b, a);
                prop_assert_eq!(fwd, rev, "asymmetric {} vs {}", a, b);
                let expected = if edge_of(a) == edge_of(b) {
                    2
                } else if pod_of(a) == pod_of(b) {
                    4
                } else {
                    6
                };
                prop_assert_eq!(fwd, expected, "{} -> {}", a, b);
            }
        }
    }

    /// Two-level trees: valid for any leaf/host/uplink mix, hop counts in
    /// {2, 4}, and the generated uplink capacity implements exactly the
    /// requested oversubscription ratio.
    #[test]
    fn tree_oversubscription_matches_spec(
        leaves in 2usize..6,
        hosts_per_leaf in 2usize..9,
        uplinks_per_leaf in 1usize..4,
        oversub_x4 in 2u32..33,    // ratio ∈ [0.5, 8.25) in 0.25 steps
    ) {
        let oversubscription = oversub_x4 as f64 / 4.0;
        let p = TreeParams {
            leaves,
            hosts_per_leaf,
            edge_link: gbe(),
            uplinks_per_leaf,
            oversubscription,
            uplink_latency_ns: 10_000,
            edge_switch: sw(),
            core_switch: sw(),
        };
        let g = two_level_tree(&p);
        let hosts = g.hosts.clone();
        let n_hosts = hosts.len();
        let core = *g.core_switches.first().unwrap();
        let leaf_switches = g.edge_switches.clone();
        let topo = g.builder.build().unwrap();

        // Hop classes and symmetry.
        let leaf_of = |h: HostId| h.index() / hosts_per_leaf;
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let fwd = topo.hop_count(a, b);
                prop_assert_eq!(fwd, topo.hop_count(b, a));
                let expected = if leaf_of(a) == leaf_of(b) { 2 } else { 4 };
                prop_assert_eq!(fwd, expected, "{} -> {}", a, b);
            }
        }

        // Reconstruct the ratio from the built fabric: per leaf, host-link
        // bandwidth into the leaf over uplink bandwidth into the core.
        for (li, leaf) in leaf_switches.iter().enumerate() {
            let leaf_pool = n_hosts + leaf.index();
            let up = bandwidth_into(&topo, leaf_pool, Endpoint::Switch(core));
            let down: f64 = hosts[li * hosts_per_leaf..(li + 1) * hosts_per_leaf]
                .iter()
                .map(|h| bandwidth_into(&topo, h.index(), Endpoint::Switch(*leaf)))
                .sum();
            let measured = down / up;
            prop_assert!(
                (measured - oversubscription).abs() < 1e-6 * oversubscription,
                "leaf {}: measured {} vs spec {}",
                li,
                measured,
                oversubscription
            );
        }
    }

    /// Tori of any shape up to 5×4×3 with 1–3 hosts per switch: every
    /// host pair routes, and the dimension-ordered hop count is exactly
    /// `2 + Σ ring distances` — the e-cube minimal route, never a detour.
    #[test]
    fn torus_routes_have_exact_ecube_hop_counts(
        nx in 1usize..6,
        ny in 1usize..5,
        nz in 1usize..4,
        hosts_per_switch in 1usize..4,
    ) {
        prop_assume!(nx * ny * nz >= 2);
        let p = TorusParams {
            dims: [nx, ny, nz],
            hosts_per_switch,
            link: gbe(),
            switch: sw(),
        };
        let g = torus(&p);
        prop_assert_eq!(g.capacity(), nx * ny * nz * hosts_per_switch);
        let hosts = g.hosts.clone();
        // Connectivity: build() errors on any unreachable pair, so a
        // successful build *is* the route-between-every-pair proof.
        let topo = g.builder.build().unwrap();
        let coord_of = |h: HostId| {
            let s = h.index() / hosts_per_switch;
            [s % nx, (s / nx) % ny, s / (nx * ny)]
        };
        let ring = |a: usize, b: usize, n: usize| {
            let d = (a as i64 - b as i64).unsigned_abs() as usize % n;
            d.min(n - d)
        };
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let (ca, cb) = (coord_of(a), coord_of(b));
                let dist: usize = (0..3)
                    .map(|d| ring(ca[d], cb[d], [nx, ny, nz][d]))
                    .sum();
                let expected = if dist == 0 { 2 } else { 2 + dist };
                prop_assert_eq!(topo.hop_count(a, b), expected, "{} -> {}", a, b);
                prop_assert_eq!(topo.hop_count(b, a), expected, "symmetry {} {}", a, b);
            }
        }
    }

    /// Dragonflies: every pair routes; hop counts stay within the
    /// host + local + global + local + host minimal-path envelope; and
    /// the global-link budget is exactly one per group pair.
    #[test]
    fn dragonfly_is_connected_with_minimal_path_envelope(
        groups in 1usize..6,
        routers in 1usize..5,
        hosts_per_router in 1usize..4,
    ) {
        prop_assume!(groups * routers >= 2);
        let p = DragonflyParams {
            groups,
            routers_per_group: routers,
            hosts_per_router,
            host_link: gbe(),
            local_link: gbe(),
            global_link: gbe(),
            switch: sw(),
        };
        let g = dragonfly(&p);
        prop_assert_eq!(g.capacity(), groups * routers * hosts_per_router);
        prop_assert_eq!(g.edge_switches.len(), groups * routers);
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        let router_of = |h: HostId| h.index() / hosts_per_router;
        let group_of = |h: HostId| router_of(h) / routers;
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let hops = topo.hop_count(a, b);
                let bound = if router_of(a) == router_of(b) {
                    2
                } else if group_of(a) == group_of(b) {
                    3
                } else {
                    5
                };
                prop_assert!(
                    hops >= 2 && hops <= bound,
                    "{} -> {}: {} hops exceeds the minimal-path bound {}",
                    a, b, hops, bound
                );
            }
        }
    }

    /// Pack and seeded-random placements are partial permutations of the
    /// fabric (no duplicate host, exactly n picks); pack is group-major
    /// and random is seed-reproducible.
    #[test]
    fn pack_and_random_placements_are_partial_permutations(
        leaves in 2usize..6,
        hosts_per_leaf in 2usize..9,
        take_fraction in 1usize..5,
        seed in 0u64..1000,
    ) {
        let p = TreeParams {
            leaves,
            hosts_per_leaf,
            edge_link: gbe(),
            uplinks_per_leaf: 1,
            oversubscription: 2.0,
            uplink_latency_ns: 0,
            edge_switch: sw(),
            core_switch: sw(),
        };
        let g = two_level_tree(&p);
        let n = (g.capacity() * take_fraction / 4).clamp(1, g.capacity());
        for placement in [Placement::Pack, Placement::RandomSeeded] {
            let picked = placement.place(&g, n, seed);
            prop_assert_eq!(picked.len(), n, "{}", placement.name());
            let mut seen = std::collections::HashSet::new();
            for h in &picked {
                prop_assert!(
                    seen.insert(*h),
                    "{}: duplicate host {}",
                    placement.name(),
                    h
                );
                prop_assert!(h.index() < g.capacity(), "host outside fabric");
            }
        }
        // Pack fills leaf k completely before touching leaf k+1.
        let packed = Placement::Pack.place(&g, n, seed);
        for (i, h) in packed.iter().enumerate() {
            prop_assert_eq!(h.index(), g.hosts[i].index(), "pack is group-major");
        }
        // Random placement reproduces per seed and reacts to it.
        let again = Placement::RandomSeeded.place(&g, n, seed);
        prop_assert_eq!(&Placement::RandomSeeded.place(&g, n, seed), &again);
    }

    /// Scattered placement covers the first n hosts without repetition and
    /// spreads across leaves like the presets' round-robin.
    #[test]
    fn scattered_placement_is_a_partial_permutation(
        leaves in 2usize..6,
        hosts_per_leaf in 2usize..9,
        take_fraction in 1usize..5,
    ) {
        let p = TreeParams {
            leaves,
            hosts_per_leaf,
            edge_link: gbe(),
            uplinks_per_leaf: 1,
            oversubscription: 2.0,
            uplink_latency_ns: 0,
            edge_switch: sw(),
            core_switch: sw(),
        };
        let g = two_level_tree(&p);
        let n = (g.capacity() * take_fraction / 4).clamp(1, g.capacity());
        let picked = g.scattered_hosts(n);
        prop_assert_eq!(picked.len(), n);
        let mut seen = std::collections::HashSet::new();
        for h in &picked {
            prop_assert!(seen.insert(*h), "duplicate host {}", h);
        }
        // The first `leaves` picks are all on distinct leaves.
        let distinct_leaves: std::collections::HashSet<usize> = picked
            .iter()
            .take(leaves)
            .map(|h| h.index() / hosts_per_leaf)
            .collect();
        prop_assert_eq!(distinct_leaves.len(), picked.len().min(leaves));
    }
}
