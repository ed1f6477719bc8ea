//! Topology construction and static routing.
//!
//! A topology is a bipartite-ish graph of hosts and switches joined by
//! full-duplex links. Each link direction becomes one *transmitter*
//! ([`TxParams`]): the serialization point with a queue charged against a
//! buffer pool (the sending host's NIC buffer, or the sending switch's
//! shared memory).
//!
//! Routing is computed once at build time: shortest path by hop count.
//! Equal-cost choices are resolved by deterministic per-flow ECMP hashing
//! (parallel uplinks and fat-tree cores load-balance the way switch
//! hashing would), or, on mesh/torus fabrics whose generators supply
//! per-switch coordinates ([`TopologyBuilder::set_switch_coords`]), by
//! dimension-ordered (e-cube) selection: among equal-cost next hops,
//! correct the lowest-indexed mismatched coordinate dimension first.
//! Host-side hops fall back to ECMP hashing, and on an even-sized ring's
//! exact midpoint both wrap directions are minimal and the tie resolves to
//! link-creation order. The route table is one hop
//! arena plus one prefix offset per host pair; a [`RouteId`] is computed
//! from the pair, not stored, up to [`MAX_HOSTS`] hosts.

use crate::config::{LinkConfig, SwitchConfig};
use crate::ids::{HostId, PoolId, RouteId, SwitchId, TxId};

/// The most hosts a topology can index: route ids are `dst·n_hosts + src`
/// in a `u32`, so `n_hosts²` must not exceed 2³².
pub const MAX_HOSTS: usize = 1 << 16;

/// Where a transmitter's packets land after the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Delivered to a host's protocol stack.
    Host(HostId),
    /// Forwarded by a switch.
    Switch(SwitchId),
    /// Forwarded by a host's internal I/O bus stage.
    Bus(HostId),
}

/// Static parameters of one transmitter (one direction of one link).
#[derive(Debug, Clone, Copy)]
pub struct TxParams {
    /// Serialization cost: nanoseconds per byte (1e9 / bandwidth).
    pub ns_per_byte: f64,
    /// One-way latency added after serialization, in nanoseconds.
    pub latency_ns: u64,
    /// Buffer pool this transmitter's queue is charged against.
    pub pool: PoolId,
    /// Cap on this transmitter's own queue within the pool (per-port
    /// dynamic threshold on switches; effectively unbounded on hosts).
    pub port_cap_bytes: u64,
    /// Serialization slot. Normally private to the transmitter, but a
    /// host's I/O-bus transmitters share one slot in both directions,
    /// modeling a DMA engine that cannot overlap send and receive at full
    /// rate (the practical violation of 1-port *full-duplex* on Myrinet
    /// hosts).
    pub serializer: u32,
    /// Receiving end of the wire.
    pub to: Endpoint,
}

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A host has no link at all.
    DisconnectedHost(HostId),
    /// No path exists between two hosts.
    Unreachable(HostId, HostId),
    /// A link references a host or switch id that was never created.
    UnknownNode,
    /// The topology has no hosts.
    Empty,
    /// The route table of this many hosts outgrows its `u32` indices:
    /// more than [`MAX_HOSTS`] hosts, or more than `u32::MAX` hops in all.
    RouteTableOverflow(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DisconnectedHost(h) => write!(f, "host {h} has no link"),
            TopologyError::Unreachable(a, b) => write!(f, "no path between {a} and {b}"),
            TopologyError::UnknownNode => write!(f, "link references an unknown node"),
            TopologyError::Empty => write!(f, "topology has no hosts"),
            TopologyError::RouteTableOverflow(n) => {
                write!(f, "route table overflows at {n} hosts (max {MAX_HOSTS})")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The built network fabric handed to the engine.
///
/// Every host-pair path lives in one flat `TxId` arena, destination-major
/// and source-minor, and is addressed by a [`RouteId`] that is computed,
/// not looked up: `dst·n_hosts + src`. The only per-pair state is that
/// route's arena offset, so the per-hop cost in the engine is two adjacent
/// offset reads and one slice index.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of hosts.
    pub n_hosts: usize,
    /// Static transmitter parameters, indexed by [`TxId`].
    pub tx_params: Vec<TxParams>,
    /// Buffer-pool capacities in bytes, indexed by [`PoolId`].
    pub pool_capacity: Vec<u64>,
    /// Number of serialization slots (see [`TxParams::serializer`]).
    pub n_serializers: usize,
    /// All routes' hops, back to back, in [`RouteId`] order.
    route_arena: Vec<TxId>,
    /// `n_hosts² + 1` prefix offsets into `route_arena`: route `id` is
    /// `route_start[id]..route_start[id + 1]` (empty on the diagonal).
    route_start: Vec<u32>,
}

impl Topology {
    /// The handle of the route from `src` to `dst`: `dst·n_hosts + src`.
    /// Resolved once when a connection opens; the engine then indexes by
    /// the handle.
    ///
    /// # Panics
    /// Panics if `src == dst`; self-routes do not exist.
    pub fn route_id(&self, src: HostId, dst: HostId) -> RouteId {
        assert_ne!(src, dst, "no route from a host to itself");
        RouteId::from_index(dst.index() * self.n_hosts + src.index())
    }

    /// The hops of a route.
    #[inline]
    pub fn route_slice(&self, id: RouteId) -> &[TxId] {
        let i = id.index();
        &self.route_arena[self.route_start[i] as usize..self.route_start[i + 1] as usize]
    }

    /// The host a route terminates at.
    #[inline]
    pub fn route_dst(&self, id: RouteId) -> HostId {
        HostId::from_index(id.index() / self.n_hosts)
    }

    /// The forward route (sequence of transmitters) from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if `src == dst`; self-routes do not exist.
    pub fn route(&self, src: HostId, dst: HostId) -> &[TxId] {
        self.route_slice(self.route_id(src, dst))
    }

    /// Number of hops (transmitters) between two hosts.
    pub fn hop_count(&self, src: HostId, dst: HostId) -> usize {
        self.route(src, dst).len()
    }
}

#[derive(Debug, Clone, Copy)]
enum Node {
    Host(HostId),
    Switch(SwitchId),
    Bus(usize),
}

struct Wire {
    a: Node,
    b: Node,
    config: LinkConfig,
}

/// Builder for [`Topology`].
pub struct TopologyBuilder {
    hosts: usize,
    switches: Vec<SwitchConfig>,
    links: Vec<Wire>,
    host_bus: Option<(f64, u64)>,
    /// Per-switch coordinates (parallel to `switches`); when present,
    /// equal-cost ties are broken dimension-ordered. Empty unless a
    /// mesh/torus generator supplied them.
    switch_coords: Vec<[u16; 3]>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            hosts: 0,
            switches: Vec::new(),
            links: Vec::new(),
            host_bus: None,
            switch_coords: Vec::new(),
        }
    }

    /// Supplies one `[x, y, z]` coordinate per switch (creation order) and
    /// so selects dimension-ordered tie-breaking (see the module doc).
    /// Unused dimensions stay 0.
    ///
    /// # Panics
    /// Panics if the coordinate count does not match the switch count at
    /// build time.
    pub fn set_switch_coords(&mut self, coords: Vec<[u16; 3]>) {
        self.switch_coords = coords;
    }

    /// Inserts a shared-serializer I/O bus stage between every host and its
    /// NIC: send and receive traffic of a host contend for one serializer
    /// of `bandwidth_bytes_per_sec`, adding `latency_ns` per traversal.
    /// Models a host DMA engine that cannot overlap both directions at full
    /// rate (Myrinet/gm-era hosts).
    pub fn host_io_bus(&mut self, bandwidth_bytes_per_sec: f64, latency_ns: u64) {
        assert!(bandwidth_bytes_per_sec > 0.0);
        self.host_bus = Some((bandwidth_bytes_per_sec, latency_ns));
    }

    /// Adds one host and returns its id.
    pub fn add_host(&mut self) -> HostId {
        let id = HostId::from_index(self.hosts);
        self.hosts += 1;
        id
    }

    /// Adds `count` hosts and returns their ids.
    pub fn add_hosts(&mut self, count: usize) -> Vec<HostId> {
        (0..count).map(|_| self.add_host()).collect()
    }

    /// Adds a switch with the given buffering.
    pub fn add_switch(&mut self, config: SwitchConfig) -> SwitchId {
        let id = SwitchId::from_index(self.switches.len());
        self.switches.push(config);
        id
    }

    /// Connects a host to a switch with a full-duplex link.
    pub fn link_host(&mut self, host: HostId, switch: SwitchId, config: LinkConfig) {
        self.links.push(Wire {
            a: Node::Host(host),
            b: Node::Switch(switch),
            config,
        });
    }

    /// Connects two switches. Call repeatedly for parallel uplinks; flows
    /// are spread across them deterministically.
    pub fn link_switches(&mut self, a: SwitchId, b: SwitchId, config: LinkConfig) {
        self.links.push(Wire {
            a: Node::Switch(a),
            b: Node::Switch(b),
            config,
        });
    }

    /// Builds the fabric: creates transmitters and pools, verifies
    /// connectivity, and computes all host-pair routes.
    ///
    /// A topology is a **pure function of the builder**: nothing here is
    /// seeded or randomized (ECMP spreading is a fixed hash of the flow's
    /// endpoints), so two builds of one builder — or of two builders
    /// assembled the same way — yield identical transmitters and route
    /// tables. Callers that run many simulations over one fabric should
    /// build it once and share it (`Arc<Topology>`); the all-pairs route
    /// table is by far the most expensive part of setting a run up.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        if self.hosts == 0 {
            return Err(TopologyError::Empty);
        }
        let n_hosts = self.hosts;
        let overflow = TopologyError::RouteTableOverflow(n_hosts);
        if n_hosts > MAX_HOSTS {
            return Err(overflow);
        }
        let n_switches = self.switches.len();
        let has_bus = self.host_bus.is_some();
        let n_bus = if has_bus { n_hosts } else { 0 };
        let n_nodes = n_hosts + n_switches + n_bus;
        let node_idx = |n: Node| -> usize {
            match n {
                Node::Host(h) => h.index(),
                Node::Switch(s) => n_hosts + s.index(),
                Node::Bus(h) => n_hosts + n_switches + h,
            }
        };
        // Pool ownership: a bus stage's queues live in its host.
        let pool_of = |n: Node| -> usize {
            match n {
                Node::Host(h) => h.index(),
                Node::Switch(s) => n_hosts + s.index(),
                Node::Bus(h) => h,
            }
        };
        let port_cap_of = |n: Node| -> u64 {
            match n {
                Node::Switch(s) => self.switches[s.index()].per_port_cap_bytes,
                Node::Host(_) | Node::Bus(_) => u64::MAX / 2,
            }
        };

        // Pools: one per host NIC, then one per switch. Host NIC queues are
        // unbounded: a sender self-paces through its transport window, so
        // its own NIC never tail-drops; contention loss happens at switches.
        let mut pool_capacity = Vec::with_capacity(n_hosts + n_switches);
        for _ in 0..n_hosts {
            pool_capacity.push(u64::MAX / 2);
        }
        for sw in &self.switches {
            pool_capacity.push(sw.shared_buffer_bytes);
        }

        // With an I/O bus, every declared host↔switch link attaches to the
        // host's bus node instead, and one shared-serializer bus link joins
        // host to bus node.
        struct Edge {
            a: Node,
            b: Node,
            config: LinkConfig,
            shared_serializer: bool,
        }
        let mut edges: Vec<Edge> = Vec::with_capacity(self.links.len() + n_bus);
        for link in &self.links {
            let remap = |n: Node| match n {
                Node::Host(h) if has_bus => Node::Bus(h.index()),
                other => other,
            };
            edges.push(Edge {
                a: remap(link.a),
                b: remap(link.b),
                config: link.config,
                shared_serializer: false,
            });
        }
        if let Some((bus_bw, bus_latency)) = self.host_bus {
            for h in 0..n_hosts {
                edges.push(Edge {
                    a: Node::Host(HostId::from_index(h)),
                    b: Node::Bus(h),
                    config: LinkConfig {
                        bandwidth_bytes_per_sec: bus_bw,
                        latency_ns: bus_latency,
                    },
                    shared_serializer: true,
                });
            }
        }

        // Transmitters + adjacency.
        let mut tx_params: Vec<TxParams> = Vec::with_capacity(edges.len() * 2);
        let mut adjacency: Vec<Vec<(TxId, usize)>> = vec![Vec::new(); n_nodes];
        for edge in &edges {
            let (ai, bi) = (node_idx(edge.a), node_idx(edge.b));
            if ai >= n_nodes || bi >= n_nodes {
                return Err(TopologyError::UnknownNode);
            }
            let endpoint = |n: Node| match n {
                Node::Host(h) => Endpoint::Host(h),
                Node::Switch(s) => Endpoint::Switch(s),
                Node::Bus(h) => Endpoint::Bus(HostId::from_index(h)),
            };
            let ns_per_byte = 1e9 / edge.config.bandwidth_bytes_per_sec;
            let first_tx_index = tx_params.len() as u32;
            for (k, (from, to_node)) in [(edge.a, edge.b), (edge.b, edge.a)].into_iter().enumerate()
            {
                let (from_i, to_i) = (node_idx(from), node_idx(to_node));
                let tx = TxId::from_index(tx_params.len());
                let serializer = if edge.shared_serializer && k == 1 {
                    first_tx_index
                } else {
                    tx_params.len() as u32
                };
                tx_params.push(TxParams {
                    ns_per_byte,
                    latency_ns: edge.config.latency_ns,
                    pool: PoolId::from_index(pool_of(from)),
                    port_cap_bytes: port_cap_of(from),
                    serializer,
                    to: endpoint(to_node),
                });
                adjacency[from_i].push((tx, to_i));
            }
        }
        let n_serializers = tx_params.len();

        for (h, adj) in adjacency.iter().take(n_hosts).enumerate() {
            if adj.is_empty() {
                return Err(TopologyError::DisconnectedHost(HostId::from_index(h)));
            }
        }

        let dimension_ordered = !self.switch_coords.is_empty();
        if dimension_ordered {
            assert_eq!(
                self.switch_coords.len(),
                n_switches,
                "dimension-ordered routing needs one coordinate per switch"
            );
        }
        // Coordinate of a node, if it is a switch with one.
        let coord_of = |n: usize| -> Option<[u16; 3]> {
            (n >= n_hosts && n < n_hosts + n_switches)
                .then(|| self.switch_coords.get(n - n_hosts).copied())
                .flatten()
        };

        // BFS distance-to-destination per destination host, then greedy
        // next-hop walks with hashed tie-breaking, appended to the arena
        // in `RouteId` order (destination-major, source-minor).
        //
        // The next-hop candidates toward a destination depend on the node
        // a walk stands on, never on where it started, so they are
        // tabulated once per destination (`cand`, CSR over nodes) instead
        // of being re-filtered — and re-allocated — on every hop of every
        // source's walk.
        let mut route_arena: Vec<TxId> = Vec::new();
        let mut route_start: Vec<u32> = Vec::with_capacity(n_hosts * n_hosts + 1);
        route_start.push(0);
        let mut dist = vec![u32::MAX; n_nodes];
        let mut queue = std::collections::VecDeque::new();
        let mut cand: Vec<(TxId, usize)> = Vec::new();
        let mut cand_start: Vec<usize> = vec![0; n_nodes + 1];
        for dst in 0..n_hosts {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dst] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &(_, v) in &adjacency[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            cand.clear();
            for at in 0..n_nodes {
                cand_start[at] = cand.len();
                if at == dst || dist[at] == u32::MAX {
                    continue;
                }
                // Every neighbour of a reached node is reached, so the
                // `+ 1` cannot overflow.
                cand.extend(
                    adjacency[at]
                        .iter()
                        .filter(|&&(_, v)| dist[v] + 1 == dist[at]),
                );
                debug_assert!(cand.len() > cand_start[at], "BFS guarantees progress");
                if !dimension_ordered {
                    continue;
                }
                let Some(a) = coord_of(at) else { continue };
                // Correct the lowest mismatched dimension first (BFS
                // already restricted candidates to minimal moves);
                // creation order breaks exact-midpoint wrap ties. Hops
                // off the coordinate grid (the final descent into a
                // host) sort after every real dimension. The pick is the
                // node's only candidate from here on.
                let pick = cand[cand_start[at]..]
                    .iter()
                    .copied()
                    .min_by_key(|&(tx, v)| {
                        let dim = match coord_of(v) {
                            Some(c) => (0..3).find(|&d| a[d] != c[d]).unwrap_or(3),
                            None => 3,
                        };
                        (dim, tx.index())
                    })
                    .expect("BFS guarantees progress");
                cand.truncate(cand_start[at]);
                cand.push(pick);
            }
            cand_start[n_nodes] = cand.len();
            for (src, &d) in dist[..n_hosts].iter().enumerate() {
                if d == u32::MAX {
                    return Err(TopologyError::Unreachable(
                        HostId::from_index(src),
                        HostId::from_index(dst),
                    ));
                }
                let mut at = src;
                while at != dst {
                    let choices = &cand[cand_start[at]..cand_start[at + 1]];
                    let (tx, next) = if let [only] = choices {
                        *only
                    } else {
                        // ECMP-style deterministic spreading over
                        // equal-cost next hops and parallel links.
                        let h = fxhash(src as u64, dst as u64, at as u64);
                        choices[(h % choices.len() as u64) as usize]
                    };
                    route_arena.push(tx);
                    at = next;
                }
                // The diagonal walk is empty: `dist[dst]` is 0.
                let end = u32::try_from(route_arena.len()).map_err(|_| overflow.clone())?;
                route_start.push(end);
            }
        }

        Ok(Topology {
            n_hosts,
            tx_params,
            pool_capacity,
            n_serializers,
            route_arena,
            route_start,
        })
    }
}

/// Small deterministic mixing hash (FNV/xorshift blend) for ECMP decisions.
fn fxhash(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> (Topology, Vec<HostId>) {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        let sw = b.add_switch(SwitchConfig::commodity_ethernet());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        (b.build().unwrap(), hosts)
    }

    #[test]
    fn star_routes_are_two_hops() {
        let (topo, hosts) = star(4);
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    assert_eq!(topo.hop_count(a, b), 2, "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn injection_hop_is_charged_to_source_nic_pool() {
        let (topo, hosts) = star(3);
        let route = topo.route(hosts[0], hosts[2]);
        let first = topo.tx_params[route[0].index()];
        assert_eq!(first.pool.index(), hosts[0].index());
        let second = topo.tx_params[route[1].index()];
        // Switch pool comes after the host pools.
        assert_eq!(second.pool.index(), 3);
        assert_eq!(second.to, Endpoint::Host(hosts[2]));
    }

    #[test]
    fn two_tier_tree_routes_through_core() {
        // Two edge switches with 10 hosts each, joined via a core switch.
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(20);
        let edge0 = b.add_switch(SwitchConfig::commodity_ethernet());
        let edge1 = b.add_switch(SwitchConfig::commodity_ethernet());
        let core = b.add_switch(SwitchConfig::commodity_ethernet());
        for &h in &hosts[..10] {
            b.link_host(h, edge0, LinkConfig::fast_ethernet());
        }
        for &h in &hosts[10..] {
            b.link_host(h, edge1, LinkConfig::fast_ethernet());
        }
        b.link_switches(edge0, core, LinkConfig::gigabit_ethernet());
        b.link_switches(edge1, core, LinkConfig::gigabit_ethernet());
        let topo = b.build().unwrap();
        assert_eq!(topo.hop_count(hosts[0], hosts[1]), 2); // same edge
        assert_eq!(topo.hop_count(hosts[0], hosts[15]), 4); // via core
    }

    #[test]
    fn parallel_uplinks_are_spread() {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(8);
        let edge0 = b.add_switch(SwitchConfig::commodity_ethernet());
        let edge1 = b.add_switch(SwitchConfig::commodity_ethernet());
        for &h in &hosts[..4] {
            b.link_host(h, edge0, LinkConfig::gigabit_ethernet());
        }
        for &h in &hosts[4..] {
            b.link_host(h, edge1, LinkConfig::gigabit_ethernet());
        }
        b.link_switches(edge0, edge1, LinkConfig::gigabit_ethernet());
        b.link_switches(edge0, edge1, LinkConfig::gigabit_ethernet());
        let topo = b.build().unwrap();
        // Cross-tree flows should not all use the same uplink transmitter.
        let used: std::collections::HashSet<TxId> = hosts[..4]
            .iter()
            .flat_map(|&a| hosts[4..].iter().map(move |&b| (a, b)))
            .map(|(a, b)| topo.route(a, b)[1])
            .collect();
        assert!(used.len() >= 2, "ECMP should spread across parallel links");
    }

    #[test]
    fn disconnected_host_is_an_error() {
        let mut b = TopologyBuilder::new();
        let _lonely = b.add_host();
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::DisconnectedHost(HostId::from_index(0))
        );
    }

    #[test]
    fn partitioned_fabric_is_an_error() {
        let mut b = TopologyBuilder::new();
        let h = b.add_hosts(2);
        let s0 = b.add_switch(SwitchConfig::commodity_ethernet());
        let s1 = b.add_switch(SwitchConfig::commodity_ethernet());
        b.link_host(h[0], s0, LinkConfig::gigabit_ethernet());
        b.link_host(h[1], s1, LinkConfig::gigabit_ethernet());
        assert!(matches!(b.build(), Err(TopologyError::Unreachable(..))));
    }

    #[test]
    fn empty_topology_is_an_error() {
        assert_eq!(
            TopologyBuilder::new().build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn a_fabric_too_big_to_index_is_an_error() {
        let mut b = TopologyBuilder::new();
        b.add_hosts(MAX_HOSTS + 1);
        let err = b.build().unwrap_err();
        assert_eq!(err, TopologyError::RouteTableOverflow(MAX_HOSTS + 1));
        assert!(err.to_string().contains("max 65536"), "{err}");
    }

    #[test]
    fn route_handles_are_destination_major() {
        let (topo, hosts) = star(3);
        let id = topo.route_id(hosts[2], hosts[1]);
        assert_eq!(id.index(), 3 + 2);
        assert_eq!(topo.route_dst(id), hosts[1]);
        assert_eq!(topo.route_slice(id), topo.route(hosts[2], hosts[1]));
    }

    #[test]
    #[should_panic(expected = "no route from a host to itself")]
    fn self_route_panics() {
        let (topo, hosts) = star(2);
        let _ = topo.route(hosts[0], hosts[0]);
    }

    #[test]
    fn io_bus_adds_two_hops_and_shares_a_serializer() {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(2);
        let sw = b.add_switch(SwitchConfig::lossless_fabric());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::myrinet_2000());
        }
        b.host_io_bus(250e6, 500);
        let topo = b.build().unwrap();
        // host → bus → switch → bus' → host': 4 transmitters.
        assert_eq!(topo.hop_count(hosts[0], hosts[1]), 4);
        let fwd = topo.route(hosts[0], hosts[1]);
        let rev = topo.route(hosts[1], hosts[0]);
        // Host 0's outbound bus hop and its inbound bus hop (last hop of
        // the reverse route) share one serializer.
        let out_slot = topo.tx_params[fwd[0].index()].serializer;
        let in_slot = topo.tx_params[rev[3].index()].serializer;
        assert_eq!(out_slot, in_slot, "bus is half-duplex");
        // The wire hops do not share.
        assert_ne!(
            topo.tx_params[fwd[1].index()].serializer,
            topo.tx_params[rev[2].index()].serializer
        );
        assert_eq!(topo.tx_params[fwd[3].index()].to, Endpoint::Host(hosts[1]));
    }

    #[test]
    fn routes_are_stable_across_builds() {
        let (t1, hosts) = star(5);
        let (t2, _) = star(5);
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    assert_eq!(t1.route(a, b), t2.route(a, b));
                }
            }
        }
    }
}
