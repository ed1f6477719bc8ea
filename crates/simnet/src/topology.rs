//! Topology construction and static routing.
//!
//! A topology is a bipartite-ish graph of hosts and switches joined by
//! full-duplex links. Each link direction becomes one *transmitter*
//! ([`TxParams`]): the serialization point with a queue charged against a
//! buffer pool (the sending host's NIC buffer, or the sending switch's
//! shared memory).
//!
//! Routing is static: shortest path by hop count. Equal-cost choices are
//! resolved by deterministic per-flow ECMP hashing (parallel uplinks and
//! fat-tree cores load-balance the way switch hashing would), or, on
//! mesh/torus fabrics whose generators supply per-switch coordinates
//! ([`TopologyBuilder::set_switch_coords`]), by dimension-ordered (e-cube)
//! selection: among equal-cost next hops, correct the lowest-indexed
//! mismatched coordinate dimension first. Host-side hops fall back to ECMP
//! hashing, and on an even-sized ring's exact midpoint both wrap
//! directions are minimal and the tie resolves to link-creation order.
//!
//! No route is stored. A host hangs off the fabric by a chain of single
//! links — host, then its I/O bus stage if any, then a switch — and the
//! node the chain reaches is its *attachment root* (the host itself when
//! it has more than one link). Every path into a host runs down its
//! chain, so the build runs one BFS per root, over the nodes off every
//! chain, and keeps per node only its hop distance to the root and where
//! its links one hop closer lie. [`Topology::route`] walks a route on
//! demand from that table, one hop at a time, with the pick rules above;
//! memory grows with roots × switches, not with host pairs × hops.

use crate::config::{LinkConfig, SwitchConfig};
use crate::ids::{HostId, PoolId, SwitchId, TxId};

/// The most hosts a topology may have. The engines number per-pair work
/// in `u32`: a fluid world's messages are `u32` ids, and a full
/// all-to-all over `n` hosts is `n·(n − 1)` of them, which fits only up
/// to 2¹⁶ hosts.
pub const MAX_HOSTS: usize = 1 << 16;

/// Hop distance of a node its root's BFS never reached.
const UNREACHED: u16 = u16::MAX;

/// A routing node's entry in one root's table.
#[derive(Debug, Clone, Copy)]
struct Toward {
    /// Hop distance to the root.
    dist: u16,
    /// How many of the node's links lead one hop closer: the fan-out a
    /// walk picks among there.
    closer: u16,
    /// The span `first..end` of the node's links holding them all; when
    /// its length is `closer` they are exactly the span, and a pick is one
    /// index (tree up-links are created side by side).
    first: u16,
    end: u16,
}

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
    /// Serialization slot: an index into [`Topology::serializers`].
    /// Normally private to the transmitter, but a host's I/O-bus
    /// transmitters share one slot in both directions, modeling a DMA
    /// engine that cannot overlap send and receive at full rate (the
    /// practical violation of 1-port *full-duplex* on Myrinet hosts).
    pub serializer: u32,
    /// Receiving end of the wire.
    pub to: Endpoint,
}

/// One serialization slot, numbered densely in the order of its first
/// member: the transmitters it serves and what they share.
#[derive(Debug, Clone, Copy)]
pub struct Serializer {
    /// Its first member; a host I/O bus slot also serves the next
    /// transmitter, the bus link's other direction.
    pub first_tx: TxId,
    /// 1, or 2 for a bus slot.
    pub n_members: u8,
    /// Bytes/second: `1e9 / ns_per_byte` of every member.
    pub capacity: f64,
    /// One-way latency in nanoseconds, every member's.
    pub latency_ns: u64,
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
    /// A fabric of this many hosts outgrows what routing can index: more
    /// than [`MAX_HOSTS`] hosts, a shortest path of `u16::MAX - 1` hops or
    /// more, or a node with more than `u16::MAX` links.
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
/// Routes are walked on demand ([`Topology::route`]) from one table of hop
/// distances per attachment root (see the module doc); nothing is stored
/// per host pair.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of hosts.
    pub n_hosts: usize,
    /// Static transmitter parameters, indexed by [`TxId`]. A link's two
    /// directions are transmitters `2k` and `2k + 1`, in link order, so the
    /// sender of transmitter `i` is the receiver of `i ^ 1`.
    pub tx_params: Vec<TxParams>,
    /// Buffer-pool capacities in bytes, indexed by [`PoolId`]: one per
    /// host, then one per switch.
    pub pool_capacity: Vec<u64>,
    /// The serialization slots, indexed by [`TxParams::serializer`]: one
    /// per transmitter, less one per host I/O bus link. Both engines read
    /// them here and work out no slot of their own.
    pub serializers: Vec<Serializer>,
    /// Per host: its attachment chain and the table of its root.
    attach: Vec<Attachment>,
    /// Routing node (a node off every chain) → graph node index (hosts,
    /// then switches, then bus stages), which the ECMP hash mixes in.
    node_of: Vec<u32>,
    /// `node_of.len() + 1` offsets into `links`, per routing node.
    link_start: Vec<u32>,
    /// Each routing node's links to other routing nodes, in link-creation
    /// order: the transmitter and the routing node it reaches.
    links: Vec<(TxId, u32)>,
    /// One row of `node_of.len()` entries per attachment root; the
    /// distance is [`UNREACHED`] where no path exists.
    tables: Vec<Toward>,
    /// Per-switch `[x, y, z]` coordinates; empty unless routing is
    /// dimension-ordered.
    switch_coords: Vec<[u16; 3]>,
}

/// How a host hangs off the fabric.
#[derive(Debug, Clone, Copy)]
struct Attachment {
    /// Routing-node index of the attachment root.
    root: u32,
    /// Row of `Topology::tables` holding the distances to `root`.
    table: u32,
    /// The chain's links from the host up to its root; the walk down uses
    /// their reverse directions.
    up: [TxId; 2],
    /// Chain length in hops: 0 when the host is its own root.
    depth: u8,
}

impl Topology {
    /// The forward route (sequence of transmitters) from `src` to `dst`,
    /// walked as it is read.
    ///
    /// # Panics
    /// Panics if `src == dst`; self-routes do not exist.
    pub fn route(&self, src: HostId, dst: HostId) -> Route<'_> {
        let hops = self.hop_count(src, dst);
        let (s, d) = (self.attach[src.index()], self.attach[dst.index()]);
        let n = self.node_of.len();
        Route {
            topo: self,
            src: src.index(),
            dst: dst.index(),
            s,
            d,
            table: &self.tables[d.table as usize * n..][..n],
            at: s.root as usize,
            taken: 0,
            hops,
        }
    }

    /// Number of hops (transmitters) between two hosts: up the source's
    /// chain, across to the destination's root, down its chain.
    ///
    /// # Panics
    /// Panics if `src == dst`; self-routes do not exist.
    pub fn hop_count(&self, src: HostId, dst: HostId) -> usize {
        assert_ne!(src, dst, "no route from a host to itself");
        let (s, d) = (&self.attach[src.index()], &self.attach[dst.index()]);
        let across = self.tables[d.table as usize * self.node_of.len() + s.root as usize].dist;
        usize::from(s.depth) + usize::from(across) + usize::from(d.depth)
    }

    /// The hop a walk toward the root of `table` takes from routing node
    /// `at`: among the links one hop closer, in link order, the
    /// dimension-ordered pick when `at` is a switch with coordinates, else
    /// the one the ECMP hash of `(src, dst, at)` names.
    fn next_hop(&self, table: &[Toward], at: usize, src: usize, dst: usize) -> (TxId, usize) {
        let here = table[at];
        let start = self.link_start[at] as usize;
        let span = &self.links[start + usize::from(here.first)..start + usize::from(here.end)];
        if let [(tx, next)] = *span {
            // The one closer link: every pick rule agrees.
            return (tx, next as usize);
        }
        let mut closer = span
            .iter()
            .filter(|&&(_, v)| table[v as usize].dist < here.dist);
        let node = self.node_of[at] as usize;
        let pick = match self.coord(node) {
            // Correct the lowest mismatched dimension first (BFS already
            // restricted candidates to minimal moves); creation order
            // breaks exact-midpoint wrap ties. Hops off the coordinate
            // grid sort after every real dimension.
            Some(a) => closer.min_by_key(|&&(tx, v)| {
                let dim = match self.coord(self.node_of[v as usize] as usize) {
                    Some(c) => (0..3).find(|&d| a[d] != c[d]).unwrap_or(3),
                    None => 3,
                };
                (dim, tx.index())
            }),
            // ECMP-style deterministic spreading over equal-cost next hops
            // and parallel links.
            None => {
                let k = match u64::from(here.closer) {
                    1 => 0,
                    n => (fxhash(src as u64, dst as u64, node as u64) % n) as usize,
                };
                if span.len() == usize::from(here.closer) {
                    span.get(k)
                } else {
                    closer.nth(k)
                }
            }
        };
        let &(tx, next) = pick.expect("a reached node has a closer neighbour");
        (tx, next as usize)
    }

    /// Coordinates of graph node `node`, if it is a switch that has some.
    fn coord(&self, node: usize) -> Option<[u16; 3]> {
        let switch = node.checked_sub(self.n_hosts)?;
        self.switch_coords.get(switch).copied()
    }
}

/// A route being walked: an iterator over its transmitters, from the
/// source's first hop to the one that lands on the destination host.
#[derive(Debug, Clone)]
pub struct Route<'a> {
    topo: &'a Topology,
    src: usize,
    dst: usize,
    /// The source's chain, walked up first, and the destination's, walked
    /// down last.
    s: Attachment,
    d: Attachment,
    /// The destination's root's table, per routing node.
    table: &'a [Toward],
    /// The routing node the walk stands on once off the source's chain.
    at: usize,
    taken: usize,
    hops: usize,
}

impl Iterator for Route<'_> {
    type Item = TxId;

    #[inline]
    fn next(&mut self) -> Option<TxId> {
        let left = self.hops - self.taken;
        if left == 0 {
            return None;
        }
        let tx = if self.taken < usize::from(self.s.depth) {
            self.s.up[self.taken]
        } else if left <= usize::from(self.d.depth) {
            // The reverse direction of the destination's chain link, root
            // end first.
            TxId(self.d.up[left - 1].0 ^ 1)
        } else {
            let (tx, next) = self.topo.next_hop(self.table, self.at, self.src, self.dst);
            self.at = next;
            tx
        };
        self.taken += 1;
        Some(tx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.hops - self.taken;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Route<'_> {}

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

    /// Builds the fabric: creates transmitters and pools, finds each
    /// host's attachment root, runs one BFS per root and verifies
    /// connectivity. Routes themselves are walked later, on demand.
    ///
    /// A topology is a **pure function of the builder**: nothing here is
    /// seeded or randomized (ECMP spreading is a fixed hash of the flow's
    /// endpoints), so two builds of one builder — or of two builders
    /// assembled the same way — yield identical transmitters and routes.
    /// Callers that run many simulations over one fabric should build it
    /// once and share it (`Arc<Topology>`); the per-root BFS costs
    /// roots × routing links, which on a big fabric is still the bulk of
    /// setting a run up.
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

        // Transmitters + adjacency, and the slots: one per transmitter, but
        // one per bus link, whose two directions share it.
        let mut tx_params: Vec<TxParams> = Vec::with_capacity(edges.len() * 2);
        let mut serializers: Vec<Serializer> = Vec::with_capacity(edges.len() * 2);
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
            for (k, (from, to_node)) in [(edge.a, edge.b), (edge.b, edge.a)].into_iter().enumerate()
            {
                let (from_i, to_i) = (node_idx(from), node_idx(to_node));
                let tx = TxId::from_index(tx_params.len());
                if k == 0 || !edge.shared_serializer {
                    serializers.push(Serializer {
                        first_tx: tx,
                        n_members: 1 + u8::from(edge.shared_serializer),
                        capacity: 1e9 / ns_per_byte,
                        latency_ns: edge.config.latency_ns,
                    });
                }
                tx_params.push(TxParams {
                    ns_per_byte,
                    latency_ns: edge.config.latency_ns,
                    pool: PoolId::from_index(pool_of(from)),
                    port_cap_bytes: port_cap_of(from),
                    serializer: (serializers.len() - 1) as u32,
                    to: endpoint(to_node),
                });
                adjacency[from_i].push((tx, to_i));
            }
        }

        for (h, adj) in adjacency.iter().take(n_hosts).enumerate() {
            if adj.is_empty() {
                return Err(TopologyError::DisconnectedHost(HostId::from_index(h)));
            }
        }

        if !self.switch_coords.is_empty() {
            assert_eq!(
                self.switch_coords.len(),
                n_switches,
                "dimension-ordered routing needs one coordinate per switch"
            );
        }

        // Attachment chains: a host with one link climbs it, and its bus
        // stage climbs on when it has exactly one link besides the host's.
        // A chain node is a dead end for every other route, so the
        // distance to a host is its root's distance plus the chain, and
        // off the chain its next hops are its root's.
        let mut on_chain = vec![false; n_nodes];
        let mut chains: Vec<(usize, [TxId; 2], u8)> = Vec::with_capacity(n_hosts);
        for host in 0..n_hosts {
            let (mut at, mut from) = (host, usize::MAX);
            let mut up = [TxId(0); 2];
            let mut depth = 0;
            while depth == 0 || (depth == 1 && has_bus) {
                let mut onward = adjacency[at].iter().filter(|&&(_, v)| v != from);
                let (Some(&(tx, next)), None) = (onward.next(), onward.next()) else {
                    break;
                };
                on_chain[at] = true;
                up[depth] = tx;
                depth += 1;
                (from, at) = (at, next);
            }
            chains.push((at, up, depth as u8));
        }

        // The routing graph: every node off the chains, with the links
        // between such nodes in the adjacency's (link-creation) order.
        let mut routing_index = vec![u32::MAX; n_nodes];
        let mut node_of = Vec::new();
        for node in (0..n_nodes).filter(|&n| !on_chain[n]) {
            routing_index[node] = node_of.len() as u32;
            node_of.push(node as u32);
        }
        let n_routing = node_of.len();
        let mut link_start = Vec::with_capacity(n_routing + 1);
        let mut links: Vec<(TxId, u32)> = Vec::new();
        for &node in &node_of {
            link_start.push(links.len() as u32);
            links.extend(
                adjacency[node as usize]
                    .iter()
                    .filter(|&&(_, v)| !on_chain[v])
                    .map(|&(tx, v)| (tx, routing_index[v])),
            );
        }
        link_start.push(links.len() as u32);
        drop(adjacency);

        // One distance table per attachment root, in order of first use.
        let mut table_of = vec![u32::MAX; n_routing];
        let mut roots: Vec<usize> = Vec::new();
        let attach: Vec<Attachment> = chains
            .into_iter()
            .map(|(root_node, up, depth)| {
                let root = routing_index[root_node];
                if table_of[root as usize] == u32::MAX {
                    table_of[root as usize] = roots.len() as u32;
                    roots.push(root as usize);
                }
                Attachment {
                    root,
                    table: table_of[root as usize],
                    up,
                    depth,
                }
            })
            .collect();
        let unreached = Toward {
            dist: UNREACHED,
            closer: 0,
            first: 0,
            end: 0,
        };
        let mut tables = vec![unreached; roots.len() * n_routing];
        let mut queue = std::collections::VecDeque::new();
        for (row, &root) in tables.chunks_exact_mut(n_routing).zip(&roots) {
            row[root].dist = 0;
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                let d = row[u].dist + 1;
                for &(_, v) in &links[link_start[u] as usize..link_start[u + 1] as usize] {
                    if row[v as usize].dist == UNREACHED {
                        if d == UNREACHED {
                            return Err(overflow);
                        }
                        row[v as usize].dist = d;
                        queue.push_back(v as usize);
                    }
                }
            }
            for u in 0..n_routing {
                let here = row[u].dist;
                if here == UNREACHED {
                    continue;
                }
                let (mut count, mut first, mut end) = (0, 0, 0);
                let node_links = &links[link_start[u] as usize..link_start[u + 1] as usize];
                for (i, &(_, v)) in node_links.iter().enumerate() {
                    if row[v as usize].dist < here {
                        first = if count == 0 { i } else { first };
                        (count, end) = (count + 1, i + 1);
                    }
                }
                let narrow = |x: usize| u16::try_from(x).map_err(|_| overflow.clone());
                row[u].closer = narrow(count)?;
                row[u].first = narrow(first)?;
                row[u].end = narrow(end)?;
            }
        }
        // Paths are symmetric, so every host reaches every other exactly
        // when every host reaches host 0.
        let to_first = &tables[attach[0].table as usize * n_routing..][..n_routing];
        if let Some(src) = attach
            .iter()
            .position(|a| to_first[a.root as usize].dist == UNREACHED)
        {
            return Err(TopologyError::Unreachable(
                HostId::from_index(src),
                HostId::from_index(0),
            ));
        }

        Ok(Topology {
            n_hosts,
            tx_params,
            pool_capacity,
            serializers,
            attach,
            node_of,
            link_start,
            links,
            tables,
            switch_coords: self.switch_coords.clone(),
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
        let route: Vec<TxId> = topo.route(hosts[0], hosts[2]).collect();
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
            .map(|(a, b)| topo.route(a, b).nth(1).expect("four hops"))
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
    fn a_path_too_long_for_16_bit_distances_is_an_error() {
        // Hop distances are `u16` with `u16::MAX` meaning unreached, so a
        // line of 65 536 switches (end-to-end distance 65 535) is one too
        // many; a line one switch shorter builds.
        for (switches, fits) in [(1 << 16, false), ((1 << 16) - 1, true)] {
            let mut b = TopologyBuilder::new();
            let hosts = b.add_hosts(2);
            let line: Vec<SwitchId> = (0..switches)
                .map(|_| b.add_switch(SwitchConfig::commodity_ethernet()))
                .collect();
            for pair in line.windows(2) {
                b.link_switches(pair[0], pair[1], LinkConfig::gigabit_ethernet());
            }
            b.link_host(hosts[0], line[0], LinkConfig::gigabit_ethernet());
            b.link_host(hosts[1], line[switches - 1], LinkConfig::gigabit_ethernet());
            match b.build() {
                Ok(topo) => {
                    assert!(fits);
                    assert_eq!(topo.hop_count(hosts[0], hosts[1]), switches + 1);
                }
                Err(err) => {
                    assert!(!fits);
                    assert_eq!(err, TopologyError::RouteTableOverflow(2));
                }
            }
        }
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
        let fwd: Vec<TxId> = topo.route(hosts[0], hosts[1]).collect();
        let rev: Vec<TxId> = topo.route(hosts[1], hosts[0]).collect();
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
                    assert!(t1.route(a, b).eq(t2.route(a, b)), "{a}->{b}");
                }
            }
        }
    }
}
