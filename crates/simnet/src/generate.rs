//! Parameterized topology generators.
//!
//! The paper measures three hand-built single-core clusters; the scenario
//! engine (`contention-scenario`) needs whole *families* of fabrics. Each
//! generator returns a [`Generated`]: a ready-to-`build` [`TopologyBuilder`]
//! plus the host ids grouped by their edge switch, so callers can place
//! ranks (packed or scattered) and inspect the structure.
//!
//! Generators provided:
//!
//! * [`single_switch`] — `n` hosts on one switch (the paper's Myrinet /
//!   small-job shape);
//! * [`star_of_switches`] — leaf switches around one core, with explicit
//!   uplink parameters (the paper's Fast Ethernet shape);
//! * [`two_level_tree`] — leaf switches under one core where the uplink
//!   capacity is **derived from an oversubscription ratio**: total host
//!   bandwidth per leaf = `oversubscription ×` total uplink bandwidth;
//! * [`fat_tree`] — a k-ary fat-tree (k pods of k/2 edge + k/2 aggregation
//!   switches, (k/2)² cores) with a configurable number of hosts per edge
//!   switch;
//! * [`torus`] — wrap-around 2-D / 3-D switch meshes with
//!   dimension-ordered (e-cube) routing, the HPC fabrics where partition
//!   shape decides which contention is avoidable at all (Oltchik &
//!   Toledo 2020);
//! * [`dragonfly`] — groups of fully-meshed routers joined by single
//!   global links, minimal-path routed: the fabric whose global links the
//!   adversarial placements saturate.
//!
//! Rank placement onto generated hosts is a [`Placement`] policy —
//! scatter (round-robin across edge groups), pack (fill groups in order)
//! or a seeded random partial permutation — instead of the scatter rule
//! being hard-coded into every caller.
//!
//! ## One owner per family
//!
//! Everything that is a *fact about a family* lives on its `*Params`
//! struct, here and nowhere else: the parameters themselves, `check()`
//! (every precondition of the generator, each failure naming the
//! offending field — the generator asserts through it, and the scenario
//! tier surfaces the same message as a spec error, so a parameter set
//! that validates is one that generates; links and switches go by the
//! names the TOML format spells them with), `capacity()` (the host count,
//! in checked arithmetic) and `switches()` (the named buffers).
//!
//! Adding a fabric family therefore has three edit sites:
//!
//! 1. this module — the `*Params` struct with `check`, `capacity`,
//!    `switches`, and the generator function;
//! 2. `contention_scenario::spec::TopologySpec` — a variant holding the
//!    params, its report `kind` string, and one delegating arm in each of
//!    `TopologySpec::{check, switches}`,
//!    `contention_scenario::topology::capacity` and `Fabric::build`;
//! 3. `contention_scenario::spec::{decode_topology, encode_topology}` —
//!    the variant's TOML key list.

use crate::config::{LinkConfig, SwitchConfig};
use crate::ids::{HostId, SwitchId};
use crate::topology::{TopologyBuilder, MAX_HOSTS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A generator's output: the builder (not yet built, so callers can still
/// attach a host I/O bus or extra links) plus structural metadata.
pub struct Generated {
    /// The assembled builder.
    pub builder: TopologyBuilder,
    /// All hosts in creation order.
    pub hosts: Vec<HostId>,
    /// Hosts grouped by the edge switch they attach to.
    pub host_groups: Vec<Vec<HostId>>,
    /// Edge (leaf) switches.
    pub edge_switches: Vec<SwitchId>,
    /// Aggregation switches (fat-tree only; empty otherwise).
    pub agg_switches: Vec<SwitchId>,
    /// Core switches (empty for a single switch).
    pub core_switches: Vec<SwitchId>,
}

impl Generated {
    /// Total host capacity.
    pub fn capacity(&self) -> usize {
        self.hosts.len()
    }

    /// The first `n` hosts taken round-robin across edge switches — the
    /// scatter placement a batch scheduler produces and the placement the
    /// paper's presets use.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`Generated::capacity`].
    pub fn scattered_hosts(&self, n: usize) -> Vec<HostId> {
        assert!(
            n <= self.capacity(),
            "{n} ranks exceed the fabric's {} hosts",
            self.capacity()
        );
        let mut picked = Vec::with_capacity(n);
        let mut depth = 0;
        while picked.len() < n {
            for group in &self.host_groups {
                if picked.len() == n {
                    break;
                }
                if let Some(&h) = group.get(depth) {
                    picked.push(h);
                }
            }
            depth += 1;
        }
        picked
    }

    /// The first `n` hosts taken group-by-group (edge switch by edge
    /// switch) — the placement a locality-greedy batch scheduler
    /// produces, and the adversarial one on dragonflies (packed groups
    /// funnel all cross-traffic through single global links).
    ///
    /// # Panics
    /// Panics if `n` exceeds [`Generated::capacity`].
    pub fn packed_hosts(&self, n: usize) -> Vec<HostId> {
        assert!(
            n <= self.capacity(),
            "{n} ranks exceed the fabric's {} hosts",
            self.capacity()
        );
        self.host_groups
            .iter()
            .flat_map(|group| group.iter().copied())
            .take(n)
            .collect()
    }

    /// `n` hosts drawn as a seeded random partial permutation of the
    /// fabric — the placement a fragmented batch queue produces.
    /// Deterministic per seed.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`Generated::capacity`].
    pub fn random_hosts(&self, n: usize, seed: u64) -> Vec<HostId> {
        assert!(
            n <= self.capacity(),
            "{n} ranks exceed the fabric's {} hosts",
            self.capacity()
        );
        let mut pool = self.hosts.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        pool.shuffle(&mut rng);
        pool.truncate(n);
        pool
    }
}

/// How scenario ranks map onto a generated fabric's hosts. Replaces the
/// scatter rule previously hard-coded into every caller; threaded through
/// the scenario spec, the TOML format and the `ctnsim` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Round-robin across edge groups ([`Generated::scattered_hosts`]) —
    /// the historical default every pre-existing scenario keeps.
    #[default]
    Scatter,
    /// Fill edge groups in order ([`Generated::packed_hosts`]).
    Pack,
    /// Seeded random partial permutation ([`Generated::random_hosts`]).
    RandomSeeded,
}

impl Placement {
    /// Every policy, in presentation order.
    pub fn all() -> [Placement; 3] {
        [Placement::Scatter, Placement::Pack, Placement::RandomSeeded]
    }

    /// The stable spec/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Scatter => "scatter",
            Placement::Pack => "pack",
            Placement::RandomSeeded => "random",
        }
    }

    /// Parses a spec/CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Placement::all().into_iter().find(|p| p.name() == name)
    }

    /// Places `n` ranks onto the fabric. `seed` only affects
    /// [`Placement::RandomSeeded`].
    ///
    /// # Panics
    /// Panics if `n` exceeds [`Generated::capacity`].
    pub fn place(&self, g: &Generated, n: usize, seed: u64) -> Vec<HostId> {
        match self {
            Placement::Scatter => g.scattered_hosts(n),
            Placement::Pack => g.packed_hosts(n),
            Placement::RandomSeeded => g.random_hosts(n, seed),
        }
    }
}

/// Every named count must be at least 1.
fn check_counts(counts: &[(&str, usize)]) -> Result<(), String> {
    match counts.iter().find(|(_, count)| *count == 0) {
        Some((name, _)) => Err(format!("{name} must be at least 1")),
        None => Ok(()),
    }
}

/// Every named link needs a positive finite bandwidth and every named
/// switch non-empty buffers — the conditions the engine divides by.
fn check_wires(
    links: &[(&str, LinkConfig)],
    switches: &[(&str, SwitchConfig)],
) -> Result<(), String> {
    for (name, l) in links {
        if !(l.bandwidth_bytes_per_sec.is_finite() && l.bandwidth_bytes_per_sec > 0.0) {
            return Err(format!(
                "{name}.bandwidth_bytes_per_sec must be positive and finite, got {}",
                l.bandwidth_bytes_per_sec
            ));
        }
    }
    for (name, s) in switches {
        if s.shared_buffer_bytes == 0 || s.per_port_cap_bytes == 0 {
            return Err(format!(
                "{name}.shared_buffer_bytes and {name}.per_port_cap_bytes must be positive"
            ));
        }
    }
    Ok(())
}

/// The product of `factors` as a host count, `None` on overflow.
fn checked_product(factors: &[usize]) -> Option<usize> {
    factors
        .iter()
        .try_fold(1usize, |acc, &f| acc.checked_mul(f))
}

/// A family's host count `capacity`, checked against what a topology can
/// index ([`MAX_HOSTS`]); a failure names the count fields `fields` that
/// multiply to it.
///
/// This bounds indexing only. A fabric below the limit may still need more
/// memory than the machine has — its routing tables grow with attachment
/// roots × switches, quadratic in hosts when every switch has one — and
/// admitting a spec by its memory footprint is not done here.
fn check_hosts(capacity: Option<usize>, fields: &str) -> Result<usize, String> {
    match capacity {
        None => Err(format!("{fields} overflows the host count")),
        Some(hosts) if hosts > MAX_HOSTS => Err(format!(
            "{fields} = {hosts} exceeds the {MAX_HOSTS} hosts a topology can index"
        )),
        Some(hosts) => Ok(hosts),
    }
}

/// Parameters of a single-switch fabric (see [`single_switch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleSwitchParams {
    /// Host count (capacity).
    pub hosts: usize,
    /// Host ↔ switch link.
    pub link: LinkConfig,
    /// The switch.
    pub switch: SwitchConfig,
}

impl SingleSwitchParams {
    /// Total host capacity.
    pub fn capacity(&self) -> Option<usize> {
        Some(self.hosts)
    }

    /// The named switches, as the TOML format spells them.
    pub fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        vec![("switch", self.switch)]
    }

    /// Every precondition of [`single_switch`]; a failure names the field.
    pub fn check(&self) -> Result<(), String> {
        check_counts(&[("hosts", self.hosts)])?;
        check_hosts(self.capacity(), "hosts")?;
        check_wires(&[("link", self.link)], &self.switches())
    }
}

/// `p.hosts` hosts on a single switch.
///
/// # Panics
/// Panics if [`SingleSwitchParams::check`] fails.
pub fn single_switch(p: &SingleSwitchParams) -> Generated {
    p.check().unwrap_or_else(|e| panic!("single_switch: {e}"));
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(p.hosts);
    let sw = b.add_switch(p.switch);
    for &h in &hosts {
        b.link_host(h, sw, p.link);
    }
    Generated {
        builder: b,
        host_groups: vec![hosts.clone()],
        hosts,
        edge_switches: vec![sw],
        agg_switches: Vec::new(),
        core_switches: Vec::new(),
    }
}

/// Parameters of a star of switches (see [`star_of_switches`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarParams {
    /// Number of leaf switches.
    pub leaves: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Host ↔ leaf link.
    pub edge_link: LinkConfig,
    /// Leaf ↔ core link.
    pub uplink: LinkConfig,
    /// Parallel uplinks from each leaf to the core.
    pub uplinks_per_leaf: usize,
    /// Leaf switch buffering.
    pub edge_switch: SwitchConfig,
    /// Core switch buffering.
    pub core_switch: SwitchConfig,
}

impl StarParams {
    /// Total host capacity: `leaves · hosts_per_leaf`.
    pub fn capacity(&self) -> Option<usize> {
        checked_product(&[self.leaves, self.hosts_per_leaf])
    }

    /// The named switches, as the TOML format spells them.
    pub fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        vec![
            ("edge_switch", self.edge_switch),
            ("core_switch", self.core_switch),
        ]
    }

    /// Every precondition of [`star_of_switches`]; a failure names the
    /// field.
    pub fn check(&self) -> Result<(), String> {
        check_counts(&[
            ("leaves", self.leaves),
            ("hosts_per_leaf", self.hosts_per_leaf),
            ("uplinks_per_leaf", self.uplinks_per_leaf),
        ])?;
        check_hosts(self.capacity(), "leaves * hosts_per_leaf")?;
        check_wires(
            &[("edge_link", self.edge_link), ("uplink", self.uplink)],
            &self.switches(),
        )
    }
}

/// `leaves` leaf switches of `hosts_per_leaf` hosts each around one core
/// switch, `uplinks_per_leaf` parallel uplinks per leaf with explicit
/// `uplink` parameters.
///
/// # Panics
/// Panics if [`StarParams::check`] fails.
pub fn star_of_switches(p: &StarParams) -> Generated {
    p.check()
        .unwrap_or_else(|e| panic!("star_of_switches: {e}"));
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(p.leaves * p.hosts_per_leaf);
    let edges: Vec<SwitchId> = (0..p.leaves).map(|_| b.add_switch(p.edge_switch)).collect();
    let core = b.add_switch(p.core_switch);
    let mut host_groups = vec![Vec::with_capacity(p.hosts_per_leaf); p.leaves];
    for (i, &h) in hosts.iter().enumerate() {
        let leaf = i / p.hosts_per_leaf;
        b.link_host(h, edges[leaf], p.edge_link);
        host_groups[leaf].push(h);
    }
    for &e in &edges {
        for _ in 0..p.uplinks_per_leaf {
            b.link_switches(e, core, p.uplink);
        }
    }
    Generated {
        builder: b,
        hosts,
        host_groups,
        edge_switches: edges,
        agg_switches: Vec::new(),
        core_switches: vec![core],
    }
}

/// Parameters of an oversubscribed two-level tree (see [`two_level_tree`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Number of leaf switches.
    pub leaves: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Host ↔ leaf link.
    pub edge_link: LinkConfig,
    /// Parallel uplinks from each leaf to the core.
    pub uplinks_per_leaf: usize,
    /// Oversubscription ratio: total host bandwidth under a leaf divided
    /// by the leaf's total uplink bandwidth. `1.0` is non-blocking; the
    /// paper's GdX trunks are ≈ 3:1.
    pub oversubscription: f64,
    /// Extra one-way latency of each uplink, nanoseconds.
    pub uplink_latency_ns: u64,
    /// Leaf switch buffering.
    pub edge_switch: SwitchConfig,
    /// Core switch buffering.
    pub core_switch: SwitchConfig,
}

impl TreeParams {
    /// The derived per-uplink bandwidth in bytes/second.
    pub fn uplink_bandwidth(&self) -> f64 {
        self.hosts_per_leaf as f64 * self.edge_link.bandwidth_bytes_per_sec
            / (self.oversubscription * self.uplinks_per_leaf as f64)
    }

    /// The star of switches this tree is: same shape, with the uplink
    /// derived from the oversubscription ratio.
    pub fn star(&self) -> StarParams {
        StarParams {
            leaves: self.leaves,
            hosts_per_leaf: self.hosts_per_leaf,
            edge_link: self.edge_link,
            uplink: LinkConfig {
                bandwidth_bytes_per_sec: self.uplink_bandwidth(),
                latency_ns: self.uplink_latency_ns,
            },
            uplinks_per_leaf: self.uplinks_per_leaf,
            edge_switch: self.edge_switch,
            core_switch: self.core_switch,
        }
    }

    /// Total host capacity: `leaves · hosts_per_leaf`.
    pub fn capacity(&self) -> Option<usize> {
        self.star().capacity()
    }

    /// The named switches, as the TOML format spells them.
    pub fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        self.star().switches()
    }

    /// Every precondition of [`two_level_tree`]; a failure names the
    /// field. Beyond the ratio itself these are the star's, checked on
    /// the derived star (so a ratio that drives the uplink bandwidth to
    /// zero or infinity is caught as `uplink`).
    pub fn check(&self) -> Result<(), String> {
        if !(self.oversubscription.is_finite() && self.oversubscription > 0.0) {
            return Err(format!(
                "oversubscription must be positive and finite, got {}",
                self.oversubscription
            ));
        }
        self.star().check()
    }
}

/// A two-level tree whose uplink capacity is derived from
/// [`TreeParams::oversubscription`].
///
/// # Panics
/// Panics if [`TreeParams::check`] fails.
pub fn two_level_tree(p: &TreeParams) -> Generated {
    p.check().unwrap_or_else(|e| panic!("two_level_tree: {e}"));
    star_of_switches(&p.star())
}

/// Parameters of a k-ary fat-tree (see [`fat_tree`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeParams {
    /// Arity: `k` pods, `k/2` edge and `k/2` aggregation switches per pod,
    /// `(k/2)²` core switches. Must be even and ≥ 2.
    pub k: usize,
    /// Hosts per edge switch (the canonical fat-tree uses `k/2`).
    pub hosts_per_edge: usize,
    /// Link used at every level (fat-trees are bandwidth-uniform).
    pub link: LinkConfig,
    /// Buffering used for every switch.
    pub switch: SwitchConfig,
}

impl FatTreeParams {
    /// Total host capacity: `k · (k/2) · hosts_per_edge`.
    pub fn capacity(&self) -> Option<usize> {
        checked_product(&[self.k, self.k / 2, self.hosts_per_edge])
    }

    /// The named switches, as the TOML format spells them.
    pub fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        vec![("switch", self.switch)]
    }

    /// Every precondition of [`fat_tree`]; a failure names the field.
    pub fn check(&self) -> Result<(), String> {
        if self.k < 2 || !self.k.is_multiple_of(2) {
            return Err(format!("k must be even and at least 2, got {}", self.k));
        }
        check_counts(&[("hosts_per_edge", self.hosts_per_edge)])?;
        check_hosts(self.capacity(), "k * k/2 * hosts_per_edge")?;
        check_wires(&[("link", self.link)], &self.switches())
    }
}

/// A k-ary fat-tree: every pod's edge switches connect to all of the pod's
/// aggregation switches; aggregation switch `j` of every pod connects to
/// core group `j` (cores `j·k/2 .. (j+1)·k/2`). Same-edge pairs are 2 hops,
/// same-pod pairs 4 hops, cross-pod pairs 6 hops; equal-cost paths are
/// spread by the builder's deterministic ECMP hashing.
///
/// # Panics
/// Panics if [`FatTreeParams::check`] fails.
pub fn fat_tree(p: &FatTreeParams) -> Generated {
    p.check().unwrap_or_else(|e| panic!("fat_tree: {e}"));
    let half = p.k / 2;
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(p.k * half * p.hosts_per_edge);

    let mut edge_switches = Vec::with_capacity(p.k * half);
    let mut agg_switches = Vec::with_capacity(p.k * half);
    for _pod in 0..p.k {
        for _ in 0..half {
            edge_switches.push(b.add_switch(p.switch));
        }
        for _ in 0..half {
            agg_switches.push(b.add_switch(p.switch));
        }
    }
    let core_switches: Vec<SwitchId> = (0..half * half).map(|_| b.add_switch(p.switch)).collect();

    // Hosts onto edge switches, filling edge by edge.
    let mut host_groups = vec![Vec::with_capacity(p.hosts_per_edge); p.k * half];
    for (i, &h) in hosts.iter().enumerate() {
        let edge = i / p.hosts_per_edge;
        b.link_host(h, edge_switches[edge], p.link);
        host_groups[edge].push(h);
    }

    for pod in 0..p.k {
        for e in 0..half {
            for a in 0..half {
                b.link_switches(
                    edge_switches[pod * half + e],
                    agg_switches[pod * half + a],
                    p.link,
                );
            }
        }
        for a in 0..half {
            for c in 0..half {
                b.link_switches(
                    agg_switches[pod * half + a],
                    core_switches[a * half + c],
                    p.link,
                );
            }
        }
    }

    Generated {
        builder: b,
        hosts,
        host_groups,
        edge_switches,
        agg_switches,
        core_switches,
    }
}

/// Parameters of a wrap-around switch mesh (see [`torus`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TorusParams {
    /// Ring length per dimension; use `1` for unused dimensions (a 2-D
    /// torus is `[x, y, 1]`).
    pub dims: [usize; 3],
    /// Hosts attached to each switch.
    pub hosts_per_switch: usize,
    /// Link used for host and switch-to-switch wires alike.
    pub link: LinkConfig,
    /// Buffering of every switch.
    pub switch: SwitchConfig,
}

impl TorusParams {
    /// Total host capacity: `x · y · z · hosts_per_switch`.
    pub fn capacity(&self) -> Option<usize> {
        let [x, y, z] = self.dims;
        checked_product(&[x, y, z, self.hosts_per_switch])
    }

    /// The named switches, as the TOML format spells them.
    pub fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        vec![("switch", self.switch)]
    }

    /// Every precondition of [`torus`]; a failure names the field (the
    /// dimensions by their TOML names `x`, `y`, `z`).
    pub fn check(&self) -> Result<(), String> {
        let [x, y, z] = self.dims;
        let dims = [("x", x), ("y", y), ("z", z)];
        check_counts(&dims)?;
        check_counts(&[("hosts_per_switch", self.hosts_per_switch)])?;
        // Switch coordinates are stored as u16.
        if let Some((name, d)) = dims.into_iter().find(|&(_, d)| d > u16::MAX as usize) {
            return Err(format!("{name} must be at most {}, got {d}", u16::MAX));
        }
        let hosts = check_hosts(self.capacity(), "x * y * z * hosts_per_switch")?;
        if hosts / self.hosts_per_switch < 2 {
            return Err("x * y * z must be at least 2 switches".into());
        }
        check_wires(&[("link", self.link)], &self.switches())
    }
}

/// A torus of switches with [dimension-ordered] (e-cube) routing: switch
/// `(x, y, z)` joins its `±1` wrap-around neighbours along every dimension
/// of length ≥ 2 (a length-2 ring is a single link, not a doubled pair).
/// Routes correct the lowest-indexed mismatched dimension first, always
/// along the shorter wrap direction — the deterministic minimal routing of
/// classical k-ary n-cube machines.
///
/// ```text
///  (0,1)──(1,1)──(2,1)─┐        one host column per switch
///    │      │      │   │        (hosts_per_switch hosts)
///  (0,0)──(1,0)──(2,0)─┤
///    └──────┴──────┴───┘  ← wrap links close each ring
/// ```
///
/// [dimension-ordered]: crate::topology::TopologyBuilder::set_switch_coords
///
/// # Panics
/// Panics if [`TorusParams::check`] fails.
pub fn torus(p: &TorusParams) -> Generated {
    p.check().unwrap_or_else(|e| panic!("torus: {e}"));
    let [nx, ny, nz] = p.dims;
    let n_switches = nx * ny * nz;
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(n_switches * p.hosts_per_switch);
    let switches: Vec<SwitchId> = (0..n_switches).map(|_| b.add_switch(p.switch)).collect();
    // Switch s ↔ coordinate (x, y, z), x fastest.
    let index_of = |x: usize, y: usize, z: usize| x + nx * (y + ny * z);
    let mut coords = Vec::with_capacity(n_switches);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                coords.push([x as u16, y as u16, z as u16]);
            }
        }
    }

    let mut host_groups = vec![Vec::with_capacity(p.hosts_per_switch); n_switches];
    for (i, &h) in hosts.iter().enumerate() {
        let sw = i / p.hosts_per_switch;
        b.link_host(h, switches[sw], p.link);
        host_groups[sw].push(h);
    }

    for (s, &[x, y, z]) in coords.iter().enumerate() {
        let (x, y, z) = (x as usize, y as usize, z as usize);
        // +1 neighbour per dimension; a length-2 ring adds its single
        // link only from coordinate 0, a length-1 ring none at all.
        for (size, neighbor) in [
            (nx, index_of((x + 1) % nx, y, z)),
            (ny, index_of(x, (y + 1) % ny, z)),
            (nz, index_of(x, y, (z + 1) % nz)),
        ] {
            let add = s != neighbor && (size > 2 || neighbor > s);
            if add {
                b.link_switches(switches[s], switches[neighbor], p.link);
            }
        }
    }

    b.set_switch_coords(coords);
    Generated {
        builder: b,
        hosts,
        host_groups,
        edge_switches: switches,
        agg_switches: Vec::new(),
        core_switches: Vec::new(),
    }
}

/// Parameters of a dragonfly fabric (see [`dragonfly`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DragonflyParams {
    /// Number of groups (`g`).
    pub groups: usize,
    /// Routers per group (`a`), fully meshed within the group.
    pub routers_per_group: usize,
    /// Hosts attached to each router (`h`).
    pub hosts_per_router: usize,
    /// Host ↔ router link.
    pub host_link: LinkConfig,
    /// Intra-group (local mesh) link.
    pub local_link: LinkConfig,
    /// Inter-group (global) link.
    pub global_link: LinkConfig,
    /// Buffering of every router.
    pub switch: SwitchConfig,
}

impl DragonflyParams {
    /// Total host capacity: `g · a · h`.
    pub fn capacity(&self) -> Option<usize> {
        checked_product(&[self.groups, self.routers_per_group, self.hosts_per_router])
    }

    /// The named switches, as the TOML format spells them.
    pub fn switches(&self) -> Vec<(&'static str, SwitchConfig)> {
        vec![("switch", self.switch)]
    }

    /// Every precondition of [`dragonfly`]; a failure names the field.
    pub fn check(&self) -> Result<(), String> {
        check_counts(&[
            ("groups", self.groups),
            ("routers_per_group", self.routers_per_group),
            ("hosts_per_router", self.hosts_per_router),
        ])?;
        let hosts = check_hosts(
            self.capacity(),
            "groups * routers_per_group * hosts_per_router",
        )?;
        if hosts / self.hosts_per_router < 2 {
            return Err("groups * routers_per_group must be at least 2 routers".into());
        }
        let links = [
            ("host_link", self.host_link),
            ("local_link", self.local_link),
            ("global_link", self.global_link),
        ];
        check_wires(&links, &self.switches())
    }
}

/// A dragonfly: `g` groups of `a` fully-meshed routers with `h` hosts
/// each; every *pair of groups* is joined by exactly one global link,
/// attached round-robin to the groups' routers so global connectivity
/// spreads evenly. Routing is minimal-path (the builder's BFS) with
/// deterministic ECMP over equal-cost choices — up to
/// `local → global → local`, the canonical dragonfly minimal route.
///
/// ```text
///   group 0          group 1          group 2
///  ┌r0──r1┐         ┌r0──r1┐         ┌r0──r1┐
///  │ ╲  ╱ │  ═══════│ ╲  ╱ │═══════  │ ╲  ╱ │   ── local mesh
///  └r3──r2┘         └r3──r2┘         └r3──r2┘   ══ one global link
///      ╚════════════════════════════════╝          per group pair
/// ```
///
/// # Panics
/// Panics if [`DragonflyParams::check`] fails.
pub fn dragonfly(p: &DragonflyParams) -> Generated {
    p.check().unwrap_or_else(|e| panic!("dragonfly: {e}"));
    let (g, a, h) = (p.groups, p.routers_per_group, p.hosts_per_router);
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(g * a * h);
    let routers: Vec<SwitchId> = (0..g * a).map(|_| b.add_switch(p.switch)).collect();

    let mut host_groups = vec![Vec::with_capacity(h); g * a];
    for (i, &host) in hosts.iter().enumerate() {
        let r = i / h;
        b.link_host(host, routers[r], p.host_link);
        host_groups[r].push(host);
    }

    // Local full mesh within each group.
    for group in 0..g {
        for i in 0..a {
            for j in (i + 1)..a {
                b.link_switches(routers[group * a + i], routers[group * a + j], p.local_link);
            }
        }
    }
    // One global link per group pair, endpoints rotating through each
    // group's routers so every router carries ⌈(g−1)/a⌉ global links.
    for gi in 0..g {
        for gj in (gi + 1)..g {
            let ri = routers[gi * a + (gj - gi - 1) % a];
            let rj = routers[gj * a + (g + gi - gj - 1) % a];
            b.link_switches(ri, rj, p.global_link);
        }
    }

    Generated {
        builder: b,
        hosts,
        host_groups,
        edge_switches: routers,
        agg_switches: Vec::new(),
        core_switches: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Endpoint;

    fn gbe() -> LinkConfig {
        LinkConfig::gigabit_ethernet()
    }

    fn sw() -> SwitchConfig {
        SwitchConfig::commodity_ethernet()
    }

    fn star(leaves: usize, hosts_per_leaf: usize, uplinks_per_leaf: usize) -> StarParams {
        StarParams {
            leaves,
            hosts_per_leaf,
            edge_link: gbe(),
            uplink: gbe(),
            uplinks_per_leaf,
            edge_switch: sw(),
            core_switch: sw(),
        }
    }

    #[test]
    fn single_switch_is_a_star() {
        let g = single_switch(&SingleSwitchParams {
            hosts: 5,
            link: gbe(),
            switch: sw(),
        });
        assert_eq!(g.capacity(), 5);
        let topo = g.builder.build().unwrap();
        assert_eq!(topo.hop_count(g.hosts[0], g.hosts[4]), 2);
    }

    #[test]
    fn star_of_switches_routes_via_core() {
        let g = star_of_switches(&star(3, 4, 2));
        assert_eq!(g.capacity(), 12);
        assert_eq!(g.host_groups.len(), 3);
        let (h0, h1, h4) = (g.hosts[0], g.hosts[1], g.hosts[4]);
        let topo = g.builder.build().unwrap();
        assert_eq!(topo.hop_count(h0, h1), 2, "same leaf");
        assert_eq!(topo.hop_count(h0, h4), 4, "via core");
    }

    #[test]
    fn tree_uplink_bandwidth_implements_oversubscription() {
        let p = TreeParams {
            leaves: 4,
            hosts_per_leaf: 8,
            edge_link: gbe(),
            uplinks_per_leaf: 2,
            oversubscription: 4.0,
            uplink_latency_ns: 10_000,
            edge_switch: sw(),
            core_switch: sw(),
        };
        // 8 hosts × 125 MB/s = 1 GB/s under each leaf; 4:1 oversubscribed
        // over 2 uplinks → 125 MB/s each.
        assert!((p.uplink_bandwidth() - 125e6).abs() < 1.0);
        let g = two_level_tree(&p);
        let topo = g.builder.build().unwrap();
        assert_eq!(topo.hop_count(g.hosts[0], g.hosts[31]), 4);
    }

    #[test]
    fn fat_tree_structure_and_hop_classes() {
        let p = FatTreeParams {
            k: 4,
            hosts_per_edge: 2,
            link: gbe(),
            switch: sw(),
        };
        let g = fat_tree(&p);
        assert_eq!(g.capacity(), 16);
        assert_eq!(g.edge_switches.len(), 8);
        assert_eq!(g.agg_switches.len(), 8);
        assert_eq!(g.core_switches.len(), 4);
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        assert_eq!(topo.hop_count(hosts[0], hosts[1]), 2, "same edge");
        assert_eq!(topo.hop_count(hosts[0], hosts[2]), 4, "same pod");
        assert_eq!(topo.hop_count(hosts[0], hosts[15]), 6, "cross pod");
        // Last hop of any route terminates at the destination host.
        let last = topo.route(hosts[0], hosts[15]).last().expect("six hops");
        assert_eq!(topo.tx_params[last.index()].to, Endpoint::Host(hosts[15]));
    }

    #[test]
    fn scattered_hosts_interleave_groups() {
        let g = star_of_switches(&star(3, 4, 1));
        let picked = g.scattered_hosts(5);
        // Round-robin over leaves: leaf0[0], leaf1[0], leaf2[0], leaf0[1], leaf1[1].
        assert_eq!(
            picked,
            vec![
                g.host_groups[0][0],
                g.host_groups[1][0],
                g.host_groups[2][0],
                g.host_groups[0][1],
                g.host_groups[1][1],
            ]
        );
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn odd_fat_tree_rejected() {
        let _ = fat_tree(&FatTreeParams {
            k: 3,
            hosts_per_edge: 2,
            link: gbe(),
            switch: sw(),
        });
    }

    fn torus_of(dims: [usize; 3], hosts_per_switch: usize) -> Generated {
        torus(&TorusParams {
            dims,
            hosts_per_switch,
            link: gbe(),
            switch: sw(),
        })
    }

    #[test]
    fn torus_2d_routes_dimension_ordered() {
        let g = torus_of([4, 3, 1], 2);
        assert_eq!(g.capacity(), 24);
        assert_eq!(g.edge_switches.len(), 12);
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        // Same switch: host → switch → host.
        assert_eq!(topo.hop_count(hosts[0], hosts[1]), 2);
        // Switch (0,0) → (2,1): ring distances 2 + 1, plus the two host
        // hops. Host 0 sits on switch 0 = (0,0); hosts 2·s on switch s.
        let src = hosts[0];
        let dst = hosts[2 * (2 + 4)]; // switch (2,1)
                                      // 1 host hop + ring distances (2 along x, 1 along y) + final hop.
        assert_eq!(topo.hop_count(src, dst), 1 + 2 + 1 + 1);
        // Dimension order: x corrects before y — the second hop leaves
        // along x, and the route's switch sequence is (1,0), (2,0), (2,1).
        use crate::topology::Endpoint;
        let seq: Vec<Endpoint> = topo
            .route(src, dst)
            .map(|tx| topo.tx_params[tx.index()].to)
            .collect();
        assert_eq!(
            seq,
            vec![
                Endpoint::Switch(g.edge_switches[0]),
                Endpoint::Switch(g.edge_switches[1]),
                Endpoint::Switch(g.edge_switches[2]),
                Endpoint::Switch(g.edge_switches[2 + 4]),
                Endpoint::Host(dst),
            ]
        );
    }

    #[test]
    fn torus_wrap_links_take_the_short_way() {
        let g = torus_of([4, 1, 1], 1);
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        // 0 → 3 wraps backwards: one switch hop, not three.
        assert_eq!(topo.hop_count(hosts[0], hosts[3]), 3);
        assert_eq!(topo.hop_count(hosts[0], hosts[2]), 4, "true diameter");
    }

    #[test]
    fn torus_3d_hop_counts_sum_ring_distances() {
        let g = torus_of([3, 3, 3], 1);
        assert_eq!(g.capacity(), 27);
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        // (0,0,0) → (1,1,1): three unit corrections + host hops.
        let dst = hosts[1 + 3 * (1 + 3)];
        assert_eq!(topo.hop_count(hosts[0], dst), 1 + 3 + 1);
    }

    #[test]
    fn dragonfly_structure_and_minimal_paths() {
        let p = DragonflyParams {
            groups: 4,
            routers_per_group: 4,
            hosts_per_router: 2,
            host_link: gbe(),
            local_link: gbe(),
            global_link: gbe(),
            switch: sw(),
        };
        let g = dragonfly(&p);
        assert_eq!(g.capacity(), 32);
        assert_eq!(g.edge_switches.len(), 16);
        let hosts = g.hosts.clone();
        let topo = g.builder.build().unwrap();
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    let hops = topo.hop_count(a, b);
                    // host + ≤1 local + ≤1 global + ≤1 local + host.
                    assert!((2..=5).contains(&hops), "{a}->{b}: {hops}");
                }
            }
        }
        // Same router: 2 hops. Same group: 3 (one local mesh hop).
        assert_eq!(topo.hop_count(hosts[0], hosts[1]), 2);
        assert_eq!(topo.hop_count(hosts[0], hosts[2]), 3);
    }

    #[test]
    fn placements_cover_scatter_pack_random() {
        let g = star_of_switches(&star(3, 4, 1));
        let scatter = Placement::Scatter.place(&g, 6, 9);
        assert_eq!(scatter, g.scattered_hosts(6));
        let pack = Placement::Pack.place(&g, 6, 9);
        assert_eq!(
            pack,
            vec![
                g.host_groups[0][0],
                g.host_groups[0][1],
                g.host_groups[0][2],
                g.host_groups[0][3],
                g.host_groups[1][0],
                g.host_groups[1][1],
            ],
            "pack fills leaf 0 before touching leaf 1"
        );
        let r1 = Placement::RandomSeeded.place(&g, 6, 9);
        let r2 = Placement::RandomSeeded.place(&g, 6, 9);
        assert_eq!(r1, r2, "same seed, same placement");
        let r3 = Placement::RandomSeeded.place(&g, 6, 10);
        assert_ne!(r1, r3, "different seed, different placement");
    }

    #[test]
    fn placement_names_round_trip() {
        for p in Placement::all() {
            assert_eq!(Placement::parse(p.name()), Some(p));
        }
        assert_eq!(Placement::parse("compact"), None);
    }
}
