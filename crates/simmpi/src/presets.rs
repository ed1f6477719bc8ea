//! The three cluster presets standing in for the paper's testbeds.
//!
//! | preset | stands in for | n′ | key contention mechanism |
//! |---|---|---|---|
//! | [`ClusterPreset::fast_ethernet`] | icluster2's Fast Ethernet: 5 edge switches × 20 ports behind a GbE core | 24 | slow edge links never saturate the uplinks at ≤40 nodes → γ ≈ 1; per-round rendezvous sync + kernel scheduling hiccups → a large affine δ |
//! | [`ClusterPreset::gigabit_ethernet`] | GdX's Broadcom GbE with an oversubscribed core | 40 | All-to-All bursts exhaust shared switch buffers and saturate uplinks; TCP RTO stalls inflate completion → γ ≈ 4 |
//! | [`ClusterPreset::myrinet`] | icluster2's Myrinet 2000 (one M3-E128 switch, `gm`) | 24 | lossless fabric, but the host DMA bus cannot overlap send+receive at full rate → γ ≈ 2, δ ≈ 0 (no kernel in the path) |
//!
//! n′ ([`ClusterPreset::sample_nodes`]) is the node count the paper fits
//! its contention signature at on that testbed (§8, Figs. 6/9/12).
//!
//! Each preset fixes the *cluster*, not the experiment: [`ClusterPreset::build_world`]
//! instantiates any number of nodes up to the cluster size, assigning hosts
//! round-robin across edge switches the way a batch scheduler scatters a
//! job.

use crate::config::seed_cell;
use crate::prelude::*;
use simnet::prelude::*;

/// Which physical network a preset models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// 100 Mb/s switched Ethernet, TCP.
    FastEthernet,
    /// 1 Gb/s switched Ethernet, TCP.
    GigabitEthernet,
    /// Myrinet 2000, `gm` (lossless, OS-bypass).
    Myrinet,
}

/// A reproducible cluster description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPreset {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Network family.
    pub network: NetworkKind,
    /// Ports per edge switch.
    pub hosts_per_switch: usize,
    /// Number of edge switches (cluster capacity = switches × ports).
    pub edge_switches: usize,
    /// The paper's sample node count n′: the one node count its
    /// contention signature is fitted at on this testbed (§8).
    pub sample_nodes: usize,
    /// Host ↔ edge-switch link.
    pub edge_link: LinkConfig,
    /// Edge ↔ core link parameters.
    pub uplink: LinkConfig,
    /// Parallel uplinks per edge switch (ECMP-spread).
    pub uplinks_per_switch: usize,
    /// Edge switch buffering.
    pub edge_switch: SwitchConfig,
    /// Core switch buffering.
    pub core_switch: SwitchConfig,
    /// Optional host I/O bus `(bytes/sec, latency_ns)`: a shared-serializer
    /// DMA stage (Myrinet hosts).
    pub host_bus: Option<(f64, u64)>,
    /// Transport every connection uses.
    pub transport: TransportKind,
    /// MPI protocol parameters.
    pub mpi: MpiConfig,
}

impl ClusterPreset {
    /// icluster2's Fast Ethernet network: 5 edge switches of 20 ports each,
    /// interconnected by one Gigabit Ethernet core switch. Dual-Itanium2
    /// nodes on Linux 2.4 (HZ=100): heavy per-message overheads and
    /// occasional ~8 ms scheduling hiccups in the TCP path.
    pub fn fast_ethernet() -> Self {
        Self {
            name: "fast-ethernet",
            network: NetworkKind::FastEthernet,
            hosts_per_switch: 20,
            edge_switches: 5,
            sample_nodes: 24,
            edge_link: LinkConfig {
                bandwidth_bytes_per_sec: 12.5e6,
                latency_ns: 25_000,
            },
            uplink: LinkConfig {
                bandwidth_bytes_per_sec: 125e6,
                latency_ns: 10_000,
            },
            uplinks_per_switch: 1,
            edge_switch: SwitchConfig {
                shared_buffer_bytes: 8 * 1024 * 1024,
                per_port_cap_bytes: 2 * 1024 * 1024,
            },
            core_switch: SwitchConfig {
                shared_buffer_bytes: 16 * 1024 * 1024,
                per_port_cap_bytes: 4 * 1024 * 1024,
            },
            host_bus: None,
            transport: TransportKind::Tcp(TcpConfig {
                mss: 1460,
                window_bytes: 32 * 1024,
                ..TcpConfig::default()
            }),
            mpi: MpiConfig {
                eager_threshold: 2 * 1024,
                envelope_bytes: 64,
                cts_bytes: 32,
                send_overhead_ns: 25_000,
                recv_overhead_ns: 25_000,
                overhead_jitter_ns: 10_000,
                hiccup_probability: 0.10,
                hiccup_mean_ns: 8_000_000,
                ..MpiConfig::default()
            },
        }
    }

    /// GdX's Gigabit Ethernet: 24-port edge switches with a 2×1 GbE
    /// oversubscribed trunk to the core — All-to-All traffic saturates the
    /// trunks and the shared switch buffers, and TCP's 200 ms RTO floor
    /// turns every loss burst into a stall. Opterons on Linux 2.6
    /// (HZ=1000): smaller overheads, ~2 ms hiccups.
    pub fn gigabit_ethernet() -> Self {
        Self {
            name: "gigabit-ethernet",
            network: NetworkKind::GigabitEthernet,
            hosts_per_switch: 24,
            edge_switches: 9,
            sample_nodes: 40,
            edge_link: LinkConfig {
                bandwidth_bytes_per_sec: 125e6,
                latency_ns: 20_000,
            },
            uplink: LinkConfig {
                bandwidth_bytes_per_sec: 125e6,
                latency_ns: 10_000,
            },
            uplinks_per_switch: 4,
            edge_switch: SwitchConfig {
                shared_buffer_bytes: 256 * 1024,
                per_port_cap_bytes: 64 * 1024,
            },
            core_switch: SwitchConfig {
                shared_buffer_bytes: 1024 * 1024,
                per_port_cap_bytes: 128 * 1024,
            },
            host_bus: None,
            transport: TransportKind::Tcp(TcpConfig {
                mss: 1460,
                window_bytes: 64 * 1024,
                ..TcpConfig::default()
            }),
            mpi: MpiConfig {
                eager_threshold: 8 * 1024,
                envelope_bytes: 64,
                cts_bytes: 32,
                send_overhead_ns: 6_000,
                recv_overhead_ns: 6_000,
                overhead_jitter_ns: 2_500,
                hiccup_probability: 0.010,
                hiccup_mean_ns: 2_000_000,
                ..MpiConfig::default()
            },
        }
    }

    /// icluster2's Myrinet 2000: one 128-port M3-E128 crossbar, lossless
    /// link-level flow control, `gm` user-level transport (no kernel, no
    /// hiccups, microsecond overheads). The host DMA bus is the shared
    /// resource: it cannot stream send and receive at full rate
    /// simultaneously, which is what an All-to-All demands of every host.
    pub fn myrinet() -> Self {
        Self {
            name: "myrinet",
            network: NetworkKind::Myrinet,
            hosts_per_switch: 128,
            edge_switches: 1,
            sample_nodes: 24,
            edge_link: LinkConfig {
                bandwidth_bytes_per_sec: 250e6,
                latency_ns: 4_000,
            },
            uplink: LinkConfig {
                bandwidth_bytes_per_sec: 250e6,
                latency_ns: 2_000,
            },
            uplinks_per_switch: 1,
            edge_switch: SwitchConfig::lossless_fabric(),
            core_switch: SwitchConfig::lossless_fabric(),
            host_bus: Some((265e6, 500)),
            transport: TransportKind::Gm(GmConfig {
                mtu: 4096,
                window_bytes: 1024 * 1024,
            }),
            mpi: MpiConfig {
                eager_threshold: 4 * 1024,
                envelope_bytes: 32,
                cts_bytes: 16,
                send_overhead_ns: 1_500,
                recv_overhead_ns: 1_500,
                overhead_jitter_ns: 400,
                hiccup_probability: 0.0,
                hiccup_mean_ns: 0,
                ..MpiConfig::default()
            },
        }
    }

    /// All three presets, in the paper's order.
    pub fn all() -> [ClusterPreset; 3] {
        [
            Self::fast_ethernet(),
            Self::gigabit_ethernet(),
            Self::myrinet(),
        ]
    }

    /// Maximum node count this cluster supports.
    pub fn max_hosts(&self) -> usize {
        self.hosts_per_switch * self.edge_switches
    }

    /// Instantiates a world of `n` ranks on this cluster, hosts assigned
    /// round-robin across edge switches. `seed` drives every stochastic
    /// element (packet jitter, overhead jitter, hiccups), so equal seeds
    /// reproduce bit-identical experiments.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds [`ClusterPreset::max_hosts`].
    pub fn build_world(&self, n: usize, seed: u64) -> World {
        let (topo, hosts) = self.build_fabric(n);
        let (sim_config, mpi) = seed_cell(self.mpi, seed);
        World::new(Simulator::new(topo, sim_config), hosts, mpi, self.transport)
    }

    /// Builds just the cluster's wiring for `n` ranks — the [`Topology`]
    /// plus the round-robin host assignment — without instantiating a
    /// packet simulator. The fluid (flow-level) backend runs directly over
    /// this fabric. The wiring depends on `n` (only as many edge switches
    /// as the job footprint needs) but on no seed.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds [`ClusterPreset::max_hosts`].
    pub fn build_fabric(&self, n: usize) -> (Topology, Vec<HostId>) {
        assert!(n > 0, "need at least one node");
        assert!(
            n <= self.max_hosts(),
            "{n} nodes exceed the {} cluster's {} ports",
            self.name,
            self.max_hosts()
        );
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        // Only as many edge switches as the job footprint needs.
        let switches_used = self.edge_switches.min(n);
        let edges: Vec<_> = (0..switches_used)
            .map(|_| b.add_switch(self.edge_switch))
            .collect();
        for (i, &h) in hosts.iter().enumerate() {
            b.link_host(h, edges[i % switches_used], self.edge_link);
        }
        if switches_used > 1 {
            let core = b.add_switch(self.core_switch);
            for &e in &edges {
                for _ in 0..self.uplinks_per_switch {
                    b.link_switches(e, core, self.uplink);
                }
            }
        }
        if let Some((bus_bw, bus_latency)) = self.host_bus {
            b.host_io_bus(bus_bw, bus_latency);
        }
        let topo = b.build().expect("preset topologies are valid");
        (topo, hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_capacities() {
        assert_eq!(ClusterPreset::fast_ethernet().max_hosts(), 100);
        assert_eq!(ClusterPreset::gigabit_ethernet().max_hosts(), 216);
        assert_eq!(ClusterPreset::myrinet().max_hosts(), 128);
    }

    #[test]
    fn sample_nodes_are_the_papers_and_fit_the_cluster() {
        let ns = ClusterPreset::all().map(|p| p.sample_nodes);
        assert_eq!(ns, [24, 40, 24]);
        for preset in ClusterPreset::all() {
            assert!(preset.sample_nodes <= preset.max_hosts(), "{}", preset.name);
        }
    }

    #[test]
    fn every_preset_builds_and_runs_a_small_alltoall() {
        for preset in ClusterPreset::all() {
            let mut w = preset.build_world(6, 1);
            let times = alltoall_times(&mut w, AllToAllAlgorithm::DirectExchange, 16 * 1024, 0, 1);
            assert!(times[0] > 0.0, "{}", preset.name);
        }
    }

    #[test]
    fn round_robin_spreads_hosts_across_switches() {
        let preset = ClusterPreset::fast_ethernet();
        let w = preset.build_world(24, 7);
        // 24 nodes over 5 switches: spread means short same-switch routes
        // (2 hops) and longer cross-switch routes (4 hops) both exist.
        let topo = w.sim().topology();
        let h0 = simnet::ids::HostId::new(0);
        let h5 = simnet::ids::HostId::new(5);
        let h1 = simnet::ids::HostId::new(1);
        assert_eq!(topo.hop_count(h0, h5), 2, "same switch (0 and 5 ≡ 0 mod 5)");
        assert_eq!(topo.hop_count(h0, h1), 4, "cross switch via core");
    }

    #[test]
    fn single_switch_job_has_no_core() {
        // 4 nodes on the Myrinet preset: one switch, two hops (plus bus).
        let preset = ClusterPreset::myrinet();
        let w = preset.build_world(4, 3);
        let topo = w.sim().topology();
        let h0 = simnet::ids::HostId::new(0);
        let h1 = simnet::ids::HostId::new(1);
        // host → bus → switch → bus → host = 4 transmitters.
        assert_eq!(topo.hop_count(h0, h1), 4);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_job_rejected() {
        let _ = ClusterPreset::myrinet().build_world(129, 0);
    }

    #[test]
    fn same_seed_same_world_behavior() {
        let preset = ClusterPreset::gigabit_ethernet();
        let run = |seed| {
            let mut w = preset.build_world(8, seed);
            alltoall_times(&mut w, AllToAllAlgorithm::DirectExchange, 64 * 1024, 0, 1)[0]
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
