//! # contention-bench
//!
//! Benchmark targets (Criterion), the `repro` binary that regenerates
//! every table and figure of the paper, the `overhead_gate` CI gate and
//! `ctnbench` (`src/bin/ctnbench/`, the end-to-end + per-layer benchmark
//! `BENCHMARK.json` declares). See `benches/` for:
//!
//! * `engine_hotpath` — the tracked hot-path benchmark whose results are
//!   snapshotted in `BENCH_engine.json` (see [`hotpath`]);
//! * `scenario_batch` — one builtin batch through `Session` at 1/2/4/8
//!   workers.
//!
//! Run `cargo run --release -p contention-bench --bin repro -- all` to
//! regenerate the paper's data series at quick scale, or `--full` for the
//! paper's grids.

pub mod hotpath {
    //! The `engine_hotpath` benchmark's case grid and the authoritative
    //! list of benchmark ids the `BENCH_engine.json` snapshot must carry.
    //!
    //! The bench target and the snapshot-freshness test
    //! (`tests/snapshot_freshness.rs`) both read this module, so renaming
    //! or adding a benchmark without refreshing the snapshot fails CI
    //! instead of silently rotting the README's numbers.

    use simnet::prelude::*;

    /// The fabric an `engine_hotpath` case runs on. Everything is built
    /// lossless so runs measure pure forwarding cost, not loss recovery.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fabric {
        /// `hosts` hosts on one switch (the historical grid).
        Star,
        /// `x·y` switches, dimension-ordered routing; hosts spread evenly.
        Torus2d {
            /// Ring length along x.
            x: usize,
            /// Ring length along y.
            y: usize,
        },
        /// `groups · routers` routers, minimal-path routing.
        Dragonfly {
            /// Group count.
            groups: usize,
            /// Routers per group.
            routers: usize,
        },
        /// Three-level `k`-ary fat-tree, ECMP routing (the fluid tier's
        /// capacity-planning scale).
        FatTree {
            /// Arity.
            k: usize,
            /// Hosts per edge switch.
            hosts_per_edge: usize,
        },
    }

    /// One cell of the engine hot-path grid.
    pub struct Case {
        /// Benchmark id within the `engine_hotpath` group.
        pub name: &'static str,
        /// Fabric shape.
        pub fabric: Fabric,
        /// Total host count.
        pub hosts: usize,
        /// Per-pair message size of the all-to-all round.
        pub message_bytes: u64,
        /// Transport under test (fixes the MTU regime).
        pub transport: TransportKind,
    }

    /// Two MTU regimes bracket the engine's per-event overhead: 1460-byte
    /// TCP segments (many small events) and 4096-byte GM frames (fewer,
    /// larger ones). Host counts 8–64 scale the event-queue depth and the
    /// number of live transmitter bands. The torus and dragonfly cases
    /// exercise multi-hop forwarding (4–5 transmitters per packet instead
    /// of the star's 2) through the same hot path.
    pub fn cases() -> Vec<Case> {
        let tcp = TransportKind::Tcp(TcpConfig::default()); // 1460 B MSS
        let gm = TransportKind::Gm(GmConfig::default()); // 4096 B MTU
        vec![
            Case {
                name: "tcp_mtu1460_8hosts_64KiB",
                fabric: Fabric::Star,
                hosts: 8,
                message_bytes: 64 * 1024,
                transport: tcp,
            },
            Case {
                name: "tcp_mtu1460_32hosts_64KiB",
                fabric: Fabric::Star,
                hosts: 32,
                message_bytes: 64 * 1024,
                transport: tcp,
            },
            Case {
                name: "gm_mtu4096_32hosts_256KiB",
                fabric: Fabric::Star,
                hosts: 32,
                message_bytes: 256 * 1024,
                transport: gm,
            },
            Case {
                name: "gm_mtu4096_64hosts_256KiB",
                fabric: Fabric::Star,
                hosts: 64,
                message_bytes: 256 * 1024,
                transport: gm,
            },
            Case {
                name: "tcp_mtu1460_torus4x4_32hosts_64KiB",
                fabric: Fabric::Torus2d { x: 4, y: 4 },
                hosts: 32,
                message_bytes: 64 * 1024,
                transport: tcp,
            },
            Case {
                name: "gm_mtu4096_dragonfly4x4_32hosts_256KiB",
                fabric: Fabric::Dragonfly {
                    groups: 4,
                    routers: 4,
                },
                hosts: 32,
                message_bytes: 256 * 1024,
                transport: gm,
            },
        ]
    }

    /// Benchmark ids of the `recorder_overhead` group: the first hot-path
    /// case run with the default no-op recorder (the exact engine every
    /// other benchmark measures) and with a recording `EngineRecorder`
    /// attached. Their ratio is the live telemetry tax; the `overhead_gate`
    /// binary holds both within tolerance in CI.
    pub const RECORDER_OVERHEAD_BENCHES: &[&str] =
        &["noop_tcp_8hosts_64KiB", "recording_tcp_8hosts_64KiB"];

    /// Benchmark ids of the `daemon_overhead` group: the same trimmed
    /// incast cell (4 hosts, 16 KiB) run directly through a `Session`
    /// and round-tripped through an in-process `ctnd` daemon (HTTP
    /// submit → event stream → report fetch). Their difference is the
    /// daemon's serving tax — queueing, HTTP framing and registry
    /// bookkeeping — which must stay small next to the simulation
    /// itself. Both sides run with a pre-warmed calibration cache so the
    /// comparison measures serving, not fitting.
    pub const DAEMON_OVERHEAD_BENCHES: &[&str] = &[
        "direct_session_incast4_16KiB",
        "daemon_roundtrip_incast4_16KiB",
    ];

    /// Benchmark ids of the `guard_overhead` group: the first hot-path
    /// case run with no guard installed and with the supervision guard a
    /// `Session` wires by default (a cancel-flag-only `RunGuard`, polled
    /// every `GUARD_CHECK_INTERVAL` events). Their ratio is the
    /// preemption-point tax; the `overhead_gate` binary holds it within
    /// tolerance in CI.
    pub const GUARD_OVERHEAD_BENCHES: &[&str] =
        &["unguarded_tcp_8hosts_64KiB", "guarded_tcp_8hosts_64KiB"];

    /// One cell of the `fluid_vs_packet` grid: a full all-to-all (or the
    /// packet baseline of the same workload) whose throughput is reported
    /// in packet-engine event-equivalents (see [`event_equivalents`]).
    pub struct FluidCase {
        /// Benchmark id within the `fluid_vs_packet` group.
        pub name: &'static str,
        /// Fabric shape.
        pub fabric: Fabric,
        /// Total host count.
        pub hosts: usize,
        /// Per-pair message size of the all-to-all round.
        pub message_bytes: u64,
        /// MTU used for the event-equivalent denominator (1460 = TCP MSS).
        pub mtu: u64,
        /// Criterion samples; the million-flow fat-tree needs fewer.
        pub sample_size: usize,
    }

    /// The `fluid_vs_packet` grid. The star-32 pair is like-for-like —
    /// identical fabric, flows and denominator, packet engine vs fluid
    /// solver — so their ratio is the per-workload speedup. The 1024-host
    /// fat-tree is the capacity-planning scale only the fluid tier can
    /// run (1 046 529 concurrent flows); the packet engine extrapolates to
    /// hours there.
    pub fn fluid_cases() -> Vec<FluidCase> {
        vec![
            FluidCase {
                name: "fluid_tcp_star32_64KiB",
                fabric: Fabric::Star,
                hosts: 32,
                message_bytes: 64 * 1024,
                mtu: 1460,
                sample_size: 10,
            },
            FluidCase {
                name: "fluid_tcp_fattree1024_1MiB",
                fabric: Fabric::FatTree {
                    k: 16,
                    hosts_per_edge: 8,
                },
                hosts: 1024,
                message_bytes: 1 << 20,
                mtu: 1460,
                sample_size: 3,
            },
        ]
    }

    /// Packet-engine baseline of the `fluid_vs_packet` group: the same
    /// star-32 workload as `fluid_tcp_star32_64KiB`, timed through the
    /// packet engine with the same event-equivalent denominator.
    pub const FLUID_VS_PACKET_BASELINE: &str = "packet_tcp_star32_64KiB";

    /// Every benchmark id the `BENCH_engine.json` snapshot must name —
    /// exactly these, no more, no fewer.
    pub fn expected_snapshot_names() -> Vec<String> {
        cases()
            .iter()
            .map(|c| format!("engine_hotpath/{}", c.name))
            .chain(
                RECORDER_OVERHEAD_BENCHES
                    .iter()
                    .map(|b| format!("recorder_overhead/{b}")),
            )
            .chain(
                GUARD_OVERHEAD_BENCHES
                    .iter()
                    .map(|b| format!("guard_overhead/{b}")),
            )
            .chain(
                DAEMON_OVERHEAD_BENCHES
                    .iter()
                    .map(|b| format!("daemon_overhead/{b}")),
            )
            .chain(std::iter::once(format!(
                "fluid_vs_packet/{FLUID_VS_PACKET_BASELINE}"
            )))
            .chain(
                fluid_cases()
                    .iter()
                    .map(|c| format!("fluid_vs_packet/{}", c.name)),
            )
            .collect()
    }

    /// Build a case fabric: gigabit links, lossless switches, all-pairs
    /// routes resolved. Shared by the packet benchmarks (via
    /// [`build_alltoall`]) and the fluid tier of `fluid_vs_packet`, so
    /// both engines run over byte-identical topologies.
    pub fn build_fabric(fabric: Fabric, n_hosts: usize) -> (Topology, Vec<HostId>) {
        use simnet::generate::{
            dragonfly, fat_tree, torus, DragonflyParams, FatTreeParams, TorusParams,
        };
        let link = LinkConfig::gigabit_ethernet();
        let lossless = SwitchConfig::lossless_fabric();
        let (builder, hosts) = match fabric {
            Fabric::Star => {
                let mut b = TopologyBuilder::new();
                let hosts = b.add_hosts(n_hosts);
                let sw = b.add_switch(lossless);
                for &h in &hosts {
                    b.link_host(h, sw, link);
                }
                (b, hosts)
            }
            Fabric::Torus2d { x, y } => {
                assert_eq!(n_hosts % (x * y), 0, "hosts must fill the torus evenly");
                let g = torus(&TorusParams {
                    dims: [x, y, 1],
                    hosts_per_switch: n_hosts / (x * y),
                    link,
                    switch: lossless,
                });
                (g.builder, g.hosts)
            }
            Fabric::Dragonfly { groups, routers } => {
                assert_eq!(n_hosts % (groups * routers), 0);
                let g = dragonfly(&DragonflyParams {
                    groups,
                    routers_per_group: routers,
                    hosts_per_router: n_hosts / (groups * routers),
                    host_link: link,
                    local_link: link,
                    global_link: link,
                    switch: lossless,
                });
                (g.builder, g.hosts)
            }
            Fabric::FatTree { k, hosts_per_edge } => {
                let g = fat_tree(&FatTreeParams {
                    k,
                    hosts_per_edge,
                    link,
                    switch: lossless,
                });
                assert_eq!(g.hosts.len(), n_hosts, "fat-tree host count mismatch");
                (g.builder, g.hosts)
            }
        };
        let hosts_out = hosts;
        (builder.build().unwrap(), hosts_out)
    }

    /// Packet-engine event-equivalents of a full all-to-all: each
    /// MTU-sized packet crosses every transmitter on its route plus a
    /// final delivery, so one packet ≈ `hops + 1` engine events. Acks,
    /// window clocking and timers are ignored — the packet engine does
    /// strictly more work per packet than this counts, so speedup ratios
    /// quoted against this denominator are conservative.
    pub fn event_equivalents(
        topo: &Topology,
        hosts: &[HostId],
        mtu: u64,
        message_bytes: u64,
    ) -> u64 {
        let packets = message_bytes.div_ceil(mtu);
        let mut total = 0u64;
        for &src in hosts {
            for &dst in hosts {
                if src != dst {
                    total += packets * (topo.hop_count(src, dst) as u64 + 1);
                }
            }
        }
        total
    }

    /// One timed iteration of a fluid case: start the full all-to-all on a
    /// fresh solver over the prebuilt topology and run it dry. Uses the
    /// same 1% finish-coalescing window as the scenario tier's fluid
    /// backend, so the benchmark times what `ctnsim` ships.
    pub fn drive_fluid(case: &FluidCase, topo: &Topology, hosts: &[HostId]) -> usize {
        let mut sim = simnet::fluid::FluidSim::new(topo);
        sim.set_finish_window(1e-2);
        let mut tag = 0u64;
        for &src in hosts {
            for &dst in hosts {
                if src != dst {
                    sim.start_flow(src, dst, case.message_bytes, tag);
                    tag += 1;
                }
            }
        }
        let done = sim.run_to_completion();
        assert_eq!(
            done.len(),
            hosts.len() * (hosts.len() - 1),
            "{}: unfinished fluid flows",
            case.name
        );
        done.len()
    }

    /// A primed simulator on the case's lossless fabric with `recorder`
    /// attached, one connection per ordered host pair. Shared by the
    /// `engine_hotpath` benchmark and the `overhead_gate` binary so both
    /// time exactly the same workload.
    pub fn build_alltoall<R: simnet::obs::Recorder>(
        case: &Case,
        recorder: R,
    ) -> (Simulator<R>, Vec<ConnId>) {
        let (topology, hosts) = build_fabric(case.fabric, case.hosts);
        let mut sim = Simulator::with_recorder(topology, SimConfig::default(), recorder);
        let mut conns = Vec::with_capacity(case.hosts * (case.hosts - 1));
        for &src in &hosts {
            for &dst in &hosts {
                if src != dst {
                    conns.push(sim.open_connection(src, dst, case.transport));
                }
            }
        }
        (sim, conns)
    }

    /// One timed iteration of a case: inject the full all-to-all, run to
    /// idle, return events processed. The workload every `engine_hotpath`
    /// and `recorder_overhead` sample times.
    pub fn drive_alltoall<R: simnet::obs::Recorder>(
        case: &Case,
        sim: &mut Simulator<R>,
        conns: &[ConnId],
    ) -> u64 {
        for (i, conn) in conns.iter().enumerate() {
            sim.send(*conn, case.message_bytes, i as u64);
        }
        sim.run_until_idle();
        assert!(sim.all_quiescent(), "{}: unfinished traffic", case.name);
        sim.stats().events_processed
    }
}
