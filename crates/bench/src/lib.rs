//! # contention-bench
//!
//! The `repro` binary that regenerates every table and figure of the
//! paper, the `overhead_gate` CI gate, `ctnbench` (`src/bin/ctnbench/`,
//! the end-to-end + per-layer benchmark `BENCHMARK.json` declares — what
//! every performance claim is made with) and one Criterion target,
//! `benches/engine_hotpath.rs`: the four groups `ctnbench` has no
//! equivalent for (recorder, guard and daemon overhead pairs,
//! fluid-vs-packet throughput), snapshotted in `BENCH_engine.json` (see
//! [`hotpath`]).
//!
//! Run `cargo run --release -p contention-bench --bin repro -- all` to
//! regenerate the paper's data series at quick scale, or `--full` for the
//! paper's grids.

pub mod hotpath {
    //! The `engine_hotpath` benchmark's cases and the authoritative list
    //! of benchmark ids the `BENCH_engine.json` snapshot must carry.
    //!
    //! The bench target and the snapshot-freshness test
    //! (`tests/snapshot_freshness.rs`) both read this module, so renaming
    //! or adding a benchmark without refreshing the snapshot fails CI
    //! instead of silently rotting the README's numbers.

    use simnet::prelude::*;

    /// The fabric a case runs on. Everything is built lossless so runs
    /// measure pure forwarding cost, not loss recovery.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fabric {
        /// `hosts` hosts on one switch.
        Star,
        /// Three-level `k`-ary fat-tree, ECMP routing (the fluid tier's
        /// capacity-planning scale).
        FatTree {
            /// Arity.
            k: usize,
            /// Hosts per edge switch.
            hosts_per_edge: usize,
        },
    }

    /// One packet-engine workload: a full all-to-all round on a lossless
    /// single-switch star.
    pub struct Case {
        /// Name used in benchmark ids and failure messages.
        pub name: &'static str,
        /// Total host count.
        pub hosts: usize,
        /// Per-pair message size of the all-to-all round.
        pub message_bytes: u64,
        /// Transport under test (fixes the MTU regime).
        pub transport: TransportKind,
    }

    /// The case the `recorder_overhead` / `guard_overhead` pairs and the
    /// `overhead_gate` binary time: 8 hosts, TCP (1460-byte segments),
    /// 64 KiB per pair — the most event-dense regime per byte, so a
    /// per-event tax shows largest here.
    pub fn gate_case() -> Case {
        Case {
            name: "tcp_8hosts_64KiB",
            hosts: 8,
            message_bytes: 64 * 1024,
            transport: TransportKind::Tcp(TcpConfig::default()),
        }
    }

    /// Benchmark ids of the `recorder_overhead` group: [`gate_case`] run
    /// with the default no-op recorder (the exact engine every other
    /// benchmark measures) and with a recording `EngineRecorder`
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

    /// Benchmark ids of the `guard_overhead` group: [`gate_case`] run
    /// with no guard installed and with the supervision guard a
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

    /// The fluid case the `overhead_gate` binary's recording pair runs: an
    /// all-to-all on a 128-host 8-ary fat-tree, whose ECMP collisions
    /// spread the finishes over many waves, so nearly every advance
    /// follows a solve and a recorder that walked the flows once per solve
    /// would show.
    pub fn fluid_gate_case() -> FluidCase {
        FluidCase {
            name: "fluid_fattree128_64KiB",
            fabric: Fabric::FatTree {
                k: 8,
                hosts_per_edge: 4,
            },
            hosts: 128,
            message_bytes: 64 * 1024,
            mtu: 1460,
            sample_size: 10,
        }
    }

    /// Packet-engine baseline of the `fluid_vs_packet` group: the same
    /// star-32 workload as `fluid_tcp_star32_64KiB`, timed through the
    /// packet engine with the same event-equivalent denominator.
    pub const FLUID_VS_PACKET_BASELINE: &str = "packet_tcp_star32_64KiB";

    /// Every benchmark id the `BENCH_engine.json` snapshot must name —
    /// exactly these, no more, no fewer.
    pub fn expected_snapshot_names() -> Vec<String> {
        RECORDER_OVERHEAD_BENCHES
            .iter()
            .map(|b| format!("recorder_overhead/{b}"))
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

    /// Build a case fabric: gigabit links, lossless switches, routing
    /// tables built. Shared by the packet benchmarks (via
    /// [`build_alltoall`]) and the fluid tier of `fluid_vs_packet`, so
    /// both engines run over byte-identical topologies.
    pub fn build_fabric(fabric: Fabric, n_hosts: usize) -> (Topology, Vec<HostId>) {
        use simnet::generate::{fat_tree, FatTreeParams};
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
        (builder.build().unwrap(), hosts)
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
    /// fresh solver over the prebuilt topology with `recorder` attached and
    /// run it dry; returns the rate solves it took. Uses the fluid world's
    /// finish-coalescing window, so the benchmark times what `ctnsim`
    /// ships.
    pub fn drive_fluid<R: simnet::obs::Recorder>(
        case: &FluidCase,
        topo: &Topology,
        hosts: &[HostId],
        recorder: R,
    ) -> u64 {
        let mut sim = simnet::fluid::FluidSim::with_recorder(topo, recorder);
        sim.set_finish_window(simmpi::fluid::FINISH_WINDOW_REL);
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
        sim.recomputes()
    }

    /// A primed simulator on the case's lossless star with `recorder`
    /// attached, one connection per ordered host pair. Shared by the
    /// `engine_hotpath` benchmark and the `overhead_gate` binary so both
    /// time exactly the same workload.
    pub fn build_alltoall<R: simnet::obs::Recorder>(
        case: &Case,
        recorder: R,
    ) -> (Simulator<R>, Vec<ConnId>) {
        let (topology, hosts) = build_fabric(Fabric::Star, case.hosts);
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
    /// idle, return events processed.
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
