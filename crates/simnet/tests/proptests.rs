//! Property-based tests of the network simulator: conservation, ordering
//! and determinism over randomized topologies and traffic.

use proptest::prelude::*;
use simnet::prelude::*;

/// A random one- or two-switch topology with `n` hosts.
fn build_topology(n: usize, two_tier: bool, buffer_kb: u64, seed: u64) -> (Simulator, Vec<HostId>) {
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(n);
    let sw_cfg = SwitchConfig {
        shared_buffer_bytes: buffer_kb * 1024,
        per_port_cap_bytes: (buffer_kb * 1024 / 2).max(4096),
    };
    if two_tier && n >= 4 {
        let e0 = b.add_switch(sw_cfg);
        let e1 = b.add_switch(sw_cfg);
        let core = b.add_switch(sw_cfg);
        for (i, &h) in hosts.iter().enumerate() {
            b.link_host(
                h,
                if i % 2 == 0 { e0 } else { e1 },
                LinkConfig::gigabit_ethernet(),
            );
        }
        b.link_switches(e0, core, LinkConfig::gigabit_ethernet());
        b.link_switches(e1, core, LinkConfig::gigabit_ethernet());
    } else {
        let sw = b.add_switch(sw_cfg);
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
    }
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let topo = b.build().unwrap();
    (Simulator::new(topo, cfg), hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every queued message is delivered exactly once and acknowledged,
    /// regardless of topology, buffer size or traffic mix — TCP recovers
    /// every loss the fabric inflicts.
    #[test]
    fn all_messages_delivered_exactly_once(
        n in 2usize..8,
        two_tier in any::<bool>(),
        buffer_kb in 16u64..256,
        msgs in prop::collection::vec((0usize..8, 0usize..8, 1u64..200_000), 1..12),
        seed in 0u64..1000,
    ) {
        let (mut sim, hosts) = build_topology(n, two_tier, buffer_kb, seed);
        let mut sent = 0u64;
        let mut conns = std::collections::HashMap::new();
        for (tag, &(s, d, bytes)) in msgs.iter().enumerate() {
            let (s, d) = (s % n, d % n);
            if s == d { continue; }
            let conn = *conns.entry((s, d)).or_insert_with(|| {
                sim.open_connection(hosts[s], hosts[d], TransportKind::Tcp(TcpConfig::default()))
            });
            sim.send(conn, bytes, tag as u64);
            sent += 1;
        }
        let mut delivered = std::collections::HashSet::new();
        let mut send_done = 0u64;
        while let Some(note) = sim.poll() {
            match note {
                Notification::Delivered { conn, tag, .. } => {
                    prop_assert!(delivered.insert((conn, tag)), "duplicate delivery");
                }
                Notification::SendDone { .. } => send_done += 1,
                Notification::Wakeup { .. } => {}
            }
        }
        prop_assert_eq!(delivered.len() as u64, sent);
        prop_assert_eq!(send_done, sent);
        prop_assert!(sim.all_quiescent());
    }

    /// Messages on one connection deliver in the order they were sent.
    #[test]
    fn per_connection_order_is_preserved(
        bytes in prop::collection::vec(1u64..100_000, 2..10),
        buffer_kb in 16u64..128,
        seed in 0u64..1000,
    ) {
        let (mut sim, hosts) = build_topology(2, false, buffer_kb, seed);
        let conn = sim.open_connection(hosts[0], hosts[1], TransportKind::Tcp(TcpConfig::default()));
        for (tag, &b) in bytes.iter().enumerate() {
            sim.send(conn, b, tag as u64);
        }
        let mut tags = Vec::new();
        while let Some(note) = sim.poll() {
            if let Notification::Delivered { tag, .. } = note {
                tags.push(tag);
            }
        }
        let expected: Vec<u64> = (0..bytes.len() as u64).collect();
        prop_assert_eq!(tags, expected);
    }

    /// The lossless GM transport never drops, never retransmits, and its
    /// transfer time is bounded below by the wire serialization time.
    #[test]
    fn gm_is_lossless_and_respects_physics(
        bytes in 10_000u64..2_000_000,
        n in 2usize..6,
        seed in 0u64..1000,
    ) {
        let (mut sim, hosts) = build_topology(n, false, 1_000_000, seed);
        let conn = sim.open_connection(hosts[0], hosts[1], TransportKind::Gm(GmConfig::default()));
        sim.send(conn, bytes, 1);
        let mut done = SimTime::ZERO;
        while let Some(note) = sim.poll() {
            if let Notification::Delivered { at, .. } = note {
                done = at;
            }
        }
        prop_assert_eq!(sim.stats().packets_dropped, 0);
        prop_assert_eq!(sim.stats().retransmissions, 0);
        let wire_floor = bytes as f64 / 125e6;
        prop_assert!(done.as_secs_f64() > wire_floor, "{} vs {}", done.as_secs_f64(), wire_floor);
    }

    /// Bit-exact determinism: identical seeds and traffic give identical
    /// final clocks and counters, on any topology.
    #[test]
    fn seeded_runs_are_bit_identical(
        n in 2usize..7,
        two_tier in any::<bool>(),
        buffer_kb in 16u64..128,
        seed in 0u64..1000,
        msgs in prop::collection::vec((0usize..7, 0usize..7, 1u64..300_000), 1..8),
    ) {
        let run = || {
            let (mut sim, hosts) = build_topology(n, two_tier, buffer_kb, seed);
            let mut conns = std::collections::HashMap::new();
            for (tag, &(s, d, bytes)) in msgs.iter().enumerate() {
                let (s, d) = (s % n, d % n);
                if s == d { continue; }
                let conn = *conns.entry((s, d)).or_insert_with(|| {
                    sim.open_connection(hosts[s], hosts[d], TransportKind::Tcp(TcpConfig::default()))
                });
                sim.send(conn, bytes, tag as u64);
            }
            sim.run_until_idle();
            (sim.now(), *sim.stats())
        };
        prop_assert_eq!(run(), run());
    }

    /// Conservation under loss: data bytes delivered equal data bytes
    /// queued (drops only cost retransmissions, never corruption).
    #[test]
    fn byte_conservation_under_heavy_loss(
        senders in 2usize..6,
        bytes in 50_000u64..500_000,
        seed in 0u64..100,
    ) {
        // Tiny buffers force drops (incast).
        let (mut sim, hosts) = build_topology(senders + 1, false, 16, seed);
        for s in 0..senders {
            let conn = sim.open_connection(
                hosts[s],
                hosts[senders],
                TransportKind::Tcp(TcpConfig::default()),
            );
            sim.send(conn, bytes, s as u64);
        }
        let mut delivered = 0u64;
        while let Some(note) = sim.poll() {
            if let Notification::Delivered { .. } = note {
                delivered += 1;
            }
        }
        prop_assert_eq!(delivered, senders as u64);
        prop_assert!(sim.all_quiescent());
        // Retransmissions mean more bytes sent than the payload total.
        let payload_total = senders as u64 * bytes;
        prop_assert!(sim.stats().data_bytes_sent >= payload_total);
    }
}
