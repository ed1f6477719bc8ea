//! Microbenchmarks of the discrete-event engine: event throughput under a
//! lossless bulk transfer and under a lossy incast.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use simnet::prelude::*;

fn star(n: usize, sw: SwitchConfig) -> (Simulator, Vec<HostId>) {
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(n);
    let s = b.add_switch(sw);
    for &h in &hosts {
        b.link_host(h, s, LinkConfig::gigabit_ethernet());
    }
    let cfg = SimConfig::default();
    (Simulator::new(b.build().unwrap(), cfg), hosts)
}

fn bench_bulk_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(4_000_000));
    group.bench_function("tcp_bulk_4MB_lossless", |b| {
        b.iter_batched(
            || {
                let (mut sim, hosts) = star(2, SwitchConfig::lossless_fabric());
                let conn = sim.open_connection(
                    hosts[0],
                    hosts[1],
                    TransportKind::Tcp(TcpConfig::default()),
                );
                (sim, conn)
            },
            |(mut sim, conn)| {
                sim.send(conn, 4_000_000, 1);
                sim.run_until_idle();
                sim.stats().events_processed
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("incast_8to1_lossy", |b| {
        b.iter_batched(
            || {
                let sw = SwitchConfig {
                    shared_buffer_bytes: 64 * 1024,
                    per_port_cap_bytes: 32 * 1024,
                };
                let (mut sim, hosts) = star(9, sw);
                let conns: Vec<ConnId> = (0..8)
                    .map(|i| {
                        sim.open_connection(
                            hosts[i],
                            hosts[8],
                            TransportKind::Tcp(TcpConfig::default()),
                        )
                    })
                    .collect();
                (sim, conns)
            },
            |(mut sim, conns)| {
                for (i, c) in conns.iter().enumerate() {
                    sim.send(*c, 500_000, i as u64);
                }
                sim.run_until_idle();
                sim.stats().events_processed
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("gm_bulk_4MB", |b| {
        b.iter_batched(
            || {
                let (mut sim, hosts) = star(2, SwitchConfig::lossless_fabric());
                let conn =
                    sim.open_connection(hosts[0], hosts[1], TransportKind::Gm(GmConfig::default()));
                (sim, conn)
            },
            |(mut sim, conn)| {
                sim.send(conn, 4_000_000, 1);
                sim.run_until_idle();
                sim.stats().events_processed
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_bulk_transfer);
criterion_main!(benches);
