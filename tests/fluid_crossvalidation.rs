//! Cross-validation between the two network models: the fluid (max-min
//! fair, lossless, zero-overhead) model must lower-bound the packet engine,
//! and on a lossless fabric the two should agree within protocol-overhead
//! margins. The gap between them isolates protocol contention (TCP loss
//! recovery) from topological contention (shared trunks, half-duplex
//! buses).

use alltoall_contention::prelude::*;
use simmpi::harness::alltoall_times;
use simmpi::FluidWorld;

/// The fluid tier's time for the direct exchange the packet side runs, on
/// the preset's own wiring, rank placement and MPI stack: the same
/// `FluidWorld` path `--backend fluid` ships.
fn fluid_alltoall(preset: &ClusterPreset, n: usize, m: u64) -> f64 {
    let (topo, hosts) = preset.build_fabric(n);
    FluidWorld::new(&topo, hosts, preset.mpi)
        .run(AllToAllAlgorithm::DirectExchangeNonblocking.programs(n, m))
        .duration_secs()
}

#[test]
fn fluid_lower_bounds_the_packet_engine_everywhere() {
    for preset in ClusterPreset::all() {
        for &(n, m) in &[(4usize, 262_144u64), (8, 131_072)] {
            let fluid = fluid_alltoall(&preset, n, m);
            let mut world = preset.build_world(n, 5);
            let packet = alltoall_times(
                &mut world,
                AllToAllAlgorithm::DirectExchangeNonblocking,
                m,
                0,
                1,
            )[0];
            assert!(
                packet > fluid * 0.98,
                "{}: packet {packet} beat fluid {fluid} at n={n} m={m}",
                preset.name
            );
        }
    }
}

#[test]
fn fluid_and_packet_agree_on_lossless_fabric() {
    // Myrinet: no loss, tiny overheads — the packet result should sit
    // within ~35% above the fluid ideal (envelopes, CTS round-trips,
    // packetization).
    let preset = ClusterPreset::myrinet();
    let (n, m) = (8usize, 524_288u64);
    let fluid = fluid_alltoall(&preset, n, m);
    let mut world = preset.build_world(n, 9);
    let packet = alltoall_times(
        &mut world,
        AllToAllAlgorithm::DirectExchangeNonblocking,
        m,
        1,
        2,
    )
    .iter()
    .sum::<f64>()
        / 2.0;
    let ratio = packet / fluid;
    assert!(ratio > 1.0, "packet can't beat fluid: {ratio}");
    assert!(ratio < 1.35, "lossless packet vs fluid diverged: {ratio}");
}

#[test]
fn fluid_gap_reveals_protocol_contention_on_ethernet() {
    // On the contended GbE fabric the packet engine pays TCP loss recovery
    // that the fluid model cannot see: the gap must be large.
    let preset = ClusterPreset::gigabit_ethernet();
    let (n, m) = (16usize, 524_288u64);
    let fluid = fluid_alltoall(&preset, n, m);
    let mut world = preset.build_world(n, 13);
    let packet = alltoall_times(
        &mut world,
        AllToAllAlgorithm::DirectExchangeNonblocking,
        m,
        0,
        2,
    )
    .iter()
    .sum::<f64>()
        / 2.0;
    assert!(
        packet > fluid * 1.5,
        "expected protocol contention: packet {packet} vs fluid {fluid}"
    );
}

#[test]
fn fluid_captures_the_myrinet_bus_ratio() {
    // The fluid model alone reproduces the topological part of Myrinet's
    // γ: the half-duplex bus doubles All-to-All cost relative to the
    // per-host wire bound.
    let preset = ClusterPreset::myrinet();
    let (n, m) = (8usize, 1_048_576u64);
    let fluid = fluid_alltoall(&preset, n, m);
    // Receiver wire bound without the bus: (n−1)·m at 250 MB/s.
    let wire_bound = (n - 1) as f64 * m as f64 / 250e6;
    let ratio = fluid / wire_bound;
    assert!(
        (ratio - 2.0 * 250.0 / 265.0).abs() < 0.1,
        "bus ratio = {ratio}"
    );
}
