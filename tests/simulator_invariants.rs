//! Cross-crate physical invariants: the simulator cannot beat physics, the
//! lower bound is a genuine lower bound on lossless fabrics, stress
//! behavior matches the paper's qualitative observations.

use alltoall_contention::prelude::*;
use contention_model::med::Med;
use proptest::prelude::*;
use simmpi::harness::{alltoall_times, stress_run};
use simnet::config::{LinkConfig, SwitchConfig};
use simnet::fluid::FluidSim;
use simnet::generate::{single_switch, SingleSwitchParams};

#[test]
fn lossless_alltoall_never_beats_proposition_1() {
    // On Myrinet (lossless, no hiccups) the measured completion must be at
    // least the Proposition 1 bound computed from measured α/β — Claim 3
    // holds in the simulated world.
    let preset = ClusterPreset::myrinet();
    let h = measure_hockney(&preset, 3).unwrap();
    for n in [4usize, 8] {
        for m in [64 * 1024u64, 512 * 1024] {
            let mut w = preset.build_world(n, 5);
            let t = alltoall_times(
                &mut w,
                AllToAllAlgorithm::DirectExchangeNonblocking,
                m,
                0,
                1,
            )[0];
            let bound = h.alltoall_lower_bound(n, m);
            assert!(
                t >= bound * 0.95,
                "n={n} m={m}: measured {t} below bound {bound}"
            );
        }
    }
}

proptest! {
    /// The closed form on the fluid tier: on a lossless single switch every
    /// link carries `n − 1` flows of a uniform all-to-all at `bandwidth /
    /// (n − 1)` each, so every flow finishes at once, at Claim 2's
    /// bandwidth bound `(n − 1) · m / bandwidth`, to the nanosecond.
    #[test]
    fn fluid_uniform_alltoall_finishes_at_the_bandwidth_bound(
        n in 2usize..=24,
        m in 1024u64..=4 << 20,
        bandwidth in 1e6f64..1e10,
    ) {
        let fabric = single_switch(&SingleSwitchParams {
            hosts: n,
            link: LinkConfig {
                bandwidth_bytes_per_sec: bandwidth,
                latency_ns: 1_000,
            },
            switch: SwitchConfig::lossless_fabric(),
        });
        let topo = fabric.builder.build().expect("single switch builds");
        let mut sim = FluidSim::new(&topo);
        sim.set_finish_window(0.0);
        for (i, &src) in fabric.hosts.iter().enumerate() {
            for (j, &dst) in fabric.hosts.iter().enumerate() {
                if i != j {
                    sim.start_flow(src, dst, m, (i * n + j) as u64);
                }
            }
        }
        let bound_ns = Med::uniform_alltoall(n, m).bandwidth_bound(1.0 / bandwidth) * 1e9;
        let done = sim.run_to_completion();
        prop_assert_eq!(done.len(), n * (n - 1));
        for c in &done {
            prop_assert!(
                (c.at.0 as f64 - bound_ns).abs() <= 1.0,
                "n={} m={} bandwidth={}: flow {} done at {} ns, bound {} ns",
                n, m, bandwidth, c.tag, c.at.0, bound_ns
            );
        }
    }
}

#[test]
fn stress_throughput_bounded_by_wire_rate() {
    let preset = ClusterPreset::gigabit_ethernet();
    let mut w = preset.build_world(8, 11);
    let result = stress_run(&mut w, &[(0, 4), (1, 5), (2, 6), (3, 7)], 2_000_000);
    for &t in &result.times_secs {
        let bw = result.bytes as f64 / t;
        assert!(bw < 125e6, "per-connection bandwidth {bw} beats the wire");
        assert!(bw > 1e6, "implausibly slow connection: {bw} B/s");
    }
}

#[test]
fn contention_reduces_mean_stress_throughput() {
    // The fig. 2 shape at miniature scale: more simultaneous connections,
    // lower average per-connection bandwidth.
    let preset = ClusterPreset::gigabit_ethernet();
    let mut w1 = preset.build_world(2, 13);
    let single = stress_run(&mut w1, &[(0, 1)], 4_000_000).mean_throughput();
    let mut w8 = preset.build_world(16, 13);
    let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 8)).collect();
    let many = stress_run(&mut w8, &pairs, 4_000_000).mean_throughput();
    assert!(
        many < single,
        "8 connections ({many:.0} B/s) should average below 1 ({single:.0} B/s)"
    );
}

#[test]
fn alltoall_time_scales_with_message_size_when_bandwidth_bound() {
    // Doubling message size at fixed n roughly doubles completion in the
    // bandwidth-bound regime (Myrinet: lossless, no stall quantization).
    let preset = ClusterPreset::myrinet();
    let mut w = preset.build_world(8, 21);
    let t1 = alltoall_times(
        &mut w,
        AllToAllAlgorithm::DirectExchangeNonblocking,
        128 * 1024,
        1,
        2,
    );
    let t2 = alltoall_times(
        &mut w,
        AllToAllAlgorithm::DirectExchangeNonblocking,
        256 * 1024,
        1,
        2,
    );
    let m1: f64 = t1.iter().sum::<f64>() / t1.len() as f64;
    let m2: f64 = t2.iter().sum::<f64>() / t2.len() as f64;
    assert!(m2 > m1 * 1.6, "size doubling: {m1} -> {m2}");
    assert!(m2 < m1 * 2.6, "size doubling: {m1} -> {m2}");
}

#[test]
fn bruck_beats_direct_for_tiny_messages_on_fast_ethernet() {
    // The classic trade-off the baselines exist to show: log-round Bruck
    // wins when start-ups dominate (tiny messages, slow network).
    let preset = ClusterPreset::fast_ethernet();
    let m = 256; // tiny payloads: start-up bound
    let mut w1 = preset.build_world(8, 31);
    let direct = alltoall_times(&mut w1, AllToAllAlgorithm::DirectExchange, m, 1, 2);
    let mut w2 = preset.build_world(8, 31);
    let bruck = alltoall_times(&mut w2, AllToAllAlgorithm::Bruck, m, 1, 2);
    let d: f64 = direct.iter().sum::<f64>() / direct.len() as f64;
    let b: f64 = bruck.iter().sum::<f64>() / bruck.len() as f64;
    assert!(
        b < d,
        "bruck {b} should beat direct {d} at 256-byte messages"
    );
}

#[test]
fn direct_beats_bruck_for_large_messages() {
    // And the reverse at bandwidth-bound sizes (Bruck retransmits bytes).
    let preset = ClusterPreset::myrinet();
    let m = 512 * 1024;
    let mut w1 = preset.build_world(8, 37);
    let direct = alltoall_times(
        &mut w1,
        AllToAllAlgorithm::DirectExchangeNonblocking,
        m,
        1,
        2,
    );
    let mut w2 = preset.build_world(8, 37);
    let bruck = alltoall_times(&mut w2, AllToAllAlgorithm::Bruck, m, 1, 2);
    let d: f64 = direct.iter().sum::<f64>() / direct.len() as f64;
    let b: f64 = bruck.iter().sum::<f64>() / bruck.len() as f64;
    assert!(
        d < b,
        "direct {d} should beat bruck {b} at 512 KiB messages"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let preset = ClusterPreset::myrinet();
        let cal =
            calibrate_signature(&preset, 6, &[65_536, 131_072, 262_144, 524_288], 1234).unwrap();
        (cal.signature.gamma, cal.signature.delta_secs)
    };
    assert_eq!(run(), run());
}
