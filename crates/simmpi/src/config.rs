//! MPI-layer configuration.

use simnet::config::SimConfig;

/// Seeds one measurement cell: the simulator config draws from `seed`,
/// `mpi` from a fixed scramble of it, so the two streams differ. Every
/// cell world — presets' and the scenario layer's, packet and fluid — is
/// seeded here.
pub fn seed_cell(mpi: MpiConfig, seed: u64) -> (SimConfig, MpiConfig) {
    let sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mpi = MpiConfig {
        seed: seed ^ 0x5A5A_5A5A,
        ..mpi
    };
    (sim, mpi)
}

/// Parameters of the simulated MPI point-to-point protocol stack.
///
/// These model a LAM-MPI-era TCP RPI: messages at or below the eager
/// threshold are shipped immediately with their envelope; larger messages do
/// a rendezvous (RTS envelope → CTS → data). Per-message host overheads
/// carry uniform jitter, which is what lets simulated rounds drift out of
/// phase the way real clusters do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiConfig {
    /// Largest payload (bytes) sent eagerly; above this, rendezvous.
    pub eager_threshold: u64,
    /// Envelope bytes prepended to eager payloads and used as the RTS size.
    pub envelope_bytes: u64,
    /// Clear-to-send control message size in bytes.
    pub cts_bytes: u64,
    /// Sender CPU overhead per message, nanoseconds.
    pub send_overhead_ns: u64,
    /// Receiver CPU overhead per message, nanoseconds.
    pub recv_overhead_ns: u64,
    /// Uniform jitter bound added to each CPU overhead, nanoseconds.
    pub overhead_jitter_ns: u64,
    /// Probability that a CPU overhead additionally suffers an OS
    /// scheduling hiccup (kernel timeslice preemption). TCP stacks live in
    /// the kernel and eat these; OS-bypass stacks like Myrinet's `gm` do
    /// not, which is why the paper measures δ in milliseconds on Ethernet
    /// and below a microsecond on Myrinet.
    pub hiccup_probability: f64,
    /// Mean hiccup duration in nanoseconds (drawn uniform in
    /// `[0.5×, 1.5×]` of this mean).
    pub hiccup_mean_ns: u64,
    /// Idle gap inserted between timed repetitions, nanoseconds.
    pub rep_gap_ns: u64,
    /// Seed for the executor's jitter RNG.
    pub seed: u64,
}

impl Default for MpiConfig {
    fn default() -> Self {
        Self {
            eager_threshold: 8 * 1024,
            envelope_bytes: 64,
            cts_bytes: 32,
            send_overhead_ns: 4_000,
            recv_overhead_ns: 4_000,
            overhead_jitter_ns: 2_000,
            hiccup_probability: 0.0,
            hiccup_mean_ns: 0,
            rep_gap_ns: 1_000_000,
            seed: 0xA117_0A11,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_eager_below_threshold() {
        let c = MpiConfig::default();
        assert!(c.eager_threshold >= 1024);
        assert!(c.envelope_bytes > 0);
    }
}
