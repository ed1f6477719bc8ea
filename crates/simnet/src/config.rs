//! Configuration types: links, switches, transports.

/// One physical link (both directions get the same parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Raw bandwidth in bytes per second (e.g. Fast Ethernet = 12.5e6).
    pub bandwidth_bytes_per_sec: f64,
    /// One-way latency in nanoseconds: propagation plus the downstream
    /// device's forwarding cost.
    pub latency_ns: u64,
}

impl LinkConfig {
    /// Fast Ethernet: 100 Mb/s, ~30 µs one-way (NIC + switch forwarding).
    pub fn fast_ethernet() -> Self {
        Self {
            bandwidth_bytes_per_sec: 12.5e6,
            latency_ns: 30_000,
        }
    }

    /// Gigabit Ethernet: 1 Gb/s, ~25 µs one-way.
    pub fn gigabit_ethernet() -> Self {
        Self {
            bandwidth_bytes_per_sec: 125e6,
            latency_ns: 25_000,
        }
    }

    /// Myrinet 2000: 2 Gb/s, ~5 µs one-way (cut-through fabric).
    pub fn myrinet_2000() -> Self {
        Self {
            bandwidth_bytes_per_sec: 250e6,
            latency_ns: 5_000,
        }
    }
}

/// A switch with a shared output-buffer pool.
///
/// Real commodity Ethernet switches share a small packet memory across
/// ports; when many bursts collide the pool exhausts and arriving frames are
/// tail-dropped. That drop is the contention mechanism the paper identifies
/// (§3, citing Grove: "contention originates mostly because of network
/// overload, which forces message drops on bottleneck devices").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Shared buffer pool in bytes across all output ports.
    pub shared_buffer_bytes: u64,
    /// Maximum bytes one output-port queue may take from the shared pool
    /// (the "dynamic threshold" of shared-memory switches). Without this
    /// cap a single congested uplink queue would absorb the whole pool and
    /// blackhole every other port of the switch.
    pub per_port_cap_bytes: u64,
}

impl SwitchConfig {
    /// A typical 2006-era commodity GbE switch: a few hundred KiB of shared
    /// packet memory, each port limited to a quarter of it.
    pub fn commodity_ethernet() -> Self {
        Self {
            shared_buffer_bytes: 512 * 1024,
            per_port_cap_bytes: 128 * 1024,
        }
    }

    /// An effectively lossless fabric (Myrinet crossbar with link-level
    /// backpressure): modeled as a buffer large enough never to drop; the
    /// transport's bounded window keeps real occupancy small.
    pub fn lossless_fabric() -> Self {
        Self {
            shared_buffer_bytes: u64::MAX / 2,
            per_port_cap_bytes: u64::MAX / 2,
        }
    }
}

/// TCP-like transport parameters (LAM-MPI over TCP on Linux 2.4/2.6-era
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment payload in bytes.
    pub mss: u32,
    /// Receiver window / socket buffer in bytes (caps the congestion window).
    pub window_bytes: u64,
    /// Initial congestion window in segments.
    pub initial_cwnd_segments: u32,
    /// Minimum retransmission timeout in nanoseconds (Linux: 200 ms).
    pub min_rto_ns: u64,
    /// Maximum retransmission timeout in nanoseconds.
    pub max_rto_ns: u64,
    /// Initial RTO before any RTT sample, in nanoseconds.
    pub initial_rto_ns: u64,
    /// Number of duplicate ACKs triggering fast retransmit.
    pub dupack_threshold: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            mss: 1460,
            window_bytes: 256 * 1024,
            initial_cwnd_segments: 2,
            min_rto_ns: 200_000_000, // 200 ms
            max_rto_ns: 60_000_000_000,
            initial_rto_ns: 1_000_000_000, // 1 s (RFC 2988 era: 3 s; Linux: 1 s)
            dupack_threshold: 3,
        }
    }
}

/// GM-like transport parameters (Myrinet): reliable in hardware, no
/// congestion control, fixed window, larger MTU, no retransmission timer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmConfig {
    /// Maximum packet payload (gm uses up to 4 KiB frames).
    pub mtu: u32,
    /// Fixed send window in bytes (pinned receive buffers).
    pub window_bytes: u64,
}

impl Default for GmConfig {
    fn default() -> Self {
        Self {
            mtu: 4096,
            window_bytes: 1024 * 1024,
        }
    }
}

/// Which transport a connection runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportKind {
    /// Lossy network, TCP-like loss recovery and congestion control.
    Tcp(TcpConfig),
    /// Lossless network, fixed-window reliable transport.
    Gm(GmConfig),
}

impl TransportKind {
    /// Segment payload size.
    pub fn mtu(&self) -> u32 {
        match self {
            TransportKind::Tcp(c) => c.mss,
            TransportKind::Gm(c) => c.mtu,
        }
    }

    /// Window (max unacknowledged bytes in flight).
    pub fn window_bytes(&self) -> u64 {
        match self {
            TransportKind::Tcp(c) => c.window_bytes,
            TransportKind::Gm(c) => c.window_bytes,
        }
    }
}

/// Simulator-global knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Per-packet header overhead on the wire (Ethernet + IP + TCP ≈ 66 B
    /// with preamble and inter-frame gap amortized).
    pub header_bytes: u32,
    /// Wire size of a pure ACK.
    pub ack_bytes: u32,
    /// Uniform per-packet injection jitter upper bound in nanoseconds;
    /// breaks artificial phase-locking between symmetric senders.
    pub injection_jitter_ns: u64,
    /// Uniform jitter added to every retransmission-timer deadline,
    /// nanoseconds. Real kernels quantize RTO to timer ticks and fire it
    /// from softirq context, so two flows never time out in lockstep; with
    /// zero jitter here, simultaneous losers retransmit in perfect sync,
    /// collide again and spiral into synchronized exponential backoff — a
    /// livelock real networks do not exhibit.
    pub rto_jitter_ns: u64,
    /// RNG seed for jitter.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            header_bytes: 66,
            ack_bytes: 66,
            injection_jitter_ns: 2_000,
            rto_jitter_ns: 30_000_000,
            seed: 0x5EED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_rates() {
        assert_eq!(LinkConfig::fast_ethernet().bandwidth_bytes_per_sec, 12.5e6);
        assert_eq!(
            LinkConfig::gigabit_ethernet().bandwidth_bytes_per_sec,
            125e6
        );
        assert_eq!(LinkConfig::myrinet_2000().bandwidth_bytes_per_sec, 250e6);
    }

    #[test]
    fn transport_accessors_dispatch() {
        let tcp = TransportKind::Tcp(TcpConfig::default());
        assert_eq!(tcp.mtu(), 1460);
        assert_eq!(tcp.window_bytes(), 256 * 1024);
        let gm = TransportKind::Gm(GmConfig::default());
        assert_eq!(gm.mtu(), 4096);
        assert_eq!(gm.window_bytes(), 1024 * 1024);
    }

    #[test]
    fn lossless_fabric_never_realistically_fills() {
        let c = SwitchConfig::lossless_fabric();
        assert!(c.shared_buffer_bytes > 1u64 << 60);
    }
}
