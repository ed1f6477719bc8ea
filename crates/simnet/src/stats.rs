//! Aggregate counters collected during a simulation run.

/// Network-wide counters. Cheap to copy out after a run; used by tests to
/// assert on mechanisms (e.g. "the lossless fabric really dropped nothing")
/// and by experiments to report loss rates alongside completion times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data segments injected by senders (including retransmissions).
    pub data_packets_sent: u64,
    /// Pure ACK packets injected by receivers.
    pub ack_packets_sent: u64,
    /// Data payload bytes injected (including retransmissions).
    pub data_bytes_sent: u64,
    /// Packets tail-dropped at exhausted buffer pools.
    pub packets_dropped: u64,
    /// Data segments re-sent after loss detection.
    pub retransmissions: u64,
    /// Retransmission-timeout events that actually retransmitted.
    pub timeouts: u64,
    /// Fast-retransmit events (triple duplicate ACK).
    pub fast_retransmits: u64,
    /// Application messages fully delivered.
    pub messages_delivered: u64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Peak bytes queued at any bounded transmitter port (lossless
    /// "unbounded" ports skip occupancy accounting and never register).
    pub max_queue_depth: u64,
}

impl NetStats {
    /// Fraction of injected packets that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.data_packets_sent + self.ack_packets_sent;
        if total == 0 {
            0.0
        } else {
            self.packets_dropped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_rate_handles_zero_traffic() {
        assert_eq!(NetStats::default().drop_rate(), 0.0);
    }

    #[test]
    fn drop_rate_is_a_fraction() {
        let s = NetStats {
            data_packets_sent: 90,
            ack_packets_sent: 10,
            packets_dropped: 25,
            ..Default::default()
        };
        assert!((s.drop_rate() - 0.25).abs() < 1e-12);
    }
}
