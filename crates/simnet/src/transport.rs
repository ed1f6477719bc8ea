//! Per-connection transport state machines.
//!
//! Two transports share one skeleton (a reliable, windowed byte stream with
//! message framing):
//!
//! * **TCP-like** (`TransportKind::Tcp`): slow start, AIMD congestion
//!   avoidance, Jacobson RTT estimation, a retransmission timeout with a
//!   200 ms floor and exponential backoff, and NewReno-style fast
//!   retransmit/recovery on three duplicate ACKs. Packet loss at exhausted
//!   switch buffers plus these timeouts are exactly the paper's contention
//!   mechanism ("the slowdown observed in some connections is mostly related
//!   to the time required to detect the loss of TCP packets and their
//!   subsequent retransmission", §3).
//! * **GM-like** (`TransportKind::Gm`): a fixed window, no congestion
//!   control and no retransmission timer — the network is configured
//!   lossless, as Myrinet's link-level backpressure guarantees.
//!
//! A [`Connection`] is one plain struct holding both endpoints' state (the
//! simulator is omniscient): the sender half lives at `src`, the receiver
//! half at `dst`, and the engine keeps its per-connection timer and
//! injection bookkeeping in the same struct.
//!
//! Methods mutate the connection and return [`SendActions`]/[`RecvActions`]
//! describing packets to inject and notifications to raise; the engine
//! applies them. This keeps the borrow graph trivial and the state machine
//! unit-testable without a network.

use crate::config::TransportKind;
use crate::ids::{ConnId, HostId};
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// A run of data segments the engine should inject at the connection's
/// first hop: `count` back-to-back segments of `len` bytes each, segment
/// `i` starting at stream byte `seq + i·len`.
///
/// A window fill emits dozens to hundreds of contiguous same-size
/// segments; representing them as one run keeps the action vector at a
/// handful of entries, and the engine expands it segment by segment with
/// [`SegmentRun::iter`]. `Connection::pump` coalesces as it emits, so a run
/// never mixes lengths or retransmit flags — a trailing partial segment
/// or a Karn-boundary crossing starts a new run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRun {
    /// First stream byte of the run's first segment.
    pub seq: u64,
    /// Payload length of every segment in the run.
    pub len: u32,
    /// Number of segments (≥ 1).
    pub count: u32,
    /// True if these segments are retransmissions (counted, and exempt
    /// from RTT sampling per Karn's rule).
    pub retransmit: bool,
}

impl SegmentRun {
    /// One stream byte past the run's last segment.
    pub fn end(&self) -> u64 {
        self.seq + self.count as u64 * self.len as u64
    }

    /// Total payload bytes across the run.
    pub fn total_bytes(&self) -> u64 {
        self.count as u64 * self.len as u64
    }

    /// The run's segments as `(seq, len)` pairs, in stream order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        (0..self.count).map(move |i| (self.seq + i as u64 * self.len as u64, self.len))
    }
}

/// Retransmission-timer command returned to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerCmd {
    /// Leave the timer as it is.
    #[default]
    Keep,
    /// (Re-)arm the timer at the given absolute deadline.
    Arm(SimTime),
    /// Disarm the timer (all data acknowledged).
    Disarm,
}

/// Sender-side reaction to an event.
#[derive(Debug, Default)]
pub struct SendActions {
    /// Segment runs to inject on the forward route, in stream order.
    pub segments: Vec<SegmentRun>,
    /// Tags of messages whose final byte has just been acknowledged.
    pub send_done: Vec<u64>,
    /// Timer update.
    pub timer: TimerCmd,
    /// A fast retransmit was triggered (for counters).
    pub fast_retransmit: bool,
    /// A retransmission timeout was taken (for counters).
    pub timeout: bool,
}

impl SendActions {
    /// Appends one segment, extending the trailing run when it is
    /// contiguous with it and shares its length and retransmit flag.
    /// Coalescing is representational only: the engine injects a run
    /// exactly as it would the equivalent individual segments.
    fn emit_segment(&mut self, seq: u64, len: u32, retransmit: bool) {
        if let Some(last) = self.segments.last_mut() {
            if last.retransmit == retransmit && last.len == len && last.end() == seq {
                last.count += 1;
                return;
            }
        }
        self.segments.push(SegmentRun {
            seq,
            len,
            count: 1,
            retransmit,
        });
    }
}

/// Receiver-side reaction to a data segment.
#[derive(Debug)]
pub struct RecvActions {
    /// Cumulative acknowledgement to emit on the reverse route.
    pub ack: u64,
    /// Tags of messages fully received, in order.
    pub delivered: Vec<u64>,
}

/// One unidirectional transport connection between two hosts.
///
/// Holds both endpoints' state (the simulator is omniscient): the sender
/// half lives at `src`, the receiver half at `dst`. Routes are not held
/// here: the engine resolves a packet's route through its own flow table.
#[derive(Debug)]
pub struct Connection {
    /// First unacknowledged stream byte (sender half).
    pub(crate) snd_una: u64,
    /// Transmission frontier: next stream byte to send.
    pub(crate) snd_nxt: u64,
    /// Receiver half: next in-order byte expected.
    pub(crate) rcv_nxt: u64,
    /// Congestion window in bytes (f64: AIMD growth is fractional).
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    /// Hard window cap (receiver window / fixed GM window), bytes.
    max_window: u64,
    /// Segment payload size, bytes.
    mtu: u32,
    /// Duplicate-ACK counter.
    dupacks: u16,
    /// The sender is inside NewReno fast recovery.
    in_recovery: bool,
    /// Total bytes handed to `on_app_send`.
    pub(crate) stream_len: u64,
    /// Karn's rule across go-back-N: no RTT sampling below this sequence
    /// (bytes that may have been transmitted more than once).
    probe_floor: u64,
    /// In-flight RTT probe: `(stream offset whose ACK completes it, send
    /// time)`.
    rtt_probe: Option<(u64, SimTime)>,
    /// Current retransmission timeout, nanoseconds.
    rto_ns: u64,
    /// NewReno recovery point (`snd_nxt` at loss detection).
    recover: u64,
    /// Smoothed RTT estimate, nanoseconds.
    srtt_ns: f64,
    /// RTT variance estimate, nanoseconds.
    rttvar_ns: f64,
    /// Whether any RTT sample has been taken.
    has_rtt: bool,
    /// Transport parameters (thresholds, RTO clamps).
    kind: TransportKind,
    /// Connection id (index in the engine's connection table).
    pub(crate) id: ConnId,
    /// Sending host.
    pub(crate) src: HostId,
    /// Receiving host.
    pub(crate) dst: HostId,
    /// Sender message boundaries: `(stream end offset, tag)`.
    msgs_out: VecDeque<(u64, u64)>,
    /// Receiver message boundaries, same framing (shared out of band —
    /// the simulator is omniscient; this stands in for the MPI envelope).
    msgs_in: VecDeque<(u64, u64)>,
    /// Out-of-order received runs: `start → end`, coalesced lazily; an
    /// in-order arrival merges the runs it makes contiguous.
    ooo: BTreeMap<u64, u64>,
    /// Engine bookkeeping: current timer deadline, if armed.
    pub(crate) timer_deadline: Option<SimTime>,
    /// Engine bookkeeping: a timer event is sitting in the queue.
    pub(crate) timer_pushed: bool,
    /// Engine bookkeeping: monotonic clamp for jittered data injections.
    pub(crate) last_data_inject: SimTime,
    /// Engine bookkeeping: monotonic clamp for jittered ACK injections.
    pub(crate) last_ack_inject: SimTime,
}

impl Connection {
    /// Creates an idle connection.
    pub fn new(id: ConnId, src: HostId, dst: HostId, kind: TransportKind) -> Self {
        let mtu = kind.mtu();
        let max_window = kind.window_bytes().max(mtu as u64);
        let (cwnd, rto_ns) = match kind {
            TransportKind::Tcp(c) => (
                (c.initial_cwnd_segments as u64 * mtu as u64) as f64,
                c.initial_rto_ns,
            ),
            TransportKind::Gm(_) => (max_window as f64, u64::MAX),
        };
        Self {
            snd_una: 0,
            snd_nxt: 0,
            rcv_nxt: 0,
            cwnd,
            ssthresh: max_window as f64,
            max_window,
            mtu,
            dupacks: 0,
            in_recovery: false,
            stream_len: 0,
            probe_floor: 0,
            rtt_probe: None,
            rto_ns,
            recover: 0,
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            has_rtt: false,
            kind,
            id,
            src,
            dst,
            msgs_out: VecDeque::new(),
            msgs_in: VecDeque::new(),
            ooo: BTreeMap::new(),
            timer_deadline: None,
            timer_pushed: false,
            last_data_inject: SimTime::ZERO,
            last_ack_inject: SimTime::ZERO,
        }
    }

    /// The transport runs TCP congestion control (else GM).
    #[inline]
    fn is_tcp(&self) -> bool {
        matches!(self.kind, TransportKind::Tcp(_))
    }

    /// Bytes in flight (sent but unacknowledged).
    #[inline]
    pub fn flight(&self) -> u64 {
        debug_assert!(self.snd_nxt >= self.snd_una, "frontier behind ack point");
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// True when every byte handed to `on_app_send` has been acknowledged.
    pub fn quiescent(&self) -> bool {
        self.snd_una == self.stream_len
    }

    /// Current congestion window in bytes (diagnostics).
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current retransmission timeout in nanoseconds (diagnostics).
    pub fn rto_nanos(&self) -> u64 {
        self.rto_ns
    }

    #[inline]
    fn effective_window(&self) -> u64 {
        (self.cwnd as u64).min(self.max_window)
    }

    /// Application queues `len` bytes tagged `tag` on the stream.
    pub fn on_app_send(&mut self, len: u64, tag: u64, now: SimTime) -> SendActions {
        assert!(len > 0, "zero-length messages are framed by the MPI layer");
        self.stream_len += len;
        self.msgs_out.push_back((self.stream_len, tag));
        self.msgs_in.push_back((self.stream_len, tag));
        let mut actions = SendActions::default();
        self.pump(now, &mut actions);
        actions
    }

    /// Fills the window with new segments.
    fn pump(&mut self, now: SimTime, actions: &mut SendActions) {
        let had_flight = self.flight() > 0;
        loop {
            let remaining = self.stream_len - self.snd_nxt;
            if remaining == 0 {
                break;
            }
            let seg = remaining.min(self.mtu as u64);
            let flight = self.flight();
            // A whole segment must fit in the window — except that an idle
            // sender may always emit one segment, so a post-RTO congestion
            // window below one MTU cannot deadlock the stream.
            if flight > 0 && flight + seg > self.effective_window() {
                break;
            }
            let len = seg as u32;
            let seq = self.snd_nxt;
            let retransmit = seq < self.probe_floor; // go-back-N resend
            self.snd_nxt += len as u64;
            if self.rtt_probe.is_none() && seq >= self.probe_floor {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            actions.emit_segment(seq, len, retransmit);
        }
        if !had_flight && self.flight() > 0 && self.is_tcp() {
            actions.timer = TimerCmd::Arm(now + self.rto_ns);
        }
    }

    /// Receiver half: a data segment arrived at `dst`.
    pub fn on_data(&mut self, seq: u64, len: u32) -> RecvActions {
        let end = seq + len as u64;
        if end > self.rcv_nxt {
            if seq <= self.rcv_nxt {
                // In-order (possibly partially duplicate): advance.
                self.rcv_nxt = end;
                // Merge any out-of-order runs now contiguous.
                while let Some((&start, &run_end)) = self.ooo.iter().next() {
                    if start > self.rcv_nxt {
                        break;
                    }
                    self.ooo.remove(&start);
                    self.rcv_nxt = self.rcv_nxt.max(run_end);
                }
            } else {
                // Out of order: record the run, coalescing overlaps lazily.
                let entry = self.ooo.entry(seq).or_insert(end);
                *entry = (*entry).max(end);
            }
        }
        let mut delivered = Vec::new();
        while let Some(&(msg_end, tag)) = self.msgs_in.front() {
            if msg_end > self.rcv_nxt {
                break;
            }
            self.msgs_in.pop_front();
            delivered.push(tag);
        }
        RecvActions {
            ack: self.rcv_nxt,
            delivered,
        }
    }

    /// Sender half: a cumulative ACK arrived back at `src`.
    pub fn on_ack(&mut self, ack: u64, now: SimTime) -> SendActions {
        let mut actions = SendActions::default();
        if ack > self.snd_una {
            let bytes_acked = ack - self.snd_una;
            self.snd_una = ack;
            // After a go-back-N rewind, ACKs for the pre-timeout flight can
            // overtake the rewound frontier; transmission resumes from the
            // acknowledged point.
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            self.dupacks = 0;
            // Karn-compliant RTT sample.
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack >= probe_end {
                    self.rtt_sample(now.since(sent_at));
                    self.rtt_probe = None;
                }
            }
            while let Some(&(msg_end, tag)) = self.msgs_out.front() {
                if msg_end <= self.snd_una {
                    self.msgs_out.pop_front();
                    actions.send_done.push(tag);
                } else {
                    break;
                }
            }
            if self.is_tcp() {
                let mtu = self.mtu as f64;
                if self.in_recovery {
                    if ack >= self.recover {
                        self.in_recovery = false;
                        self.cwnd = self.ssthresh;
                    } else {
                        // NewReno partial ACK: retransmit the next hole,
                        // deflate by the acked amount, inflate by one MTU.
                        let len = (self.snd_nxt - self.snd_una).min(self.mtu as u64) as u32;
                        if len > 0 {
                            actions.emit_segment(self.snd_una, len, true);
                            self.rtt_probe = None;
                        }
                        self.cwnd = (self.cwnd - bytes_acked as f64 + mtu).max(mtu);
                    }
                } else if self.cwnd < self.ssthresh {
                    // Slow start.
                    self.cwnd = (self.cwnd + bytes_acked as f64).min(self.max_window as f64);
                } else {
                    // Congestion avoidance: one MTU per window's worth.
                    self.cwnd = (self.cwnd + mtu * mtu / self.cwnd).min(self.max_window as f64);
                }
                actions.timer = if self.snd_una == self.snd_nxt {
                    TimerCmd::Disarm
                } else {
                    TimerCmd::Arm(now + self.rto_ns)
                };
            }
            self.pump(now, &mut actions);
        } else if ack == self.snd_una && self.flight() > 0 && self.is_tcp() {
            // Saturating: the window cap bounds genuine dup-ACK streaks to
            // ~window/MTU, far below u16::MAX; saturation only matters for
            // absurd (> 65535) thresholds, which then simply never fire.
            self.dupacks = self.dupacks.saturating_add(1);
            let threshold = match self.kind {
                TransportKind::Tcp(c) => c.dupack_threshold,
                TransportKind::Gm(_) => u32::MAX,
            };
            if self.dupacks as u32 == threshold && !self.in_recovery {
                // Fast retransmit + NewReno recovery.
                let flight = self.flight() as f64;
                self.ssthresh = (flight / 2.0).max(2.0 * self.mtu as f64);
                self.cwnd = self.ssthresh + 3.0 * self.mtu as f64;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                let len = (self.snd_nxt - self.snd_una).min(self.mtu as u64) as u32;
                actions.emit_segment(self.snd_una, len, true);
                self.rtt_probe = None;
                actions.fast_retransmit = true;
                actions.timer = TimerCmd::Arm(now + self.rto_ns);
            } else if self.in_recovery {
                self.cwnd += self.mtu as f64;
                self.pump(now, &mut actions);
            }
        }
        actions
    }

    /// The retransmission timer fired.
    pub fn on_rto(&mut self, now: SimTime) -> SendActions {
        let mut actions = SendActions::default();
        let tcp = match self.kind {
            TransportKind::Tcp(c) if self.flight() > 0 => c,
            // Nothing outstanding, or GM (which never arms the timer).
            _ => {
                actions.timer = TimerCmd::Disarm;
                return actions;
            }
        };
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * self.mtu as f64);
        self.cwnd = self.mtu as f64;
        self.in_recovery = false;
        self.dupacks = 0;
        // Karn: no RTT samples from anything at or below the old frontier —
        // those bytes may now be transmitted twice.
        self.rtt_probe = None;
        self.probe_floor = self.probe_floor.max(self.snd_nxt);
        self.rto_ns = (self.rto_ns.saturating_mul(2)).clamp(tcp.min_rto_ns, tcp.max_rto_ns);
        // Go-back-N: resume transmission from the first unacknowledged
        // byte. Cumulative ACKs skip whatever the receiver already holds,
        // and slow start refills the window without requiring a separate
        // timeout per hole (serial-RTO starvation is not how TCP behaves).
        self.snd_nxt = self.snd_una;
        self.pump(now, &mut actions);
        actions.timeout = true;
        actions.timer = TimerCmd::Arm(now + self.rto_ns);
        actions
    }

    fn rtt_sample(&mut self, sample_ns: u64) {
        let sample = sample_ns as f64;
        if !self.has_rtt {
            self.srtt_ns = sample;
            self.rttvar_ns = sample / 2.0;
            self.has_rtt = true;
        } else {
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (self.srtt_ns - sample).abs();
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * sample;
        }
        if let TransportKind::Tcp(c) = self.kind {
            let rto = self.srtt_ns + 4.0 * self.rttvar_ns;
            self.rto_ns = (rto as u64).clamp(c.min_rto_ns, c.max_rto_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GmConfig, TcpConfig};

    fn conn(kind: TransportKind) -> Connection {
        Connection::new(
            ConnId::from_index(0),
            HostId::from_index(0),
            HostId::from_index(1),
            kind,
        )
    }

    fn tcp() -> Connection {
        conn(TransportKind::Tcp(TcpConfig::default()))
    }

    /// Expands the run-compressed segment list into per-segment
    /// `(seq, len, retransmit)` triples, the shape the engine injects.
    fn flat(a: &SendActions) -> Vec<(u64, u32, bool)> {
        a.segments
            .iter()
            .flat_map(|r| r.iter().map(|(seq, len)| (seq, len, r.retransmit)))
            .collect()
    }

    #[test]
    fn initial_send_respects_initial_cwnd() {
        let mut c = tcp();
        let a = c.on_app_send(100_000, 1, SimTime::ZERO);
        // initial cwnd = 2 segments, coalesced into one contiguous run.
        assert_eq!(flat(&a), vec![(0, 1460, false), (1460, 1460, false)]);
        assert_eq!(
            a.segments.len(),
            1,
            "contiguous same-size segments coalesce"
        );
        assert!(matches!(a.timer, TimerCmd::Arm(_)));
        assert_eq!(c.flight(), 2920);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = tcp();
        let _ = c.on_app_send(1_000_000, 1, SimTime::ZERO);
        let before = c.cwnd_bytes();
        // Ack both initial segments.
        let a = c.on_ack(2920, SimTime(1_000_000));
        assert!(c.cwnd_bytes() >= before + 2920);
        // Acking opened the window: roughly twice as many segments go out.
        assert!(flat(&a).len() >= 3, "got {}", flat(&a).len());
    }

    #[test]
    fn in_order_delivery_reports_messages() {
        let mut c = tcp();
        let _ = c.on_app_send(2000, 7, SimTime::ZERO);
        let r1 = c.on_data(0, 1460);
        assert_eq!(r1.ack, 1460);
        assert!(r1.delivered.is_empty());
        let r2 = c.on_data(1460, 540);
        assert_eq!(r2.ack, 2000);
        assert_eq!(r2.delivered, vec![7]);
    }

    #[test]
    fn out_of_order_data_held_then_merged() {
        let mut c = tcp();
        let _ = c.on_app_send(4380, 9, SimTime::ZERO);
        let r = c.on_data(1460, 1460);
        assert_eq!(r.ack, 0, "dup-ack for the hole");
        let r = c.on_data(2920, 1460);
        assert_eq!(r.ack, 0);
        let r = c.on_data(0, 1460);
        assert_eq!(r.ack, 4380, "hole filled merges the whole run");
        assert_eq!(r.delivered, vec![9]);
    }

    #[test]
    fn duplicate_data_reacked_not_redelivered() {
        let mut c = tcp();
        let _ = c.on_app_send(1460, 3, SimTime::ZERO);
        let r1 = c.on_data(0, 1460);
        assert_eq!(r1.delivered, vec![3]);
        let r2 = c.on_data(0, 1460);
        assert_eq!(r2.ack, 1460);
        assert!(r2.delivered.is_empty());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut c = tcp();
        let _ = c.on_app_send(100_000, 1, SimTime::ZERO);
        let _ = c.on_ack(2920, SimTime(100)); // grow window a bit
        let mut fast = false;
        for i in 0..3 {
            let a = c.on_ack(2920, SimTime(200 + i));
            if a.fast_retransmit {
                fast = true;
                assert_eq!(flat(&a).len(), 1);
                assert!(a.segments[0].retransmit);
                assert_eq!(a.segments[0].seq, 2920);
            }
        }
        assert!(fast, "third duplicate ACK must fast-retransmit");
    }

    #[test]
    fn rto_backs_off_and_retransmits_head() {
        let mut c = tcp();
        let _ = c.on_app_send(100_000, 1, SimTime::ZERO);
        let rto_before = c.rto_nanos();
        let a = c.on_rto(SimTime(rto_before));
        assert!(a.timeout);
        assert_eq!(flat(&a), vec![(0, 1460, true)]);
        assert_eq!(c.cwnd_bytes(), 1460);
        assert!(c.rto_nanos() >= rto_before, "exponential backoff");
    }

    #[test]
    fn rto_with_nothing_outstanding_disarms() {
        let mut c = tcp();
        let a = c.on_rto(SimTime(0));
        assert!(!a.timeout);
        assert_eq!(a.timer, TimerCmd::Disarm);
    }

    #[test]
    fn send_done_reported_when_fully_acked() {
        let mut c = tcp();
        let _ = c.on_app_send(1000, 42, SimTime::ZERO);
        let a = c.on_ack(1000, SimTime(500_000));
        assert_eq!(a.send_done, vec![42]);
        assert!(c.quiescent());
        assert_eq!(a.timer, TimerCmd::Disarm);
    }

    #[test]
    fn rtt_sample_updates_rto() {
        let mut c = tcp();
        let _ = c.on_app_send(1460, 1, SimTime::ZERO);
        let _ = c.on_ack(1460, SimTime(50_000_000)); // 50 ms RTT
                                                     // RTO = srtt + 4*rttvar = 50ms + 4*25ms = 150ms → clamped to 200ms.
        assert_eq!(c.rto_nanos(), 200_000_000);
        let mut c2 = tcp();
        let _ = c2.on_app_send(1460, 1, SimTime::ZERO);
        let _ = c2.on_ack(1460, SimTime(200_000_000)); // 200 ms RTT
        assert_eq!(c2.rto_nanos(), 600_000_000);
    }

    #[test]
    fn gm_uses_full_window_immediately() {
        let mut c = conn(TransportKind::Gm(GmConfig {
            mtu: 4096,
            window_bytes: 16 * 4096,
        }));
        let a = c.on_app_send(1_000_000, 1, SimTime::ZERO);
        assert_eq!(flat(&a).len(), 16, "fixed window fills at once");
        assert_eq!(
            a.segments,
            vec![SegmentRun {
                seq: 0,
                len: 4096,
                count: 16,
                retransmit: false,
            }],
            "a window fill is one run, not 16 entries"
        );
        assert_eq!(a.timer, TimerCmd::Keep, "GM never arms the RTO timer");
    }

    #[test]
    fn gm_ack_advances_without_congestion_control() {
        let mut c = conn(TransportKind::Gm(GmConfig::default()));
        let _ = c.on_app_send(10 * 4096, 1, SimTime::ZERO);
        let w = c.cwnd_bytes();
        let a = c.on_ack(4096, SimTime(1000));
        assert_eq!(c.cwnd_bytes(), w, "window is fixed");
        assert_eq!(a.segments.len(), 0, "stream already fully in flight");
        let a = c.on_ack(10 * 4096, SimTime(2000));
        assert_eq!(a.send_done, vec![1]);
    }

    #[test]
    fn multiple_messages_share_the_stream_in_order() {
        let mut c = tcp();
        let _ = c.on_app_send(1000, 1, SimTime::ZERO);
        let _ = c.on_app_send(1000, 2, SimTime::ZERO);
        let r = c.on_data(0, 1460);
        assert_eq!(r.delivered, vec![1]);
        let r = c.on_data(1460, 540);
        assert_eq!(r.delivered, vec![2]);
    }

    #[test]
    fn late_ack_after_go_back_n_does_not_wedge() {
        let mut c = tcp();
        let _ = c.on_app_send(100_000, 1, SimTime::ZERO);
        let _ = c.on_ack(2920, SimTime(100)); // window opens, more in flight
        let frontier = c.snd_nxt;
        assert!(frontier > 2920);
        // Timeout rewinds the frontier to snd_una.
        let a = c.on_rto(SimTime(1_000_000_000));
        assert!(a.timeout);
        // A straggling ACK for the original flight overtakes the rewind.
        let late_ack = frontier;
        let a = c.on_ack(late_ack, SimTime(1_000_000_100));
        assert!(c.flight() <= c.cwnd_bytes() + 1460);
        assert!(!a.segments.is_empty(), "transmission resumes past the ack");
        assert!(flat(&a).iter().all(|&(seq, _, _)| seq >= late_ack));
        // The stream must still be able to finish.
        let _ = c.on_ack(100_000, SimTime(2_000_000_000));
        assert!(c.quiescent());
    }

    #[test]
    fn rto_rewinds_and_resends_from_una() {
        let mut c = tcp();
        let _ = c.on_app_send(100_000, 1, SimTime::ZERO);
        let _ = c.on_ack(1460, SimTime(100));
        let a = c.on_rto(SimTime(1_000_000_000));
        assert!(a.timeout);
        assert_eq!(
            flat(&a),
            vec![(1460, 1460, true)],
            "cwnd=1 after timeout; go-back-N restarts at snd_una"
        );
    }

    #[test]
    fn runs_split_at_the_partial_tail() {
        // 10 full GM frames plus a 100-byte tail: one 10-segment run, then
        // a separate single-segment run (lengths never mix within a run).
        let mut c = conn(TransportKind::Gm(GmConfig::default()));
        let a = c.on_app_send(10 * 4096 + 100, 1, SimTime::ZERO);
        assert_eq!(
            a.segments,
            vec![
                SegmentRun {
                    seq: 0,
                    len: 4096,
                    count: 10,
                    retransmit: false,
                },
                SegmentRun {
                    seq: 10 * 4096,
                    len: 100,
                    count: 1,
                    retransmit: false,
                },
            ]
        );
        assert_eq!(a.segments[0].end(), 10 * 4096);
        assert_eq!(a.segments[0].total_bytes(), 10 * 4096);
    }

    #[test]
    fn recovery_exits_at_recover_point() {
        let mut c = tcp();
        let _ = c.on_app_send(100_000, 1, SimTime::ZERO);
        let _ = c.on_ack(2920, SimTime(100));
        for i in 0..3 {
            let _ = c.on_ack(2920, SimTime(200 + i));
        }
        assert!(c.in_recovery);
        let recover = c.recover;
        let _ = c.on_ack(recover, SimTime(400));
        assert!(!c.in_recovery);
        assert_eq!(c.cwnd_bytes() as f64, c.ssthresh);
    }
}
