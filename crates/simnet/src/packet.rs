//! Packets in the engine's 16-byte storage layout, and application-level
//! notifications.
//!
//! The engine moves every in-flight packet through the event queue, the
//! transmitter bands and the serializer slots many times per hop, so it
//! stores and moves only the 16-byte [`PackedPacket`]: the stream offset
//! stays a full `u64`, while the owning connection and travel direction
//! compress into one *flow word* and `len`/`hop`/`retransmit` share one
//! bitfield word, read back through accessors.
//!
//! A packet does not carry its route. The route is a pure function of
//! `(conn, kind)` — data follows the connection's forward route, ACKs the
//! reverse route — so the engine resolves it through its flat flow table
//! (each row a span of the engine's own hop table, copied from the
//! topology when the connection opens) indexed by
//! [`PackedPacket::flow_index`], and the packet itself stays at 16 bytes.

use crate::ids::ConnId;
use crate::time::SimTime;

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment: bytes `[seq, seq + len)` of the connection's stream.
    Data,
    /// A cumulative acknowledgement up to byte `seq` (len is 0).
    Ack,
}

/// Payload length field width in `PackedPacket::meta`: 22 bits, so any
/// segment up to 4 MiB − 1 — far beyond every transport MTU — packs
/// losslessly.
pub const LEN_BITS: u32 = 22;
/// Hop field width: 9 bits, 512 hops — no sane fabric routes longer.
pub const HOP_BITS: u32 = 9;
/// Maximum packable payload length.
pub const MAX_LEN: u32 = (1 << LEN_BITS) - 1;
/// Maximum packable hop index.
pub const MAX_HOP: u16 = (1 << HOP_BITS) - 1;

const HOP_SHIFT: u32 = LEN_BITS;
const RETX_SHIFT: u32 = LEN_BITS + HOP_BITS;
const HOP_MASK: u32 = (MAX_HOP as u32) << HOP_SHIFT;

/// A packet in flight, in the engine's 16-byte storage layout.
///
/// * `seq` — full-width stream offset (data: first byte carried; ACK:
///   cumulative ack offset).
/// * `flow` — `conn·2 + direction`: the owning connection and whether the
///   packet travels the forward (data, even) or reverse (ACK, odd) route.
/// * `meta` — `retransmit:1 | hop:9 | len:22` bitfield.
///
/// The `const` assertion below makes any accidental regrowth (a new field,
/// a widened one) a compile error instead of a silent hot-loop slowdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedPacket {
    /// Data: first stream byte carried. Ack: cumulative ack offset.
    pub seq: u64,
    flow: u32,
    meta: u32,
}

const _: () = assert!(
    std::mem::size_of::<PackedPacket>() == 16,
    "PackedPacket must stay 16 bytes: bands and event traffic scale with it"
);

impl PackedPacket {
    /// Packs a fresh data segment at hop 0.
    ///
    /// # Panics
    /// Panics if `len` exceeds [`MAX_LEN`] (no transport MTU comes close).
    pub fn data(conn: ConnId, seq: u64, len: u32, retransmit: bool) -> Self {
        assert!(
            len <= MAX_LEN,
            "segment length {len} overflows the bitfield"
        );
        Self {
            seq,
            flow: conn.index() as u32 * 2,
            meta: len | (retransmit as u32) << RETX_SHIFT,
        }
    }

    /// Packs a fresh cumulative ACK (len 0) at hop 0.
    pub fn ack(conn: ConnId, ack: u64) -> Self {
        Self {
            seq: ack,
            flow: conn.index() as u32 * 2 + 1,
            meta: 0,
        }
    }

    /// Owning connection.
    #[inline]
    pub fn conn(self) -> ConnId {
        ConnId::from_index((self.flow >> 1) as usize)
    }

    /// Index into the engine's `flow → route` table: `conn·2` for data
    /// (forward route), `conn·2 + 1` for ACKs (reverse route).
    #[inline]
    pub fn flow_index(self) -> usize {
        self.flow as usize
    }

    /// Data or ACK. Encoded as the flow word's parity: data rides the
    /// even (forward) flow, ACKs the odd (reverse) flow.
    #[inline]
    pub fn kind(self) -> PacketKind {
        if self.flow & 1 == 0 {
            PacketKind::Data
        } else {
            PacketKind::Ack
        }
    }

    /// Payload length in bytes (0 for ACKs). An "empty" packet is not a
    /// meaningful notion here — ACKs always have length 0 — hence no
    /// `is_empty` counterpart.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u32 {
        self.meta & MAX_LEN
    }

    /// Next hop index on the route.
    #[inline]
    pub fn hop(self) -> u16 {
        ((self.meta & HOP_MASK) >> HOP_SHIFT) as u16
    }

    /// Whether this data segment is a retransmission (Karn's rule).
    #[inline]
    pub fn retransmit(self) -> bool {
        self.meta >> RETX_SHIFT != 0
    }

    /// Advances the packet one hop.
    ///
    /// # Panics
    /// Debug-panics past [`MAX_HOP`]; release wraps into the adjacent
    /// field, which the topology builder's route lengths make unreachable.
    #[inline]
    pub fn advance_hop(&mut self) {
        debug_assert!(self.hop() < MAX_HOP, "route longer than {MAX_HOP} hops");
        self.meta += 1 << HOP_SHIFT;
    }
}

/// Events surfaced to the embedding application (the MPI layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Notification {
    /// A whole application message has been received, in order, at the
    /// destination host.
    Delivered {
        /// Connection the message traveled on.
        conn: ConnId,
        /// Application tag supplied at `send` time.
        tag: u64,
        /// Delivery completion time.
        at: SimTime,
    },
    /// Every byte of an application message has been acknowledged back to
    /// the sender (the send is complete in the blocking-MPI sense).
    SendDone {
        /// Connection the message traveled on.
        conn: ConnId,
        /// Application tag supplied at `send` time.
        tag: u64,
        /// Acknowledgement completion time.
        at: SimTime,
    },
    /// A wakeup previously scheduled by the application.
    Wakeup {
        /// Caller-chosen token identifying the wakeup.
        token: u64,
        /// Fire time.
        at: SimTime,
    },
}

impl Notification {
    /// The simulation time attached to the notification.
    pub fn time(&self) -> SimTime {
        match *self {
            Notification::Delivered { at, .. }
            | Notification::SendDone { at, .. }
            | Notification::Wakeup { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notification_time_accessor() {
        let n = Notification::Wakeup {
            token: 7,
            at: SimTime(42),
        };
        assert_eq!(n.time(), SimTime(42));
        let d = Notification::Delivered {
            conn: ConnId::from_index(0),
            tag: 1,
            at: SimTime(9),
        };
        assert_eq!(d.time(), SimTime(9));
    }

    #[test]
    fn data_accessors_roundtrip() {
        let mut p = PackedPacket::data(ConnId::from_index(77), 123_456_789, 1460, true);
        assert_eq!(p.conn().index(), 77);
        assert_eq!(p.flow_index(), 154);
        assert_eq!(p.kind(), PacketKind::Data);
        assert_eq!(p.len(), 1460);
        assert_eq!(p.hop(), 0);
        assert!(p.retransmit());
        p.advance_hop();
        p.advance_hop();
        assert_eq!(p.hop(), 2);
        assert_eq!(p.len(), 1460, "hop bump must not leak into len");
        assert!(p.retransmit(), "hop bump must not leak into retransmit");
    }

    #[test]
    fn ack_accessors_roundtrip() {
        let p = PackedPacket::ack(ConnId::from_index(3), u64::MAX);
        assert_eq!(p.conn().index(), 3);
        assert_eq!(p.flow_index(), 7);
        assert_eq!(p.kind(), PacketKind::Ack);
        assert_eq!(p.len(), 0);
        assert_eq!(p.seq, u64::MAX);
        assert!(!p.retransmit());
    }

    #[test]
    fn pack_unpack_roundtrips_extremes() {
        // (conn, seq, len, hop, retransmit) of two data packets at the
        // field extremes, then an ACK advanced a few hops.
        for (conn, seq, len, hop, retransmit) in [
            (0usize, 0u64, 0u32, 0u16, false),
            (
                (u32::MAX / 2 - 1) as usize,
                u64::MAX,
                MAX_LEN,
                MAX_HOP,
                true,
            ),
        ] {
            let mut p = PackedPacket::data(ConnId::from_index(conn), seq, len, retransmit);
            for _ in 0..hop {
                p.advance_hop();
            }
            assert_eq!(p.conn().index(), conn);
            assert_eq!(p.seq, seq);
            assert_eq!(p.len(), len);
            assert_eq!(p.kind(), PacketKind::Data);
            assert_eq!(p.hop(), hop);
            assert_eq!(p.retransmit(), retransmit);
        }
        let mut ack = PackedPacket::ack(ConnId::from_index(9), 1 << 40);
        for _ in 0..5 {
            ack.advance_hop();
        }
        assert_eq!(ack.conn().index(), 9);
        assert_eq!(ack.seq, 1 << 40);
        assert_eq!(ack.len(), 0);
        assert_eq!(ack.kind(), PacketKind::Ack);
        assert_eq!(ack.hop(), 5);
        assert!(!ack.retransmit());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_len_is_rejected() {
        let _ = PackedPacket::data(ConnId::from_index(0), 0, MAX_LEN + 1, false);
    }
}
