//! Property tests for the hot loop's data: the `PackedPacket` encoding
//! must be lossless across the full documented field ranges, and
//! the event queue must pop in exact `(time, push order)` however pushes
//! (never before the last pop) and pops interleave.

use proptest::prelude::*;
use simnet::event::{Event, EventQueue};
use simnet::ids::ConnId;
use simnet::packet::{PackedPacket, PacketKind, MAX_HOP, MAX_LEN};

/// Removes and returns the model's next pop: the earliest time, and among
/// equal times the earliest push (`pending` is in push order, and
/// `min_by_key` keeps the first minimum).
fn pop_model(pending: &mut Vec<(u64, u64)>) -> Option<(u64, u64)> {
    let first = (0..pending.len()).min_by_key(|&i| pending[i].0)?;
    Some(pending.remove(first))
}

fn pop_token(q: &mut EventQueue) -> Option<(u64, u64)> {
    q.pop().map(|(at, e)| match e {
        Event::AppWakeup { token } => (at, token),
        other => panic!("unexpected event {other:?}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lossless round-trip across the full packable ranges: every
    /// accessor reads back what `data`/`ack` and `advance_hop` wrote.
    /// `conn` stops at 2³¹ − 1 because the flow word is
    /// `conn·2 + direction`.
    #[test]
    fn packed_packet_roundtrips(
        conn in 0u32..=(u32::MAX >> 1),
        seq in any::<u64>(),
        len in 0u32..=MAX_LEN,
        hop in 0u16..=MAX_HOP,
        flags in 0u8..4,
    ) {
        let is_ack = flags & 1 != 0;
        // ACKs carry no payload and are never retransmissions; any other
        // combination is unrepresentable by construction.
        let retransmit = !is_ack && flags & 2 != 0;
        let mut packed = if is_ack {
            PackedPacket::ack(ConnId::new(conn as usize), seq)
        } else {
            PackedPacket::data(ConnId::new(conn as usize), seq, len, retransmit)
        };
        for _ in 0..hop {
            packed.advance_hop();
        }
        prop_assert_eq!(packed.conn(), ConnId::new(conn as usize));
        prop_assert_eq!(packed.seq, seq);
        prop_assert_eq!(packed.len(), if is_ack { 0 } else { len });
        prop_assert_eq!(packed.kind(), if is_ack { PacketKind::Ack } else { PacketKind::Data });
        prop_assert_eq!(packed.hop(), hop);
        prop_assert_eq!(packed.retransmit(), retransmit);
        prop_assert_eq!(
            packed.flow_index(),
            conn as usize * 2 + is_ack as usize,
            "flow rows must interleave forward/reverse per connection"
        );
    }

    /// Hop advancement touches nothing but the hop field.
    #[test]
    fn advance_hop_is_isolated(
        conn in 0u32..=(u32::MAX >> 1),
        seq in any::<u64>(),
        len in 0u32..=MAX_LEN,
        retransmit in any::<bool>(),
        hops in 0u16..MAX_HOP,
    ) {
        let mut p = PackedPacket::data(ConnId::new(conn as usize), seq, len, retransmit);
        for expect in 1..=hops {
            p.advance_hop();
            prop_assert_eq!(p.hop(), expect);
        }
        prop_assert_eq!(p.len(), len);
        prop_assert_eq!(p.seq, seq);
        prop_assert_eq!(p.retransmit(), retransmit);
        prop_assert_eq!(p.conn().index(), conn as usize);
    }

    /// The queue's whole contract: a random schedule of pushes and
    /// interleaved pops must surface, pop by pop, the earliest pending
    /// time and — among equal times — the earliest push: what a stable
    /// sort by time of the still-pending pushes puts first. Each push lands
    /// at the last popped time plus `0..8`, as a simulation's never lands
    /// before its clock, so ties are the common case.
    #[test]
    fn queue_pops_in_time_then_push_order(
        ops in prop::collection::vec((any::<u8>(), 0u64..8), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut now = 0;
        for (token, (sel, delay)) in ops.into_iter().enumerate() {
            if sel % 3 == 0 {
                let popped = pop_token(&mut q);
                prop_assert_eq!(popped, pop_model(&mut pending));
                if let Some((at, _)) = popped {
                    now = at;
                }
            } else {
                q.push(now + delay, Event::AppWakeup { token: token as u64 });
                pending.push((now + delay, token as u64));
            }
            prop_assert_eq!(q.len(), pending.len());
            prop_assert_eq!(q.peek_key(), pending.iter().map(|&(at, _)| at).min());
        }
        while !pending.is_empty() {
            prop_assert_eq!(pop_token(&mut q), pop_model(&mut pending));
        }
        prop_assert!(q.pop().is_none());
    }
}
