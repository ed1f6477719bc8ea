//! The event queue: a `std::collections::BinaryHeap` keyed by
//! `(time, push order)`.
//!
//! # What it guarantees
//!
//! Events pop in non-decreasing time, and events scheduled for the same
//! nanosecond pop in the order they were pushed. Every push takes the next
//! value of a strictly increasing `u64` counter, so `(at, seq)` is a total
//! order and the pop sequence is a pure function of the push sequence —
//! which is what keeps a simulation reproducible draw for draw and every
//! report byte-identical across runs and worker counts. A `u64` counter
//! cannot wrap in any run a machine can finish.
//!
//! # Why a binary heap is enough
//!
//! The step-wise exchanges this simulator runs keep each rank talking to
//! one partner per round, so the events pending at once are bounded by
//! `ranks × window / MTU`, not by the traffic matrix. Measured with the
//! engine's own pending-events-at-pop histogram (`ctnsim run … --metrics`,
//! `pop_queue_hist`): the three paper presets and the seven multi-hop
//! builtins never reach 2 048 pending events at their full default grids;
//! the deepest of the 13 packet builtins stays below 4 096;
//! `paper-gigabit-ethernet` at 64 ranks × 1 MiB stays ≤ 1 023;
//! `paper-myrinet` at 64 × 1 MiB exceeds 2 048 on 0.6 % of pops (never
//! 16 384) with 93.6 % of them at 128–255. At those depths a sift is about
//! ten comparisons, and `scenario/tests/telemetry_goldens.rs` pins the
//! bound so a workload that breaks it is noticed.
//!
//! # What was tried
//!
//! PRs 2–3 replaced the heap with one pooled FIFO per monotone producer
//! under a d-ary heap of FIFO heads, 16-byte nodes with side payload
//! arrays, and run-length descriptors for zero-jitter injection bursts.
//! That structure won ~2.5× on a synthetic trace holding a million events
//! pending — five hundred times deeper than any run the product makes —
//! and measured parity to a few percent end to end; every shipped
//! configuration injects with jitter, so the run-length path executed only
//! in tests. PR 18 removed it: see CHANGES.md for the `ctnbench` pairs
//! (both packet workloads no slower, a quarter less peak memory). A deeper
//! structure needs an end-to-end win on those workloads first.

use crate::ids::{ConnId, HostId, TxId};
use crate::packet::PackedPacket;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled simulator event. `Copy` — the 16-byte packet travels by
/// value; nothing here owns heap memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet arrives at a transmitter's input and must be admitted to its
    /// queue (or dropped).
    Arrival {
        /// Transmitter the packet arrives at.
        tx: TxId,
        /// The packet.
        pkt: PackedPacket,
    },
    /// A packet finishes serializing out of a transmitter.
    Departure {
        /// Transmitter the packet leaves.
        tx: TxId,
        /// The packet.
        pkt: PackedPacket,
    },
    /// A packet reaches its destination host's protocol stack.
    HostDelivery {
        /// Destination host.
        host: HostId,
        /// The packet.
        pkt: PackedPacket,
    },
    /// A connection's retransmission timer fires.
    RtoTimer {
        /// Owning connection.
        conn: ConnId,
    },
    /// An application-scheduled wakeup.
    AppWakeup {
        /// Caller-chosen token.
        token: u64,
    },
}

/// One pending event: fire time, global push order, payload.
#[derive(Debug)]
struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    /// Reversed `(at, seq)`: `BinaryHeap` is a max-heap, and the earliest
    /// time — then the earliest push — must surface first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::AppWakeup { token } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), Event::AppWakeup { token: 3 });
        q.push(SimTime(10), Event::AppWakeup { token: 1 });
        q.push(SimTime(20), Event::AppWakeup { token: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for token in 0..10 {
            q.push(SimTime(5), Event::AppWakeup { token });
        }
        assert_eq!(tokens(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_producers_merge_in_global_time_order() {
        // Three monotone producers with interleaved times plus a batch of
        // out-of-order singletons: the pop sequence must be globally
        // sorted by (time, push order).
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut token = 0u64;
        for step in 0..50u64 {
            let at = SimTime(step / 3 * 7 + (step % 3));
            q.push(at, Event::AppWakeup { token });
            expected.push((at, token));
            token += 1;
        }
        for step in (0..20u64).rev() {
            let at = SimTime(step * 9 + 1);
            q.push(at, Event::AppWakeup { token });
            expected.push((at, token));
            token += 1;
        }
        // Stable sort by time preserves push order among equal times,
        // matching the queue's seq tie-break.
        expected.sort_by_key(|&(at, _)| at);
        let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::AppWakeup { token } => (t, token),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn interleaved_push_pop_keeps_order_within_drain() {
        let mut q = EventQueue::new();
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        for round in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(SimTime(x % 97), Event::AppWakeup { token: round });
            if round % 3 == 0 {
                q.pop().unwrap();
            }
        }
        let mut drained = Vec::new();
        while let Some((t, _)) = q.pop() {
            drained.push(t);
        }
        assert!(drained.windows(2).all(|w| w[0] <= w[1]));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), Event::AppWakeup { token: 0 });
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// The packed packet's size, surfaced in test output (run `cargo test
    /// -p simnet layout -- --nocapture`) and pinned by the `const`
    /// assertion next to the type.
    #[test]
    fn layout_sizes_are_compact() {
        use std::mem::size_of;
        println!("layout: PackedPacket = {} bytes", size_of::<PackedPacket>());
        println!("layout: Event = {} bytes", size_of::<Event>());
        assert_eq!(size_of::<PackedPacket>(), 16);
    }
}
