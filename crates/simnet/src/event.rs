//! The event queue: a monotone radix heap keyed by `u64`, with FIFO
//! lists.
//!
//! # What it guarantees
//!
//! Entries pop in non-decreasing key, and entries pushed with equal keys
//! pop in the order they were pushed, so the pop sequence is a pure
//! function of the push sequence — which is what keeps a simulation
//! reproducible draw for draw and every report byte-identical across runs
//! and worker counts. The price is one precondition: a push may not be
//! keyed before the last pop. Simulated time never runs backwards, so both
//! engines meet it: the packet [`Simulator`](crate::engine::Simulator)
//! keys by [`SimTime`](crate::time::SimTime) nanoseconds, and the fluid
//! MPI driver by the bits of its non-negative `f64` instants, which sort
//! as the instants do. A radix heap handed an earlier key would pop it out
//! of order without noticing, so [`RadixQueue::push`] checks the
//! precondition with an `assert!` in every build.
//!
//! # How it works
//!
//! (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest
//! path problem", JACM 1990.) Let `last` be the last key popped. An entry
//! sits in list 0 if its key equals `last`, and otherwise in list `b + 1`,
//! where `b` is the highest bit in which its key differs from `last`.
//! Every key of list `b + 1` exceeds every key of the lists below it, so
//! the minimum lives in the lowest non-empty list, which one
//! `trailing_zeros` on a 64-bit occupancy mask names. A pop takes the head
//! of list 0; when list 0 is empty it first moves `last` up to the
//! minimum of the lowest non-empty list (each list keeps its minimum, so
//! a peek is O(1) too) and redistributes that list's entries, in order,
//! into the (empty) lists below it. Each entry moves only downwards, so
//! it is moved at most 64 times: a push is O(1) and a pop amortized
//! O(1). Equal keys always share a list, lists are FIFO, and
//! a redistribution keeps list order, so no push counter is needed to
//! break ties.
//!
//! Entries live in one slab of `(key, next, item)` nodes, which the lists
//! thread through and a free list recycles, so the queue's memory is its
//! deepest backlog — one buffer, as a binary heap's would be — rather than
//! one buffer per list, each grown to its own high-water mark.
//!
//! # Why a radix heap
//!
//! The step-wise exchanges this simulator runs keep each rank talking to
//! one partner per round, so the events pending at once are bounded by
//! `ranks × window / MTU`, not by the traffic matrix: the three paper
//! presets and the seven multi-hop builtins never reach 2 048 pending
//! events at their full default grids, and
//! `scenario/tests/telemetry_goldens.rs` pins a bound of 4 096. At those
//! depths a binary heap's pop is about ten `(time, seq)` comparisons on
//! unpredictable branches, while the radix heap's push and pop are a few
//! bit operations and a list splice, and a redistribution is one walk of
//! a short list. Measured end to end with `ctnbench` on alternating
//! pairs (CHANGES.md has every run): `paper_presets` `wall_s` 3.20 →
//! 2.31 s (10/10 pairs), `multihop_mix` 2.40 → 1.70 s, the fluid
//! workloads 10–18 % faster, identical report bytes, and peak memory
//! within 1.2 %.
//!
//! # What was tried
//!
//! * PRs 2–3 replaced the first binary heap with one pooled FIFO per
//!   monotone producer under a d-ary heap of FIFO heads, 16-byte nodes
//!   with side payload arrays, and run-length descriptors for zero-jitter
//!   injection bursts. It won ~2.5× on a synthetic trace a million events
//!   deep — five hundred times deeper than any run the product makes — and
//!   parity end to end; every shipped configuration injects with jitter,
//!   so the run-length path ran only in tests.
//! * PR 18 went back to the standard library's binary heap, keyed by
//!   `(time, push counter)`: both packet workloads no slower, a quarter
//!   less peak memory, and the bar for a new structure set at an
//!   end-to-end win.
//! * This radix heap replaced that heap and the fluid driver's own. Of two
//!   prototypes, one growing `Vec` per list was a little faster but raised
//!   peak memory 8–16 %, because some thirty list buffers each keep their
//!   own high-water mark and the resident size ratcheted over repeated
//!   runs; dropping each drained list's buffer instead was 40 % slower
//!   than the binary heap. The slab kept memory flat.

use crate::ids::{ConnId, HostId, TxId};
use crate::packet::PackedPacket;

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

/// The packet engine's queue: events keyed by [`SimTime`](crate::time::SimTime)
/// nanoseconds.
pub type EventQueue = RadixQueue<Event>;

/// End of a list, and an empty free list.
const NIL: u32 = u32::MAX;

/// List 0 holds keys equal to `last`; list `b + 1` those whose highest bit
/// differing from `last` is `b`.
const LISTS: usize = u64::BITS as usize + 1;

/// One slab slot: a pending entry, or a free slot whose `item` is stale.
#[derive(Debug)]
struct Node<T> {
    key: u64,
    /// The next node of the same list (or of the free list), or [`NIL`].
    next: u32,
    item: T,
}

/// A monotone priority queue of `u64` keys: entries pop in key order, equal
/// keys in push order, and no push may be keyed before the last pop. See
/// the [module docs](self).
#[derive(Debug)]
pub struct RadixQueue<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    head: [u32; LISTS],
    /// Meaningful only while the list's head is not [`NIL`].
    tail: [u32; LISTS],
    /// Each list's least key; meaningful as `tail` is.
    min: [u64; LISTS],
    /// Bit `b` is set iff list `b + 1` is non-empty.
    occupied: u64,
    /// The last key popped (0 before the first pop).
    last: u64,
    len: usize,
}

impl<T> Default for RadixQueue<T> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            head: [NIL; LISTS],
            tail: [NIL; LISTS],
            min: [0; LISTS],
            occupied: 0,
            last: 0,
            len: 0,
        }
    }
}

/// The list a key belongs in, given `diff = key ^ last`.
#[inline]
fn list_of(diff: u64) -> usize {
    (u64::BITS - diff.leading_zeros()) as usize
}

impl<T: Copy> RadixQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` at `key`.
    ///
    /// # Panics
    /// Panics if `key` is before the last key popped, in every build: the
    /// queue would otherwise pop it out of order.
    #[inline]
    pub fn push(&mut self, key: u64, item: T) {
        assert!(
            key >= self.last,
            "event queue: key {key} pushed before the last popped key {}",
            self.last
        );
        let node = Node {
            key,
            next: NIL,
            item,
        };
        let id = if self.free == NIL {
            let id = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&id| id != NIL)
                .expect("fewer than 2^32 - 1 pending entries");
            self.nodes.push(node);
            id
        } else {
            let id = self.free;
            let slot = &mut self.nodes[id as usize];
            self.free = slot.next;
            *slot = node;
            id
        };
        let list = list_of(key ^ self.last);
        if list != 0 {
            self.occupied |= 1 << (list - 1);
        }
        self.append(list, id, key);
        self.len += 1;
    }

    /// Pops the earliest entry (the earliest pushed among equal keys), if
    /// any.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.head[0] == NIL {
            if self.occupied == 0 {
                return None;
            }
            self.redistribute();
        }
        let id = self.head[0];
        let node = &mut self.nodes[id as usize];
        self.head[0] = node.next;
        node.next = self.free;
        self.free = id;
        self.len -= 1;
        Some((self.last, node.item))
    }

    /// Pops the earliest entry if its key is at most `limit`.
    pub fn pop_at_most(&mut self, limit: u64) -> Option<(u64, T)> {
        if self.peek_key()? > limit {
            return None;
        }
        self.pop()
    }

    /// The earliest pending key.
    pub fn peek_key(&self) -> Option<u64> {
        if self.head[0] != NIL {
            Some(self.last)
        } else if self.occupied == 0 {
            None
        } else {
            Some(self.min[self.occupied.trailing_zeros() as usize + 1])
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends node `id`, keyed `key` and whose `next` is [`NIL`], to
    /// `list`.
    #[inline]
    fn append(&mut self, list: usize, id: u32, key: u64) {
        if self.head[list] == NIL {
            self.head[list] = id;
            self.min[list] = key;
        } else {
            self.nodes[self.tail[list] as usize].next = id;
            self.min[list] = self.min[list].min(key);
        }
        self.tail[list] = id;
    }

    /// With list 0 empty: moves `last` to the least pending key and
    /// spreads the lowest non-empty list, in order, over the empty lists
    /// below it — its minimum, and every entry equal to it, into list 0.
    fn redistribute(&mut self) {
        let list = self.occupied.trailing_zeros() as usize + 1;
        let last = self.min[list];
        self.last = last;
        self.occupied &= self.occupied - 1;
        let mut id = self.head[list];
        self.head[list] = NIL;
        while id != NIL {
            let node = &mut self.nodes[id as usize];
            let (key, next) = (node.key, node.next);
            node.next = NIL;
            let to = list_of(key ^ last);
            if to != 0 {
                self.occupied |= 1 << (to - 1);
            }
            self.append(to, id, key);
            id = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(e: Event) -> u64 {
        match e {
            Event::AppWakeup { token } => token,
            other => unreachable!("{other:?}"),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(at, e)| (at, token(e)))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::AppWakeup { token: 3 });
        q.push(10, Event::AppWakeup { token: 1 });
        q.push(20, Event::AppWakeup { token: 2 });
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for token in 0..10 {
            q.push(5, Event::AppWakeup { token });
        }
        let tokens: Vec<u64> = drain(&mut q).into_iter().map(|(_, t)| t).collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
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
            let at = step / 3 * 7 + (step % 3);
            q.push(at, Event::AppWakeup { token });
            expected.push((at, token));
            token += 1;
        }
        for step in (0..20u64).rev() {
            let at = step * 9 + 1;
            q.push(at, Event::AppWakeup { token });
            expected.push((at, token));
            token += 1;
        }
        // Stable sort by time preserves push order among equal times.
        expected.sort_by_key(|&(at, _)| at);
        assert_eq!(drain(&mut q), expected);
    }

    /// Pushes land at the last pop plus a small random offset, as a
    /// simulation's do: within every drain the pops stay in (time, push
    /// order), and `len` tracks every push and pop.
    #[test]
    fn interleaved_push_pop_keeps_order_within_drain() {
        let mut q = EventQueue::new();
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        let mut now = 0;
        let mut pending = 0usize;
        let mut last = None;
        for round in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(now + x % 97, Event::AppWakeup { token: round });
            pending += 1;
            if round % 3 == 0 {
                let (at, e) = q.pop().unwrap();
                assert!(Some((at, token(e))) > last, "pops in (time, push order)");
                (now, last) = (at, Some((at, token(e))));
                pending -= 1;
            }
            assert_eq!(q.len(), pending);
        }
        let drained = drain(&mut q);
        assert_eq!(drained.len(), pending);
        assert!(drained.windows(2).all(|w| w[0] < w[1]));
        assert!(Some(drained[0]) > last);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// Equal keys pushed while `last` sits below them, then more of the
    /// same keys pushed after a pop has moved `last` and redistributed
    /// their list: every key still pops its entries in push order.
    #[test]
    fn equal_keys_keep_push_order_across_a_redistribution() {
        let mut q = EventQueue::new();
        let keys = [1000u64, 1000, 1003, 1000, 1003, 1024, 1003];
        for (token, &at) in (0..).zip(&keys) {
            q.push(at, Event::AppWakeup { token });
        }
        q.push(900, Event::AppWakeup { token: 99 });
        // Moves `last` to 900 and redistributes the list 900 shared with
        // every 1000 and 1003.
        assert_eq!(q.pop().map(|(at, e)| (at, token(e))), Some((900, 99)));
        for (token, &at) in (7..).zip(&keys) {
            q.push(at, Event::AppWakeup { token });
        }
        // Moves `last` to 1000, then 1003, then 1024, pushing more of each
        // key as it becomes the front.
        assert_eq!(q.pop().map(|(at, e)| (at, token(e))), Some((1000, 0)));
        q.push(1000, Event::AppWakeup { token: 20 });
        q.push(1003, Event::AppWakeup { token: 21 });
        q.push(1024, Event::AppWakeup { token: 22 });
        let got = drain(&mut q);
        let expected: Vec<(u64, u64)> = [
            (1000, [1, 3, 7, 8, 10, 20].as_slice()),
            (1003, &[2, 4, 6, 9, 11, 13, 21]),
            (1024, &[5, 12, 22]),
        ]
        .iter()
        .flat_map(|&(at, tokens)| tokens.iter().map(move |&t| (at, t)))
        .collect();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "event queue: key 41 pushed before the last popped key 42")]
    fn a_push_before_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.push(42, Event::AppWakeup { token: 0 });
        q.pop().unwrap();
        q.push(41, Event::AppWakeup { token: 1 });
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(1, Event::AppWakeup { token: 0 });
        q.push(7, Event::AppWakeup { token: 1 });
        assert_eq!(q.peek_key(), Some(1));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert_eq!(q.peek_key(), Some(7));
        // A push below the lowest list's minimum becomes the front.
        q.push(3, Event::AppWakeup { token: 2 });
        assert_eq!(q.peek_key(), Some(3));
        assert_eq!(drain(&mut q), vec![(3, 2), (7, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }

    /// Slots freed by pops are reused, so the slab is as deep as the
    /// deepest backlog, not the number of pushes.
    #[test]
    fn the_slab_holds_the_deepest_backlog() {
        let mut q = RadixQueue::new();
        for round in 0..1_000u64 {
            for k in 0..4 {
                q.push(round * 10 + k, k as u32);
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert_eq!(q.nodes.len(), 4);
    }

    /// The packed packet's size, surfaced in test output (run `cargo test
    /// -p simnet layout -- --nocapture`) and pinned by the `const`
    /// assertion next to the type.
    #[test]
    fn layout_sizes_are_compact() {
        use std::mem::size_of;
        println!("layout: PackedPacket = {} bytes", size_of::<PackedPacket>());
        println!("layout: Event = {} bytes", size_of::<Event>());
        println!("layout: queue node = {} bytes", size_of::<Node<Event>>());
        assert_eq!(size_of::<PackedPacket>(), 16);
        assert_eq!(size_of::<Node<u32>>(), 16);
    }
}
