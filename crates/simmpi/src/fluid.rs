//! Fluid (flow-level) program execution: the MPI semantics of
//! [`World`](crate::world::World) idealized over [`simnet::fluid::FluidSim`].
//!
//! [`FluidWorld`] interprets the same per-rank [`Op`] programs as the
//! packet-level executor, but every payload travels as a max-min fair
//! fluid flow instead of a packet train, and simulated time advances only
//! at flow start/finish boundaries. The protocol is deliberately the
//! *deterministic skeleton* of the packet world:
//!
//! * a [`Op::Transfer`] posts all receives and issues all sends at the
//!   instant the op starts (no per-message CPU stagger — the sender's
//!   serialized send calls are charged as one `sends × send_overhead`
//!   CPU interval the op also waits on);
//! * **eager** payloads (≤ `eager_threshold`) start flowing at send issue
//!   and the blocking send completes with the CPU charge, exactly like
//!   the packet world's buffered short-message path;
//! * **rendezvous** payloads start flowing when both the send has issued
//!   and a matching receive has posted (the RTS/CTS round-trip itself is
//!   elided), and the blocking send completes when the flow finishes;
//! * a receive completes at `max(arrival, post) + recv_overhead`, where
//!   arrival is the flow's finish plus the route's one-way latency;
//! * messages between a rank pair match strictly in issue/post order
//!   (MPI non-overtaking), and [`Op::Barrier`] releases every rank at the
//!   last arrival;
//! * there is **no jitter and no OS hiccup** — the fluid tier answers
//!   "what does bandwidth sharing alone predict", so a run is a pure
//!   function of the program and the fabric.
//!
//! What the idealization drops relative to the packet engine — per-MTU
//! framing bytes, control round-trips, serialized receiver overheads,
//! TCP loss recovery — is exactly the per-scenario error band the
//! scenario layer's `fluid_validation` test documents.
//!
//! The rank program counter is the one the packet world drives too
//! (`program.rs`); this module is the protocol half — FIFO matching, flow
//! starts, the event heap — and the driver that steps [`FluidSim`] through
//! each finish window ([`FluidSim::window_end`]).
//!
//! Per-message cost is what a large run pays half a million times, so each
//! message walks its route once in the interpreter: at send issue, where
//! the route is hot anyway because the flow starts on it, its one-way
//! latency is summed into the `Transfer` record for the finish to read.
//! Pair matching hashes the key `src · n + dst` with `PairHasher`, one
//! multiply instead of SipHash: the keys are rank indices of programs the
//! scenario layer generated (irregular workloads draw their pairs from a
//! seeded RNG), never bytes from a client, so there is no adversary whose
//! collisions a keyed hash would have to resist.

use crate::config::MpiConfig;
use crate::ops::{Op, Rank};
use crate::program::{check_hosts, Next, ProgramCounter};
use crate::world::{RunInterrupt, RunResult};
use simnet::fluid::{FluidCompletion, FluidSim};
use simnet::guard::RunGuard;
use simnet::ids::HostId;
use simnet::obs::Recorder;
use simnet::time::SimTime;
use simnet::topology::Topology;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Relative finish-coalescing window handed to [`FluidSim`]: finishes
/// within 1 % of the time since the latest flow start complete under one
/// rate recomputation. That slack defers a redistribution, or a flow a
/// rank starts inside the window, by at most 1 % of the time its
/// competitors have been flowing, so it does not compound over rounds —
/// small next to the packet-vs-fluid error bands this tier documents —
/// and it saves ~10× the recomputations of the staggered ECMP finish
/// waves on the 1024-host fat-tree all-to-all.
pub const FINISH_WINDOW_REL: f64 = 1e-2;

/// One pending point-to-point message (identified by its index in
/// `FluidWorld::transfers`). Ranks fit `u32`: each sits on its own
/// [`HostId`]. Eager is `bytes <= eager_threshold`, not a field.
#[derive(Debug)]
struct Transfer {
    src: u32,
    dst: u32,
    bytes: u64,
    /// One-way wire latency of the src → dst route, summed at issue.
    latency_ns: u64,
    /// Receive post instant; NaN until a receive has matched.
    post_ns: f64,
    /// Data arrival instant at the receiver (flow finish + route
    /// latency); NaN until the flow finishes.
    arrival_ns: f64,
}

const _: () = assert!(
    std::mem::size_of::<Transfer>() == 40,
    "Transfer is 40 bytes: a large all-to-all holds one per message"
);

/// Multiplicative hash of one pair key (the 64-bit Fx constant): the key
/// is already a dense index, so one odd multiply spreads it over both the
/// bucket bits and the tag bits `HashMap` reads. Not collision-resistant,
/// which the module doc explains is not needed here.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0.rotate_left(5) ^ key).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Unmatched traffic between one ordered rank pair, matched FIFO. Only
/// one side can be waiting at a time, and a pair with nothing waiting has
/// no entry: a queue is dropped when its last element matches, so a large
/// all-to-all does not keep n² emptied queues alive.
#[derive(Debug)]
enum PairQueue {
    /// Issued sends (transfer ids) with no matching receive yet.
    Sends(Waiters<u64>),
    /// Posted receives (post instants) with no matching send yet.
    Recvs(Waiters<f64>),
}

const _: () = assert!(
    std::mem::size_of::<PairQueue>() == 24,
    "a pair queue is 24 bytes: an all-to-all's map holds ~n²/2 of them at once"
);

/// A never-empty FIFO whose head lives inline. Almost every pair queue of
/// an all-to-all holds exactly one waiter for its whole life, so the rest
/// is boxed, allocated only when a second one arrives, and costs the map
/// entry one pointer instead of an inline `VecDeque`.
#[derive(Debug)]
struct Waiters<T> {
    head: T,
    // Boxed for the entry size above, not for the queue's own sake.
    #[allow(clippy::box_collection)]
    rest: Option<Box<VecDeque<T>>>,
}

impl<T: Copy> Waiters<T> {
    fn new(head: T) -> Self {
        Self { head, rest: None }
    }

    fn push_back(&mut self, waiter: T) {
        self.rest.get_or_insert_with(Box::default).push_back(waiter);
    }

    /// Removes the head; `true` when that was the last waiter and the
    /// queue must be dropped.
    fn pop_front(&mut self) -> (T, bool) {
        let head = self.head;
        match self.rest.as_mut().and_then(|rest| rest.pop_front()) {
            Some(next) => {
                self.head = next;
                (head, false)
            }
            None => (head, true),
        }
    }
}

/// A heap event: a part `rank` waits on resolves at instant `at_bits`
/// (f64 bits: time order for non-negative instants); the unique `seq`
/// breaks ties in insertion order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    at_bits: u64,
    seq: u64,
    rank: Rank,
}

/// A set of MPI ranks mapped onto fabric hosts, executed fluidly.
///
/// Unlike the packet [`World`](crate::world::World), a `FluidWorld`
/// borrows its [`Topology`] (no simulator state to own) and every
/// [`FluidWorld::run`] is independent: deterministic, jitter-free, always
/// starting at simulated time zero. The scenario layer's `backend =
/// "fluid"` tier runs each measurement cell through one of these.
pub struct FluidWorld<'a> {
    topo: &'a Topology,
    hosts: Vec<HostId>,
    mpi: MpiConfig,
}

struct Interp<'w, 'a, R: Recorder> {
    topo: &'a Topology,
    hosts: &'w [HostId],
    mpi: &'w MpiConfig,
    net: FluidSim<'a, R>,
    ranks: ProgramCounter<f64>,
    transfers: Vec<Transfer>,
    pair_queues: HashMap<u64, PairQueue, BuildHasherDefault<PairHasher>>,
    heap: BinaryHeap<Reverse<Pending>>,
    next_seq: u64,
    finish_buf: Vec<FluidCompletion>,
    /// Bytes handed to [`FluidSim::start_flow`] so far.
    flow_bytes: u64,
}

impl<'a> FluidWorld<'a> {
    /// Builds a fluid world of `hosts.len()` ranks over a built topology.
    ///
    /// # Panics
    /// Panics if `hosts` is empty, repeats a host, or references hosts
    /// outside the topology.
    pub fn new(topo: &'a Topology, hosts: Vec<HostId>, mpi: MpiConfig) -> Self {
        check_hosts(&hosts, topo.n_hosts);
        Self { topo, hosts, mpi }
    }

    /// Runs one program per rank to completion and returns per-rank
    /// finish times, with `recorder` receiving link-utilization samples
    /// integrated from the fluid rates. Supervised: `guard` limits are
    /// polled at the fluid engine's preemption points (each advance
    /// iteration and each driver-loop boundary), and interruptions come
    /// back as values — a tripped limit as [`RunInterrupt::Guard`], a
    /// genuine stall (no event and no flow pending while ranks still
    /// wait) as [`RunInterrupt::Deadlocked`]. The recorder is returned
    /// either way so partial telemetry can still be harvested.
    ///
    /// # Panics
    /// Panics if `programs.len()` differs from the rank count.
    pub fn try_run_with<R: Recorder>(
        &self,
        programs: Vec<Vec<Op>>,
        recorder: R,
        guard: RunGuard,
    ) -> (Result<RunResult, RunInterrupt>, R) {
        assert_eq!(programs.len(), self.hosts.len(), "one program per rank");
        let sends: usize = programs
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Transfer { sends, .. } => sends.len(),
                Op::Barrier => 0,
            })
            .sum();
        let mut net = FluidSim::with_recorder(self.topo, recorder);
        net.reserve(sends);
        net.set_finish_window(FINISH_WINDOW_REL);
        net.set_guard(guard);
        let mut interp = Interp {
            topo: self.topo,
            hosts: &self.hosts,
            mpi: &self.mpi,
            net,
            ranks: ProgramCounter::new(programs),
            transfers: Vec::with_capacity(sends),
            pair_queues: HashMap::default(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            finish_buf: Vec::new(),
            flow_bytes: 0,
        };
        let result = interp.execute();
        (result, interp.net.into_recorder())
    }

    /// [`FluidWorld::try_run_with`] without telemetry.
    pub fn try_run(
        &self,
        programs: Vec<Vec<Op>>,
        guard: RunGuard,
    ) -> Result<RunResult, RunInterrupt> {
        self.try_run_with(programs, simnet::obs::NoopRecorder, guard)
            .0
    }

    /// [`FluidWorld::try_run`] without a guard; panics on a deadlock.
    pub fn run(&self, programs: Vec<Vec<Op>>) -> RunResult {
        self.try_run(programs, RunGuard::unlimited())
            .unwrap_or_else(|stop| panic!("{stop}"))
    }
}

impl<R: Recorder> Interp<'_, '_, R> {
    fn execute(&mut self) -> Result<RunResult, RunInterrupt> {
        for rank in 0..self.hosts.len() {
            self.issue_current_op(rank, 0.0);
        }
        while self.ranks.unfinished() > 0 {
            // Poll the guard at the driver boundary too: a pure-event
            // phase (no fluid in flight) must still honor deadlines and
            // cancellation.
            if let Some(stop) = self.net.guard_stop() {
                return Err(RunInterrupt::Guard(stop));
            }
            let event = self
                .heap
                .peek()
                .map_or(f64::INFINITY, |Reverse(p)| f64::from_bits(p.at_bits));
            let flow = self.net.next_finish_ns().unwrap_or(f64::INFINITY);
            let t = event.min(flow);
            if t == f64::INFINITY {
                let ranks = self.ranks.blocked();
                let detail = format!("ranks {ranks:?} blocked with no pending events or flows");
                return Err(RunInterrupt::Deadlocked { ranks, detail });
            }
            // When the next boundary is a flow finish, advance through its
            // whole coalescing window (clamped to the next rank event) so
            // the engine can batch the finish wave under one rate
            // recomputation. Rank events stay exact boundaries.
            let t_adv = if flow <= event {
                self.net.window_end(flow).min(event)
            } else {
                event
            }
            .max(self.net.now_ns());
            let mut finishes = std::mem::take(&mut self.finish_buf);
            finishes.clear();
            self.net.advance_to(t_adv, &mut finishes);
            // Windowed finishes carry their own (rounded) stamps, all
            // within [t, t_adv] and in time order, so the part a rank
            // completes last is its latest; clamping to t_adv keeps
            // cascaded events from ever being scheduled fractionally past
            // the clock.
            for c in &finishes {
                self.on_flow_finish(c.tag, (c.at.0 as f64).clamp(t, t_adv));
            }
            self.finish_buf = finishes;
            while let Some(&Reverse(Pending { at_bits, rank, .. })) = self.heap.peek() {
                if f64::from_bits(at_bits) > t_adv {
                    break;
                }
                self.heap.pop();
                self.complete_part(rank, f64::from_bits(at_bits));
            }
        }
        if cfg!(debug_assertions) {
            self.assert_conserved();
        }
        Ok(RunResult {
            start: SimTime(0),
            finished: self
                .ranks
                .finish_times()
                .map(|t| SimTime(t.round() as u64))
                .collect(),
        })
    }

    fn schedule(&mut self, rank: Rank, at_ns: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Pending {
            at_bits: at_ns.to_bits(),
            seq,
            rank,
        }));
    }

    /// Conservation at quiescence, checked once per successful run in
    /// debug builds. Every rank finished, so no receive still waits and
    /// every rendezvous send matched and drained. What a finished run may
    /// leave behind is an eager message nobody received: its sender
    /// completed on the CPU charge, as in MPI, and its flow may still be
    /// in flight. A program whose every send is received leaves an empty
    /// pair map and no flow.
    fn assert_conserved(&self) {
        let mut unreceived = 0;
        let mut in_flight = 0;
        for tr in &self.transfers {
            if tr.post_ns.is_nan() {
                assert!(tr.bytes <= self.mpi.eager_threshold, "{tr:?} never matched");
                unreceived += 1;
            } else {
                assert!(tr.post_ns.is_finite(), "{tr:?}");
                assert!(!tr.arrival_ns.is_nan(), "{tr:?} matched, never arrived");
            }
            if tr.arrival_ns.is_nan() {
                in_flight += 1;
            } else {
                assert!(tr.arrival_ns.is_finite(), "{tr:?}");
            }
        }
        let queued: usize = self
            .pair_queues
            .values()
            .map(|q| match q {
                PairQueue::Sends(q) => 1 + q.rest.as_ref().map_or(0, |rest| rest.len()),
                PairQueue::Recvs(_) => panic!("a receive still waits"),
            })
            .sum();
        assert_eq!(queued, unreceived, "pair map vs unmatched sends");
        assert_eq!(self.net.active_flows(), in_flight, "flows in flight");
        let sent: u64 = self.transfers.iter().map(|tr| tr.bytes).sum();
        assert_eq!(self.flow_bytes, sent, "bytes started as flows");
    }

    fn pair_key(&self, src: Rank, dst: Rank) -> u64 {
        (src * self.hosts.len() + dst) as u64
    }

    /// One-way wire latency of the src → dst route in nanoseconds.
    fn route_latency(&self, src: Rank, dst: Rank) -> u64 {
        self.topo
            .route(self.hosts[src], self.hosts[dst])
            .iter()
            .map(|tx| self.topo.tx_params[tx.index()].latency_ns)
            .sum()
    }

    /// Starts transfer `tid`'s payload as a fluid flow.
    fn start_flow(&mut self, tid: u64) {
        let tr = &self.transfers[tid as usize];
        let (src, dst) = (self.hosts[tr.src as usize], self.hosts[tr.dst as usize]);
        self.flow_bytes += tr.bytes;
        self.net.start_flow(src, dst, tr.bytes, tid);
    }

    fn issue_current_op(&mut self, rank: Rank, now_ns: f64) {
        match self.ranks.next(rank, now_ns) {
            Next::Idle => {}
            Next::Release => {
                for r in 0..self.hosts.len() {
                    self.schedule(r, now_ns);
                }
            }
            Next::Transfer { sends, recvs } => {
                let rendezvous = sends
                    .iter()
                    .filter(|(_, b)| *b > self.mpi.eager_threshold)
                    .count();
                let cpu_parts = usize::from(!sends.is_empty());
                // Receives post first (instantaneous state change) so a
                // sendrecv against the same peer cannot deadlock.
                for &from in &recvs {
                    assert_ne!(from, rank, "self-receives are local copies");
                    self.post_recv(from, rank, now_ns);
                }
                if cpu_parts > 0 {
                    let cpu_ns = sends.len() as u64 * self.mpi.send_overhead_ns;
                    self.schedule(rank, now_ns + cpu_ns as f64);
                }
                for &(to, bytes) in &sends {
                    assert_ne!(to, rank, "self-sends are local copies");
                    self.issue_send(rank, to, bytes, now_ns);
                }
                let parts = cpu_parts + rendezvous + recvs.len();
                self.ranks.wait(rank, parts, Op::Transfer { sends, recvs });
            }
        }
    }

    fn issue_send(&mut self, src: Rank, dst: Rank, bytes: u64, now_ns: f64) {
        let tid = self.transfers.len() as u64;
        let eager = bytes <= self.mpi.eager_threshold;
        let mut tr = Transfer {
            src: src as u32,
            dst: dst as u32,
            bytes,
            latency_ns: self.route_latency(src, dst),
            post_ns: f64::NAN,
            arrival_ns: f64::NAN,
        };
        if bytes == 0 {
            // Zero-byte message (always eager): nothing flows; it
            // "arrives" one wire latency after issue.
            tr.arrival_ns = now_ns + tr.latency_ns as f64;
        }
        // FIFO match against an already-posted receive.
        let key = self.pair_key(src, dst);
        match self.pair_queues.entry(key) {
            Entry::Occupied(mut e) => match e.get_mut() {
                PairQueue::Sends(q) => q.push_back(tid),
                PairQueue::Recvs(q) => {
                    let (post_ns, last) = q.pop_front();
                    tr.post_ns = post_ns;
                    if last {
                        e.remove();
                    }
                }
            },
            Entry::Vacant(e) => {
                e.insert(PairQueue::Sends(Waiters::new(tid)));
            }
        }
        let (post, arrival) = (tr.post_ns, tr.arrival_ns);
        let matched = !post.is_nan();
        self.transfers.push(tr);
        if eager {
            if bytes > 0 {
                self.start_flow(tid);
            } else if matched {
                // Arrival already known; the receive can complete.
                self.finish_recv(dst, arrival, post);
            }
        } else if matched {
            // Rendezvous with the receive already posted: flow starts now.
            self.start_flow(tid);
        }
    }

    fn post_recv(&mut self, src: Rank, dst: Rank, now_ns: f64) {
        let key = self.pair_key(src, dst);
        let tid = match self.pair_queues.entry(key) {
            Entry::Occupied(mut e) => match e.get_mut() {
                PairQueue::Recvs(q) => return q.push_back(now_ns),
                PairQueue::Sends(q) => {
                    let (tid, last) = q.pop_front();
                    if last {
                        e.remove();
                    }
                    tid
                }
            },
            Entry::Vacant(e) => {
                e.insert(PairQueue::Recvs(Waiters::new(now_ns)));
                return;
            }
        };
        let tr = &mut self.transfers[tid as usize];
        tr.post_ns = now_ns;
        let (bytes, arrival) = (tr.bytes, tr.arrival_ns);
        if bytes > self.mpi.eager_threshold {
            // Rendezvous: the late receive releases the data. The flow
            // starts at the post instant (= max(issue, post)). Rendezvous
            // payloads are > eager_threshold ≥ 0, never empty.
            self.start_flow(tid);
        } else if !arrival.is_nan() {
            // Eager data already arrived and waited as unexpected.
            self.finish_recv(dst, arrival, now_ns);
        }
    }

    /// Schedules the receiver-side completion of a matched message whose
    /// data arrives at `arrival_ns` and whose receive posted by
    /// `ready_ns`.
    fn finish_recv(&mut self, dst: Rank, arrival_ns: f64, ready_ns: f64) {
        let done = arrival_ns.max(ready_ns) + self.mpi.recv_overhead_ns as f64;
        self.schedule(dst, done);
    }

    fn on_flow_finish(&mut self, tid: u64, at_ns: f64) {
        let tr = &mut self.transfers[tid as usize];
        let arrival = at_ns + tr.latency_ns as f64;
        tr.arrival_ns = arrival;
        let (src, dst, post) = (tr.src as Rank, tr.dst as Rank, tr.post_ns);
        if tr.bytes > self.mpi.eager_threshold {
            // The blocking rendezvous send completes with the flow.
            self.complete_part(src, at_ns);
        }
        if !post.is_nan() {
            self.finish_recv(dst, arrival, post);
        }
    }

    fn complete_part(&mut self, rank: Rank, now_ns: f64) {
        if self.ranks.complete(rank) {
            self.issue_current_op(rank, now_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::AllToAllAlgorithm;
    use simnet::config::{LinkConfig, SwitchConfig};
    use simnet::topology::TopologyBuilder;

    fn star(n: usize) -> (Topology, Vec<HostId>) {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        let sw = b.add_switch(SwitchConfig::lossless_fabric());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        (b.build().unwrap(), hosts)
    }

    fn world<'a>(topo: &'a Topology, hosts: &'a [HostId]) -> FluidWorld<'a> {
        FluidWorld::new(topo, hosts.to_vec(), MpiConfig::default())
    }

    #[test]
    fn waiters_pop_in_arrival_order_and_flag_the_last() {
        let mut q = Waiters::new(7u64);
        q.push_back(8);
        q.push_back(9);
        assert_eq!(q.pop_front(), (7, false));
        q.push_back(10);
        assert_eq!(q.pop_front(), (8, false));
        assert_eq!(q.pop_front(), (9, false));
        assert_eq!(q.pop_front(), (10, true));
    }

    #[test]
    fn two_sends_queued_behind_one_peer_both_match() {
        // Both eager sends issue before rank 1 posts a receive for them
        // (it is still receiving from rank 2), so they wait in one pair
        // queue — head inline, the second behind it — and both must be
        // matched by the two receives that follow.
        let (topo, hosts) = star(3);
        let w = world(&topo, &hosts);
        let r = w.run(vec![
            vec![Op::send(1, 100), Op::send(1, 200)],
            vec![Op::recv(2), Op::recv(0), Op::recv(0)],
            vec![Op::send(1, 4_000_000)],
        ]);
        assert!(r.finished[0] < r.finished[1], "receiver drains last");
    }

    #[test]
    fn two_receives_posted_before_their_sends_both_match() {
        // Rank 1 posts both receives at once while rank 0 is still busy
        // receiving 4 MB from rank 2, so they wait in one pair queue; the
        // two sends that follow must each match one, at an eager and at a
        // rendezvous size.
        let (topo, hosts) = star(3);
        let w = world(&topo, &hosts);
        for m in [100, 1_000_000] {
            let r = w.run(vec![
                vec![Op::recv(2), Op::send(1, m), Op::send(1, m)],
                vec![Op::Transfer {
                    sends: vec![],
                    recvs: vec![0, 0],
                }],
                vec![Op::send(0, 4_000_000)],
            ]);
            assert!(r.finished[0] < r.finished[1], "m={m}: receiver drains last");
            // The sends start after the 4 MB (up to the finish window
            // late) and run back to back at line rate; the per-message
            // overheads add tens of microseconds.
            let ideal = (4_000_000 + 2 * m) as f64 / 125e6;
            let d = r.duration_secs();
            assert!(
                (ideal..ideal + ideal * FINISH_WINDOW_REL + 1e-4).contains(&d),
                "m={m}: {d} vs {ideal}"
            );
        }
    }

    #[test]
    fn an_eager_send_nobody_receives_lets_its_sender_finish() {
        // Rank 1 receives from rank 2 only. Rank 0's eager message is
        // buffered and never matched; its blocking send completes on the
        // CPU charge alone, and the run ends.
        let (topo, hosts) = star(3);
        let w = world(&topo, &hosts);
        let r = w.run(vec![
            vec![Op::send(1, 100)],
            vec![Op::recv(2)],
            vec![Op::send(1, 100)],
        ]);
        assert_eq!(
            r.finished[0],
            SimTime(MpiConfig::default().send_overhead_ns)
        );
        assert!(
            r.finished[1] > r.finished[2],
            "rank 1 receives rank 2's message"
        );
    }

    #[test]
    fn single_rendezvous_send_spans_the_transfer() {
        let (topo, hosts) = star(2);
        let w = world(&topo, &hosts);
        let r = w.run(vec![vec![Op::send(1, 125_000_000)], vec![Op::recv(0)]]);
        // 1 s of fluid plus microsecond-scale overheads.
        let d = r.duration_secs();
        assert!((d - 1.0).abs() < 1e-3, "duration = {d}");
        // Sender completes at flow finish; receiver a hair later
        // (latency + recv overhead).
        assert!(r.finished[0] < r.finished[1]);
    }

    #[test]
    fn a_rank_finishes_with_its_latest_flow_of_a_finish_window() {
        // Both rendezvous flows share rank 0's uplink at C/2. The one to
        // rank 2 starts second and finishes first, at 16 ms; the one to
        // rank 1 finishes at 16.08 ms, inside that finish's 1 % window, so
        // one advance completes both and the rank must end with the later.
        let (topo, hosts) = star(3);
        let w = world(&topo, &hosts);
        let r = w.run(vec![
            vec![Op::Transfer {
                sends: vec![(1, 1_005_000), (2, 1_000_000)],
                recvs: vec![],
            }],
            vec![Op::recv(0)],
            vec![Op::recv(0)],
        ]);
        assert_eq!(r.finished[0], SimTime(16_080_000));
    }

    #[test]
    fn eager_send_completes_before_receiver_posts() {
        let (topo, hosts) = star(2);
        let w = world(&topo, &hosts);
        let r = w.run(vec![vec![Op::send(1, 100)], vec![Op::recv(0)]]);
        assert!(r.finished[0] <= r.finished[1]);
    }

    #[test]
    fn barrier_releases_all_ranks_together() {
        let (topo, hosts) = star(4);
        let w = world(&topo, &hosts);
        let r = w.run(vec![
            vec![Op::send(1, 200_000), Op::Barrier],
            vec![Op::recv(0), Op::Barrier],
            vec![Op::Barrier],
            vec![Op::Barrier],
        ]);
        let min = r.finished.iter().min().unwrap();
        let max = r.finished.iter().max().unwrap();
        assert!(max.since(*min) < 1_000_000, "all release within 1 ms");
    }

    #[test]
    fn all_alltoall_algorithms_complete_fluidly() {
        for algo in AllToAllAlgorithm::all() {
            let n = 8;
            let (topo, hosts) = star(n);
            let w = world(&topo, &hosts);
            let r = w.run(algo.programs(n, 64 * 1024));
            let d = r.duration_secs();
            // 7 × 64 KiB into each 125 MB/s sink ≈ 3.6 ms minimum.
            assert!(d > 3.5e-3, "{}: {d}", algo.name());
            assert!(d < 1.0, "{}: {d}", algo.name());
        }
    }

    #[test]
    fn fluid_run_is_deterministic() {
        let (topo, hosts) = star(6);
        let w = world(&topo, &hosts);
        let progs = AllToAllAlgorithm::DirectExchange.programs(6, 32 * 1024);
        let a = w.run(progs.clone()).duration_secs();
        let b = w.run(progs).duration_secs();
        assert_eq!(a, b);
    }

    #[test]
    fn fluid_tracks_receiver_bottleneck_for_direct_alltoall() {
        let n = 8;
        let (topo, hosts) = star(n);
        let w = world(&topo, &hosts);
        let m = 1_000_000u64;
        let r = w.run(AllToAllAlgorithm::DirectExchangeNonblocking.programs(n, m));
        let ideal = (n as f64 - 1.0) * m as f64 / 125e6;
        let d = r.duration_secs();
        assert!(d >= ideal * 0.999, "{d} vs {ideal}");
        assert!(d <= ideal * 1.05, "{d} vs {ideal}");
    }

    #[test]
    fn mismatched_programs_deadlock_with_diagnostic() {
        let (topo, hosts) = star(3);
        let w = world(&topo, &hosts);
        // Rank 0 sends rendezvous-size data to rank 1, which posts no
        // receive for it: none at all, or one from rank 2 only.
        for receiver in [vec![], vec![Op::recv(2)]] {
            let programs = vec![
                vec![Op::send(1, 1_000_000)],
                receiver,
                vec![Op::send(1, 100)],
            ];
            match w.try_run(programs, RunGuard::unlimited()) {
                Err(RunInterrupt::Deadlocked { ranks, detail }) => {
                    assert_eq!(ranks, vec![0]);
                    assert_eq!(detail, "ranks [0] blocked with no pending events or flows");
                }
                other => panic!("expected a deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_still_panics_on_deadlock() {
        let (topo, hosts) = star(2);
        let w = world(&topo, &hosts);
        let _ = w.run(vec![vec![Op::send(1, 1_000_000)], vec![]]);
    }

    #[test]
    fn recompute_budget_interrupts_a_fluid_run() {
        let n = 8;
        let (topo, hosts) = star(n);
        let w = world(&topo, &hosts);
        let progs = AllToAllAlgorithm::DirectExchange.programs(n, 64 * 1024);
        let guard = RunGuard::unlimited().with_event_budget(1);
        match w.try_run(progs, guard) {
            Err(RunInterrupt::Guard(simnet::guard::GuardStop::Budget { budget: 1 })) => {}
            other => panic!("expected a budget stop, got {other:?}"),
        }
    }

    #[test]
    fn zero_byte_sends_complete() {
        let (topo, hosts) = star(2);
        let w = world(&topo, &hosts);
        let r = w.run(vec![vec![Op::send(1, 0)], vec![Op::recv(0)]]);
        assert!(r.duration_secs() < 1e-3);
    }

    /// Closed form (ROADMAP 1a): on a lossless star every round of
    /// `direct` and `pairwise` is a permutation at line rate, so with
    /// rendezvous-size messages n ranks take exactly n−1 two-rank
    /// exchanges; the finish window may only add its bounded lateness.
    #[test]
    fn permutation_rounds_take_n_minus_one_two_rank_exchanges() {
        let time = |algo: AllToAllAlgorithm, n: usize, m: u64| {
            let (topo, hosts) = star(n);
            world(&topo, &hosts)
                .run(algo.programs(n, m))
                .duration_secs()
        };
        for algo in [
            AllToAllAlgorithm::DirectExchange,
            AllToAllAlgorithm::PairwiseExchange,
        ] {
            for m in [64 * 1024, 1_000_000] {
                let t2 = time(algo, 2, m);
                for n in [4, 8, 16, 32] {
                    let ratio = time(algo, n, m) / ((n - 1) as f64 * t2);
                    // The low end allows for finish times in whole ns.
                    assert!(
                        (1.0 - 1e-9..=1.0 + FINISH_WINDOW_REL).contains(&ratio),
                        "{} n={n} m={m}: T(n)/((n-1)·T(2)) = {ratio}",
                        algo.name()
                    );
                }
            }
        }
    }

    /// Metamorphic (ROADMAP 1f): a barrier releases every rank onto an
    /// idle fabric at once, so `A ++ [Barrier] ++ B` takes T(A) + T(B).
    #[test]
    fn a_barrier_separated_sequence_takes_the_sum_of_its_parts() {
        for n in [2, 4, 8, 16] {
            let (topo, hosts) = star(n);
            let w = world(&topo, &hosts);
            for (ma, mb) in [(1024, 1_000_000), (64 * 1024, 4096), (1_000_000, 1_000_000)] {
                for a in AllToAllAlgorithm::all() {
                    for b in AllToAllAlgorithm::all() {
                        let (pa, pb) = (a.programs(n, ma), b.programs(n, mb));
                        let parts =
                            w.run(pa.clone()).duration_secs() + w.run(pb.clone()).duration_secs();
                        let joined = pa
                            .into_iter()
                            .zip(pb)
                            .map(|(mut p, q)| {
                                p.push(Op::Barrier);
                                p.extend(q);
                                p
                            })
                            .collect();
                        let whole = w.run(joined).duration_secs();
                        assert!(
                            (whole - parts).abs() <= FINISH_WINDOW_REL * parts,
                            "{}({ma}) ++ {}({mb}), n={n}: {whole} vs {parts}",
                            a.name(),
                            b.name()
                        );
                    }
                }
            }
        }
    }
}
