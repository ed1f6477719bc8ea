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
//! (`program.rs`); this module is the protocol half — message matching,
//! flow starts, the rank-event queue (the packet engine's
//! [`RadixQueue`], keyed by the bits of each `f64` instant) — and the
//! driver that steps [`FluidSim`] through each finish window
//! ([`FluidSim::window_end`]).
//!
//! Per-message cost is what a large run pays half a million times, so a
//! message costs a few sequential passes, one route walk and few bytes.
//! Which receive takes which message is a pure function of the programs:
//! the k-th send s → d meets the k-th receive at d from s. So before the
//! first op issues, `Messages::pair` lays out every message and pairs
//! every receive with it in `O(messages + ranks)`, and at run time a send
//! or a receive finds its message by a per-rank cursor; nothing is looked
//! up. Pairing consumes the programs: each rank's [`Op`]s become
//! `FluidStep`s (a transfer's send and receive counts, or a barrier) and
//! are dropped, so the interpreter reads a send's destination and size
//! from its message. What a message holds for the whole run:
//!
//! | bytes | what |
//! |---|---|
//! | 32 | its `Transfer`: source and destination rank (`u32` each), payload bytes, receive post and data arrival instants |
//! | 4 | the id its receive takes (`recv_message`) |
//!
//! plus, while its flow is in flight, [`FluidSim`]'s per-flow state. The
//! route is walked once, by [`FluidSim::start_flow`], which copies its
//! serializer slots; the finish wave that completes the flow sums their
//! latencies into [`FluidCompletion::latency_ns`], which the finish adds to
//! the flow's end to get the arrival. Only a zero-byte message, which
//! starts no flow, walks its route for the latency at issue.

use crate::config::MpiConfig;
use crate::ops::{Op, Rank};
use crate::program::{check_hosts, check_peers, Next, ProgramCounter, Step};
use crate::world::{RunInterrupt, RunResult};
use simnet::event::RadixQueue;
use simnet::fluid::{FluidCompletion, FluidSim};
use simnet::guard::RunGuard;
use simnet::ids::HostId;
use simnet::obs::Recorder;
use simnet::time::SimTime;
use simnet::topology::Topology;

/// Relative finish-coalescing window handed to [`FluidSim`]: finishes
/// within 1 % of the time since the latest flow start complete under one
/// rate recomputation. That slack defers a redistribution, or a flow a
/// rank starts inside the window, by at most 1 % of the time its
/// competitors have been flowing, so it does not compound over rounds —
/// small next to the packet-vs-fluid error bands this tier documents —
/// and it saves ~10× the recomputations of the staggered ECMP finish
/// waves on the 1024-host fat-tree all-to-all.
pub const FINISH_WINDOW_REL: f64 = 1e-2;

/// One point-to-point message, identified by its index in
/// [`Messages::transfers`]. Ranks fit `u32`: each sits on its own
/// [`HostId`]. Eager is `bytes <= eager_threshold`, not a field, and the
/// route's one-way latency comes back with the flow's completion.
#[derive(Debug)]
struct Transfer {
    src: u32,
    dst: u32,
    bytes: u64,
    /// Receive post instant; NaN until the matching receive has posted.
    post_ns: f64,
    /// Data arrival instant at the receiver (flow finish + route
    /// latency); NaN until the flow finishes.
    arrival_ns: f64,
}

const _: () = assert!(
    std::mem::size_of::<Transfer>() == 32,
    "Transfer is 32 bytes: a large all-to-all holds one per message"
);

/// A rank's op once [`Messages::pair`] has laid its messages out: how many
/// sends and receives a transfer issues, which the rank's cursors find, or
/// a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FluidStep {
    /// Post the rank's next `recvs` receives, issue its next `sends` sends.
    Transfer { sends: u32, recvs: u32 },
    /// [`Op::Barrier`].
    Barrier,
}

/// A transfer hands its world its `(sends, recvs)` counts.
impl Step for FluidStep {
    type Payload = (u32, u32);

    fn is_empty(&self) -> bool {
        *self == FluidStep::Transfer { sends: 0, recvs: 0 }
    }

    fn take(&mut self) -> Option<Self::Payload> {
        match *self {
            FluidStep::Transfer { sends, recvs } => Some((sends, recvs)),
            FluidStep::Barrier => None,
        }
    }

    fn restore(&mut self, _: Self::Payload) {}
}

/// The message id of a surplus receive, which no send matches: it blocks
/// its rank for good.
const UNMATCHED: u32 = u32::MAX;

/// Every message of a run, each paired with the receive that takes it
/// before the first op issues, and per-rank cursors over both.
struct Messages {
    /// One per send, in walk order: rank by rank, op by op, so a rank's
    /// sends are contiguous and in issue order.
    transfers: Vec<Transfer>,
    /// The message each receive takes, laid out like `transfers` (a
    /// rank's receives contiguous, in post order), or [`UNMATCHED`].
    recv_message: Vec<u32>,
    /// Per rank: the id of its next send to issue.
    next_send: Vec<u32>,
    /// Per rank: the index of its next receive to post.
    next_recv: Vec<u32>,
}

impl Messages {
    /// Lays out every send of `programs`, turning each rank's ops into the
    /// steps its counter runs and dropping them as it goes, and pairs the
    /// k-th receive at d from s with the k-th send s → d (MPI
    /// non-overtaking). A stable counting sort of message ids by
    /// destination leaves each source's messages to d contiguous and in
    /// program order, so one cursor per source, set and reset only where
    /// d's bucket touches it, walks them: `O(messages + ranks)`, no hashing
    /// and no ranks² table.
    ///
    /// # Panics
    /// Panics, naming the rank, the op index and the peer, if a send or
    /// receive names a peer outside the world or the rank itself.
    fn pair(programs: Vec<Vec<Op>>) -> (Self, Vec<Vec<FluidStep>>) {
        let n = programs.len();
        let (sends, recvs) = programs
            .iter()
            .flatten()
            .fold((0, 0), |(s, r), op| match op {
                Op::Transfer { sends, recvs } => (s + sends.len(), r + recvs.len()),
                Op::Barrier => (s, r),
            });
        assert!(sends < UNMATCHED as usize, "message ids fit u32");
        let mut transfers = Vec::with_capacity(sends);
        // Each receive's source until it is paired.
        let mut recv_message = Vec::with_capacity(recvs);
        let mut next_send = Vec::with_capacity(n);
        // Each rank's first receive, and the end while pairing: rank d's
        // receives are `next_recv[d]..next_recv[d + 1]`.
        let mut next_recv = Vec::with_capacity(n + 1);
        let mut steps = Vec::with_capacity(n);
        for (rank, program) in programs.into_iter().enumerate() {
            next_send.push(transfers.len() as u32);
            next_recv.push(recv_message.len() as u32);
            let step = |(index, op): (usize, Op)| {
                check_peers(rank, index, &op, n);
                let Op::Transfer { sends, recvs } = op else {
                    return FluidStep::Barrier;
                };
                transfers.extend(sends.iter().map(|&(to, bytes)| Transfer {
                    src: rank as u32,
                    dst: to as u32,
                    bytes,
                    post_ns: f64::NAN,
                    arrival_ns: f64::NAN,
                }));
                recv_message.extend(recvs.iter().map(|&from| from as u32));
                FluidStep::Transfer {
                    sends: sends.len() as u32,
                    recvs: recvs.len() as u32,
                }
            };
            steps.push(program.into_iter().enumerate().map(step).collect());
        }
        next_recv.push(recv_message.len() as u32);
        let mut starts = vec![0u32; n + 2];
        for tr in &transfers {
            starts[tr.dst as usize + 2] += 1;
        }
        for d in 0..n {
            starts[d + 2] += starts[d + 1];
        }
        // `starts[d + 1]` begins as d's fill cursor and so ends as its end.
        let mut by_dst = vec![0u32; transfers.len()];
        for (id, tr) in transfers.iter().enumerate() {
            let fill = &mut starts[tr.dst as usize + 1];
            by_dst[*fill as usize] = id as u32;
            *fill += 1;
        }
        let src = |id: u32| transfers[id as usize].src as usize;
        let mut cursor = vec![UNMATCHED; n];
        for d in 0..n {
            let bucket = &by_dst[starts[d] as usize..starts[d + 1] as usize];
            for (pos, &id) in bucket.iter().enumerate().rev() {
                cursor[src(id)] = pos as u32;
            }
            let receives = next_recv[d] as usize..next_recv[d + 1] as usize;
            for message in &mut recv_message[receives] {
                let from = *message as usize;
                *message = match bucket.get(cursor[from] as usize) {
                    Some(&id) if src(id) == from => {
                        cursor[from] += 1;
                        id
                    }
                    _ => UNMATCHED,
                };
            }
            for &id in bucket {
                cursor[src(id)] = UNMATCHED;
            }
        }
        next_recv.pop();
        let messages = Self {
            transfers,
            recv_message,
            next_send,
            next_recv,
        };
        (messages, steps)
    }

    /// The id of `rank`'s next send, which it issues now.
    fn issue(&mut self, rank: Rank) -> u32 {
        let id = self.next_send[rank];
        self.next_send[rank] += 1;
        id
    }

    /// The message `rank`'s next receive takes, which it posts now.
    fn post(&mut self, rank: Rank) -> u32 {
        let index = self.next_recv[rank];
        self.next_recv[rank] += 1;
        self.recv_message[index as usize]
    }

    /// Whether message `id`'s sender has issued it.
    fn issued(&self, id: u32) -> bool {
        id < self.next_send[self.transfers[id as usize].src as usize]
    }
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
    ranks: ProgramCounter<f64, FluidStep>,
    messages: Messages,
    /// Per pending part: the rank it resolves for (ranks fit `u32`, as in
    /// [`Transfer`]), keyed by the resolving instant's `f64` bits, which
    /// sort as non-negative instants do; ties pop in schedule order.
    events: RadixQueue<u32>,
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
        let mut interp = self.interp(programs, recorder, guard);
        let result = interp.execute();
        (result, interp.net.into_recorder())
    }

    /// The interpreter of one run, before its first op issues.
    fn interp<R: Recorder>(
        &self,
        programs: Vec<Vec<Op>>,
        recorder: R,
        guard: RunGuard,
    ) -> Interp<'_, 'a, R> {
        assert_eq!(programs.len(), self.hosts.len(), "one program per rank");
        let (messages, steps) = Messages::pair(programs);
        let mut net = FluidSim::with_recorder(self.topo, recorder);
        net.reserve(messages.transfers.len());
        net.set_finish_window(FINISH_WINDOW_REL);
        net.set_guard(guard);
        Interp {
            topo: self.topo,
            hosts: &self.hosts,
            mpi: &self.mpi,
            net,
            ranks: ProgramCounter::new(steps),
            messages,
            events: RadixQueue::new(),
            finish_buf: Vec::new(),
            flow_bytes: 0,
        }
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
            let event = self.events.peek_key().map_or(f64::INFINITY, f64::from_bits);
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
                self.on_flow_finish(c, (c.at.0 as f64).clamp(t, t_adv));
            }
            self.finish_buf = finishes;
            while let Some((at, rank)) = self.events.pop_at_most(t_adv.to_bits()) {
                self.complete_part(rank as Rank, f64::from_bits(at));
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
        self.events.push(at_ns.to_bits(), rank as u32);
    }

    /// Conservation at quiescence, checked once per successful run in
    /// debug builds. Every rank finished, so every receive was matched and
    /// posted, and every matched message arrived. What a finished run may
    /// leave behind is an eager message nobody received: its sender
    /// completed on the CPU charge, as in MPI, and its flow may still be
    /// in flight. A program whose every send is received leaves no flow.
    fn assert_conserved(&self) {
        let Messages {
            transfers,
            recv_message,
            ..
        } = &self.messages;
        assert!(
            !recv_message.contains(&UNMATCHED),
            "a surplus receive completed"
        );
        let mut matched = 0;
        let mut in_flight = 0;
        for tr in transfers {
            if tr.post_ns.is_nan() {
                assert!(tr.bytes <= self.mpi.eager_threshold, "{tr:?} never matched");
            } else {
                assert!(tr.post_ns.is_finite(), "{tr:?}");
                assert!(!tr.arrival_ns.is_nan(), "{tr:?} matched, never arrived");
                matched += 1;
            }
            if tr.arrival_ns.is_nan() {
                in_flight += 1;
            } else {
                assert!(tr.arrival_ns.is_finite(), "{tr:?}");
            }
        }
        assert_eq!(matched, recv_message.len(), "one message per receive");
        assert_eq!(self.net.active_flows(), in_flight, "flows in flight");
        let sent: u64 = transfers.iter().map(|tr| tr.bytes).sum();
        assert_eq!(self.flow_bytes, sent, "bytes started as flows");
    }

    /// One-way wire latency of the src → dst route in nanoseconds, for a
    /// zero-byte message, which starts no flow to sum it.
    fn route_latency(&self, src: Rank, dst: Rank) -> u64 {
        self.topo
            .route(self.hosts[src], self.hosts[dst])
            .map(|tx| self.topo.tx_params[tx.index()].latency_ns)
            .sum()
    }

    /// Starts message `id`'s payload as a fluid flow.
    fn start_flow(&mut self, id: u32) {
        let tr = &self.messages.transfers[id as usize];
        let (src, dst) = (self.hosts[tr.src as usize], self.hosts[tr.dst as usize]);
        self.flow_bytes += tr.bytes;
        self.net.start_flow(src, dst, tr.bytes, u64::from(id));
    }

    fn issue_current_op(&mut self, rank: Rank, now_ns: f64) {
        match self.ranks.next(rank, now_ns) {
            Next::Idle => {}
            Next::Release => {
                for r in 0..self.hosts.len() {
                    self.schedule(r, now_ns);
                }
            }
            Next::Transfer((sends, recvs)) => {
                // The op's sends are the rank's next `sends` messages.
                let first = self.messages.next_send[rank] as usize;
                let rendezvous = self.messages.transfers[first..first + sends as usize]
                    .iter()
                    .filter(|tr| tr.bytes > self.mpi.eager_threshold)
                    .count();
                let cpu_parts = usize::from(sends > 0);
                // Receives post first (instantaneous state change) so a
                // sendrecv against the same peer cannot deadlock.
                for _ in 0..recvs {
                    self.post_recv(rank, now_ns);
                }
                if cpu_parts > 0 {
                    let cpu_ns = u64::from(sends) * self.mpi.send_overhead_ns;
                    self.schedule(rank, now_ns + cpu_ns as f64);
                }
                for _ in 0..sends {
                    self.issue_send(rank, now_ns);
                }
                let parts = cpu_parts + rendezvous + recvs as usize;
                self.ranks.wait(rank, parts, (sends, recvs));
            }
        }
    }

    /// `src` issues its next send.
    fn issue_send(&mut self, src: Rank, now_ns: f64) {
        let id = self.messages.issue(src);
        let tr = &self.messages.transfers[id as usize];
        let (dst, bytes, post) = (tr.dst as Rank, tr.bytes, tr.post_ns);
        // Its receive has posted already.
        let matched = !post.is_nan();
        if bytes == 0 {
            // Zero-byte message (always eager): nothing flows; it
            // "arrives" one wire latency after issue.
            let arrival = now_ns + self.route_latency(src, dst) as f64;
            self.messages.transfers[id as usize].arrival_ns = arrival;
            if matched {
                self.finish_recv(dst, arrival, post);
            }
        } else if bytes <= self.mpi.eager_threshold || matched {
            // Eager data flows at issue; rendezvous data once its receive
            // has posted, here now.
            self.start_flow(id);
        }
    }

    /// `dst` posts its next receive.
    fn post_recv(&mut self, dst: Rank, now_ns: f64) {
        let id = self.messages.post(dst);
        if id == UNMATCHED {
            // A surplus receive: no send will ever match it.
            return;
        }
        let issued = self.messages.issued(id);
        let tr = &mut self.messages.transfers[id as usize];
        tr.post_ns = now_ns;
        if !issued {
            // The send finds the post when it issues.
            return;
        }
        let (bytes, arrival) = (tr.bytes, tr.arrival_ns);
        if bytes > self.mpi.eager_threshold {
            // Rendezvous: the late receive releases the data. The flow
            // starts at the post instant (= max(issue, post)). Rendezvous
            // payloads are > eager_threshold ≥ 0, never empty.
            self.start_flow(id);
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

    /// Flow `c` finished at `at_ns`; its data arrives one route latency
    /// later.
    fn on_flow_finish(&mut self, c: &FluidCompletion, at_ns: f64) {
        let tr = &mut self.messages.transfers[c.tag as usize];
        let arrival = at_ns + c.latency_ns as f64;
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

    /// One-way latency of a star route (two gigabit hops) plus the
    /// receive overhead: what a receive completes after its flow.
    const HOP_AND_RECV_NS: u64 = 2 * 25_000 + 4_000;

    /// A lone 1 MB flow started at 0 finishes at 8 ms, and its finish
    /// window runs `FINISH_WINDOW_REL` of that past it: a flow a rank
    /// starts inside the window starts at its end.
    const FIRST_WINDOW_END_NS: u64 = 8_080_000;

    #[test]
    fn kth_send_matches_kth_receive_of_its_pair() {
        // The 1 MB message flows 0 → 8 ms against the first receive, and
        // the 3 MB one, issued then, waits for the second receive, posted
        // when the first completes, inside the first finish window. Pairing
        // the first receive with the second message instead would
        // deadlock: that send issues only after the first completes, which
        // needs the second receive.
        let (topo, hosts) = star(2);
        let r = world(&topo, &hosts).run(vec![
            vec![Op::send(1, 1_000_000), Op::send(1, 3_000_000)],
            vec![Op::recv(0), Op::recv(0)],
        ]);
        let second_finish = FIRST_WINDOW_END_NS + 24_000_000;
        assert_eq!(
            r.finished,
            [
                SimTime(second_finish),
                SimTime(second_finish + HOP_AND_RECV_NS)
            ]
        );
    }

    #[test]
    fn a_pair_exchanges_on_both_sides_of_a_barrier() {
        // Each side's second receive takes the second message, released by
        // the barrier when the first exchange completes, inside the first
        // finish window.
        let (topo, hosts) = star(2);
        let r = world(&topo, &hosts).run(vec![
            vec![
                Op::sendrecv(1, 1_000_000, 1),
                Op::Barrier,
                Op::sendrecv(1, 3_000_000, 1),
            ],
            vec![
                Op::sendrecv(0, 1_000_000, 0),
                Op::Barrier,
                Op::sendrecv(0, 3_000_000, 0),
            ],
        ]);
        let end = FIRST_WINDOW_END_NS + 24_000_000 + HOP_AND_RECV_NS;
        assert_eq!(r.finished, [SimTime(end), SimTime(end)]);
    }

    #[test]
    fn surplus_receive_blocks_its_receiver() {
        let (topo, hosts) = star(2);
        let programs = vec![vec![Op::send(1, 100)], vec![Op::recv(0), Op::recv(0)]];
        match world(&topo, &hosts).try_run(programs, RunGuard::unlimited()) {
            Err(RunInterrupt::Deadlocked { ranks, detail }) => {
                assert_eq!(ranks, vec![1]);
                assert_eq!(detail, "ranks [1] blocked with no pending events or flows");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "rank 0, op 0: peer 7 is not another of the 3 ranks")]
    fn an_out_of_range_receive_panics_naming_rank_op_and_peer() {
        let (topo, hosts) = star(3);
        world(&topo, &hosts).run(vec![vec![Op::recv(7)], vec![], vec![]]);
    }

    #[test]
    fn two_sends_queued_behind_one_peer_both_match() {
        // Both eager sends issue before rank 1 posts a receive for them
        // (it is still receiving from rank 2), so both wait as unexpected
        // data and must be taken by the two receives that follow.
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
        // receiving 4 MB from rank 2, so both wait; the two sends that
        // follow must each match one, at an eager and at a rendezvous
        // size.
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

    /// The last rank into a barrier schedules every rank at its instant,
    /// behind an entry already due then: the queue hands them back in
    /// schedule order, which is rank order.
    #[test]
    fn a_barrier_release_pops_its_ranks_in_rank_order() {
        let (topo, hosts) = star(5);
        let w = world(&topo, &hosts);
        let mut interp = w.interp(
            vec![vec![Op::Barrier]; 5],
            simnet::obs::NoopRecorder,
            RunGuard::unlimited(),
        );
        interp.schedule(3, 5_000.0);
        for (rank, at) in [(4, 1_000.0), (2, 2_000.0), (1, 3_000.0), (3, 4_000.0)] {
            interp.issue_current_op(rank, at);
        }
        assert_eq!(interp.events.len(), 1, "arrivals before the last wait");
        interp.issue_current_op(0, 5_000.0);
        let popped: Vec<(u64, u32)> = std::iter::from_fn(|| interp.events.pop()).collect();
        let at = 5_000f64.to_bits();
        assert_eq!(
            popped,
            [(at, 3), (at, 0), (at, 1), (at, 2), (at, 3), (at, 4)]
        );
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
