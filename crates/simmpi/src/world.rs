//! The executor: runs per-rank programs over the network simulator with
//! blocking-MPI semantics and an eager/rendezvous point-to-point protocol.
//!
//! # Protocol
//!
//! * payload ≤ `eager_threshold`: one message of `envelope + payload` bytes;
//!   the blocking send completes locally once the sender CPU overhead has
//!   elapsed (the data is buffered, as LAM's short-message TCP path does).
//! * payload > threshold: RTS (envelope bytes) → CTS (when the receiver has
//!   posted a matching receive) → data; the blocking send completes when the
//!   data is fully acknowledged.
//!
//! The eager/rendezvous split is load-bearing for the paper's `M` cutoff:
//! eager rounds absorb skew (data queues at the receiver as "unexpected"
//! messages and a lagging rank catches up instantly), while rendezvous
//! rounds re-synchronize every pair each round, so per-round costs — control
//! round-trips and OS scheduling hiccups — accumulate into the affine `δ`
//! term only above the threshold.
//!
//! The rank program counter is shared with
//! [`FluidWorld`](crate::fluid::FluidWorld) (`program.rs`); this module is
//! the protocol half: connections, envelope matching and the jittered CPU
//! overheads, drawn from the world's RNG in issue order.

use crate::config::MpiConfig;
use crate::ops::{Op, Rank};
use crate::program::{check_hosts, check_peers, Next, ProgramCounter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::prelude::*;
use std::collections::{BTreeMap, HashMap};

const KIND_EAGER: u64 = 1;
const KIND_RTS: u64 = 2;
const KIND_CTS: u64 = 3;
const KIND_DATA: u64 = 4;
const SEQ_BITS: u32 = 56;

fn make_tag(kind: u64, seq: u64) -> u64 {
    debug_assert!(seq < (1 << SEQ_BITS));
    (kind << SEQ_BITS) | seq
}

fn tag_kind(tag: u64) -> u64 {
    tag >> SEQ_BITS
}

fn tag_seq(tag: u64) -> u64 {
    tag & ((1 << SEQ_BITS) - 1)
}

/// A message that arrived before its receive was posted ("unexpected" in
/// MPI terms).
#[derive(Debug, Clone, Copy)]
enum ArrivedMsg {
    Eager,
    Rts,
}

/// Deferred work attached to a scheduled wakeup token.
#[derive(Debug, Clone, Copy)]
enum WakeupAction {
    StartRank { rank: Rank },
    IssueSend { rank: Rank, to: Rank, bytes: u64 },
    CompleteHalf { rank: Rank },
}

#[derive(Debug, Default)]
struct PairState {
    /// Bulk stream (eager payloads and rendezvous data).
    data_conn: Option<ConnId>,
    /// Control stream (RTS/CTS). Kept separate so a pending megabyte of
    /// bulk data never blocks a 32-byte clear-to-send — real MPI layers
    /// interleave control between data fragments on the wire.
    ctrl_conn: Option<ConnId>,
    /// Next sequence number assigned at the sender.
    next_seq: u64,
    /// Next sequence number the receiver may match (MPI non-overtaking:
    /// messages match in the order they were sent, even though eager and
    /// rendezvous envelopes travel on different streams).
    next_match: u64,
    /// Receives posted at the destination, not yet matched.
    posted: usize,
    /// Envelopes arrived at the destination, not yet matched, by sequence.
    arrived: BTreeMap<u64, ArrivedMsg>,
}

/// Result of one program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulated instant all ranks were released.
    pub start: SimTime,
    /// Per-rank completion instants.
    pub finished: Vec<SimTime>,
}

/// Why a supervised run returned without finishing every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunInterrupt {
    /// An installed [`RunGuard`] limit tripped (deadline, horizon,
    /// budget, or cancellation) at an engine preemption point.
    Guard(GuardStop),
    /// Every unfinished rank is blocked with nothing pending to wake it:
    /// the programs (or the fabric) deadlocked. On the packet tier this
    /// is the GM-on-finite-buffer trap — tail-dropped data with no
    /// retransmission timer — detected by the stall detector (event
    /// queue drained, connections not quiescent) instead of hanging.
    Deadlocked {
        /// Ranks that never finished.
        ranks: Vec<usize>,
        /// Human-readable diagnostic, including stalled connections
        /// where the engine can enumerate them.
        detail: String,
    },
}

impl std::fmt::Display for RunInterrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunInterrupt::Guard(stop) => write!(f, "run stopped by guard: {stop}"),
            RunInterrupt::Deadlocked { detail, .. } => write!(f, "deadlock: {detail}"),
        }
    }
}

impl RunResult {
    /// Wall-clock of the collective: last rank's finish minus start.
    pub fn duration_secs(&self) -> f64 {
        let end = self.finished.iter().copied().max().unwrap_or(self.start);
        end.since(self.start) as f64 / 1e9
    }

    /// One rank's completion time in seconds since the common start.
    pub fn rank_duration_secs(&self, rank: Rank) -> f64 {
        self.finished[rank].since(self.start) as f64 / 1e9
    }
}

/// A set of MPI ranks mapped onto simulator hosts.
///
/// The world owns the [`Simulator`] and drives it: [`World::run`] executes
/// one program per rank to completion and reports per-rank finish times.
/// Repeated runs on the same world reuse warm connections (persistent
/// sockets, as LAM keeps), with an idle gap between repetitions.
///
/// The `R` parameter is the telemetry recorder threaded into the owned
/// simulator; the default [`NoopRecorder`] costs nothing (see
/// `simnet::obs`).
pub struct World<R: Recorder = NoopRecorder> {
    sim: Simulator<R>,
    hosts: Vec<HostId>,
    mpi: MpiConfig,
    transport: TransportKind,
    pairs: Vec<PairState>,
    conn_pair: Vec<(Rank, Rank)>,
    rendezvous: HashMap<(usize, u64), u64>,
    actions: Vec<WakeupAction>,
    ranks: ProgramCounter<SimTime, Op>,
    /// Per rank, the instant its CPU finishes the overheads charged so far.
    cpu_free: Vec<SimTime>,
    rng: StdRng,
}

impl<R: Recorder> World<R> {
    /// Builds a world of `hosts.len()` ranks over an existing simulator
    /// (any recorder the simulator carries rides along).
    ///
    /// # Panics
    /// Panics if `hosts` is empty, repeats a host, or references hosts
    /// outside the simulator's topology.
    pub fn new(
        sim: Simulator<R>,
        hosts: Vec<HostId>,
        mpi: MpiConfig,
        transport: TransportKind,
    ) -> Self {
        check_hosts(&hosts, sim.n_hosts());
        let n = hosts.len();
        let mut pairs = Vec::with_capacity(n * n);
        pairs.resize_with(n * n, PairState::default);
        let seed = mpi.seed;
        Self {
            sim,
            hosts,
            mpi,
            transport,
            pairs,
            conn_pair: Vec::new(),
            rendezvous: HashMap::new(),
            actions: Vec::new(),
            ranks: ProgramCounter::new(Vec::new()),
            cpu_free: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.hosts.len()
    }

    /// The underlying simulator (counters, current time).
    pub fn sim(&self) -> &Simulator<R> {
        &self.sim
    }

    /// Mutable access to the simulator (e.g. to harvest its recorder).
    pub fn sim_mut(&mut self) -> &mut Simulator<R> {
        &mut self.sim
    }

    /// Consumes the world and returns its simulator's recorder.
    pub fn into_recorder(self) -> R {
        self.sim.into_recorder()
    }

    /// Runs one program per rank to completion and returns per-rank finish
    /// times. Programs start simultaneously after an idle gap (the paper's
    /// synchronization model: "all processes start the algorithm
    /// simultaneously").
    ///
    /// # Panics
    /// Panics if `programs.len()` differs from the rank count, if the
    /// programs deadlock (every rank blocked with no events pending), or
    /// if a guard installed on the simulator trips — use
    /// [`World::try_run`] to receive those outcomes as values.
    pub fn run(&mut self, programs: Vec<Vec<Op>>) -> RunResult {
        self.try_run(programs)
            .unwrap_or_else(|stop| panic!("{stop}"))
    }

    /// Like [`World::run`], but interruptions come back as values: a
    /// tripped [`RunGuard`] limit (install one with
    /// `world.sim_mut().set_guard(..)`) yields [`RunInterrupt::Guard`],
    /// and a genuine stall — event queue drained while ranks still wait
    /// — yields [`RunInterrupt::Deadlocked`] with a diagnostic of the
    /// blocked ranks and connections. The world is left mid-run after an
    /// interrupt, and a guard stop stays latched until the next
    /// `set_guard`; discard the world rather than running again.
    ///
    /// # Panics
    /// Panics if `programs.len()` differs from the rank count, or, naming
    /// the rank, the op index and the peer, if a send or receive names a
    /// peer outside the world or the rank itself.
    pub fn try_run(&mut self, programs: Vec<Vec<Op>>) -> Result<RunResult, RunInterrupt> {
        let n = self.hosts.len();
        assert_eq!(programs.len(), n, "one program per rank");
        for (rank, program) in programs.iter().enumerate() {
            for (index, op) in program.iter().enumerate() {
                check_peers(rank, index, op, n);
            }
        }
        // Drain any traffic trailing from a previous run (late ACKs).
        self.sim.run_until_idle();
        while self.sim.poll().is_some() {}

        let start = self.sim.now() + self.mpi.rep_gap_ns;
        self.actions.clear();
        self.ranks = ProgramCounter::new(programs);
        self.cpu_free = vec![start; self.hosts.len()];
        for rank in 0..self.hosts.len() {
            let token = self.push_action(WakeupAction::StartRank { rank });
            self.sim.schedule_wakeup(start, token);
        }

        while self.ranks.unfinished() > 0 {
            let Some(note) = self.sim.poll() else {
                if let Some(stop) = self.sim.guard_stop() {
                    return Err(RunInterrupt::Guard(stop));
                }
                return Err(self.deadlock_interrupt());
            };
            match note {
                Notification::Wakeup { token, .. } => self.on_wakeup(token),
                Notification::Delivered { conn, tag, .. } => self.on_delivered(conn, tag),
                Notification::SendDone { conn, tag, .. } => self.on_send_done(conn, tag),
            }
        }

        Ok(RunResult {
            start,
            finished: self.ranks.finish_times().collect(),
        })
    }

    /// Builds the stall-detector diagnostic: which ranks never finished,
    /// and which connections hold unacknowledged bytes with nothing
    /// pending to move them (since RTO timers live in the event queue, a
    /// drained queue with unacked bytes is a genuine protocol stall, not
    /// a simulation still in flight).
    fn deadlock_interrupt(&self) -> RunInterrupt {
        let ranks = self.ranks.blocked();
        let mut detail = format!("ranks {ranks:?} blocked with no pending events");
        let stalled = self.sim.blocked_connections();
        if !stalled.is_empty() {
            use std::fmt::Write as _;
            let shown = stalled.len().min(8);
            let _ = write!(detail, "; {} stalled connection(s):", stalled.len());
            for b in &stalled[..shown] {
                let _ = write!(
                    detail,
                    " conn{} host{}→host{} ({} B unacked)",
                    b.conn.index(),
                    b.src.index(),
                    b.dst.index(),
                    b.unacked_bytes
                );
            }
            if stalled.len() > shown {
                let _ = write!(detail, " …");
            }
        }
        RunInterrupt::Deadlocked { ranks, detail }
    }

    fn push_action(&mut self, action: WakeupAction) -> u64 {
        let token = self.actions.len() as u64;
        self.actions.push(action);
        token
    }

    fn pair_idx(&self, src: Rank, dst: Rank) -> usize {
        src * self.hosts.len() + dst
    }

    fn conn_for(&mut self, src: Rank, dst: Rank, ctrl: bool) -> ConnId {
        let idx = self.pair_idx(src, dst);
        let existing = if ctrl {
            self.pairs[idx].ctrl_conn
        } else {
            self.pairs[idx].data_conn
        };
        if let Some(c) = existing {
            return c;
        }
        let c = self
            .sim
            .open_connection(self.hosts[src], self.hosts[dst], self.transport);
        debug_assert_eq!(c.index(), self.conn_pair.len());
        self.conn_pair.push((src, dst));
        if ctrl {
            self.pairs[idx].ctrl_conn = Some(c);
        } else {
            self.pairs[idx].data_conn = Some(c);
        }
        c
    }

    /// Occupies the rank's CPU for `base_ns` plus jitter (plus an optional
    /// OS scheduling hiccup) and schedules `action` at the end.
    fn schedule_cpu(&mut self, rank: Rank, base_ns: u64, action: WakeupAction) {
        let jitter = if self.mpi.overhead_jitter_ns > 0 {
            self.rng.gen_range(0..=self.mpi.overhead_jitter_ns)
        } else {
            0
        };
        let hiccup = if self.mpi.hiccup_probability > 0.0
            && self.rng.gen_bool(self.mpi.hiccup_probability)
        {
            let mean = self.mpi.hiccup_mean_ns;
            self.rng.gen_range(mean / 2..=mean + mean / 2)
        } else {
            0
        };
        let begin = self.cpu_free[rank].max(self.sim.now());
        let end = begin + base_ns + jitter + hiccup;
        self.cpu_free[rank] = end;
        let token = self.push_action(action);
        self.sim.schedule_wakeup(end, token);
    }

    fn on_wakeup(&mut self, token: u64) {
        let action = self.actions[token as usize];
        match action {
            WakeupAction::StartRank { rank } => self.issue_current_op(rank),
            WakeupAction::CompleteHalf { rank } => self.complete_half(rank),
            WakeupAction::IssueSend { rank, to, bytes } => {
                let idx = self.pair_idx(rank, to);
                let seq = self.pairs[idx].next_seq;
                self.pairs[idx].next_seq += 1;
                if bytes <= self.mpi.eager_threshold {
                    let conn = self.conn_for(rank, to, false);
                    let wire = bytes + self.mpi.envelope_bytes;
                    self.sim.send(conn, wire, make_tag(KIND_EAGER, seq));
                    // Eager blocking send completes locally once buffered.
                    self.complete_half(rank);
                } else {
                    self.rendezvous.insert((idx, seq), bytes);
                    let conn = self.conn_for(rank, to, true);
                    self.sim
                        .send(conn, self.mpi.envelope_bytes, make_tag(KIND_RTS, seq));
                }
            }
        }
    }

    fn issue_current_op(&mut self, rank: Rank) {
        match self.ranks.next(rank, self.sim.now()) {
            Next::Idle => {}
            Next::Release => {
                let now = self.sim.now();
                for r in 0..self.hosts.len() {
                    let token = self.push_action(WakeupAction::CompleteHalf { rank: r });
                    self.sim.schedule_wakeup(now, token);
                }
            }
            Next::Transfer((sends, recvs)) => {
                // Receives post first (instantaneous state change) so a
                // sendrecv against the same peer cannot deadlock.
                for &from in &recvs {
                    self.post_recv(from, rank);
                }
                for &(to, bytes) in &sends {
                    self.schedule_cpu(
                        rank,
                        self.mpi.send_overhead_ns,
                        WakeupAction::IssueSend { rank, to, bytes },
                    );
                }
                self.ranks
                    .wait(rank, sends.len() + recvs.len(), (sends, recvs));
            }
        }
    }

    /// Rank `dst` posts a blocking receive for one message from `src`.
    fn post_recv(&mut self, src: Rank, dst: Rank) {
        let idx = self.pair_idx(src, dst);
        self.pairs[idx].posted += 1;
        self.drain_matches(src, dst);
    }

    /// Matches posted receives against arrived envelopes strictly in
    /// sequence order (MPI non-overtaking), dispatching each match.
    fn drain_matches(&mut self, src: Rank, dst: Rank) {
        let idx = self.pair_idx(src, dst);
        loop {
            let pair = &mut self.pairs[idx];
            if pair.posted == 0 {
                break;
            }
            let next = pair.next_match;
            let Some(msg) = pair.arrived.remove(&next) else {
                break;
            };
            pair.posted -= 1;
            pair.next_match += 1;
            match msg {
                ArrivedMsg::Eager => self.schedule_cpu(
                    dst,
                    self.mpi.recv_overhead_ns,
                    WakeupAction::CompleteHalf { rank: dst },
                ),
                ArrivedMsg::Rts => self.grant_cts(src, dst, next),
            }
        }
    }

    /// The receiver clears a rendezvous sender to transmit.
    fn grant_cts(&mut self, src: Rank, dst: Rank, seq: u64) {
        let conn = self.conn_for(dst, src, true);
        let cts = self.mpi.cts_bytes;
        self.sim.send(conn, cts, make_tag(KIND_CTS, seq));
    }

    fn on_delivered(&mut self, conn: ConnId, tag: u64) {
        let (a, b) = self.conn_pair[conn.index()];
        let (kind, seq) = (tag_kind(tag), tag_seq(tag));
        match kind {
            KIND_EAGER => self.recv_arrival(a, b, seq, ArrivedMsg::Eager),
            KIND_RTS => self.recv_arrival(a, b, seq, ArrivedMsg::Rts),
            KIND_CTS => {
                // CTS flows receiver→sender: the rendezvous pair is (b→a).
                let idx = self.pair_idx(b, a);
                let bytes = *self
                    .rendezvous
                    .get(&(idx, seq))
                    .expect("CTS for an unknown rendezvous");
                let conn = self.conn_for(b, a, false);
                self.sim.send(conn, bytes, make_tag(KIND_DATA, seq));
            }
            KIND_DATA => {
                // The receive slot was consumed when the RTS matched; the
                // payload's arrival completes the receive after overhead.
                self.schedule_cpu(
                    b,
                    self.mpi.recv_overhead_ns,
                    WakeupAction::CompleteHalf { rank: b },
                );
            }
            other => unreachable!("unknown message kind {other}"),
        }
    }

    fn recv_arrival(&mut self, src: Rank, dst: Rank, seq: u64, msg: ArrivedMsg) {
        let idx = self.pair_idx(src, dst);
        let prev = self.pairs[idx].arrived.insert(seq, msg);
        debug_assert!(prev.is_none(), "duplicate envelope sequence");
        self.drain_matches(src, dst);
    }

    fn on_send_done(&mut self, conn: ConnId, tag: u64) {
        if tag_kind(tag) != KIND_DATA {
            return; // eager/control completions are local, already counted
        }
        let (src, dst) = self.conn_pair[conn.index()];
        let idx = self.pair_idx(src, dst);
        let seq = tag_seq(tag);
        if self.rendezvous.remove(&(idx, seq)).is_some() {
            self.complete_half(src);
        }
    }

    fn complete_half(&mut self, rank: Rank) {
        if self.ranks.complete(rank) {
            self.issue_current_op(rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::AllToAllAlgorithm;

    fn star_world(n: usize, mpi: MpiConfig) -> World {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        let sw = b.add_switch(SwitchConfig::commodity_ethernet());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        let cfg = SimConfig::default();
        let sim = Simulator::new(b.build().unwrap(), cfg);
        World::new(sim, hosts, mpi, TransportKind::Tcp(TcpConfig::default()))
    }

    #[test]
    fn pingpong_roundtrip_has_sane_time() {
        let mut w = star_world(2, MpiConfig::default());
        let programs = vec![
            vec![Op::send(1, 1000), Op::recv(1)],
            vec![Op::recv(0), Op::send(0, 1000)],
        ];
        let r = w.run(programs);
        let rtt = r.rank_duration_secs(0);
        // Two crossings of ~2×25 µs latency plus overheads: at least 100 µs,
        // well under 5 ms on an idle network.
        assert!(rtt > 100e-6, "rtt = {rtt}");
        assert!(rtt < 5e-3, "rtt = {rtt}");
    }

    #[test]
    #[should_panic(expected = "rank 0, op 1: peer 2 is not another of the 2 ranks")]
    fn an_out_of_range_send_panics_naming_rank_op_and_peer() {
        let mut w = star_world(2, MpiConfig::default());
        w.run(vec![
            vec![Op::recv(1), Op::send(2, 100)],
            vec![Op::send(0, 100)],
        ]);
    }

    #[test]
    fn eager_send_completes_before_receiver_posts() {
        // Rank 0 sends eagerly and finishes; rank 1 computes (no-op here),
        // then receives. No deadlock, and the data waits as unexpected.
        let mut w = star_world(2, MpiConfig::default());
        let programs = vec![vec![Op::send(1, 100)], vec![Op::recv(0)]];
        let r = w.run(programs);
        assert!(r.finished[0] <= r.finished[1]);
    }

    #[test]
    fn rendezvous_send_blocks_until_received() {
        let mpi = MpiConfig {
            eager_threshold: 1024,
            ..MpiConfig::default()
        };
        let mut w = star_world(2, mpi);
        // 1 MB is far above the threshold: sender must wait for the
        // receiver's CTS, so both finish together-ish.
        let programs = vec![vec![Op::send(1, 1_000_000)], vec![Op::recv(0)]];
        let r = w.run(programs);
        let send_done = r.rank_duration_secs(0);
        let ideal = 1_000_000.0 / 125e6;
        assert!(send_done > ideal, "blocking send spans the transfer");
    }

    #[test]
    fn sendrecv_pair_exchanges_without_deadlock() {
        let mpi = MpiConfig {
            eager_threshold: 1024,
            ..MpiConfig::default()
        };
        let mut w = star_world(2, mpi);
        let programs = vec![
            vec![Op::sendrecv(1, 500_000, 1)],
            vec![Op::sendrecv(0, 500_000, 0)],
        ];
        let r = w.run(programs);
        assert!(r.duration_secs() > 0.0);
    }

    #[test]
    fn barrier_releases_all_ranks_at_the_last_arrival() {
        let mut w = star_world(4, MpiConfig::default());
        // Rank 0 does extra work before the barrier; everyone leaves after
        // rank 0 arrives.
        let programs = vec![
            vec![Op::send(1, 200_000), Op::Barrier],
            vec![Op::recv(0), Op::Barrier],
            vec![Op::Barrier],
            vec![Op::Barrier],
        ];
        let r = w.run(programs);
        let min = r.finished.iter().min().unwrap();
        let max = r.finished.iter().max().unwrap();
        assert!(max.since(*min) < 1_000_000, "all release within 1 ms");
    }

    #[test]
    fn alltoall_direct_completes_for_various_sizes() {
        for &m in &[512u64, 8 * 1024, 64 * 1024] {
            let mut w = star_world(5, MpiConfig::default());
            let progs = AllToAllAlgorithm::DirectExchange.programs(5, m);
            let r = w.run(progs);
            assert!(r.duration_secs() > 0.0, "m={m}");
            assert_eq!(
                w.sim().stats().messages_delivered as usize % (5 * 4),
                0,
                "every pair exchanged (m={m})"
            );
        }
    }

    #[test]
    fn alltoall_all_algorithms_complete() {
        for algo in AllToAllAlgorithm::all() {
            let n = 8; // power of two so pairwise works
            let mut w = star_world(n, MpiConfig::default());
            let progs = algo.programs(n, 4096);
            let r = w.run(progs);
            assert!(r.duration_secs() > 0.0, "{}", algo.name());
        }
    }

    #[test]
    fn repeated_runs_reuse_warm_connections() {
        let mut w = star_world(4, MpiConfig::default());
        let progs = AllToAllAlgorithm::DirectExchange.programs(4, 16 * 1024);
        let r1 = w.run(progs.clone());
        let r2 = w.run(progs);
        assert!(r2.start > r1.finished.iter().copied().max().unwrap());
        assert!(r2.duration_secs() > 0.0);
    }

    #[test]
    fn bigger_messages_take_longer() {
        let mut w = star_world(4, MpiConfig::default());
        let small = w.run(AllToAllAlgorithm::DirectExchange.programs(4, 1024));
        let big = w.run(AllToAllAlgorithm::DirectExchange.programs(4, 512 * 1024));
        assert!(big.duration_secs() > small.duration_secs());
    }

    #[test]
    fn mismatched_programs_deadlock_with_diagnostic() {
        let mpi = MpiConfig {
            eager_threshold: 10, // force rendezvous so the send blocks
            ..MpiConfig::default()
        };
        let mut w = star_world(2, mpi);
        // Rank 0 sends to 1, but rank 1 never posts a receive.
        let programs = vec![vec![Op::send(1, 1000)], vec![]];
        match w.try_run(programs) {
            Err(RunInterrupt::Deadlocked { ranks, detail }) => {
                assert_eq!(ranks, vec![0]);
                assert!(detail.contains("blocked"), "{detail}");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_still_panics_on_deadlock() {
        let mpi = MpiConfig {
            eager_threshold: 10,
            ..MpiConfig::default()
        };
        let mut w = star_world(2, mpi);
        let _ = w.run(vec![vec![Op::send(1, 1000)], vec![]]);
    }

    #[test]
    fn guard_interrupt_surfaces_as_a_typed_outcome() {
        let mut w = star_world(4, MpiConfig::default());
        w.sim_mut()
            .set_guard(RunGuard::unlimited().with_event_budget(0));
        let progs = AllToAllAlgorithm::DirectExchange.programs(4, 64 * 1024);
        match w.try_run(progs) {
            Err(RunInterrupt::Guard(GuardStop::Budget { budget: 0 })) => {}
            other => panic!("expected a budget stop, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "one rank per host")]
    fn duplicate_hosts_rejected() {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(2);
        let sw = b.add_switch(SwitchConfig::commodity_ethernet());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        let cfg = SimConfig::default();
        let sim = Simulator::new(b.build().unwrap(), cfg);
        let _ = World::new(
            sim,
            vec![hosts[0], hosts[0]],
            MpiConfig::default(),
            TransportKind::Tcp(TcpConfig::default()),
        );
    }

    #[test]
    fn determinism_same_seed_same_timings() {
        let run_once = || {
            let mut w = star_world(6, MpiConfig::default());
            let progs = AllToAllAlgorithm::DirectExchange.programs(6, 32 * 1024);
            w.run(progs).duration_secs()
        };
        assert_eq!(run_once(), run_once());
    }
}
