//! The rank program counter both MPI worlds drive: the next op of each
//! rank, the parts it waits on, barrier release at the last arrival and
//! the instant each program ends. What a *part* is — an eager or RTS/CTS
//! message over the packet engine in [`World`](crate::world::World), a
//! fluid flow paired with its receive before the run in
//! [`FluidWorld`](crate::fluid::FluidWorld) — is each world's own.
//!
//! The counter is generic over the op it steps through ([`Step`]). The
//! packet world steps through the caller's [`Op`]s, taking each
//! transfer's send and receive lists to issue them and putting them back
//! when it waits. The fluid world lays every message out before the run
//! and drops the ops there, so it steps through
//! [`FluidStep`](crate::fluid::FluidStep)s: a transfer's send and receive
//! counts, whose messages its cursors already hold.
//! Either way a transfer hands its world only what it issues, and a
//! barrier never reaches a world, so neither has an arm for one.

use crate::ops::{Op, Rank};
use simnet::ids::HostId;

/// One op of a rank's program, as [`ProgramCounter`] steps through it.
pub(crate) trait Step {
    /// What a transfer hands its world to issue.
    type Payload;
    /// Whether this is a transfer that waits on nothing, which the counter
    /// skips.
    fn is_empty(&self) -> bool;
    /// The transfer, handed over for its world to issue; `None` for a
    /// barrier.
    fn take(&mut self) -> Option<Self::Payload>;
    /// Puts back the payload [`Step::take`] handed over, once issued.
    fn restore(&mut self, payload: Self::Payload);
}

/// The packet world issues a transfer's `(sends, recvs)` lists, taken out
/// of the program and put back once issued, so they are freed with the
/// program rather than one by one mid-run: freeing them as they issued
/// raised the peak RSS of a daemon running packet cells on two workers
/// (`ctnbench` `daemon_heavy`) by about 0.25 MB.
impl Step for Op {
    type Payload = (Vec<(Rank, u64)>, Vec<Rank>);

    fn is_empty(&self) -> bool {
        matches!(self, Op::Transfer { sends, recvs } if sends.is_empty() && recvs.is_empty())
    }

    fn take(&mut self) -> Option<Self::Payload> {
        match self {
            Op::Transfer { sends, recvs } => Some((std::mem::take(sends), std::mem::take(recvs))),
            Op::Barrier => None,
        }
    }

    fn restore(&mut self, (sends, recvs): Self::Payload) {
        *self = Op::Transfer { sends, recvs };
    }
}

/// Per-rank program cursors, outstanding parts, barrier arrivals and
/// finish instants (`T` is the world's clock type, `S` its op type).
pub(crate) struct ProgramCounter<T, S> {
    ranks: Vec<Cursor<T, S>>,
    /// Ranks waiting at the current barrier.
    at_barrier: usize,
    unfinished: usize,
}

struct Cursor<T, S> {
    program: Vec<S>,
    pc: usize,
    /// Parts the current op still waits on.
    outstanding: usize,
    finished: Option<T>,
}

/// What a rank's next op asks of its world.
#[derive(Debug, PartialEq)]
pub(crate) enum Next<P> {
    /// Nothing to do now: the program ended, or the rank waits at a
    /// barrier other ranks have not reached.
    Idle,
    /// The rank was the last at the barrier: [`ProgramCounter::complete`]
    /// every rank's barrier at the release instant.
    Release,
    /// Post the receives, issue the sends, then hand the payload back to
    /// [`ProgramCounter::wait`] on the parts they make.
    Transfer(P),
}

impl<T: Copy, S: Step> ProgramCounter<T, S> {
    /// Cursors at the start of one program per rank.
    pub(crate) fn new(programs: Vec<Vec<S>>) -> Self {
        Self {
            unfinished: programs.len(),
            ranks: programs
                .into_iter()
                .map(|program| Cursor {
                    program,
                    pc: 0,
                    outstanding: 0,
                    finished: None,
                })
                .collect(),
            at_barrier: 0,
        }
    }

    /// Ranks whose program has not ended.
    pub(crate) fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Moves `rank` to its next op at `now`, skipping transfers that wait
    /// on nothing.
    pub(crate) fn next(&mut self, rank: Rank, now: T) -> Next<S::Payload> {
        let cursor = &mut self.ranks[rank];
        while cursor.program.get(cursor.pc).is_some_and(S::is_empty) {
            cursor.pc += 1;
        }
        let Some(op) = cursor.program.get_mut(cursor.pc) else {
            cursor.finished = Some(now);
            self.unfinished -= 1;
            return Next::Idle;
        };
        if let Some(transfer) = op.take() {
            return Next::Transfer(transfer);
        }
        cursor.outstanding = 1;
        self.at_barrier += 1;
        if self.at_barrier < self.ranks.len() {
            return Next::Idle;
        }
        self.at_barrier = 0;
        Next::Release
    }

    /// The transfer `rank` just issued, whose payload comes back as
    /// `payload`, completes after `parts` completions.
    pub(crate) fn wait(&mut self, rank: Rank, parts: usize, payload: S::Payload) {
        debug_assert!(parts > 0, "a transfer waits on at least one part");
        let cursor = &mut self.ranks[rank];
        cursor.outstanding = parts;
        cursor.program[cursor.pc].restore(payload);
    }

    /// One part of `rank`'s current op completed; `true` when that was the
    /// last, and the world must issue the rank's next op.
    pub(crate) fn complete(&mut self, rank: Rank) -> bool {
        let cursor = &mut self.ranks[rank];
        debug_assert!(cursor.outstanding > 0, "completion without a pending op");
        cursor.outstanding -= 1;
        if cursor.outstanding > 0 {
            return false;
        }
        cursor.pc += 1;
        true
    }

    /// Ranks whose program has not ended, ascending.
    pub(crate) fn blocked(&self) -> Vec<Rank> {
        (0..self.ranks.len())
            .filter(|&r| self.ranks[r].finished.is_none())
            .collect()
    }

    /// Every rank's finish instant, once every program has ended.
    pub(crate) fn finish_times(&self) -> impl Iterator<Item = T> + '_ {
        self.ranks
            .iter()
            .map(|c| c.finished.expect("rank finished"))
    }
}

/// Panics, naming the rank, the op index and the peer, if op `index` of
/// `rank`'s program sends to or receives from a peer outside a world of
/// `n` ranks or the rank itself (a message to itself is a local copy, not
/// traffic).
pub(crate) fn check_peers(rank: Rank, index: usize, op: &Op, n: usize) {
    let Op::Transfer { sends, recvs } = op else {
        return;
    };
    for peer in sends.iter().map(|&(to, _)| to).chain(recvs.iter().copied()) {
        assert!(
            peer < n && peer != rank,
            "rank {rank}, op {index}: peer {peer} is not another of the {n} ranks"
        );
    }
}

/// Panics unless `hosts` places at least one rank, one rank per host, all
/// on hosts of a topology with `n_hosts` hosts.
pub(crate) fn check_hosts(hosts: &[HostId], n_hosts: usize) {
    assert!(!hosts.is_empty(), "a world needs at least one rank");
    let mut seen = vec![false; n_hosts];
    for &h in hosts {
        assert!(h.index() < n_hosts, "host outside topology");
        assert!(!seen[h.index()], "one rank per host");
        seen[h.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidStep;
    use std::fmt::Debug;

    /// An op type the counter steps through, built by shape: every test
    /// below runs over both worlds' ops.
    trait TestStep: Step<Payload: Debug + PartialEq> + Clone {
        fn barrier() -> Self;
        /// A transfer of `sends` sends and `recvs` receives.
        fn transfer(sends: usize, recvs: usize) -> Self;
    }

    impl TestStep for Op {
        fn barrier() -> Self {
            Op::Barrier
        }

        fn transfer(sends: usize, recvs: usize) -> Self {
            Op::Transfer {
                sends: vec![(0, 8); sends],
                recvs: vec![1; recvs],
            }
        }
    }

    impl TestStep for FluidStep {
        fn barrier() -> Self {
            FluidStep::Barrier
        }

        fn transfer(sends: usize, recvs: usize) -> Self {
            FluidStep::Transfer {
                sends: sends as u32,
                recvs: recvs as u32,
            }
        }
    }

    /// What the transfer of `sends` sends and `recvs` receives hands its
    /// world.
    fn issued<S: TestStep>(sends: usize, recvs: usize) -> S::Payload {
        S::transfer(sends, recvs).take().expect("a transfer")
    }

    #[test]
    fn consecutive_barriers_each_release_once() {
        fn check<S: TestStep>() {
            let mut pc = ProgramCounter::new(vec![vec![S::barrier(), S::barrier()]; 3]);
            assert_eq!(pc.next(0, 0u64), Next::Idle);
            assert_eq!(pc.next(1, 0), Next::Idle);
            assert_eq!(pc.next(2, 0), Next::Release);
            // Rank 0 leaves the first barrier and reaches the second while
            // ranks 1 and 2 are still being released from the first.
            let mut releases = 0;
            for r in 0..3 {
                assert!(pc.complete(r));
                if pc.next(r, 1) == Next::Release {
                    releases += 1;
                    assert_eq!(r, 2, "the last rank out is the last one in");
                }
            }
            assert_eq!(releases, 1);
            for r in 0..3 {
                assert!(pc.complete(r));
                assert_eq!(pc.next(r, 2), Next::Idle);
            }
            assert_eq!(pc.unfinished(), 0);
            assert_eq!(pc.finish_times().collect::<Vec<_>>(), [2, 2, 2]);
        }
        check::<Op>();
        check::<FluidStep>();
    }

    #[test]
    fn an_empty_transfer_before_a_barrier_is_skipped() {
        fn check<S: TestStep>() {
            let mut pc = ProgramCounter::new(vec![
                vec![S::transfer(0, 0), S::barrier()],
                vec![S::barrier()],
            ]);
            assert_eq!(pc.next(0, 0u64), Next::Idle);
            assert_eq!(pc.next(1, 0), Next::Release);
            assert!(pc.complete(0) && pc.complete(1));
            assert_eq!(pc.next(0, 3), Next::Idle);
            assert_eq!(pc.next(1, 3), Next::Idle);
            assert_eq!(pc.finish_times().collect::<Vec<_>>(), [3, 3]);
        }
        check::<Op>();
        check::<FluidStep>();
    }

    #[test]
    fn an_empty_program_finishes_at_the_start_while_others_run() {
        fn check<S: TestStep>() {
            let mut pc = ProgramCounter::new(vec![
                vec![],
                vec![S::transfer(0, 0)],
                vec![S::transfer(1, 0)],
            ]);
            assert_eq!(pc.next(0, 5u64), Next::Idle);
            assert_eq!(pc.next(1, 5), Next::Idle);
            assert_eq!(pc.next(2, 5), Next::Transfer(issued::<S>(1, 0)));
            assert_eq!(pc.unfinished(), 1);
            pc.wait(2, 2, issued::<S>(1, 0));
            assert!(!pc.complete(2));
            assert!(pc.complete(2));
            assert_eq!(pc.next(2, 9), Next::Idle);
            assert_eq!(pc.finish_times().collect::<Vec<_>>(), [5, 5, 9]);
        }
        check::<Op>();
        check::<FluidStep>();
    }

    #[test]
    #[should_panic(expected = "rank 1, op 2: peer 1 is not another of the 3 ranks")]
    fn a_self_send_panics_naming_rank_op_and_peer() {
        let programs = [
            vec![],
            vec![Op::recv(0), Op::Barrier, Op::send(1, 8)],
            vec![],
        ];
        for (rank, program) in programs.iter().enumerate() {
            for (index, op) in program.iter().enumerate() {
                check_peers(rank, index, op, programs.len());
            }
        }
    }

    #[test]
    fn blocked_lists_exactly_the_unfinished_ranks() {
        fn check<S: TestStep>() {
            let mut pc = ProgramCounter::new(vec![
                vec![S::barrier()],
                vec![S::transfer(0, 1)],
                vec![],
                vec![S::transfer(1, 0)],
            ]);
            assert_eq!(pc.next(0, 0u64), Next::Idle);
            assert_eq!(pc.next(1, 0), Next::Transfer(issued::<S>(0, 1)));
            pc.wait(1, 1, issued::<S>(0, 1));
            assert_eq!(pc.next(2, 0), Next::Idle);
            assert_eq!(pc.next(3, 0), Next::Transfer(issued::<S>(1, 0)));
            pc.wait(3, 1, issued::<S>(1, 0));
            assert!(pc.complete(3));
            assert_eq!(pc.next(3, 4), Next::Idle);
            assert_eq!(pc.blocked(), [0, 1]);
            assert_eq!(pc.unfinished(), 2);
        }
        check::<Op>();
        check::<FluidStep>();
    }
}
