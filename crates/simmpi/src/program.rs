//! The rank program counter both MPI worlds drive: the next op of each
//! rank, the parts it waits on, barrier release at the last arrival and
//! the instant each program ends. What a *part* is — an eager or RTS/CTS
//! message over the packet engine in [`World`](crate::world::World), a
//! fluid flow paired with its receive before the run in
//! [`FluidWorld`](crate::fluid::FluidWorld) — is each world's own.

use crate::ops::{Op, Rank};
use simnet::ids::HostId;

/// Per-rank program cursors, outstanding parts, barrier arrivals and
/// finish instants (`T` is the world's clock type).
pub(crate) struct ProgramCounter<T> {
    ranks: Vec<Cursor<T>>,
    /// Ranks waiting at the current barrier.
    at_barrier: usize,
    unfinished: usize,
}

struct Cursor<T> {
    program: Vec<Op>,
    pc: usize,
    /// Parts the current op still waits on.
    outstanding: usize,
    finished: Option<T>,
}

/// What a rank's next op asks of its world.
#[derive(Debug, PartialEq)]
pub(crate) enum Next {
    /// Nothing to do now: the program ended, or the rank waits at a
    /// barrier other ranks have not reached.
    Idle,
    /// The rank was the last at the barrier: [`ProgramCounter::complete`]
    /// every rank's barrier at the release instant.
    Release,
    /// Post `recvs`, issue `sends`, then hand the op to
    /// [`ProgramCounter::wait`].
    Transfer {
        sends: Vec<(Rank, u64)>,
        recvs: Vec<Rank>,
    },
}

impl<T: Copy> ProgramCounter<T> {
    /// Cursors at the start of one program per rank.
    ///
    /// # Panics
    /// Panics, naming the rank, the op index and the peer, if a send or
    /// receive names a peer outside the world or the rank itself (a
    /// message to itself is a local copy, not traffic).
    pub(crate) fn new(programs: Vec<Vec<Op>>) -> Self {
        let n = programs.len();
        for (rank, program) in programs.iter().enumerate() {
            for (index, op) in program.iter().enumerate() {
                let Op::Transfer { sends, recvs } = op else {
                    continue;
                };
                for peer in sends.iter().map(|&(to, _)| to).chain(recvs.iter().copied()) {
                    assert!(
                        peer < n && peer != rank,
                        "rank {rank}, op {index}: peer {peer} is not another of the {n} ranks"
                    );
                }
            }
        }
        Self {
            unfinished: n,
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

    /// Every rank's program, in rank order, before any op issues.
    pub(crate) fn programs(&self) -> impl Iterator<Item = &[Op]> + Clone {
        self.ranks.iter().map(|c| c.program.as_slice())
    }

    /// Ranks whose program has not ended.
    pub(crate) fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Moves `rank` to its next op at `now`, skipping transfers that wait
    /// on nothing.
    pub(crate) fn next(&mut self, rank: Rank, now: T) -> Next {
        let cursor = &mut self.ranks[rank];
        while let Some(Op::Transfer { sends, recvs }) = cursor.program.get(cursor.pc) {
            if !sends.is_empty() || !recvs.is_empty() {
                break;
            }
            cursor.pc += 1;
        }
        match cursor.program.get_mut(cursor.pc) {
            None => {
                cursor.finished = Some(now);
                self.unfinished -= 1;
                Next::Idle
            }
            Some(Op::Transfer { sends, recvs }) => Next::Transfer {
                sends: std::mem::take(sends),
                recvs: std::mem::take(recvs),
            },
            Some(Op::Barrier) => {
                cursor.outstanding = 1;
                self.at_barrier += 1;
                if self.at_barrier < self.ranks.len() {
                    return Next::Idle;
                }
                self.at_barrier = 0;
                Next::Release
            }
        }
    }

    /// The transfer `rank` just issued, handed back as `op`, completes
    /// after `parts` completions. The op goes back into its program, which
    /// is freed whole when the run ends.
    pub(crate) fn wait(&mut self, rank: Rank, parts: usize, op: Op) {
        debug_assert!(parts > 0, "a transfer waits on at least one part");
        let cursor = &mut self.ranks[rank];
        cursor.outstanding = parts;
        cursor.program[cursor.pc] = op;
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

    fn empty() -> Op {
        Op::Transfer {
            sends: vec![],
            recvs: vec![],
        }
    }

    #[test]
    fn consecutive_barriers_each_release_once() {
        let mut pc = ProgramCounter::new(vec![vec![Op::Barrier, Op::Barrier]; 3]);
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

    #[test]
    fn an_empty_transfer_before_a_barrier_is_skipped() {
        let mut pc = ProgramCounter::new(vec![vec![empty(), Op::Barrier], vec![Op::Barrier]]);
        assert_eq!(pc.next(0, 0u64), Next::Idle);
        assert_eq!(pc.next(1, 0), Next::Release);
        assert!(pc.complete(0) && pc.complete(1));
        assert_eq!(pc.next(0, 3), Next::Idle);
        assert_eq!(pc.next(1, 3), Next::Idle);
        assert_eq!(pc.finish_times().collect::<Vec<_>>(), [3, 3]);
    }

    #[test]
    fn an_empty_program_finishes_at_the_start_while_others_run() {
        let mut pc = ProgramCounter::new(vec![vec![], vec![empty()], vec![Op::send(0, 8)]]);
        assert_eq!(pc.next(0, 5u64), Next::Idle);
        assert_eq!(pc.next(1, 5), Next::Idle);
        assert_eq!(
            pc.next(2, 5),
            Next::Transfer {
                sends: vec![(0, 8)],
                recvs: vec![]
            }
        );
        assert_eq!(pc.unfinished(), 1);
        pc.wait(2, 2, Op::send(0, 8));
        assert!(!pc.complete(2));
        assert!(pc.complete(2));
        assert_eq!(pc.next(2, 9), Next::Idle);
        assert_eq!(pc.finish_times().collect::<Vec<_>>(), [5, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "rank 1, op 2: peer 1 is not another of the 3 ranks")]
    fn a_self_send_panics_naming_rank_op_and_peer() {
        ProgramCounter::<u64>::new(vec![
            vec![],
            vec![Op::recv(0), Op::Barrier, Op::send(1, 8)],
            vec![],
        ]);
    }

    #[test]
    fn blocked_lists_exactly_the_unfinished_ranks() {
        let mut pc = ProgramCounter::new(vec![
            vec![Op::Barrier],
            vec![Op::recv(3)],
            vec![],
            vec![Op::send(1, 8)],
        ]);
        assert_eq!(pc.next(0, 0u64), Next::Idle);
        assert!(matches!(pc.next(1, 0), Next::Transfer { .. }));
        pc.wait(1, 1, Op::recv(3));
        assert_eq!(pc.next(2, 0), Next::Idle);
        assert!(matches!(pc.next(3, 0), Next::Transfer { .. }));
        pc.wait(3, 1, Op::send(1, 8));
        assert!(pc.complete(3));
        assert_eq!(pc.next(3, 4), Next::Idle);
        assert_eq!(pc.blocked(), [0, 1]);
        assert_eq!(pc.unfinished(), 2);
    }
}
