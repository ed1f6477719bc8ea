//! All-to-All algorithms as per-rank operation schedules.
//!
//! The paper's measurements are of the **Direct Exchange** schedule
//! (Algorithm 1): `n−1` rounds where in round `t` rank `i` sends to
//! `(i+t) mod n` while receiving from `(i−t) mod n`, destinations rotating
//! to avoid overloading any single receiver. That is what LAM-MPI and
//! MPICH used for `MPI_Alltoall` at the time.
//!
//! Both shapes of Algorithm 1 — the rotated rounds and the post-all — are
//! written once, over a per-pair byte count ([`rotated_rounds`],
//! [`post_all`]): the uniform algorithms below call them with a constant,
//! and the scenario tier's irregular phases (the §5 total exchange on a
//! weighted digraph) with their per-pair table.
//!
//! The baselines here exist for the comparison benches: the post-everything
//! non-blocking variant, Bruck's log-round combining algorithm, the
//! pairwise-XOR exchange (power-of-two process counts) and a ring/bucket
//! pass.

use crate::ops::{Op, Rank};

/// Selectable All-to-All implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllToAllAlgorithm {
    /// Algorithm 1 of the paper: blocking sendrecv rounds with rotating
    /// destinations.
    DirectExchange,
    /// All sends and receives posted at once, then a single wait-all: what
    /// an `MPI_Ialltoall`-style implementation does.
    DirectExchangeNonblocking,
    /// Bruck et al.: ⌈log₂ n⌉ rounds with message combining; fewer, larger
    /// messages at the cost of transmitting each byte multiple times.
    Bruck,
    /// Pairwise exchange on `i XOR t` partners; requires a power-of-two
    /// process count.
    PairwiseExchange,
    /// Ring/bucket brigade: round `t` forwards the not-yet-home blocks to
    /// the right neighbour.
    Ring,
}

impl AllToAllAlgorithm {
    /// Short, stable identifier used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            AllToAllAlgorithm::DirectExchange => "direct",
            AllToAllAlgorithm::DirectExchangeNonblocking => "direct-nb",
            AllToAllAlgorithm::Bruck => "bruck",
            AllToAllAlgorithm::PairwiseExchange => "pairwise",
            AllToAllAlgorithm::Ring => "ring",
        }
    }

    /// Inverse of [`AllToAllAlgorithm::name`].
    pub fn parse(name: &str) -> Option<AllToAllAlgorithm> {
        AllToAllAlgorithm::all()
            .into_iter()
            .find(|a| a.name() == name)
    }

    /// All algorithms, for sweeps.
    pub fn all() -> [AllToAllAlgorithm; 5] {
        [
            AllToAllAlgorithm::DirectExchange,
            AllToAllAlgorithm::DirectExchangeNonblocking,
            AllToAllAlgorithm::Bruck,
            AllToAllAlgorithm::PairwiseExchange,
            AllToAllAlgorithm::Ring,
        ]
    }

    /// Builds the per-rank programs for an All-to-All of `message_bytes`
    /// per pair over `n` ranks.
    ///
    /// # Panics
    /// Panics if `message_bytes == 0`, or for [`PairwiseExchange`] when `n`
    /// is not a power of two.
    ///
    /// [`PairwiseExchange`]: AllToAllAlgorithm::PairwiseExchange
    pub fn programs(&self, n: usize, message_bytes: u64) -> Vec<Vec<Op>> {
        assert!(message_bytes > 0, "All-to-All of empty messages");
        match self {
            AllToAllAlgorithm::DirectExchange => rotated_rounds(n, |_, _| message_bytes),
            AllToAllAlgorithm::DirectExchangeNonblocking => post_all(n, |_, _| message_bytes),
            AllToAllAlgorithm::Bruck => bruck(n, message_bytes),
            AllToAllAlgorithm::PairwiseExchange => pairwise(n, message_bytes),
            AllToAllAlgorithm::Ring => ring(n, message_bytes),
        }
    }
}

/// Algorithm 1 over a per-pair byte count: in round `t in 1..n`, rank `i`
/// sends its `bytes(i, (i+t) mod n)` block while receiving the
/// `bytes((i−t) mod n, i)` block. An empty block is neither sent nor
/// received, and a round with neither is skipped. The uniform Direct
/// Exchange is `|_, _| m`; the scenario tier's irregular phases pass
/// their per-pair table (the paper's §5 total exchange).
pub fn rotated_rounds(n: usize, bytes: impl Fn(Rank, Rank) -> u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|i| {
            (1..n)
                .filter_map(|t| {
                    let (to, from) = ((i + t) % n, (i + n - t) % n);
                    let sends: Vec<_> = Some((to, bytes(i, to)))
                        .filter(|&(_, b)| b > 0)
                        .into_iter()
                        .collect();
                    let recvs: Vec<_> = Some(from)
                        .filter(|&from| bytes(from, i) > 0)
                        .into_iter()
                        .collect();
                    (!sends.is_empty() || !recvs.is_empty())
                        .then_some(Op::Transfer { sends, recvs })
                })
                .collect()
        })
        .collect()
}

/// Every non-empty block posted at once in rotated order, completing as
/// one transfer (what `MPI_Ialltoall`/`MPI_Alltoallv` over isend/irecv
/// do). A rank with nothing to send or receive gets an empty program.
pub fn post_all(n: usize, bytes: impl Fn(Rank, Rank) -> u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|i| {
            let mut sends: Vec<(Rank, u64)> = Vec::with_capacity(n - 1);
            sends.extend(
                (1..n)
                    .map(|t| (i + t) % n)
                    .map(|j| (j, bytes(i, j)))
                    .filter(|&(_, b)| b > 0),
            );
            let mut recvs: Vec<Rank> = Vec::with_capacity(n - 1);
            recvs.extend((1..n).map(|t| (i + n - t) % n).filter(|&j| bytes(j, i) > 0));
            if sends.is_empty() && recvs.is_empty() {
                vec![]
            } else {
                vec![Op::Transfer { sends, recvs }]
            }
        })
        .collect()
}

/// Bruck: round `k` ships every block whose destination offset has bit `k`
/// set, to partner `(i + 2^k) mod n`. Message size per round is the number
/// of such offsets times `m`.
fn bruck(n: usize, m: u64) -> Vec<Vec<Op>> {
    let rounds = (usize::BITS - (n - 1).leading_zeros()) as usize; // ⌈log₂ n⌉
    (0..n)
        .map(|i| {
            (0..rounds)
                .filter_map(|k| {
                    let step = 1usize << k;
                    let blocks = (1..n).filter(|off| off & step != 0).count() as u64;
                    if blocks == 0 {
                        return None;
                    }
                    Some(Op::Transfer {
                        sends: vec![((i + step) % n, blocks * m)],
                        recvs: vec![(i + n - step % n) % n],
                    })
                })
                .collect()
        })
        .collect()
}

/// Pairwise exchange: round `t` pairs `i` with `i XOR t` (n must be 2^k).
fn pairwise(n: usize, m: u64) -> Vec<Vec<Op>> {
    assert!(n.is_power_of_two(), "pairwise exchange needs 2^k ranks");
    (0..n)
        .map(|i| {
            (1..n)
                .map(|t| {
                    let peer = i ^ t;
                    Op::Transfer {
                        sends: vec![(peer, m)],
                        recvs: vec![peer],
                    }
                })
                .collect()
        })
        .collect()
}

/// Ring/bucket: round `t in 1..n` sends the `(n−t)` still-travelling blocks
/// to the right neighbour and receives as many from the left.
fn ring(n: usize, m: u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|i| {
            (1..n)
                .map(|t| Op::Transfer {
                    sends: vec![((i + 1) % n, (n - t) as u64 * m)],
                    recvs: vec![(i + n - 1) % n],
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_inverts_name() {
        for algo in AllToAllAlgorithm::all() {
            assert_eq!(AllToAllAlgorithm::parse(algo.name()), Some(algo));
        }
        assert_eq!(AllToAllAlgorithm::parse("Direct"), None);
    }

    /// Every rank must, across its whole program, send exactly one message
    /// to every other rank (direct algorithms) and post a matching number
    /// of receives.
    fn check_send_recv_balance(programs: &[Vec<Op>]) {
        let n = programs.len();
        // Global matching: per ordered pair, sends issued == recvs posted.
        let mut sends = vec![0usize; n * n];
        let mut recvs = vec![0usize; n * n];
        for (i, prog) in programs.iter().enumerate() {
            for op in prog {
                if let Op::Transfer { sends: s, recvs: r } = op {
                    for &(to, bytes) in s {
                        assert_ne!(to, i, "self-sends must be elided");
                        assert!(bytes > 0);
                        sends[i * n + to] += 1;
                    }
                    for &from in r {
                        assert_ne!(from, i);
                        recvs[from * n + i] += 1;
                    }
                }
            }
        }
        assert_eq!(sends, recvs, "every send needs a posted receive");
    }

    #[test]
    fn direct_exchange_matches_paper_algorithm() {
        let n = 5;
        let progs = AllToAllAlgorithm::DirectExchange.programs(n, 100);
        assert_eq!(progs.len(), n);
        for (i, prog) in progs.iter().enumerate() {
            assert_eq!(prog.len(), n - 1, "n−1 rounds");
            for (idx, op) in prog.iter().enumerate() {
                let t = idx + 1;
                match op {
                    Op::Transfer { sends, recvs } => {
                        assert_eq!(sends, &vec![((i + t) % n, 100)]);
                        assert_eq!(recvs, &vec![(i + n - t) % n]);
                    }
                    _ => panic!("direct exchange is all transfers"),
                }
            }
        }
        check_send_recv_balance(&progs);
    }

    #[test]
    fn nonblocking_posts_everything_in_one_op() {
        let progs = AllToAllAlgorithm::DirectExchangeNonblocking.programs(6, 10);
        for prog in &progs {
            assert_eq!(prog.len(), 1);
            if let Op::Transfer { sends, recvs } = &prog[0] {
                assert_eq!(sends.len(), 5);
                assert_eq!(recvs.len(), 5);
            }
        }
        check_send_recv_balance(&progs);
    }

    #[test]
    fn bruck_has_log_rounds_and_conserves_bytes() {
        for n in [4usize, 5, 8, 13] {
            let m = 100u64;
            let progs = AllToAllAlgorithm::Bruck.programs(n, m);
            let rounds = (usize::BITS - (n - 1).leading_zeros()) as usize;
            for prog in &progs {
                assert!(prog.len() <= rounds);
            }
            // Total bytes sent per rank = m × Σ_k |{off: bit k set}| =
            // m × Σ_off popcount(off).
            let expected: u64 = (1..n).map(|off| off.count_ones() as u64 * m).sum();
            if let Some(prog) = progs.first() {
                let total: u64 = prog
                    .iter()
                    .filter_map(|op| match op {
                        Op::Transfer { sends, .. } => Some(sends.iter().map(|s| s.1).sum::<u64>()),
                        _ => None,
                    })
                    .sum();
                assert_eq!(total, expected, "n={n}");
            }
            check_send_recv_balance(&progs);
        }
    }

    #[test]
    fn pairwise_requires_power_of_two() {
        let progs = AllToAllAlgorithm::PairwiseExchange.programs(8, 50);
        check_send_recv_balance(&progs);
        for prog in &progs {
            assert_eq!(prog.len(), 7);
        }
    }

    #[test]
    #[should_panic(expected = "2^k ranks")]
    fn pairwise_rejects_non_power_of_two() {
        let _ = AllToAllAlgorithm::PairwiseExchange.programs(6, 50);
    }

    #[test]
    fn ring_sizes_decrease() {
        let progs = AllToAllAlgorithm::Ring.programs(4, 10);
        let sizes: Vec<u64> = progs[0]
            .iter()
            .filter_map(|op| match op {
                Op::Transfer { sends, .. } => Some(sends[0].1),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![30, 20, 10]);
        check_send_recv_balance(&progs);
    }

    #[test]
    fn every_algorithm_balances_at_various_sizes() {
        for algo in AllToAllAlgorithm::all() {
            for n in [2usize, 4, 8, 16] {
                let progs = algo.programs(n, 1024);
                check_send_recv_balance(&progs);
            }
        }
    }

    /// Rank 0 is a heavy producer; rank 1 sends nothing to rank 2.
    fn lopsided(i: Rank, j: Rank) -> u64 {
        [
            [0, 1000, 2000, 3000],
            [10, 0, 0, 30],
            [1, 2, 0, 4],
            [100, 200, 300, 0],
        ][i][j]
    }

    #[test]
    fn schedules_cover_every_nonzero_block_once() {
        let n = 4;
        for programs in [rotated_rounds(n, lopsided), post_all(n, lopsided)] {
            let mut sent = vec![vec![0u64; n]; n];
            let mut recv_posted = vec![vec![0usize; n]; n];
            for (i, prog) in programs.iter().enumerate() {
                for op in prog {
                    if let Op::Transfer { sends, recvs } = op {
                        for &(to, bytes) in sends {
                            sent[i][to] += bytes;
                        }
                        for &from in recvs {
                            recv_posted[from][i] += 1;
                        }
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(sent[i][j], lopsided(i, j), "{i}->{j}");
                    let expected = usize::from(lopsided(i, j) > 0);
                    assert_eq!(recv_posted[i][j], expected, "recv {i}->{j}");
                }
            }
        }
    }

    #[test]
    fn zero_blocks_are_skipped() {
        let bytes = |i: Rank, j: Rank| [[0, 0], [5, 0]][i][j];
        // Rank 0 only receives; rank 1 only sends: one op each.
        let progs = rotated_rounds(2, bytes);
        assert_eq!(
            progs[0],
            vec![Op::Transfer {
                sends: vec![],
                recvs: vec![1]
            }]
        );
        assert_eq!(
            progs[1],
            vec![Op::Transfer {
                sends: vec![(0, 5)],
                recvs: vec![]
            }]
        );
        // A rank with no block at all gets an empty program, in either
        // shape; so does every rank of an all-empty table.
        let one = |i: Rank, j: Rank| u64::from((i, j) == (0, 1));
        for progs in [rotated_rounds(3, one), post_all(3, one)] {
            assert!(!progs[0].is_empty() && !progs[1].is_empty());
            assert!(progs[2].is_empty());
        }
        let none = |_: Rank, _: Rank| 0;
        for progs in [rotated_rounds(3, none), post_all(3, none)] {
            assert_eq!(progs, vec![Vec::<Op>::new(); 3]);
        }
    }

    #[test]
    #[should_panic(expected = "empty messages")]
    fn zero_byte_alltoall_rejected() {
        let _ = AllToAllAlgorithm::DirectExchange.programs(4, 0);
    }
}
