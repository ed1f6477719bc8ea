//! All-to-All algorithms as per-rank operation schedules.
//!
//! The paper's measurements are of the **Direct Exchange** schedule
//! (Algorithm 1): `n−1` rounds where in round `t` rank `i` sends to
//! `(i+t) mod n` while receiving from `(i−t) mod n`, destinations rotating
//! to avoid overloading any single receiver. That is what LAM-MPI and
//! MPICH used for `MPI_Alltoall` at the time.
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
            AllToAllAlgorithm::DirectExchange => direct_exchange(n, message_bytes),
            AllToAllAlgorithm::DirectExchangeNonblocking => {
                direct_exchange_nonblocking(n, message_bytes)
            }
            AllToAllAlgorithm::Bruck => bruck(n, message_bytes),
            AllToAllAlgorithm::PairwiseExchange => pairwise(n, message_bytes),
            AllToAllAlgorithm::Ring => ring(n, message_bytes),
        }
    }
}

/// Algorithm 1: `for t in 1..n`, rank `i` sendrecvs with `(i±t) mod n`.
fn direct_exchange(n: usize, m: u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|i| {
            (1..n)
                .map(|t| Op::Transfer {
                    sends: vec![((i + t) % n, m)],
                    recvs: vec![(i + n - t) % n],
                })
                .collect()
        })
        .collect()
}

/// Everything posted at once; completion when all sends and receives done.
fn direct_exchange_nonblocking(n: usize, m: u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|i| {
            let sends: Vec<(Rank, u64)> = (1..n).map(|t| ((i + t) % n, m)).collect();
            let recvs: Vec<Rank> = (1..n).map(|t| (i + n - t) % n).collect();
            vec![Op::Transfer { sends, recvs }]
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

    #[test]
    #[should_panic(expected = "empty messages")]
    fn zero_byte_alltoall_rejected() {
        let _ = AllToAllAlgorithm::DirectExchange.programs(4, 0);
    }
}
