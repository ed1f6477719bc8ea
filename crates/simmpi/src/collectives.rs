//! Further collective operations, as per-rank schedules.
//!
//! The paper's conclusion: "we expect to extend our models to other
//! collective communication operations, which are especially affected by
//! contention when scaling up". This module supplies the schedules —
//! broadcast, scatter, gather, all-gather in their textbook algorithms —
//! so the signature methodology can be applied beyond the All-to-All
//! (see `contention-model::collective`).

use crate::ops::{Op, Rank};

/// A collective operation with per-block payload `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Root sends the same `m` bytes to everyone (binomial tree).
    Broadcast {
        /// Originating rank.
        root: Rank,
    },
    /// Root distributes a distinct `m`-byte block to every rank
    /// (binomial tree, payload halving per level).
    Scatter {
        /// Originating rank.
        root: Rank,
    },
    /// Every rank sends its `m`-byte block to the root (reverse binomial).
    Gather {
        /// Collecting rank.
        root: Rank,
    },
    /// Everyone ends with everyone's block (ring pass).
    AllGatherRing,
    /// Everyone ends with everyone's block (recursive doubling; requires a
    /// power-of-two rank count).
    AllGatherRecursiveDoubling,
}

impl Collective {
    /// Short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Collective::Broadcast { .. } => "broadcast",
            Collective::Scatter { .. } => "scatter",
            Collective::Gather { .. } => "gather",
            Collective::AllGatherRing => "allgather-ring",
            Collective::AllGatherRecursiveDoubling => "allgather-recdbl",
        }
    }

    /// Builds per-rank programs for `n` ranks and block size `m`.
    ///
    /// # Panics
    /// Panics if `m == 0`, a root is out of range, or (recursive doubling)
    /// `n` is not a power of two.
    pub fn programs(&self, n: usize, m: u64) -> Vec<Vec<Op>> {
        assert!(m > 0, "empty collective payload");
        match *self {
            Collective::Broadcast { root } => binomial_bcast(n, m, root),
            Collective::Scatter { root } => binomial_scatter(n, m, root, false),
            Collective::Gather { root } => binomial_scatter(n, m, root, true),
            Collective::AllGatherRing => allgather_ring(n, m),
            Collective::AllGatherRecursiveDoubling => allgather_recdbl(n, m),
        }
    }
}

/// Binomial broadcast: in round `k`, every rank that already holds the data
/// and whose (root-relative) id has exactly `k` trailing capacity sends to
/// `id + 2^k`.
fn binomial_bcast(n: usize, m: u64, root: Rank) -> Vec<Vec<Op>> {
    assert!(root < n, "root out of range");
    let mut programs = vec![Vec::new(); n];
    let rel = |abs: Rank| (abs + n - root) % n;
    let abs = |rel: Rank| (rel + root) % n;
    let rounds = (usize::BITS - (n - 1).leading_zeros()) as usize;
    for k in 0..rounds {
        let step = 1usize << k;
        for r in 0..n {
            let id = rel(r);
            if id < step && id + step < n {
                programs[r].push(Op::send(abs(id + step), m));
                programs[abs(id + step)].push(Op::recv(r));
            }
        }
    }
    programs
}

/// Binomial scatter (or, `reverse`, gather): the root's payload halves at
/// each tree level — a send at step `s` carries the blocks of the `s`
/// ranks in the receiver's subtree.
fn binomial_scatter(n: usize, m: u64, root: Rank, reverse: bool) -> Vec<Vec<Op>> {
    assert!(root < n, "root out of range");
    let mut programs = vec![Vec::new(); n];
    let rel = |abs: Rank| (abs + n - root) % n;
    let abs = |rel: Rank| (rel + root) % n;
    let rounds = (usize::BITS - (n - 1).leading_zeros()) as usize;
    // Top-down for scatter; the same edges bottom-up for gather.
    let mut edges: Vec<(Rank, Rank, u64)> = Vec::new();
    for k in (0..rounds).rev() {
        let step = 1usize << k;
        for r in 0..n {
            let id = rel(r);
            if id < step && id + step < n {
                // Subtree of (id + step) holds min(step, n - id - step) ranks.
                let subtree = step.min(n - id - step) as u64;
                edges.push((r, abs(id + step), subtree * m));
            }
        }
    }
    if reverse {
        for &(parent, child, bytes) in edges.iter().rev() {
            programs[child].push(Op::send(parent, bytes));
            programs[parent].push(Op::recv(child));
        }
    } else {
        for &(parent, child, bytes) in &edges {
            programs[parent].push(Op::send(child, bytes));
            programs[child].push(Op::recv(parent));
        }
    }
    programs
}

/// Ring all-gather: `n−1` rounds; each round passes one block right.
fn allgather_ring(n: usize, m: u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|i| {
            (1..n)
                .map(|_| Op::sendrecv((i + 1) % n, m, (i + n - 1) % n))
                .collect()
        })
        .collect()
}

/// Recursive-doubling all-gather: round `k` exchanges `2^k` blocks with the
/// partner `i XOR 2^k`.
fn allgather_recdbl(n: usize, m: u64) -> Vec<Vec<Op>> {
    assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
    (0..n)
        .map(|i| {
            (0..n.trailing_zeros())
                .map(|k| {
                    let peer = i ^ (1usize << k);
                    let bytes = (1u64 << k) * m;
                    Op::sendrecv(peer, bytes, peer)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends and posted receives must match per ordered pair.
    fn check_balance(programs: &[Vec<Op>]) {
        let n = programs.len();
        let mut sends = vec![0usize; n * n];
        let mut recvs = vec![0usize; n * n];
        for (i, prog) in programs.iter().enumerate() {
            for op in prog {
                if let Op::Transfer { sends: s, recvs: r } = op {
                    for &(to, bytes) in s {
                        assert_ne!(to, i);
                        assert!(bytes > 0);
                        sends[i * n + to] += 1;
                    }
                    for &from in r {
                        recvs[from * n + i] += 1;
                    }
                }
            }
        }
        assert_eq!(sends, recvs);
    }

    #[test]
    fn broadcast_reaches_every_rank_in_log_rounds() {
        for n in [2usize, 3, 5, 8, 13, 16] {
            for root in [0, n - 1] {
                let progs = Collective::Broadcast { root }.programs(n, 100);
                check_balance(&progs);
                // Every non-root rank receives exactly once.
                for (i, prog) in progs.iter().enumerate() {
                    let recv_count: usize = prog
                        .iter()
                        .map(|op| match op {
                            Op::Transfer { recvs, .. } => recvs.len(),
                            _ => 0,
                        })
                        .sum();
                    assert_eq!(
                        recv_count,
                        usize::from(i != root),
                        "n={n} root={root} i={i}"
                    );
                }
                // Total sends = n−1 (each rank informed once).
                let total_sends: usize = progs
                    .iter()
                    .flatten()
                    .map(|op| match op {
                        Op::Transfer { sends, .. } => sends.len(),
                        _ => 0,
                    })
                    .sum();
                assert_eq!(total_sends, n - 1);
            }
        }
    }

    #[test]
    fn scatter_conserves_root_bytes() {
        for n in [2usize, 4, 7, 8, 12] {
            let m = 1000u64;
            let progs = Collective::Scatter { root: 0 }.programs(n, m);
            check_balance(&progs);
            // The root emits exactly (n−1)·m bytes in total.
            let root_bytes: u64 = progs[0]
                .iter()
                .map(|op| match op {
                    Op::Transfer { sends, .. } => sends.iter().map(|s| s.1).sum(),
                    _ => 0,
                })
                .sum();
            assert_eq!(root_bytes, (n as u64 - 1) * m, "n={n}");
        }
    }

    #[test]
    fn gather_mirrors_scatter() {
        let n = 12;
        let m = 500;
        let scatter = Collective::Scatter { root: 3 }.programs(n, m);
        let gather = Collective::Gather { root: 3 }.programs(n, m);
        check_balance(&gather);
        // Total bytes moved are identical; directions reversed.
        let total = |progs: &[Vec<Op>]| -> u64 {
            progs
                .iter()
                .flatten()
                .map(|op| match op {
                    Op::Transfer { sends, .. } => sends.iter().map(|s| s.1).sum(),
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(total(&scatter), total(&gather));
    }

    #[test]
    fn allgather_ring_moves_n_minus_1_blocks_per_rank() {
        let progs = Collective::AllGatherRing.programs(5, 100);
        check_balance(&progs);
        for prog in &progs {
            assert_eq!(prog.len(), 4);
        }
    }

    #[test]
    fn allgather_recdbl_doubles_payloads() {
        let progs = Collective::AllGatherRecursiveDoubling.programs(8, 100);
        check_balance(&progs);
        let sizes: Vec<u64> = progs[0]
            .iter()
            .map(|op| match op {
                Op::Transfer { sends, .. } => sends[0].1,
                _ => 0,
            })
            .collect();
        assert_eq!(sizes, vec![100, 200, 400]);
    }

    #[test]
    #[should_panic(expected = "2^k ranks")]
    fn recdbl_rejects_non_power_of_two() {
        let _ = Collective::AllGatherRecursiveDoubling.programs(6, 100);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Collective::Broadcast { root: 0 }.name(), "broadcast");
        assert_eq!(Collective::AllGatherRing.name(), "allgather-ring");
    }
}
