//! Per-rank operations with blocking-MPI semantics.

/// A rank index within a world.
pub type Rank = usize;

/// One blocking operation in a rank's program.
///
/// A [`Op::Transfer`] posts all its receives, then issues all its sends
/// (each preceded by the sender CPU overhead), and completes when every
/// half has completed — covering `MPI_Send`/`MPI_Recv` (one entry),
/// `MPI_Sendrecv` (one of each) and a post-all + waitall (many of each).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Exchange messages: `sends` are `(destination, payload bytes)`;
    /// `recvs` name expected source ranks.
    Transfer {
        /// Destinations and payload sizes, issued in order.
        sends: Vec<(Rank, u64)>,
        /// Source ranks to receive one message from, matched FIFO per
        /// source.
        recvs: Vec<Rank>,
    },
    /// Synchronize all ranks (idealized zero-cost release at the instant
    /// the last rank arrives).
    Barrier,
}

impl Op {
    /// A blocking send of `bytes` to `to`.
    pub fn send(to: Rank, bytes: u64) -> Self {
        Op::Transfer {
            sends: vec![(to, bytes)],
            recvs: vec![],
        }
    }

    /// A blocking receive from `from`.
    pub fn recv(from: Rank) -> Self {
        Op::Transfer {
            sends: vec![],
            recvs: vec![from],
        }
    }

    /// A sendrecv: send `bytes` to `to` while receiving from `from`.
    pub fn sendrecv(to: Rank, bytes: u64, from: Rank) -> Self {
        Op::Transfer {
            sends: vec![(to, bytes)],
            recvs: vec![from],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_shape_ops() {
        let transfer = |sends: Vec<(Rank, u64)>, recvs: Vec<Rank>| Op::Transfer { sends, recvs };
        assert_eq!(Op::send(3, 10), transfer(vec![(3, 10)], vec![]));
        assert_eq!(Op::recv(2), transfer(vec![], vec![2]));
        assert_eq!(Op::sendrecv(1, 5, 2), transfer(vec![(1, 5)], vec![2]));
    }
}
