//! Measurement harnesses: ping-pong, timed All-to-All repetitions, and the
//! network stress test of the paper's §3.

use crate::alltoall::AllToAllAlgorithm;
use crate::ops::{Op, Rank};
use crate::world::{RunInterrupt, World};
use simnet::obs::Recorder;

/// One ping-pong measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongPoint {
    /// Payload size in bytes.
    pub size: u64,
    /// Half round-trip (one-way) time in seconds, averaged over the
    /// round-trips of the run.
    pub half_rtt_secs: f64,
}

/// Measures one-way point-to-point times between two ranks across `sizes`,
/// with `round_trips` ping-pongs per size. This is the paper's "simple
/// point-to-point measure" from which the Hockney `α` and `β` are fitted.
///
/// # Panics
/// Panics where [`World::run`] does (deadlock, tripped guard); use
/// [`try_ping_pong`] to receive those as values.
pub fn ping_pong<R: Recorder>(
    world: &mut World<R>,
    a: Rank,
    b: Rank,
    sizes: &[u64],
    round_trips: usize,
) -> Vec<PingPongPoint> {
    try_ping_pong(world, a, b, sizes, round_trips).unwrap_or_else(|interrupt| panic!("{interrupt}"))
}

/// [`ping_pong`] on [`World::try_run`]: a stall or a tripped guard comes
/// back as the [`RunInterrupt`] instead of a panic.
pub fn try_ping_pong<R: Recorder>(
    world: &mut World<R>,
    a: Rank,
    b: Rank,
    sizes: &[u64],
    round_trips: usize,
) -> Result<Vec<PingPongPoint>, RunInterrupt> {
    assert_ne!(a, b, "ping-pong needs two distinct ranks");
    assert!(round_trips > 0);
    sizes
        .iter()
        .map(|&size| {
            let mut programs = vec![Vec::new(); world.n_ranks()];
            for _ in 0..round_trips {
                programs[a].push(Op::send(b, size));
                programs[a].push(Op::recv(b));
                programs[b].push(Op::recv(a));
                programs[b].push(Op::send(a, size));
            }
            let result = world.try_run(programs)?;
            Ok(PingPongPoint {
                size,
                half_rtt_secs: result.rank_duration_secs(a) / (2.0 * round_trips as f64),
            })
        })
        .collect()
}

/// Timed All-to-All repetitions: returns one completion time (seconds) per
/// measured repetition, after `warmup` discarded repetitions. Mirrors the
/// paper's averaging of repeated `MPI_Alltoall` runs.
pub fn alltoall_times<R: Recorder>(
    world: &mut World<R>,
    algorithm: AllToAllAlgorithm,
    message_bytes: u64,
    warmup: usize,
    reps: usize,
) -> Vec<f64> {
    assert!(reps > 0);
    let n = world.n_ranks();
    let programs = algorithm.programs(n, message_bytes);
    for _ in 0..warmup {
        let _ = world.run(programs.clone());
    }
    (0..reps)
        .map(|_| world.run(programs.clone()).duration_secs())
        .collect()
}

/// Result of one stress run (paper §3, Figs. 2–3).
#[derive(Debug, Clone)]
pub struct StressResult {
    /// Bytes each connection transferred.
    pub bytes: u64,
    /// Per-connection completion times in seconds (receiver-observed).
    pub times_secs: Vec<f64>,
}

impl StressResult {
    /// Mean per-connection throughput in bytes/second ("average bandwidth"
    /// in the paper's Fig. 2 sense: the mean of individual throughputs).
    pub fn mean_throughput(&self) -> f64 {
        let sum: f64 = self.times_secs.iter().map(|&t| self.bytes as f64 / t).sum();
        sum / self.times_secs.len() as f64
    }

    /// Slowest over fastest connection time — the straggler factor the
    /// paper reads off Fig. 3 (≈ 6× under saturation).
    pub fn straggler_factor(&self) -> f64 {
        let min = self
            .times_secs
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = self.times_secs.iter().cloned().fold(0.0, f64::max);
        max / min
    }
}

/// Floods the network: each `(sender, receiver)` pair moves `bytes`
/// simultaneously, all starting together. Returns per-connection times.
///
/// # Panics
/// Panics if `pairs` is empty or a rank appears twice (each connection
/// needs dedicated endpoints, as in the paper's setup).
pub fn stress_run<R: Recorder>(
    world: &mut World<R>,
    pairs: &[(Rank, Rank)],
    bytes: u64,
) -> StressResult {
    assert!(!pairs.is_empty(), "stress test needs at least one pair");
    let mut used = vec![false; world.n_ranks()];
    for &(s, r) in pairs {
        assert!(!used[s] && !used[r], "ranks must be pairwise disjoint");
        used[s] = true;
        used[r] = true;
    }
    let mut programs = vec![Vec::new(); world.n_ranks()];
    for &(s, r) in pairs {
        programs[s].push(Op::send(r, bytes));
        programs[r].push(Op::recv(s));
    }
    let result = world.run(programs);
    StressResult {
        bytes,
        times_secs: pairs
            .iter()
            .map(|&(_, r)| result.rank_duration_secs(r))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use simnet::prelude::*;

    fn star_world(n: usize) -> World {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        let sw = b.add_switch(SwitchConfig::commodity_ethernet());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        let cfg = SimConfig::default();
        let sim = Simulator::new(b.build().unwrap(), cfg);
        World::new(
            sim,
            hosts,
            MpiConfig::default(),
            TransportKind::Tcp(TcpConfig::default()),
        )
    }

    #[test]
    fn pingpong_time_grows_with_size() {
        let mut w = star_world(2);
        let points = ping_pong(&mut w, 0, 1, &[1_000, 1_000_000], 3);
        assert_eq!(points.len(), 2);
        assert!(points[1].half_rtt_secs > points[0].half_rtt_secs);
        // 1 MB one-way on GbE ≈ 8 ms minimum.
        assert!(points[1].half_rtt_secs > 0.008);
    }

    #[test]
    fn alltoall_times_returns_requested_reps() {
        let mut w = star_world(4);
        let times = alltoall_times(&mut w, AllToAllAlgorithm::DirectExchange, 16 * 1024, 1, 3);
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn stress_run_reports_per_connection_times() {
        let mut w = star_world(6);
        let result = stress_run(&mut w, &[(0, 3), (1, 4), (2, 5)], 1_000_000);
        assert_eq!(result.times_secs.len(), 3);
        assert!(result.mean_throughput() > 0.0);
        assert!(result.straggler_factor() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "pairwise disjoint")]
    fn stress_rejects_shared_ranks() {
        let mut w = star_world(4);
        let _ = stress_run(&mut w, &[(0, 1), (1, 2)], 1000);
    }
}
