//! The Message Exchange Digraph (MED) and the paper's lower bounds.
//!
//! §5 formalizes the total exchange problem on a weighted digraph
//! `dG(V, E)`: vertices are processes, an arc `(p_i, p_j)` with weight
//! `w(e)` is a message of that size. Claims 1–3 bound any schedule without
//! message forwarding on the 1-port full-duplex model:
//!
//! * **Claim 1** — at least `max(Δs, Δr)` start-ups, where `Δs`/`Δr` are the
//!   maximum out-/in-degrees;
//! * **Claim 2** — at least `max(ts, tr)` transmission time, where
//!   `ts = max_i Σ_j w_ij·β` and `tr = max_j Σ_i w_ij·β`;
//! * **Claim 3** — at least `max(Δs, Δr)·α + max(ts, tr)` when both maxima
//!   are due to the same process or the model is synchronous.
//!
//! Proposition 1 specializes this to the uniform All-to-All.

use crate::hockney::HockneyParams;

/// A message exchange digraph: `n` processes and weighted arcs.
///
/// Arc weights accumulate: adding `(i, j, w)` twice yields one logical
/// message stream of `2w` bytes for the bandwidth bounds, but counts as two
/// start-ups for the degree bounds. The bounds read only per-process
/// degrees and byte volumes, so that is all a MED stores: `O(n)` memory,
/// however many messages it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Med {
    n: usize,
    messages: usize,
    out_bytes: Vec<u64>,
    in_bytes: Vec<u64>,
    out_degree: Vec<usize>,
    in_degree: Vec<usize>,
}

impl Med {
    /// An empty MED over `n` processes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            messages: 0,
            out_bytes: vec![0; n],
            in_bytes: vec![0; n],
            out_degree: vec![0; n],
            in_degree: vec![0; n],
        }
    }

    /// The uniform All-to-All MED: every ordered pair `(i, j)`, `i ≠ j`,
    /// carries one `m`-byte message.
    pub fn uniform_alltoall(n: usize, m: u64) -> Self {
        let mut med = Self::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    med.add_message(i, j, m);
                }
            }
        }
        med
    }

    /// Adds one message of `bytes` from `src` to `dst`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or a self-loop (a process's message
    /// to itself never uses the network).
    pub fn add_message(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.n && dst < self.n, "endpoint out of range");
        assert_ne!(src, dst, "self-messages are local copies");
        self.messages += 1;
        self.out_bytes[src] += bytes;
        self.in_bytes[dst] += bytes;
        self.out_degree[src] += 1;
        self.in_degree[dst] += 1;
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of messages (arcs).
    pub fn message_count(&self) -> usize {
        self.messages
    }

    /// Out-degree Δs(p_i): messages process `i` must send.
    pub fn out_degree(&self, i: usize) -> usize {
        self.out_degree[i]
    }

    /// In-degree Δr(p_i): messages process `i` must receive.
    pub fn in_degree(&self, i: usize) -> usize {
        self.in_degree[i]
    }

    /// Maximum out-degree Δs.
    pub fn delta_s(&self) -> usize {
        self.out_degree.iter().copied().max().unwrap_or(0)
    }

    /// Maximum in-degree Δr.
    pub fn delta_r(&self) -> usize {
        self.in_degree.iter().copied().max().unwrap_or(0)
    }

    /// Claim 1: minimum number of start-ups, `max(Δs, Δr)`.
    pub fn min_startups(&self) -> usize {
        self.delta_s().max(self.delta_r())
    }

    /// `ts`: the send-side bandwidth bottleneck in seconds.
    pub fn send_time_bound(&self, beta_secs_per_byte: f64) -> f64 {
        self.out_bytes
            .iter()
            .map(|&b| b as f64 * beta_secs_per_byte)
            .fold(0.0, f64::max)
    }

    /// `tr`: the receive-side bandwidth bottleneck in seconds.
    pub fn recv_time_bound(&self, beta_secs_per_byte: f64) -> f64 {
        self.in_bytes
            .iter()
            .map(|&b| b as f64 * beta_secs_per_byte)
            .fold(0.0, f64::max)
    }

    /// Claim 2: bandwidth lower bound `max(ts, tr)`.
    pub fn bandwidth_bound(&self, beta_secs_per_byte: f64) -> f64 {
        self.send_time_bound(beta_secs_per_byte)
            .max(self.recv_time_bound(beta_secs_per_byte))
    }

    /// Claim 3: combined bound `max(Δs, Δr)·α + max(ts, tr)`.
    pub fn time_lower_bound(&self, params: &HockneyParams) -> f64 {
        self.min_startups() as f64 * params.alpha_secs
            + self.bandwidth_bound(params.beta_secs_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_alltoall_degrees_are_n_minus_1() {
        let med = Med::uniform_alltoall(8, 100);
        assert_eq!(med.message_count(), 8 * 7);
        for i in 0..8 {
            assert_eq!(med.out_degree(i), 7);
            assert_eq!(med.in_degree(i), 7);
        }
        assert_eq!(med.min_startups(), 7);
    }

    #[test]
    fn claim3_on_uniform_alltoall_equals_proposition_1() {
        let params = HockneyParams::new(60e-6, 8e-8);
        let (n, m) = (24usize, 65_536u64);
        let med = Med::uniform_alltoall(n, m);
        let claim3 = med.time_lower_bound(&params);
        let prop1 = params.alltoall_lower_bound(n, m);
        assert!((claim3 - prop1).abs() < 1e-12, "{claim3} vs {prop1}");
    }

    #[test]
    fn asymmetric_med_bounds() {
        // A gather: everyone sends 100 B to process 0.
        let mut med = Med::new(4);
        for i in 1..4 {
            med.add_message(i, 0, 100);
        }
        assert_eq!(med.delta_s(), 1);
        assert_eq!(med.delta_r(), 3);
        assert_eq!(med.min_startups(), 3);
        let beta = 1e-8;
        // Receive side dominates: 300 bytes into p0.
        assert!((med.bandwidth_bound(beta) - 300.0 * beta).abs() < 1e-18);
    }

    #[test]
    fn scatter_is_send_dominated() {
        let mut med = Med::new(4);
        for j in 1..4 {
            med.add_message(0, j, 1000);
        }
        assert_eq!(med.delta_s(), 3);
        assert_eq!(med.delta_r(), 1);
        let beta = 1e-9;
        assert!((med.send_time_bound(beta) - 3000.0 * beta).abs() < 1e-18);
        assert!((med.recv_time_bound(beta) - 1000.0 * beta).abs() < 1e-18);
    }

    #[test]
    fn weights_accumulate_degrees_count() {
        let mut med = Med::new(2);
        med.add_message(0, 1, 10);
        med.add_message(0, 1, 20);
        assert_eq!(med.out_degree(0), 2);
        assert!((med.send_time_bound(1.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "self-messages")]
    fn self_loop_rejected() {
        let mut med = Med::new(3);
        med.add_message(1, 1, 5);
    }

    #[test]
    fn empty_med_has_zero_bounds() {
        let med = Med::new(5);
        assert_eq!(med.min_startups(), 0);
        assert_eq!(med.bandwidth_bound(1e-9), 0.0);
        let params = HockneyParams::new(1e-6, 1e-9);
        assert_eq!(med.time_lower_bound(&params), 0.0);
    }
}
