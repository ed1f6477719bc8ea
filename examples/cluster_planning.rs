//! Capacity planning with a contention signature: "my FFT does an
//! All-to-All of 256 KiB per pair every iteration — how many nodes can I
//! use before communication dominates, and what does an iteration cost?"
//!
//! ```text
//! cargo run --release --example cluster_planning
//! ```
//!
//! This is the use case the paper motivates: once a network's signature is
//! known, predictions for any (n, m) cost a multiplication, not a cluster
//! reservation. One `Session` calibrates all three clusters — each fabric
//! is described as a spec, fitted once, and memoized in the session's
//! instance-owned cache.

use alltoall_contention::prelude::*;

/// A 3-D FFT-style workload: per-iteration compute scales as 1/n, the
/// transpose is an All-to-All of `total_bytes / n²` per pair.
struct FftWorkload {
    total_bytes: u64,
    compute_secs_single_node: f64,
}

impl FftWorkload {
    fn alltoall_message(&self, n: usize) -> u64 {
        (self.total_bytes / (n * n) as u64).max(1)
    }

    fn iteration_time(&self, n: usize, sig: &ContentionSignature) -> (f64, f64) {
        let compute = self.compute_secs_single_node / n as f64;
        let comm = sig.predict(n, self.alltoall_message(n));
        (compute, comm)
    }
}

fn main() {
    let workload = FftWorkload {
        total_bytes: 1 << 30, // a 1 GiB grid
        compute_secs_single_node: 20.0,
    };
    let session = Session::builder().workers(2).base_seed(42).build().unwrap();

    for preset in ClusterPreset::all() {
        // The fabric as a spec: the builder's preset front-end names the
        // paper's calibrated clusters.
        let spec = ScenarioBuilder::new(format!("plan-{}", preset.name))
            .preset(preset.name)
            .uniform(AllToAllAlgorithm::DirectExchange)
            .build()
            .expect("preset spec is valid");
        let sig = match session.calibrate_signature(&spec) {
            Ok(s) => s,
            Err(e) => {
                println!("{}: calibration failed: {e}", preset.name);
                continue;
            }
        };
        println!(
            "\n== {} (gamma={:.2}, delta={:.2} ms) ==",
            preset.name,
            sig.gamma,
            sig.delta_secs * 1e3
        );
        println!(
            "{:>6} {:>12} {:>10} {:>10} {:>8}",
            "nodes", "msg/pair", "compute", "alltoall", "comm%"
        );
        let mut best = (0usize, f64::INFINITY);
        for &n in &[4usize, 8, 16, 32, 64] {
            if n > preset.max_hosts() {
                continue;
            }
            let (compute, comm) = workload.iteration_time(n, &sig);
            let total = compute + comm;
            if total < best.1 {
                best = (n, total);
            }
            println!(
                "{:>6} {:>12} {:>9.2}s {:>9.2}s {:>7.0}%",
                n,
                workload.alltoall_message(n),
                compute,
                comm,
                comm / total * 100.0
            );
        }
        println!(
            "best iteration time: {:.2} s at {} nodes (signature-aware sweet spot)",
            best.1, best.0
        );
    }
}
