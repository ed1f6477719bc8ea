//! Compares All-to-All algorithms under contention: the paper's Direct
//! Exchange (blocking rounds and the post-all variant) against Bruck,
//! pairwise exchange and a ring — on a contended Gigabit Ethernet fabric
//! and on the lossless Myrinet fabric.
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```
//!
//! The motivating observation of the paper's introduction: algorithms tuned
//! for message counts (Bruck) versus bandwidth (direct) trade places as
//! message size grows, and contention shifts the crossover. Each
//! (fabric, algorithm) pair is one generated `ScenarioSpec`; a single
//! `Session` runs them all as one flat cell queue — the programmatic-sweep
//! workflow the builder exists for.

use alltoall_contention::prelude::*;

fn main() {
    let n = 16usize; // power of two so pairwise exchange is legal
    let algorithms = AllToAllAlgorithm::all();
    let sizes = [16 * 1024u64, 128 * 1024, 512 * 1024];
    let presets = ["gigabit-ethernet", "myrinet"];

    // The sweep grid, generated: one spec per (fabric, algorithm).
    let mut specs = Vec::new();
    for preset in presets {
        for algo in &algorithms {
            specs.push(
                ScenarioBuilder::new(format!("algos-{preset}-{}", algo.name()))
                    .preset(preset)
                    .uniform(*algo)
                    .nodes([n])
                    .message_bytes(sizes)
                    .warmup(1)
                    .reps(1)
                    .build()
                    .expect("generated spec is valid"),
            );
        }
    }

    let session = Session::builder().workers(4).base_seed(42).build().unwrap();
    let report = session.run_many(&specs).expect("comparison sweep runs");

    for (pi, preset) in presets.iter().enumerate() {
        println!("\n== {preset} ({n} ranks) ==");
        print!("{:>10}", "msg bytes");
        for algo in &algorithms {
            print!("{:>12}", algo.name());
        }
        println!();
        for (si, &m) in sizes.iter().enumerate() {
            print!("{m:>10}");
            for (ai, _) in algorithms.iter().enumerate() {
                let batch = &report.batches[pi * algorithms.len() + ai];
                let cell = &batch.cells[si];
                assert_eq!((cell.n, cell.message_bytes), (n, m));
                print!("{:>11.4}s", cell.mean_secs);
            }
            println!();
        }
    }
    println!(
        "\nreading guide: Bruck wins at small sizes (fewer start-ups), the \
         direct algorithms win at large sizes (no forwarding); contention \
         compresses the direct algorithms' advantage on Ethernet."
    );
}
