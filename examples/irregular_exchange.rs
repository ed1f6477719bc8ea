//! The general total exchange problem (paper §5): an *irregular* exchange
//! where every pair moves a different payload, its MED lower bounds
//! (Claims 1–3), and the simulated completion on each cluster.
//!
//! ```text
//! cargo run --release --example irregular_exchange
//! ```
//!
//! The workload is a block-sparse transpose: heavy diagonal-adjacent
//! blocks, light long-range blocks — the kind of matrix a stencil-ish
//! application redistributes. The Hockney parameters under each bound
//! come from a `Session` (one fit per fabric, cached); the engine's
//! *built-in* irregular workloads (skewed/sparse/permutation) run the
//! same machinery declaratively — see the closing sweep.

use alltoall_contention::prelude::*;
use contention_model::med::Med;
use simmpi::alltoall::post_all;

/// A block-sparse transpose: `heavy` bytes between ring neighbours,
/// `light` bytes between everyone else.
fn block_sparse(n: usize, heavy: u64, light: u64) -> impl Fn(usize, usize) -> u64 {
    move |i, j| {
        if (i + 1) % n == j || (j + 1) % n == i {
            heavy
        } else {
            light
        }
    }
}

fn main() {
    let n = 12;
    let bytes = block_sparse(n, 512 * 1024, 16 * 1024);
    let session = Session::builder().workers(2).base_seed(42).build().unwrap();

    // MED bounds from the paper's §5.
    let med = Med::from_bytes(n, &bytes);
    println!("irregular exchange over {n} ranks:");
    println!("  messages        : {}", med.message_count());
    println!(
        "  min start-ups   : {} (Claim 1: max(Δs, Δr))",
        med.min_startups()
    );

    for preset in ClusterPreset::all() {
        let spec = ScenarioBuilder::new(format!("irregular-{}", preset.name))
            .preset(preset.name)
            .uniform(AllToAllAlgorithm::DirectExchange)
            .build()
            .expect("preset spec is valid");
        let hockney = match session.calibrate_hockney(&spec) {
            Ok(h) => h,
            Err(e) => {
                println!("{}: hockney failed: {e}", preset.name);
                continue;
            }
        };
        let bound = med.time_lower_bound(&hockney);
        let mut world = preset.build_world(n, 42);
        let programs = post_all(n, &bytes);
        let _warm = world.run(programs.clone());
        let measured = world.run(programs).duration_secs();
        println!(
            "  {:<18} bound(Claim 3) = {:>8.4}s   measured = {:>8.4}s   ratio = {:>5.2}",
            preset.name,
            bound,
            measured,
            measured / bound
        );
    }

    // The same regime, declaratively: the engine's skewed workload over
    // the Fast Ethernet cluster, with the MED bound in the error column.
    let skewed = ScenarioBuilder::new("irregular-skewed-sweep")
        .preset("fast-ethernet")
        .skewed(2, 4.0, true)
        .nodes([12])
        .message_bytes([64 * 1024])
        .reps(1)
        .build()
        .expect("valid spec");
    let report = session.run(&skewed).expect("skewed sweep runs");
    let cell = &report.batches[0].cells[0];
    println!(
        "\nskewed sweep cell (n={}, m={}): measured {:.4}s, {:+.1}% vs its MED bound",
        cell.n, cell.message_bytes, cell.mean_secs, cell.error_percent
    );
    println!(
        "\nreading guide: the ratio is each network's contention signature \
         showing through an irregular workload; the bound comes from the \
         busiest port (Claim 2), not from any schedule."
    );
}
