//! Quickstart: the paper's §8 procedure through the `Session` facade —
//! describe a scenario in code, calibrate a contention signature on the
//! simulated Gigabit Ethernet cluster, and score the prediction against
//! fresh simulated measurements, streaming progress as cells finish.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! End to end:
//! 1. build a `ScenarioSpec` with the fluent `ScenarioBuilder`;
//! 2. calibrate Hockney α/β and the signature (γ, δ, M) on the scenario's
//!    own fabric (the `Session` memoizes both in its instance-owned cache);
//! 3. run the sweep with the signature predictor behind the error column,
//!    watching `RunEvent`s arrive live;
//! 4. render the versioned report as human-readable text.

use alltoall_contention::prelude::*;

fn main() {
    // 1. The scenario, in code — no TOML required (`spec.to_toml_string()`
    //    would print the equivalent document).
    let spec = ScenarioBuilder::new("quickstart-gigabit")
        .description("uniform direct exchange on the paper's GdX cluster")
        .preset("gigabit-ethernet")
        .uniform(AllToAllAlgorithm::DirectExchange)
        .nodes([6, 8])
        .message_bytes([128 * 1024, 512 * 1024])
        .reps(1)
        .build()
        .expect("valid scenario");

    // 2. A session owns workers, seed, predictor and the calibration
    //    cache; the signature fit below is reused by the run.
    let session = Session::builder()
        .workers(2)
        .base_seed(42)
        .model(ModelKind::Signature)
        .build()
        .expect("session builds");

    let hockney = session.calibrate_hockney(&spec).expect("hockney fit");
    println!(
        "hockney: alpha = {:.1} us, beta = {:.3} ns/B ({:.1} MB/s)",
        hockney.alpha_secs * 1e6,
        hockney.beta_secs_per_byte * 1e9,
        hockney.bandwidth_bytes_per_sec() / 1e6
    );
    let sig = session.calibrate_signature(&spec).expect("signature fit");
    println!(
        "signature: gamma = {:.3}, delta = {:.3} ms, M = {:?} (R^2 = {:.4}, fitted at n'={})",
        sig.gamma,
        sig.delta_secs * 1e3,
        sig.cutoff_bytes,
        sig.fit_r_squared,
        sig.sample_n
    );

    // 3. Stream the sweep: cells arrive in completion order, the report
    //    stays byte-deterministic regardless.
    println!(
        "\nrunning {} cells...",
        spec.sweep.nodes.len() * spec.sweep.message_bytes.len()
    );
    let report = session
        .run_with(&spec, &mut |event: RunEvent<'_>| {
            if let RunEvent::CellFinished {
                cell,
                completed,
                total,
                ..
            } = event
            {
                println!(
                    "  [{completed}/{total}] n={:>2} m={:>7}: measured {:.4}s vs predicted {:.4}s ({:+.1}%)",
                    cell.n, cell.message_bytes, cell.mean_secs, cell.model_secs, cell.error_percent
                );
            }
        })
        .expect("sweep runs");

    // 4. One render path serves text, CSV and JSON.
    println!("\n{}", report.render(ReportFormat::Text));
    println!(
        "(re-render with ReportFormat::Csv / ReportFormat::Json, or `ctnsim run --format json`)"
    );
}
