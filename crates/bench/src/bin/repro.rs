//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--full] [--seed N] [--out DIR] [all | figN | params ...]
//! ```
//!
//! Each experiment prints its table and ASCII chart and writes the table
//! as `{id}.csv` under `--out` (default `results/`). `--full` runs the paper's
//! grid sizes; the default quick profile is sized for a small machine.

use contention_lab::experiments::{by_id, registry, Experiment, Profile, Scale};
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: repro [--full] [--seed N] [--out DIR] [all | <experiment-id> ...]");
    eprintln!("experiments:");
    for e in registry() {
        eprintln!("  {:<8} {}", e.id, e.title);
    }
    std::process::exit(2);
}

fn main() {
    let mut profile = Profile::default();
    let mut chosen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => profile.scale = Scale::Full,
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                profile.seed = v;
            }
            "--out" => {
                let Some(v) = args.next() else { usage() };
                profile.out_dir = PathBuf::from(v);
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => chosen.push(other.to_string()),
        }
    }
    if chosen.is_empty() || chosen.iter().any(|c| c == "all") {
        chosen = registry().iter().map(|e| e.id.to_string()).collect();
    }

    let experiments: Vec<Experiment> = chosen
        .iter()
        .map(|id| by_id(id).unwrap_or_else(|| usage()))
        .collect();

    println!(
        "reproducing {} experiment(s), scale={:?}, seed={}, out={}",
        experiments.len(),
        profile.scale,
        profile.seed,
        profile.out_dir.display()
    );
    for e in experiments {
        let t0 = Instant::now();
        println!("\n=== {} — {} ===", e.id, e.title);
        println!("paper: {}", e.paper_claim);
        let output = (e.run)(&profile);
        if let Some(table) = &output.table {
            let path = profile.out_dir.join(format!("{}.csv", e.id));
            match table.write_csv(&path) {
                Ok(()) => println!("[csv written to {}]", path.display()),
                Err(err) => eprintln!("[csv write failed: {err}]"),
            }
            println!("{}", table.to_aligned());
        }
        if let Some(chart) = &output.chart {
            println!("{chart}");
        }
        for note in &output.notes {
            println!("note: {note}");
        }
        println!("[{} done in {:.1}s]", e.id, t0.elapsed().as_secs_f64());
    }
}
