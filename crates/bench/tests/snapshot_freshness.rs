//! Bench-snapshot freshness: `BENCH_engine.json` at the repo root must
//! name exactly the benchmarks the `engine_hotpath` target defines (the
//! recorder, guard and daemon overhead pairs and the `fluid_vs_packet`
//! rows — nine in all). A renamed, added or removed benchmark therefore
//! fails CI until the snapshot is regenerated:
//!
//! ```text
//! cargo bench -p contention-bench --bench engine_hotpath -- --save-json ../../BENCH_engine.json
//! ```

use simnet::obs::json::{self, Value};
use std::collections::BTreeSet;

/// Every `name` in the snapshot's `benchmarks` array (the document the
/// in-repo criterion stub's `--save-json` writes).
fn snapshot_names(text: &str) -> BTreeSet<String> {
    let doc = json::parse(text).expect("bench snapshot is valid JSON");
    let Some(Value::Array(rows)) = doc.get("benchmarks") else {
        panic!("bench snapshot has no \"benchmarks\" array");
    };
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(Value::as_str);
            name.expect("every benchmark row has a name").to_owned()
        })
        .collect()
}

#[test]
fn bench_snapshot_names_match_the_bench_targets() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench snapshot {path}: {e}"));
    let in_snapshot = snapshot_names(&text);
    let expected: BTreeSet<String> = contention_bench::hotpath::expected_snapshot_names()
        .into_iter()
        .collect();
    let stale: Vec<_> = in_snapshot.difference(&expected).collect();
    let missing: Vec<_> = expected.difference(&in_snapshot).collect();
    assert!(
        stale.is_empty() && missing.is_empty(),
        "BENCH_engine.json is stale.\n  names no benchmark defines: {stale:?}\n  \
         benchmarks missing from the snapshot: {missing:?}\n  \
         regenerate with: cargo bench -p contention-bench --bench engine_hotpath -- \
         --save-json ../../BENCH_engine.json"
    );
}

#[test]
fn name_extraction_reads_the_snapshot_format() {
    let sample = r#"{
  "benchmarks": [
    {"name": "a/b", "median_ns": 1, "elements_per_sec": 2.0},
    {"name": "c/d", "median_ns": 3, "elements_per_sec": 4.0}
  ]
}"#;
    let names = snapshot_names(sample);
    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        vec!["a/b".to_string(), "c/d".to_string()]
    );
}
