//! JSON-emitter goldens: a hostile batch result — control characters,
//! quotes, backslashes and commas in the scenario name; NaN/±∞ in every
//! float column — must render to exactly the checked-in bytes, and those
//! bytes must be *valid JSON* (non-finite values become `null`, control
//! characters become `\uXXXX` escapes). "Valid" means the workspace's
//! own parser (`simnet::obs::json::parse`) accepts them.
//!
//! Regenerate the golden only for an intentional schema change (bump
//! `SCHEMA_VERSION` and document it in `report.rs`):
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p contention-scenario --test json_golden
//! ```

use contention_scenario::executor::{BatchResult, CellResult, CellStatus};
use contention_scenario::report::{Report, ReportFormat, SCHEMA_VERSION};
use simnet::obs::json::{self, Value};

const GOLDEN: &str = include_str!("golden/hostile_report.json");

/// Worst-case inputs: every string field user-controlled via TOML specs,
/// every float capable of going non-finite (an all-zero simulated time
/// makes `error_percent` divide by zero).
fn hostile() -> Vec<BatchResult> {
    vec![BatchResult {
        scenario: "evil \"name\", with\nnewline\ttab \u{1}ctrl back\\slash".into(),
        alpha_secs: f64::NAN,
        beta_secs_per_byte: 8e-9,
        cells: vec![CellResult {
            scenario: "evil \"name\", with\nnewline\ttab \u{1}ctrl back\\slash".into(),
            workload: "uniform".into(),
            topology: "single-switch".into(),
            n: 4,
            message_bytes: 65536,
            cell_seed: 99,
            mean_secs: f64::INFINITY,
            min_secs: f64::NEG_INFINITY,
            max_secs: 0.013,
            model_secs: 0.01,
            error_percent: f64::NAN,
            status: CellStatus::Ok,
        }],
    }]
}

fn render(batches: Vec<BatchResult>) -> String {
    Report::new(batches).render(ReportFormat::Json)
}

/// The `scenario` name of a rendered report's first entry, read back
/// through the parser.
fn first_scenario_name(doc: &Value) -> &str {
    let Some(Value::Array(scenarios)) = doc.get("scenarios") else {
        panic!("no scenarios array");
    };
    let name = scenarios[0].get("scenario").and_then(Value::as_str);
    name.expect("scenario name is a string")
}

#[test]
fn hostile_report_renders_to_the_golden_bytes() {
    let json = render(hostile());
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/hostile_report.json"
        );
        std::fs::write(path, &json).expect("write golden");
        panic!("regenerated {path}; re-run without REGEN_GOLDEN");
    }
    assert_eq!(
        json, GOLDEN,
        "JSON rendering diverged from tests/golden/hostile_report.json"
    );
}

#[test]
fn hostile_report_is_valid_json_with_nulls_for_non_finite() {
    let json = render(hostile());
    json::parse(&json).expect("report JSON must parse");
    // NaN alpha, +inf mean, -inf min, NaN error → exactly four nulls.
    assert_eq!(json.matches("null").count(), 4);
    assert!(json.contains("\\u0001"), "control chars must be escaped");
    assert!(!json.to_lowercase().contains("inf"), "no bare infinities");
    assert!(!json.contains("NaN"), "no bare NaNs");
}

#[test]
fn the_report_carries_the_version_and_reads_back_as_written() {
    let doc = json::parse(&render(hostile())).expect("report JSON must parse");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(SCHEMA_VERSION))
    );
    assert_eq!(
        first_scenario_name(&doc),
        hostile()[0].scenario,
        "escaping must round-trip the hostile name"
    );
}

/// Report bytes are a contract, and the report has always written a
/// carriage return in the generic `\uXXXX` form rather than as `\r`; a
/// TOML spec can put one in a scenario name (`"\r"` escape).
#[test]
fn a_carriage_return_in_a_scenario_name_renders_as_u000d() {
    let mut batches = hostile();
    batches[0].scenario = "cr\rname".into();
    let json = render(batches);
    assert!(json.contains(r#""scenario": "cr\u000dname""#), "{json}");
    let doc = json::parse(&json).expect("report JSON must parse");
    assert_eq!(first_scenario_name(&doc), "cr\rname");
}
