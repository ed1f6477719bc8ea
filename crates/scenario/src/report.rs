//! The versioned [`Report`] type and its deterministic renderers.
//!
//! A report is what a [`Session`](crate::session::Session) run returns:
//! the batch results plus a `schema_version` stamp, rendered to text, CSV
//! or JSON through **one** path ([`Report::render`]) so the CLI, files on
//! disk, and embedders all emit the same bytes. Floats are formatted with
//! Rust's shortest-round-trip `Display`, so the same numbers always
//! produce the same bytes — the executor's worker-count-independence
//! guarantee extends to the report files.
//!
//! Version history:
//!
//! * **1** — initial versioned schema: CSV columns `scenario, topology,
//!   workload, n, message_bytes, cell_seed, mean_secs, min_secs, max_secs,
//!   model_secs, error_percent` (unchanged from the pre-session emitters,
//!   which carried no version stamp); JSON gained the top-level
//!   `schema_version` / `scenarios` envelope.
//! * **2** — the supervised schema: CSV appends `status, status_detail`
//!   columns, JSON cells gain `status` / `status_detail` fields, text
//!   gains a status column. A report renders under v2 only when
//!   supervision is in play — the session configured limits, or some
//!   cell carries a non-`Ok` [`CellStatus`](crate::executor::CellStatus)
//!   — so unsupervised output stays byte-identical to v1. Stopped cells'
//!   measurement columns are `NaN` in CSV, `null` in JSON and `-` in
//!   text.

use crate::executor::BatchResult;
use simnet::obs::json;
use std::fmt::Write as _;

/// The schema version stamped on every unsupervised [`Report`] this
/// build produces.
pub const SCHEMA_VERSION: u32 = 1;

/// The schema version stamped on supervised reports (limits configured
/// or some cell stopped): the v1 columns plus `status` /
/// `status_detail`.
pub const SUPERVISED_SCHEMA_VERSION: u32 = 2;

/// How a [`Report`] is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Machine-friendly CSV, one row per cell (the default).
    #[default]
    Csv,
    /// JSON with the versioned envelope.
    Json,
    /// A human-readable table per scenario.
    Text,
}

impl ReportFormat {
    /// Parses the CLI's `--format` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "csv" => Some(ReportFormat::Csv),
            "json" => Some(ReportFormat::Json),
            "text" => Some(ReportFormat::Text),
            _ => None,
        }
    }

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ReportFormat::Csv => "csv",
            ReportFormat::Json => "json",
            ReportFormat::Text => "text",
        }
    }
}

/// A versioned batch-result report: what [`Session::run`] returns and
/// every output format renders from.
///
/// [`Session::run`]: crate::session::Session::run
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version of the rendered forms (see the module docs for the
    /// version history).
    pub schema_version: u32,
    /// One entry per scenario, in submission order.
    pub batches: Vec<BatchResult>,
}

impl Report {
    /// Wraps batch results, stamping [`SCHEMA_VERSION`] when every cell
    /// is `Ok` and [`SUPERVISED_SCHEMA_VERSION`] when any cell carries a
    /// non-`Ok` status (its row needs the status columns to be
    /// readable).
    pub fn new(batches: Vec<BatchResult>) -> Self {
        let schema_version = if batches
            .iter()
            .any(|b| b.cells.iter().any(|c| !c.status.is_ok()))
        {
            SUPERVISED_SCHEMA_VERSION
        } else {
            SCHEMA_VERSION
        };
        Self {
            schema_version,
            batches,
        }
    }

    /// Wraps batch results under [`SUPERVISED_SCHEMA_VERSION`]
    /// unconditionally — for sessions with supervision limits, where the
    /// status columns belong in the output even when every cell passed.
    pub fn supervised(batches: Vec<BatchResult>) -> Self {
        Self {
            schema_version: SUPERVISED_SCHEMA_VERSION,
            batches,
        }
    }

    /// Total cell count across all batches.
    pub fn cell_count(&self) -> usize {
        self.batches.iter().map(|b| b.cells.len()).sum()
    }

    /// True when any cell was stopped by the supervision layer (status
    /// other than `Ok`) — the CLI's partial-failure exit code keys off
    /// this.
    pub fn has_failures(&self) -> bool {
        self.batches
            .iter()
            .any(|b| b.cells.iter().any(|c| !c.status.is_ok()))
    }

    /// Renders the report; the single emission path every consumer
    /// (CLI, files, embedders) shares. Reports stamped with the
    /// supervised schema render the extra status columns.
    pub fn render(&self, format: ReportFormat) -> String {
        let supervised = self.schema_version >= SUPERVISED_SCHEMA_VERSION;
        match format {
            ReportFormat::Csv => csv_of(&self.batches, supervised),
            ReportFormat::Json => json_of(self.schema_version, &self.batches, supervised),
            ReportFormat::Text => text_of(self.schema_version, &self.batches, supervised),
        }
    }
}

/// RFC-4180 quoting: fields containing commas, quotes or newlines are
/// wrapped in double quotes with inner quotes doubled (scenario names are
/// user-controlled via TOML specs).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_of(results: &[BatchResult], supervised: bool) -> String {
    let mut out = String::from(
        "scenario,topology,workload,n,message_bytes,cell_seed,mean_secs,min_secs,max_secs,model_secs,error_percent",
    );
    out.push_str(if supervised {
        ",status,status_detail\n"
    } else {
        "\n"
    });
    for batch in results {
        for c in &batch.cells {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                csv_field(&c.scenario),
                csv_field(&c.topology),
                csv_field(&c.workload),
                c.n,
                c.message_bytes,
                c.cell_seed,
                c.mean_secs,
                c.min_secs,
                c.max_secs,
                c.model_secs,
                c.error_percent
            );
            if supervised {
                let _ = write!(
                    out,
                    ",{},{}",
                    c.status.name(),
                    csv_field(&c.status.detail())
                );
            }
            out.push('\n');
        }
    }
    out
}

fn json_of(schema_version: u32, results: &[BatchResult], supervised: bool) -> String {
    let mut out = format!("{{\n\"schema_version\": {schema_version},\n\"scenarios\": [\n");
    for (bi, batch) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"scenario\": {}, \"alpha_secs\": {}, \"beta_secs_per_byte\": {}, \"cells\": [",
            json::string(&batch.scenario),
            json::number(batch.alpha_secs),
            json::number(batch.beta_secs_per_byte)
        );
        for (ci, c) in batch.cells.iter().enumerate() {
            let status = if supervised {
                format!(
                    ", \"status\": {}, \"status_detail\": {}",
                    json::string(c.status.name()),
                    json::string(&c.status.detail())
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "    {{\"topology\": {}, \"workload\": {}, \"n\": {}, \"message_bytes\": {}, \
                 \"cell_seed\": {}, \"mean_secs\": {}, \"min_secs\": {}, \"max_secs\": {}, \
                 \"model_secs\": {}, \"error_percent\": {}{}}}{}",
                json::string(&c.topology),
                json::string(&c.workload),
                c.n,
                c.message_bytes,
                c.cell_seed,
                json::number(c.mean_secs),
                json::number(c.min_secs),
                json::number(c.max_secs),
                json::number(c.model_secs),
                json::number(c.error_percent),
                status,
                if ci + 1 < batch.cells.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "  ]}}{}",
            if bi + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("]\n}\n");
    out
}

/// Seconds with enough digits for human comparison (the text format is
/// for eyes; CSV/JSON carry the full-precision values).
fn text_secs(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "-".to_string()
    }
}

fn text_of(schema_version: u32, results: &[BatchResult], supervised: bool) -> String {
    let mut out = format!("report v{schema_version}\n");
    for batch in results {
        let _ = writeln!(
            out,
            "\n== {} (alpha = {} s, beta = {} s/B) ==",
            batch.scenario, batch.alpha_secs, batch.beta_secs_per_byte
        );
        let _ = write!(
            out,
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>8}",
            "n", "bytes", "mean_s", "model_s", "min..max_s", "err%"
        );
        if supervised {
            let _ = write!(out, " {:<15}", "status");
        }
        out.push('\n');
        for c in &batch.cells {
            let range = if c.min_secs.is_finite() && c.max_secs.is_finite() {
                format!("{:.4}..{:.4}", c.min_secs, c.max_secs)
            } else {
                "-".to_string()
            };
            let _ = write!(
                out,
                "{:>6} {:>12} {:>12} {:>12} {:>12} {:>8}",
                c.n,
                c.message_bytes,
                text_secs(c.mean_secs),
                text_secs(c.model_secs),
                range,
                if c.error_percent.is_finite() {
                    format!("{:+.1}", c.error_percent)
                } else {
                    "-".to_string()
                }
            );
            if supervised {
                let _ = write!(out, " {:<15}", c.status.name());
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{CellResult, CellStatus};

    fn sample() -> Vec<BatchResult> {
        vec![BatchResult {
            scenario: "s".into(),
            alpha_secs: 5e-5,
            beta_secs_per_byte: 8e-9,
            cells: vec![CellResult {
                scenario: "s".into(),
                workload: "uniform".into(),
                topology: "single-switch".into(),
                n: 4,
                message_bytes: 65536,
                cell_seed: 99,
                mean_secs: 0.0125,
                min_secs: 0.012,
                max_secs: 0.013,
                model_secs: 0.01,
                error_percent: 25.0,
                status: CellStatus::Ok,
            }],
        }]
    }

    /// A sample with one stopped cell (deadlocked, NaN measurements).
    fn supervised_sample() -> Vec<BatchResult> {
        let mut results = sample();
        results[0].cells.push(CellResult {
            scenario: "s".into(),
            workload: "uniform".into(),
            topology: "single-switch".into(),
            n: 8,
            message_bytes: 65536,
            cell_seed: 100,
            mean_secs: f64::NAN,
            min_secs: f64::NAN,
            max_secs: f64::NAN,
            model_secs: f64::NAN,
            error_percent: f64::NAN,
            status: CellStatus::Deadlocked {
                detail: "ranks [1] blocked, \"quoted\"".into(),
            },
        });
        results
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = Report::new(sample()).render(ReportFormat::Csv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scenario,topology,workload,n,"));
        assert!(lines[1].starts_with("s,single-switch,uniform,4,65536,99,0.0125,"));
    }

    #[test]
    fn csv_quotes_hostile_scenario_names() {
        let mut results = sample();
        results[0].cells[0].scenario = "a,b \"c\"".into();
        let csv = Report::new(results).render(ReportFormat::Csv);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("\"a,b \"\"c\"\"\",single-switch,"));
        // Field count is preserved: count commas outside quotes.
        let mut in_quotes = false;
        let fields = row
            .chars()
            .filter(|&c| {
                if c == '"' {
                    in_quotes = !in_quotes;
                }
                c == ',' && !in_quotes
            })
            .count()
            + 1;
        assert_eq!(fields, 11);
    }

    #[test]
    fn json_carries_the_schema_version() {
        let report = Report::new(sample());
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        let json = report.render(ReportFormat::Json);
        assert!(json.starts_with("{\n\"schema_version\": 1,\n\"scenarios\": [\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"cells\"").count(), 1);
        assert_eq!(json.matches("\"mean_secs\"").count(), 1);
        // Balanced braces/brackets.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn text_format_is_deterministic_and_human_shaped() {
        let report = Report::new(sample());
        let a = report.render(ReportFormat::Text);
        let b = report.render(ReportFormat::Text);
        assert_eq!(a, b);
        assert!(a.starts_with("report v1\n"));
        assert!(a.contains("== s (alpha = 0.00005 s"));
        assert!(a.contains("err%"));
        assert!(a.contains("+25.0"));
    }

    #[test]
    fn format_names_round_trip() {
        for f in [ReportFormat::Csv, ReportFormat::Json, ReportFormat::Text] {
            assert_eq!(ReportFormat::parse(f.name()), Some(f));
        }
        assert_eq!(ReportFormat::parse("yaml"), None);
    }

    #[test]
    fn any_stopped_cell_upgrades_the_report_to_the_supervised_schema() {
        let report = Report::new(supervised_sample());
        assert_eq!(report.schema_version, SUPERVISED_SCHEMA_VERSION);
        assert!(report.has_failures());
        let all_ok = Report::new(sample());
        assert_eq!(all_ok.schema_version, SCHEMA_VERSION);
        assert!(!all_ok.has_failures());
        // A supervised session forces v2 even when every cell passed.
        let forced = Report::supervised(sample());
        assert_eq!(forced.schema_version, SUPERVISED_SCHEMA_VERSION);
        assert!(!forced.has_failures());
    }

    #[test]
    fn supervised_csv_appends_status_columns() {
        let csv = Report::new(supervised_sample()).render(ReportFormat::Csv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with("error_percent,status,status_detail"));
        assert!(lines[1].ends_with(",ok,"), "ok row: {}", lines[1]);
        assert!(
            lines[2].contains(",NaN,") && lines[2].contains(",deadlocked,"),
            "stopped row: {}",
            lines[2]
        );
        // The hostile detail is RFC-4180 quoted, so field counts match.
        assert!(lines[2].ends_with("\"ranks [1] blocked, \"\"quoted\"\"\""));
    }

    #[test]
    fn supervised_json_carries_status_and_null_measurements() {
        let report = Report::new(supervised_sample());
        let json = report.render(ReportFormat::Json);
        assert!(json.starts_with("{\n\"schema_version\": 2,\n"));
        assert!(json.contains(r#""status": "ok", "status_detail": """#));
        assert!(json.contains(r#""status": "deadlocked""#));
        assert!(json.contains(r#""mean_secs": null"#));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn supervised_text_shows_the_status_column() {
        let text = Report::new(supervised_sample()).render(ReportFormat::Text);
        assert!(text.starts_with("report v2\n"));
        assert!(text.contains("status"));
        assert!(text.contains("deadlocked"));
        // Stopped measurements render as placeholders, not NaN.
        assert!(!text.contains("NaN"));
    }
}
