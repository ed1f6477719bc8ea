//! Experiment output: tables (CSV / aligned text) and a small
//! ASCII chart for terminal inspection of the figure shapes.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A rectangular result table with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (used as a header comment in CSV output).
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows of cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Renders as CSV (title as a `#` comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Renders as an aligned, human-readable text table.
    pub fn to_aligned(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

/// One named series of `(x, y)` points for [`ascii_chart`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label; the first character is the plot glyph.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Renders series on a `width × height` ASCII grid with the y-axis scaled
/// to the data. Later series overwrite earlier ones where they collide.
pub fn ascii_chart(series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "chart too small to read");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    for s in series {
        let glyph = s.label.bytes().next().unwrap_or(b'*');
        for &(x, y) in &s.points {
            let col = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let row = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row][col] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{y_max:>12.4} +{}", "-".repeat(width));
    for line in &grid {
        let _ = writeln!(out, "{:>12} |{}", "", String::from_utf8_lossy(line));
    }
    let _ = writeln!(out, "{y_min:>12.4} +{}", "-".repeat(width));
    let _ = writeln!(out, "{:>14}{:<.4} .. {:.4}", "x: ", x_min, x_max);
    for s in series {
        let _ = writeln!(out, "{:>14}{} = {}", "", &s.label[..1], s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["n", "time"]);
        t.push_row(vec!["4".into(), "0.10".into()]);
        t.push_row(vec!["8".into(), "0.25".into()]);
        t
    }

    #[test]
    fn csv_has_comment_header_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# demo");
        assert_eq!(lines[1], "n,time");
        assert_eq!(lines[2], "4,0.10");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn aligned_output_pads_columns() {
        let text = sample().to_aligned();
        assert!(text.contains("== demo =="));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn chart_renders_extremes() {
        let s = Series {
            label: "*series".into(),
            points: vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)],
        };
        let chart = ascii_chart(&[s], 40, 10);
        assert!(chart.contains('*'));
        assert!(chart.contains("4.0000"));
        assert!(chart.contains("0.0000"));
    }

    #[test]
    fn chart_handles_empty() {
        assert_eq!(ascii_chart(&[], 40, 10), "(no data)\n");
    }
}
