//! A small fixed-width text-table printer for the experiment binaries.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tsv3d_bench::cli::Fail;
use tsv3d_telemetry::TelemetryHandle;

/// A simple left-header, right-aligned-columns text table.
///
/// # Examples
///
/// ```
/// use tsv3d_experiments::table::TextTable;
///
/// let mut t = TextTable::new("scenario", &["P_red opt [%]", "P_red spiral [%]"]);
/// t.row("RGB 4x8", &[12.1, 11.4]);
/// let s = t.render();
/// assert!(s.contains("RGB 4x8"));
/// assert!(s.contains("12.10"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl TextTable {
    /// Creates a table with a row-label header and column titles.
    pub fn new(header: &str, columns: &[&str]) -> Self {
        Self {
            header: header.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn row(&mut self, label: &str, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row has {} values for {} columns",
            values.len(),
            self.columns.len()
        );
        self.rows.push((label.to_string(), values.to_vec()));
    }

    /// Renders the table to a string (two-decimal fixed format).
    pub fn render(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let col_widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(10)).collect();
        let mut out = String::new();
        let _ = write!(out, "{:<label_width$}", self.header);
        for (c, w) in self.columns.iter().zip(&col_widths) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        let total = label_width + col_widths.iter().map(|w| w + 2).sum::<usize>();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_width$}");
            for (v, w) in values.iter().zip(&col_widths) {
                let _ = write!(out, "  {v:>w$.2}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the table like [`render`](TextTable::render), appending
    /// a wall-clock timing footer when `tel` is enabled (i.e. when the
    /// `TSV3D_TELEMETRY` switch is active). With telemetry off — the
    /// default — the output is byte-identical to `render()`, keeping
    /// recorded experiment outputs stable.
    pub fn render_timed(&self, tel: &TelemetryHandle) -> String {
        let mut out = self.render();
        if tel.is_enabled() {
            let _ = writeln!(
                out,
                "({} rows; +{:.3} s wall)",
                self.rows.len(),
                tel.elapsed_seconds()
            );
        }
        out
    }

    /// Renders the table as CSV (full precision).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.header);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label}");
            for v in values {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Writes the table as CSV into `results/<name>.csv` and returns the
/// path written.
///
/// # Errors
///
/// A runtime failure naming the path when `results/` or the file
/// cannot be written.
pub fn write_csv(table: &TextTable, name: &str) -> Result<PathBuf, Fail> {
    let path = Path::new("results").join(format!("{name}.csv"));
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, table.to_csv()))
        .map_err(|e| Fail::Runtime(format!("cannot write `{}`: {e}", path.display())))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_and_columns() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row("r1", &[1.0, 2.0]);
        t.row("row-two", &[3.5, -4.25]);
        let s = t.render();
        assert!(s.contains("row-two"));
        assert!(s.contains("-4.25"));
        let csv = t.to_csv();
        assert!(csv.starts_with("x,a,b\n"));
        assert!(csv.contains("r1,1,2"));
    }

    #[test]
    fn timed_render_is_identical_when_telemetry_is_off() {
        let mut t = TextTable::new("x", &["a"]);
        t.row("r1", &[1.0]);
        let off = TelemetryHandle::disabled();
        assert_eq!(t.render(), t.render_timed(&off));
        let on = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
        let timed = t.render_timed(&on);
        assert!(timed.starts_with(&t.render()));
        assert!(timed.contains("s wall)"), "footer missing: {timed}");
    }

    #[test]
    #[should_panic(expected = "2 columns")]
    fn row_length_checked() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row("r", &[1.0]);
    }
}
