//! Cross-run history ledger: `tsv3d-history/v1` records appended to
//! `results/history.jsonl`, one line per measured case per run.
//!
//! Per-case `BENCH_*.json` artifacts capture one run in depth; the
//! ledger captures the *trajectory* — every `tsv3d bench` invocation
//! and every experiment `run.done` appends a compact summary row
//! (git revision, case, median/p95 wall time, allocated bytes per
//! iteration, thread count, timestamp), and `tsv3d history` turns the
//! accumulated file into per-series trend tables. A series is one
//! `(kind, case, threads)` triple. Regressions are gated by
//! [`crate::analytics::gate`], which judges each series' newest record.
//!
//! Line schema (`tsv3d-history/v1`, one JSON object per line):
//!
//! ```json
//! {"schema":"tsv3d-history/v1","kind":"bench","case":"anneal_quick_3x3",
//!  "git_rev":"c26e2ca","unix_time_s":1754400000,"median_ns":1200000,
//!  "p95_ns":1500000,"alloc_bytes_per_iter":4096,"wall_s":2.5,
//!  "stalls":0,"threads":4,"available_parallelism":2}
//! ```
//!
//! `p95_ns`, `alloc_bytes_per_iter`, `wall_s`, `stalls` and
//! `available_parallelism` are optional (experiment runs report a
//! single wall time; allocation data needs the counting allocator;
//! total wall time and the stall count need a pulse attached; the core
//! count is informational and absent from older rows). Records written
//! before a field existed keep parsing — absent means "not measured",
//! and the trend tables show `-`. The parser follows the same
//! robustness policy as trace analysis: malformed or truncated lines —
//! the expected failure mode of an append-only file under crashes —
//! and lines with a non-finite number are **skipped and counted**,
//! never fatal.

use crate::json::{self, JsonValue, ObjectWriter};
use std::io::Write as _;
use std::path::Path;

/// Schema tag stamped on every ledger line.
pub const HISTORY_SCHEMA: &str = "tsv3d-history/v1";

/// One ledger line: a case summary from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Record source: `bench` (a `tsv3d bench` case) or `run` (an
    /// experiment binary's `run.done`).
    pub kind: String,
    /// Case or binary name.
    pub case: String,
    /// Abbreviated git revision the run was measured at.
    pub git_rev: String,
    /// Seconds since the Unix epoch when the record was appended.
    pub unix_time_s: u64,
    /// Median iteration wall time, ns (total wall time for `run`
    /// records).
    pub median_ns: f64,
    /// p95 iteration wall time, ns, when the run measured one.
    pub p95_ns: Option<f64>,
    /// Median allocated bytes per iteration, when measured.
    pub alloc_bytes_per_iter: Option<f64>,
    /// Total run wall time in seconds, when the run measured one
    /// (experiment runs with a pulse attached).
    pub wall_s: Option<f64>,
    /// Restarts the pulse watchdog flagged stalled at any point
    /// during the run, when a pulse was attached.
    pub stalls: Option<u64>,
    /// Worker-thread count the run was configured with (part of the
    /// series key).
    pub threads: u64,
    /// `std::thread::available_parallelism` of the measuring machine,
    /// when recorded. Informational only: not part of the series key.
    pub available_parallelism: Option<u64>,
}

impl HistoryRecord {
    /// Serialises the record as one ledger line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("schema", HISTORY_SCHEMA)
            .str("kind", &self.kind)
            .str("case", &self.case)
            .str("git_rev", &self.git_rev)
            .u64("unix_time_s", self.unix_time_s)
            .f64("median_ns", self.median_ns);
        if let Some(p95) = self.p95_ns {
            w.f64("p95_ns", p95);
        }
        if let Some(bytes) = self.alloc_bytes_per_iter {
            w.f64("alloc_bytes_per_iter", bytes);
        }
        if let Some(wall) = self.wall_s {
            w.f64("wall_s", wall);
        }
        if let Some(stalls) = self.stalls {
            w.u64("stalls", stalls);
        }
        w.u64("threads", self.threads);
        if let Some(cores) = self.available_parallelism {
            w.u64("available_parallelism", cores);
        }
        w.finish()
    }

    /// Parses one ledger line. `None` for anything unusable: invalid
    /// JSON, a foreign schema tag, missing required fields, or a
    /// non-finite number (`1e400` parses as infinity).
    pub fn parse_line(line: &str) -> Option<Self> {
        let value = json::parse(line).ok()?;
        if value.get("schema")?.as_str()? != HISTORY_SCHEMA
            || value
                .as_object()?
                .values()
                .any(|v| v.as_f64().is_some_and(|x| !x.is_finite()))
        {
            return None;
        }
        Some(Self {
            kind: value.get("kind")?.as_str()?.to_string(),
            case: value.get("case")?.as_str()?.to_string(),
            git_rev: value.get("git_rev")?.as_str()?.to_string(),
            unix_time_s: value.get("unix_time_s")?.as_u64()?,
            median_ns: value.get("median_ns")?.as_f64()?,
            p95_ns: value.get("p95_ns").and_then(JsonValue::as_f64),
            alloc_bytes_per_iter: value
                .get("alloc_bytes_per_iter")
                .and_then(JsonValue::as_f64),
            wall_s: value.get("wall_s").and_then(JsonValue::as_f64),
            stalls: value.get("stalls").and_then(JsonValue::as_u64),
            threads: value.get("threads").and_then(JsonValue::as_u64).unwrap_or(1),
            available_parallelism: value
                .get("available_parallelism")
                .and_then(JsonValue::as_u64),
        })
    }
}

/// A parsed ledger: usable records in file order, plus parse
/// bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Records in append (file) order.
    pub records: Vec<HistoryRecord>,
    /// Non-empty lines seen.
    pub lines: usize,
    /// Lines skipped as malformed/truncated/foreign.
    pub skipped: usize,
}

/// Parses ledger text with the skip-and-count policy.
pub fn parse_ledger(text: &str) -> Ledger {
    let mut ledger = Ledger::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        ledger.lines += 1;
        match HistoryRecord::parse_line(line) {
            Some(record) => ledger.records.push(record),
            None => ledger.skipped += 1,
        }
    }
    ledger
}

/// Appends records to the ledger file, creating parent directories on
/// first use. Append-only: concurrent writers interleave whole lines
/// (each record is written in one `write_all`).
///
/// # Errors
///
/// Any I/O failure creating or writing the file.
pub fn append(path: &Path, records: &[HistoryRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for record in records {
        file.write_all((record.to_json_line() + "\n").as_bytes())?;
    }
    Ok(())
}

/// Trend verdict for one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendStatus {
    /// Latest median compared against a full window.
    Ok,
    /// Fewer than [`MIN_WINDOW`] prior records: no basis to judge.
    InsufficientWindow,
}

/// Minimum prior records required before a trend verdict is made.
pub const MIN_WINDOW: usize = 2;

/// Per-series trend summary: the latest record against the median of
/// up to `window` records before it.
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// Record kind (`bench` / `run`).
    pub kind: String,
    /// Case name.
    pub case: String,
    /// Total records for this group.
    pub runs: usize,
    /// The group's latest record.
    pub latest: HistoryRecord,
    /// Median of the trailing window (absent with an insufficient
    /// window).
    pub window_median_ns: Option<f64>,
    /// Relative change of the latest median vs. the window median, in
    /// percent (positive = slower).
    pub delta_pct: Option<f64>,
    /// Whether the window was long enough to compare against.
    pub status: TrendStatus,
}

/// The median of a non-empty slice (sorted in place).
pub(crate) fn median_of(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A series key: `(kind, case, threads)`. Runs at different
/// `--threads` never share a window.
pub type SeriesKey = (String, String, u64);

/// Groups ledger records into series, preserving append order within
/// each. The `BTreeMap` keying gives every consumer (trend rows,
/// changepoint analytics, dashboard sparklines) the same stable series
/// ordering.
pub fn group_records(
    ledger: &Ledger,
) -> std::collections::BTreeMap<SeriesKey, Vec<&HistoryRecord>> {
    let mut groups: std::collections::BTreeMap<SeriesKey, Vec<&HistoryRecord>> =
        std::collections::BTreeMap::new();
    for record in &ledger.records {
        groups
            .entry((record.kind.clone(), record.case.clone(), record.threads))
            .or_default()
            .push(record);
    }
    groups
}

/// Analyzes a ledger into per-series trend rows, sorted by
/// [`SeriesKey`] for stable output.
///
/// For each group the **latest** record (file order = append order) is
/// compared against the median of up to `window` records immediately
/// before it. Groups with fewer than [`MIN_WINDOW`] prior records get
/// [`TrendStatus::InsufficientWindow`] — a young ledger has no trend.
pub fn analyze(ledger: &Ledger, window: usize) -> Vec<TrendRow> {
    let groups = group_records(ledger);
    let mut rows = Vec::with_capacity(groups.len());
    for ((kind, case, _), records) in groups {
        let latest = records.last().expect("group is non-empty");
        let prior = &records[..records.len() - 1];
        if prior.len() < MIN_WINDOW {
            rows.push(TrendRow {
                kind,
                case,
                runs: records.len(),
                latest: (*latest).clone(),
                window_median_ns: None,
                delta_pct: None,
                status: TrendStatus::InsufficientWindow,
            });
            continue;
        }
        let tail = &prior[prior.len().saturating_sub(window)..];
        let window_median = median_of(&mut tail.iter().map(|r| r.median_ns).collect::<Vec<_>>());
        let delta_pct = if window_median > 0.0 {
            (latest.median_ns - window_median) / window_median * 100.0
        } else {
            0.0
        };
        rows.push(TrendRow {
            kind,
            case,
            runs: records.len(),
            latest: (*latest).clone(),
            window_median_ns: Some(window_median),
            delta_pct: Some(delta_pct),
            status: TrendStatus::Ok,
        });
    }
    rows
}

/// Renders the trend rows as a fixed-width table.
pub fn render_table(rows: &[TrendRow], window: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("history: no records\n");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<5} {:<32} {:>3} {:>5} {:>14} {:>14} {:>9} {:>8} {:>6}  trend(vs last {})",
        "kind",
        "case",
        "thr",
        "runs",
        "latest ns",
        "window ns",
        "delta",
        "wall s",
        "stalls",
        window
    );
    for row in rows {
        let (window_text, delta_text, verdict) = match row.status {
            TrendStatus::InsufficientWindow => (
                "-".to_string(),
                "-".to_string(),
                "insufficient window".to_string(),
            ),
            TrendStatus::Ok => (
                format!("{:.0}", row.window_median_ns.unwrap_or(0.0)),
                format!("{:+.1}%", row.delta_pct.unwrap_or(0.0)),
                "ok".to_string(),
            ),
        };
        let wall_text = row
            .latest
            .wall_s
            .map_or_else(|| "-".to_string(), |w| format!("{w:.1}"));
        let stalls_text = row
            .latest
            .stalls
            .map_or_else(|| "-".to_string(), |s| s.to_string());
        let _ = writeln!(
            out,
            "{:<5} {:<32} {:>3} {:>5} {:>14.0} {:>14} {:>9} {:>8} {:>6}  {}",
            row.kind,
            row.case,
            row.latest.threads,
            row.runs,
            row.latest.median_ns,
            window_text,
            delta_text,
            wall_text,
            stalls_text,
            verdict
        );
    }
    out
}

/// Renders the analysis as one JSON document
/// (`tsv3d-history-report/v1`).
pub fn render_json(rows: &[TrendRow], ledger: &Ledger, window: usize) -> String {
    let row_docs: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut w = ObjectWriter::new();
            w.str("kind", &row.kind)
                .str("case", &row.case)
                .u64("threads", row.latest.threads)
                .u64("runs", row.runs as u64)
                .f64("latest_median_ns", row.latest.median_ns)
                .str("git_rev", &row.latest.git_rev)
                .u64("unix_time_s", row.latest.unix_time_s)
                .f64("window_median_ns", row.window_median_ns.unwrap_or(f64::NAN))
                .f64("delta_pct", row.delta_pct.unwrap_or(f64::NAN))
                .f64("wall_s", row.latest.wall_s.unwrap_or(f64::NAN))
                .f64(
                    "stalls",
                    row.latest.stalls.map_or(f64::NAN, |s| s as f64),
                )
                .str(
                    "status",
                    match row.status {
                        TrendStatus::Ok => "ok",
                        TrendStatus::InsufficientWindow => "insufficient_window",
                    },
                );
            w.finish()
        })
        .collect();
    let mut w = ObjectWriter::new();
    w.str("schema", "tsv3d-history-report/v1")
        .u64("window", window as u64)
        .u64("records", ledger.records.len() as u64)
        .u64("skipped", ledger.skipped as u64)
        .raw("cases", &format!("[{}]", row_docs.join(",")));
    w.finish()
}

/// Serialises the most recent `limit` ledger records as a JSON array —
/// the `/runs` endpoint body (newest first).
pub fn runs_json(ledger: &Ledger, limit: usize) -> String {
    let docs: Vec<String> = ledger
        .records
        .iter()
        .rev()
        .take(limit)
        .map(|r| r.to_json_line())
        .collect();
    format!("[{}]\n", docs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(case: &str, t: u64, median: f64) -> HistoryRecord {
        HistoryRecord {
            kind: "bench".to_string(),
            case: case.to_string(),
            git_rev: "abc1234".to_string(),
            unix_time_s: t,
            median_ns: median,
            p95_ns: Some(median * 1.2),
            alloc_bytes_per_iter: Some(4096.0),
            wall_s: Some(2.5),
            stalls: Some(0),
            threads: 4,
            available_parallelism: Some(2),
        }
    }

    #[test]
    fn record_round_trips_through_its_line_format() {
        let original = record("anneal_quick_3x3", 1_754_400_000, 1.25e6);
        let parsed = HistoryRecord::parse_line(&original.to_json_line()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn optional_fields_stay_absent_through_the_round_trip() {
        let original = HistoryRecord {
            kind: "run".to_string(),
            case: "fig3_heterogeneous".to_string(),
            git_rev: "unknown".to_string(),
            unix_time_s: 7,
            median_ns: 2.5e9,
            p95_ns: None,
            alloc_bytes_per_iter: None,
            wall_s: None,
            stalls: None,
            threads: 1,
            available_parallelism: None,
        };
        let line = original.to_json_line();
        assert!(!line.contains("p95_ns"), "{line}");
        assert!(!line.contains("alloc_bytes_per_iter"), "{line}");
        assert!(!line.contains("wall_s"), "{line}");
        assert!(!line.contains("stalls"), "{line}");
        assert!(!line.contains("available_parallelism"), "{line}");
        assert_eq!(HistoryRecord::parse_line(&line).unwrap(), original);
    }

    #[test]
    fn records_written_before_wall_and_stall_fields_still_parse() {
        // A verbatim pre-pulse ledger line: no wall_s, no stalls.
        let line = "{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
                    \"case\":\"anneal_quick_3x3\",\"git_rev\":\"c26e2ca\",\
                    \"unix_time_s\":1754400000,\"median_ns\":1200000,\
                    \"p95_ns\":1500000,\"alloc_bytes_per_iter\":4096,\
                    \"threads\":4}";
        let parsed = HistoryRecord::parse_line(line).expect("old records parse");
        assert_eq!(parsed.wall_s, None);
        assert_eq!(parsed.stalls, None);
        assert_eq!(parsed.available_parallelism, None);
        assert_eq!(parsed.median_ns, 1.2e6);
        // And the trend table shows `-` for the unmeasured columns.
        let mut ledger = Ledger::default();
        for _ in 0..3 {
            ledger.records.push(parsed.clone());
        }
        let table = render_table(&analyze(&ledger, 5), 5);
        let row = table.lines().nth(1).expect("one data row");
        assert!(row.contains(" - "), "{table}");
    }

    #[test]
    fn wall_and_stall_fields_round_trip_and_render() {
        let original = record("pulse_case", 9, 1e6);
        let line = original.to_json_line();
        assert!(line.contains("\"wall_s\":2.5"), "{line}");
        assert!(line.contains("\"stalls\":0"), "{line}");
        assert_eq!(HistoryRecord::parse_line(&line).unwrap(), original);
        let mut ledger = Ledger::default();
        for t in 1..=3 {
            let mut r = record("pulse_case", t, 1e6);
            r.stalls = Some(2);
            ledger.records.push(r);
        }
        let table = render_table(&analyze(&ledger, 5), 5);
        assert!(table.contains("2.5"), "{table}");
        let row = table.lines().nth(1).expect("one data row");
        assert!(row.contains(" 2  "), "stall count rendered:\n{table}");
    }

    #[test]
    fn foreign_schema_and_junk_lines_are_rejected() {
        assert!(HistoryRecord::parse_line("not json").is_none());
        assert!(HistoryRecord::parse_line("{\"schema\":\"other/v1\"}").is_none());
        // Truncated mid-object — the crash-mid-append shape.
        let full = record("x", 1, 10.0).to_json_line();
        assert!(HistoryRecord::parse_line(&full[..full.len() / 2]).is_none());
    }

    #[test]
    fn non_finite_numbers_make_a_line_malformed() {
        let line = |median: &str, p95: &str, threads: &str| {
            format!(
                "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\"case\":\"x\",\
                 \"git_rev\":\"r\",\"unix_time_s\":1,\"median_ns\":{median},\
                 \"p95_ns\":{p95},\"threads\":{threads}}}"
            )
        };
        assert!(HistoryRecord::parse_line(&line("10", "12", "4")).is_some());
        for bad in [
            line("1e400", "12", "4"),
            line("10", "-1e400", "4"),
            line("10", "12", "1e999"),
        ] {
            assert!(HistoryRecord::parse_line(&bad).is_none(), "{bad}");
        }
        let text = format!("{}\n{}\n", line("10", "12", "4"), line("1e400", "12", "4"));
        let ledger = parse_ledger(&text);
        assert_eq!(
            (ledger.lines, ledger.records.len(), ledger.skipped),
            (2, 1, 1)
        );
    }

    #[test]
    fn ledger_parsing_skips_and_counts() {
        let mut text = String::new();
        text.push_str(&(record("a", 1, 10.0).to_json_line() + "\n"));
        text.push_str("garbage line\n");
        text.push('\n'); // blank lines are not counted at all
        text.push_str(&(record("a", 2, 11.0).to_json_line() + "\n"));
        // Truncated trailing line (no newline).
        let tail = record("a", 3, 12.0).to_json_line();
        text.push_str(&tail[..tail.len() - 5]);
        let ledger = parse_ledger(&text);
        assert_eq!(ledger.records.len(), 2);
        assert_eq!(ledger.lines, 4);
        assert_eq!(ledger.skipped, 2);
    }

    #[test]
    fn append_creates_and_extends_the_file() {
        let dir = std::env::temp_dir().join(format!(
            "tsv3d_history_append_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("history.jsonl");
        append(&path, &[record("a", 1, 10.0)]).unwrap();
        append(&path, &[record("a", 2, 11.0), record("b", 2, 20.0)]).unwrap();
        let ledger = parse_ledger(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(ledger.records.len(), 3);
        assert_eq!(ledger.skipped, 0);
        assert_eq!(ledger.records[2].case, "b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_flags_a_regression_beyond_the_threshold() {
        let mut ledger = Ledger::default();
        for (t, median) in [(1, 100.0), (2, 102.0), (3, 98.0), (4, 150.0)] {
            ledger.records.push(record("case_a", t, median));
        }
        let rows = analyze(&ledger, 5);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.status, TrendStatus::Ok);
        assert_eq!(row.window_median_ns, Some(100.0));
        // 150 vs median(100, 102, 98) = 100 → +50%, well past a 10% gate.
        assert!((row.delta_pct.unwrap() - 50.0).abs() < 1e-9);
        assert!(row.delta_pct.unwrap() > 10.0);
        let table = render_table(&rows, 5);
        assert!(table.contains("+50.0%") && table.contains(" ok"), "{table}");
    }

    #[test]
    fn analyze_passes_within_the_threshold() {
        let mut ledger = Ledger::default();
        for (t, median) in [(1, 100.0), (2, 102.0), (3, 104.0)] {
            ledger.records.push(record("case_a", t, median));
        }
        let rows = analyze(&ledger, 5);
        assert_eq!(rows[0].status, TrendStatus::Ok);
        assert_eq!(rows[0].window_median_ns, Some(101.0));
        // 104 vs median(100, 102) = 101 → ~+3%.
        assert!(rows[0].delta_pct.unwrap() < 10.0);
    }

    #[test]
    fn analyze_reports_insufficient_window_for_young_groups() {
        let mut ledger = Ledger::default();
        ledger.records.push(record("young", 1, 100.0));
        ledger.records.push(record("young", 2, 500.0)); // 1 prior < MIN_WINDOW
        let rows = analyze(&ledger, 5);
        assert_eq!(rows[0].status, TrendStatus::InsufficientWindow);
        assert_eq!(rows[0].window_median_ns, None);
    }

    #[test]
    fn analyze_windows_only_the_trailing_records() {
        let mut ledger = Ledger::default();
        // Old slow era, then a fast era; window 3 must only see the
        // fast era, so a latest of 12 vs median(10, 10, 10) is +20 %
        // even though the all-time median is much higher.
        for (t, median) in
            [(1, 1000.0), (2, 1000.0), (3, 10.0), (4, 10.0), (5, 10.0), (6, 12.0)]
        {
            ledger.records.push(record("case_a", t, median));
        }
        let rows = analyze(&ledger, 3);
        assert_eq!(rows[0].window_median_ns, Some(10.0));
        assert!((rows[0].delta_pct.unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn groups_are_keyed_by_kind_and_case() {
        let mut ledger = Ledger::default();
        for t in 1..=3 {
            ledger.records.push(record("same_name", t, 100.0));
            let mut run = record("same_name", t, 9e9);
            run.kind = "run".to_string();
            ledger.records.push(run);
        }
        let rows = analyze(&ledger, 5);
        assert_eq!(rows.len(), 2, "bench and run groups stay separate");
        assert_eq!(rows[0].kind, "bench");
        assert_eq!(rows[1].kind, "run");
    }

    #[test]
    fn thread_counts_split_a_case_into_series() {
        let mut ledger = Ledger::default();
        for t in 1..=3 {
            ledger.records.push(record("pool", t, 100.0));
            let mut two = record("pool", t, 300.0);
            two.threads = 2;
            two.available_parallelism = Some(8);
            ledger.records.push(two);
        }
        let rows = analyze(&ledger, 5);
        assert_eq!(rows.len(), 2, "threads 2 and 4 never share a window");
        assert_eq!((rows[0].latest.threads, rows[0].delta_pct), (2, Some(0.0)));
        assert_eq!((rows[1].latest.threads, rows[1].delta_pct), (4, Some(0.0)));
        // The core count is informational: it never splits a series.
        assert_eq!(group_records(&ledger).len(), 2);
        let table = render_table(&rows, 5);
        assert!(table.contains(" thr "), "{table}");
    }

    #[test]
    fn table_and_json_render_every_group() {
        let mut ledger = Ledger::default();
        for (t, median) in [(1, 100.0), (2, 100.0), (3, 100.0)] {
            ledger.records.push(record("steady", t, median));
        }
        ledger.records.push(record("fresh", 4, 50.0));
        let rows = analyze(&ledger, 5);
        let table = render_table(&rows, 5);
        assert!(table.contains("steady"), "{table}");
        assert!(table.contains("insufficient window"), "{table}");
        let doc = json::parse(&render_json(&rows, &ledger, 5)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("tsv3d-history-report/v1")
        );
        let cases = doc.get("cases").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cases.len(), 2);
        // Sorted by (kind, case): fresh before steady.
        assert_eq!(
            cases[0].get("case").and_then(JsonValue::as_str),
            Some("fresh")
        );
        assert_eq!(
            cases[0].get("status").and_then(JsonValue::as_str),
            Some("insufficient_window")
        );
    }

    #[test]
    fn runs_json_is_newest_first_and_bounded() {
        let mut ledger = Ledger::default();
        for t in 1..=5 {
            ledger.records.push(record("a", t, t as f64));
        }
        let body = runs_json(&ledger, 3);
        let doc = json::parse(body.trim()).unwrap();
        let rows = doc.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("unix_time_s").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(rows[2].get("unix_time_s").and_then(JsonValue::as_u64), Some(3));
    }

    #[test]
    fn empty_ledger_renders_cleanly() {
        let ledger = Ledger::default();
        let rows = analyze(&ledger, 5);
        assert!(rows.is_empty());
        assert!(render_table(&rows, 5).contains("no records"));
        assert_eq!(runs_json(&ledger, 10), "[]\n");
    }
}
