//! Cross-run history ledger: `tsv3d-history/v1` records appended to
//! `results/history.jsonl`, one line per measured case per run.
//!
//! Per-case `BENCH_*.json` artifacts capture one run in depth; the
//! ledger captures the *trajectory* — every `tsv3d bench` invocation
//! appends a compact summary row per case (git revision, case,
//! median/p95 wall time, allocated bytes per iteration, thread count,
//! timestamp). A series is one `(kind, case, threads)` triple, and
//! [`crate::analytics`] judges each series' newest record: the verdict
//! `tsv3d history` prints and `--gate-detect` gates on.
//!
//! Line schema (`tsv3d-history/v1`, one JSON object per line):
//!
//! ```json
//! {"schema":"tsv3d-history/v1","kind":"bench","case":"anneal_quick_3x3",
//!  "git_rev":"c26e2ca","unix_time_s":1754400000,"median_ns":1200000,
//!  "p95_ns":1500000,"alloc_bytes_per_iter":4096,"threads":4,
//!  "available_parallelism":2}
//! ```
//!
//! `p95_ns`, `alloc_bytes_per_iter` and `available_parallelism` are
//! optional (allocation data needs the counting allocator; the core
//! count is informational and absent from older rows). Records written
//! before a field existed keep parsing — absent means "not measured";
//! keys the schema no longer writes, such as older rows' `stalls` and
//! total wall time, are ignored, and older `kind:"run"` rows from
//! experiment binaries form series of their own. The parser follows
//! the same robustness policy as trace analysis: malformed or truncated
//! lines — the expected failure mode of an append-only file under
//! crashes — and lines with a non-finite number are **skipped and
//! counted**, never fatal.

use crate::json::{self, JsonValue, ObjectWriter};
use std::io::Write as _;
use std::path::Path;

/// Schema tag stamped on every ledger line.
pub const HISTORY_SCHEMA: &str = "tsv3d-history/v1";

/// One ledger line: a case summary from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Record source: `bench` (a `tsv3d bench` case); older ledgers
    /// also hold `run` rows from experiment binaries.
    pub kind: String,
    /// Case or binary name.
    pub case: String,
    /// Abbreviated git revision the run was measured at.
    pub git_rev: String,
    /// Seconds since the Unix epoch when the record was appended.
    pub unix_time_s: u64,
    /// Median iteration wall time, ns (total wall time for older `run`
    /// records).
    pub median_ns: f64,
    /// p95 iteration wall time, ns, when the run measured one.
    pub p95_ns: Option<f64>,
    /// Median allocated bytes per iteration, when measured.
    pub alloc_bytes_per_iter: Option<f64>,
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
            threads: value
                .get("threads")
                .and_then(JsonValue::as_u64)
                .unwrap_or(1),
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

/// A series key: `(kind, case, threads)`. Runs at different
/// `--threads` never share a window.
pub type SeriesKey = (String, String, u64);

/// Groups ledger records into series, preserving append order within
/// each. The `BTreeMap` keying gives every consumer (changepoint
/// analytics, dashboard sparklines) the same stable series ordering.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::{self, SeriesVerdict, DEFAULT_DETECT_PCT};

    fn record(case: &str, t: u64, median: f64) -> HistoryRecord {
        HistoryRecord {
            kind: "bench".to_string(),
            case: case.to_string(),
            git_rev: "abc1234".to_string(),
            unix_time_s: t,
            median_ns: median,
            p95_ns: Some(median * 1.2),
            alloc_bytes_per_iter: Some(4096.0),
            threads: 4,
            available_parallelism: Some(2),
        }
    }

    /// A ledger of one `case` series, one record per median.
    fn ledger_of(case: &str, medians: &[f64]) -> Ledger {
        let mut ledger = Ledger::default();
        for (t, &median) in medians.iter().enumerate() {
            ledger.records.push(record(case, t as u64 + 1, median));
        }
        ledger
    }

    /// The table `tsv3d history` prints for `ledger`.
    fn view(ledger: &Ledger) -> String {
        analytics::render_table(
            &analytics::judge_newest(ledger, DEFAULT_DETECT_PCT),
            DEFAULT_DETECT_PCT,
        )
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
            threads: 1,
            available_parallelism: None,
        };
        let line = original.to_json_line();
        assert!(!line.contains("p95_ns"), "{line}");
        assert!(!line.contains("alloc_bytes_per_iter"), "{line}");
        assert!(!line.contains("available_parallelism"), "{line}");
        assert_eq!(HistoryRecord::parse_line(&line).unwrap(), original);
    }

    #[test]
    fn records_written_before_wall_and_stall_fields_still_parse() {
        // A verbatim ledger line from before the core count was recorded.
        let line = "{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
                    \"case\":\"anneal_quick_3x3\",\"git_rev\":\"c26e2ca\",\
                    \"unix_time_s\":1754400000,\"median_ns\":1200000,\
                    \"p95_ns\":1500000,\"alloc_bytes_per_iter\":4096,\
                    \"threads\":4}";
        let parsed = HistoryRecord::parse_line(line).expect("old records parse");
        assert_eq!(parsed.available_parallelism, None);
        assert_eq!(parsed.median_ns, 1.2e6);
        // And such records are judged on both metrics.
        let mut ledger = Ledger::default();
        for _ in 0..5 {
            ledger.records.push(parsed.clone());
        }
        let table = view(&ledger);
        let row = table.lines().nth(1).expect("one data row");
        assert_eq!(row.matches("steady (+0.0%)").count(), 2, "{table}");

        // Experiment-binary `run` rows that carry their total wall time,
        // some with the old `stalls` field too, parse to the same records,
        // and gate the same, as rows without them.
        let ledger_text = |extra: &str| -> String {
            [1.0e6, 1.0e6, 1.0e6, 1.0e6, 1.0e6, 2.0e6]
                .iter()
                .enumerate()
                .map(|(i, median)| {
                    format!(
                        "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"run\",\
                         \"case\":\"fig3_gaussian\",\"git_rev\":\"r{i}\",\
                         \"unix_time_s\":{i},\"median_ns\":{median}{extra},\
                         \"threads\":1}}\n"
                    )
                })
                .collect()
        };
        let old = parse_ledger(&ledger_text(",\"wall_s\":2.5,\"stalls\":3"));
        let wall = parse_ledger(&ledger_text(",\"wall_s\":2.5"));
        let new = parse_ledger(&ledger_text(""));
        assert_eq!((old.skipped, wall.skipped, new.skipped), (0, 0, 0));
        assert_eq!(old.records, new.records);
        assert_eq!(wall.records, new.records);
        let regressed = |ledger: &Ledger| {
            analytics::gate(ledger, 10.0)
                .expect("positive medians")
                .iter()
                .filter(|v| v.regressed())
                .count()
        };
        assert_eq!((regressed(&old), regressed(&new)), (1, 1));
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
        let dir = std::env::temp_dir().join(format!("tsv3d_history_append_{}", std::process::id()));
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
        // 150 vs median(100, 102, 98, 100) = 100 → +50 %, well past a
        // 10 % gate.
        let ledger = ledger_of("case_a", &[100.0, 102.0, 98.0, 100.0, 150.0]);
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        assert!(reports[0].regressed());
        assert_eq!(reports[0].wall.newest, Some((4, 100.0, 150.0, 50.0)));
        let table = view(&ledger);
        assert!(table.contains("REGRESSED@abc1234 (+50.0%)"), "{table}");
    }

    #[test]
    fn analyze_passes_within_the_threshold() {
        // 104 vs median(100, 102, 100, 102) = 101 → ~+3 %: steady, and
        // the cell still shows the delta.
        let ledger = ledger_of("case_a", &[100.0, 102.0, 100.0, 102.0, 104.0]);
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports[0].wall.verdict, SeriesVerdict::Steady);
        let (.., before, after, delta_pct) = reports[0].wall.newest.expect("a positive window");
        assert_eq!((before, after), (101.0, 104.0));
        assert!((delta_pct - 300.0 / 101.0).abs() < 1e-9, "{delta_pct}");
        let table = view(&ledger);
        assert!(table.contains("steady (+3.0%)"), "{table}");
    }

    #[test]
    fn analyze_reports_insufficient_window_for_young_groups() {
        // Four records, one short of a verdict, even at 5x.
        let ledger = ledger_of("young", &[100.0, 100.0, 100.0, 500.0]);
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports[0].wall.verdict, SeriesVerdict::Insufficient);
        assert_eq!(reports[0].wall.newest, None);
        assert!(!reports[0].regressed());
        assert!(view(&ledger).contains("insufficient (4 pts)"));
    }

    #[test]
    fn analyze_windows_only_the_trailing_records() {
        // Old slow era, then a fast era of eight records; the window
        // must only see the fast era, so a newest 12 vs median(10 × 8)
        // is +20 % even though the all-time median is much higher.
        let mut medians = vec![1000.0; 3];
        medians.extend([10.0; 8]);
        medians.push(12.0);
        let ledger = ledger_of("case_a", &medians);
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        let (.., before, _, delta_pct) = reports[0].wall.newest.unwrap();
        assert_eq!(before, 10.0);
        assert!((delta_pct - 20.0).abs() < 1e-9, "{delta_pct}");
    }

    #[test]
    fn groups_are_keyed_by_kind_and_case() {
        let mut ledger = Ledger::default();
        for t in 1..=5 {
            ledger.records.push(record("same_name", t, 100.0));
            let mut run = record("same_name", t, 9e9);
            run.kind = "run".to_string();
            ledger.records.push(run);
        }
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports.len(), 2, "bench and run groups stay separate");
        assert_eq!(reports[0].kind, "bench");
        assert_eq!(reports[1].kind, "run");
        assert!(reports
            .iter()
            .all(|r| r.wall.verdict == SeriesVerdict::Steady));
    }

    #[test]
    fn thread_counts_split_a_case_into_series() {
        let mut ledger = Ledger::default();
        for t in 1..=5 {
            ledger.records.push(record("pool", t, 100.0));
            let mut two = record("pool", t, 300.0);
            two.threads = 2;
            two.available_parallelism = Some(8);
            ledger.records.push(two);
        }
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports.len(), 2, "threads 2 and 4 never share a window");
        for (report, (threads, before)) in reports.iter().zip([(2, 300.0), (4, 100.0)]) {
            assert_eq!(report.threads, threads);
            assert_eq!(report.wall.newest, Some((4, before, before, 0.0)));
        }
        // The core count is informational: it never splits a series.
        assert_eq!(group_records(&ledger).len(), 2);
        let table = view(&ledger);
        assert!(table.contains(" thr "), "{table}");
    }

    #[test]
    fn table_and_json_render_every_group() {
        let mut ledger = ledger_of("steady", &[100.0; 5]);
        ledger.records.push(record("fresh", 6, 50.0));
        let reports = analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT);
        let table = view(&ledger);
        assert!(table.contains("steady (+0.0%)"), "{table}");
        assert!(table.contains("insufficient (1 pts)"), "{table}");
        let pct = DEFAULT_DETECT_PCT;
        let doc = json::parse(&analytics::render_json(&reports, &ledger, pct)).unwrap();
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        assert_eq!(schema, Some("tsv3d-history-detect/v1"));
        // Sorted by (kind, case): fresh before steady. Only the steady
        // series carries its newest record's split.
        let cases = doc.get("cases").and_then(JsonValue::as_array).unwrap();
        let wall = |i: usize, key| -> Option<f64> { cases[i].get("wall_ns")?.get(key)?.as_f64() };
        let fresh = cases[0].get("case").and_then(JsonValue::as_str);
        let split = (
            wall(0, "delta_pct"),
            wall(1, "before_median"),
            wall(1, "delta_pct"),
        );
        assert_eq!(
            (fresh, split),
            (Some("fresh"), (None, Some(100.0), Some(0.0)))
        );
    }

    #[test]
    fn empty_ledger_renders_cleanly() {
        let ledger = Ledger::default();
        assert!(analytics::judge_newest(&ledger, DEFAULT_DETECT_PCT).is_empty());
        assert!(view(&ledger).contains("no records"));
    }
}
