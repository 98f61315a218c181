//! Cross-run changepoint analytics over the history ledger, and the
//! regression gate built on them.
//!
//! [`crate::history`] compares the *latest* record with a trailing
//! window — good for "did this run move", blind to "when did the
//! trend shift". This module adds a std-only changepoint detector that
//! looks at every series (one `(kind, case, threads)` triple) two
//! ways, with one significance check:
//!
//! * [`detect`] (`tsv3d history --detect`, `tsv3d dash`) shows history:
//!   it scans every split of a series and reports the best-fitting
//!   one — **steady**, **improved@rev** or **regressed@rev** — naming
//!   the git revision that started the new regime;
//! * [`gate`] (`tsv3d history --gate-detect`) judges the **newest**
//!   record against up to [`WINDOW_CAP`] records before it, so an old
//!   speed-up cannot mask a new regression and a regression that later
//!   runs confirmed as the new level does not fail every later run.
//!
//! The check behind both (`split_effect`) is a two-window median
//! split with a rank-based significance guard:
//!
//! * a split has at least [`MIN_LEFT`] records before it and
//!   [`MIN_RIGHT`] after it; each side is capped at [`WINDOW_CAP`]
//!   records around the split so ancient history cannot dilute a
//!   recent shift;
//! * its effect is the relative change of the right-window median vs.
//!   the left-window median, and must exceed the threshold;
//! * a rank guard (a Mann–Whitney-style cross-pair count: the fraction
//!   of (left, right) pairs ordered in the effect direction, ties
//!   counted half) must reach [`RANK_FRACTION`] — medians alone would
//!   let one outlier in a short window fake a regime change.
//!
//! Both `median_ns` and `alloc_bytes_per_iter` are judged (records
//! without allocation data simply drop out of that series). Series
//! shorter than [`MIN_SERIES`] records get an **insufficient** verdict
//! — a young ledger is not a regression — which also keeps the gate
//! quiet until there is real history. Everything is a pure function of
//! the ledger text: no clock, no RNG, byte-deterministic output.

use crate::history::{group_records, median_of, HistoryRecord, Ledger};
use crate::json::ObjectWriter;

/// Minimum records on the left (old-regime) side of a candidate split.
pub const MIN_LEFT: usize = 2;
/// Minimum records on the right (new-regime) side of a candidate
/// split. One suffices: a jump at the very last record must be caught
/// the run it lands.
pub const MIN_RIGHT: usize = 1;
/// Records per side a candidate split may consider, so the comparison
/// stays local to the split.
pub const WINDOW_CAP: usize = 8;
/// Minimum records a series needs before any verdict is made.
pub const MIN_SERIES: usize = 5;
/// Fraction of cross-pairs that must be ordered in the effect
/// direction for a split to count as significant (ties count half).
pub const RANK_FRACTION: f64 = 0.9;
/// Default effect-size threshold, percent.
pub const DEFAULT_DETECT_PCT: f64 = 10.0;

/// A detected regime change within one metric series.
#[derive(Debug, Clone, PartialEq)]
pub struct Changepoint {
    /// Index (into the metric's series) of the first new-regime record.
    pub index: usize,
    /// Git revision of the first new-regime record.
    pub git_rev: String,
    /// Timestamp of the first new-regime record.
    pub unix_time_s: u64,
    /// Median of the old-regime window.
    pub before_median: f64,
    /// Median of the new-regime window.
    pub after_median: f64,
    /// Relative change, percent (positive = grew = regressed).
    pub delta_pct: f64,
}

/// Verdict for one metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesVerdict {
    /// No significant regime change found.
    Steady,
    /// The metric dropped (faster / leaner) at the changepoint.
    Improved(Changepoint),
    /// The metric grew (slower / hungrier) at the changepoint.
    Regressed(Changepoint),
    /// Fewer than [`MIN_SERIES`] records: no basis to judge.
    Insufficient,
}

impl SeriesVerdict {
    /// Short machine tag (`steady` / `improved` / `regressed` /
    /// `insufficient`).
    pub fn tag(&self) -> &'static str {
        match self {
            SeriesVerdict::Steady => "steady",
            SeriesVerdict::Improved(_) => "improved",
            SeriesVerdict::Regressed(_) => "regressed",
            SeriesVerdict::Insufficient => "insufficient",
        }
    }

    /// The changepoint, when the verdict carries one.
    pub fn changepoint(&self) -> Option<&Changepoint> {
        match self {
            SeriesVerdict::Improved(cp) | SeriesVerdict::Regressed(cp) => Some(cp),
            _ => None,
        }
    }
}

/// One metric series' analysis: how many points it had and what the
/// detector concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAnalysis {
    /// Points the series contributed (records with the metric present).
    pub points: usize,
    /// The detector's verdict.
    pub verdict: SeriesVerdict,
}

/// Per-series verdicts over both tracked metrics.
#[derive(Debug, Clone)]
pub struct CaseVerdicts {
    /// Record kind (`bench` / `run`).
    pub kind: String,
    /// Case name.
    pub case: String,
    /// Worker-thread count of the series.
    pub threads: u64,
    /// Total ledger records in the series.
    pub runs: usize,
    /// Verdict over `median_ns` (wall time).
    pub wall: SeriesAnalysis,
    /// Verdict over `alloc_bytes_per_iter`.
    pub alloc: SeriesAnalysis,
}

impl CaseVerdicts {
    /// True when either metric regressed — under [`gate`], the
    /// `--gate-detect` failure criterion.
    pub fn regressed(&self) -> bool {
        matches!(self.wall.verdict, SeriesVerdict::Regressed(_))
            || matches!(self.alloc.verdict, SeriesVerdict::Regressed(_))
    }

    /// The series as messages name it: `kind/case (threads N)`.
    pub fn label(&self) -> String {
        series_label(&self.kind, &self.case, self.threads)
    }
}

fn series_label(kind: &str, case: &str, threads: u64) -> String {
    format!("{kind}/{case} (threads {threads})")
}

/// Fraction of `(left, right)` cross-pairs ordered in the direction of
/// `positive` (right greater when `positive`, smaller otherwise), ties
/// counted half.
fn rank_fraction(left: &[f64], right: &[f64], positive: bool) -> f64 {
    let mut score = 0.0;
    for &l in left {
        for &r in right {
            if r == l {
                score += 0.5;
            } else if (r > l) == positive {
                score += 1.0;
            }
        }
    }
    score / (left.len() * right.len()) as f64
}

/// A significant split: `(split_index, before_median, after_median,
/// delta_pct)`.
pub type Split = (usize, f64, f64, f64);

/// The check every split must pass: `(before_median, after_median,
/// delta_pct)` when the `right` median moved more than `threshold_pct`
/// from a positive `left` median and the rank guard agrees on the
/// direction; `None` otherwise.
fn split_effect(left: &[f64], right: &[f64], threshold_pct: f64) -> Option<(f64, f64, f64)> {
    let before = median_of(&mut left.to_vec());
    let after = median_of(&mut right.to_vec());
    if before <= 0.0 {
        return None;
    }
    let delta_pct = (after - before) / before * 100.0;
    // The epsilon keeps a threshold match (110 vs. 100 at 10 %) from
    // flipping on the last ulp of the division.
    let significant = delta_pct.abs() > threshold_pct + 1e-6
        && rank_fraction(left, right, delta_pct > 0.0) >= RANK_FRACTION;
    significant.then_some((before, after, delta_pct))
}

/// Total absolute deviation of `values` from `median`.
fn spread(values: &[f64], median: f64) -> f64 {
    values.iter().map(|v| (v - median).abs()).sum()
}

/// Scans one value series for its best-fitting significant changepoint.
///
/// Among the splits that pass `split_effect`, the one whose two
/// windows lie closest to their own medians (least total absolute
/// deviation) wins, and ties go to the larger effect. A split one
/// record early carries that old-regime record into its new-regime
/// window, so it loses to the true boundary even when its median
/// effect is as large. `None` when the series is steady. Callers are
/// expected to have checked [`MIN_SERIES`] already.
pub fn detect_split(values: &[f64], threshold_pct: f64) -> Option<Split> {
    let n = values.len();
    if n < MIN_LEFT + MIN_RIGHT {
        return None;
    }
    let mut best: Option<(Split, f64)> = None;
    for split in MIN_LEFT..=(n - MIN_RIGHT) {
        let left = &values[split.saturating_sub(WINDOW_CAP)..split];
        let right = &values[split..(split + WINDOW_CAP).min(n)];
        let Some((before, after, delta_pct)) = split_effect(left, right, threshold_pct) else {
            continue;
        };
        let deviation = spread(left, before) + spread(right, after);
        let better = best.is_none_or(|((.., best_delta), best_deviation)| {
            deviation < best_deviation
                || (deviation == best_deviation && delta_pct.abs() > best_delta.abs())
        });
        if better {
            best = Some(((split, before, after, delta_pct), deviation));
        }
    }
    best.map(|(split, _)| split)
}

/// Judges the newest value against up to [`WINDOW_CAP`] values before
/// it with the same `split_effect` check: the split [`gate`] looks at.
fn newest_split(values: &[f64], threshold_pct: f64) -> Option<Split> {
    let newest = values.len().checked_sub(MIN_RIGHT)?;
    if newest < MIN_LEFT {
        return None;
    }
    let left = &values[newest.saturating_sub(WINDOW_CAP)..newest];
    split_effect(left, &values[newest..], threshold_pct)
        .map(|(before, after, delta_pct)| (newest, before, after, delta_pct))
}

/// How a series is searched for its split.
type FindSplit = fn(&[f64], f64) -> Option<Split>;

/// Runs `find` over one metric extracted from a record series.
fn analyze_series(
    records: &[&HistoryRecord],
    metric: impl Fn(&HistoryRecord) -> Option<f64>,
    threshold_pct: f64,
    find: FindSplit,
) -> SeriesAnalysis {
    let series: Vec<(f64, &HistoryRecord)> = records
        .iter()
        .filter_map(|r| metric(r).map(|v| (v, *r)))
        .collect();
    let points = series.len();
    if points < MIN_SERIES {
        return SeriesAnalysis {
            points,
            verdict: SeriesVerdict::Insufficient,
        };
    }
    let values: Vec<f64> = series.iter().map(|(v, _)| *v).collect();
    let verdict = match find(&values, threshold_pct) {
        None => SeriesVerdict::Steady,
        Some((split, before, after, delta_pct)) => {
            let first_new = series[split].1;
            let cp = Changepoint {
                index: split,
                git_rev: first_new.git_rev.clone(),
                unix_time_s: first_new.unix_time_s,
                before_median: before,
                after_median: after,
                delta_pct,
            };
            if delta_pct > 0.0 {
                SeriesVerdict::Regressed(cp)
            } else {
                SeriesVerdict::Improved(cp)
            }
        }
    };
    SeriesAnalysis { points, verdict }
}

/// Judges every series of the ledger with `find`, sorted by series
/// key for stable output.
fn judge(ledger: &Ledger, threshold_pct: f64, find: FindSplit) -> Vec<CaseVerdicts> {
    group_records(ledger)
        .into_iter()
        .map(|((kind, case, threads), records)| CaseVerdicts {
            kind,
            case,
            threads,
            runs: records.len(),
            wall: analyze_series(&records, |r| Some(r.median_ns), threshold_pct, find),
            alloc: analyze_series(&records, |r| r.alloc_bytes_per_iter, threshold_pct, find),
        })
        .collect()
}

/// Shows each series' history: its best-fitting changepoint, whenever
/// it happened.
pub fn detect(ledger: &Ledger, threshold_pct: f64) -> Vec<CaseVerdicts> {
    judge(ledger, threshold_pct, detect_split)
}

/// The regression gate: judges each series' newest record against up
/// to [`WINDOW_CAP`] records before it.
///
/// An allocation window whose median is zero (an allocation-free case)
/// skips that comparison.
///
/// # Errors
///
/// The labels of the series whose gated records (the newest and the
/// window it is judged against) hold a non-positive `median_ns`: a
/// corrupt row that would otherwise disable the gate without a trace.
pub fn gate(ledger: &Ledger, threshold_pct: f64) -> Result<Vec<CaseVerdicts>, Vec<String>> {
    let bad: Vec<String> = group_records(ledger)
        .into_iter()
        .filter(|(_, records)| {
            records.len() >= MIN_SERIES
                && records[records.len().saturating_sub(WINDOW_CAP + 1)..]
                    .iter()
                    .any(|r| r.median_ns <= 0.0)
        })
        .map(|((kind, case, threads), _)| series_label(&kind, &case, threads))
        .collect();
    if bad.is_empty() {
        Ok(judge(ledger, threshold_pct, newest_split))
    } else {
        Err(bad)
    }
}

fn verdict_text(analysis: &SeriesAnalysis) -> String {
    match &analysis.verdict {
        SeriesVerdict::Steady => "steady".to_string(),
        SeriesVerdict::Insufficient => format!("insufficient ({} pts)", analysis.points),
        SeriesVerdict::Improved(cp) => {
            format!("IMPROVED@{} ({:+.1}%)", cp.git_rev, cp.delta_pct)
        }
        SeriesVerdict::Regressed(cp) => {
            format!("REGRESSED@{} ({:+.1}%)", cp.git_rev, cp.delta_pct)
        }
    }
}

/// Renders the verdicts as a fixed-width table.
pub fn render_table(reports: &[CaseVerdicts], threshold_pct: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if reports.is_empty() {
        out.push_str("detect: no records\n");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<5} {:<32} {:>3} {:>5}  {:<34} {:<34} (threshold {:.0}%)",
        "kind", "case", "thr", "runs", "wall_ns", "alloc_bytes_per_iter", threshold_pct
    );
    for report in reports {
        let _ = writeln!(
            out,
            "{:<5} {:<32} {:>3} {:>5}  {:<34} {:<34}",
            report.kind,
            report.case,
            report.threads,
            report.runs,
            verdict_text(&report.wall),
            verdict_text(&report.alloc),
        );
    }
    out
}

fn series_json(analysis: &SeriesAnalysis) -> String {
    let mut w = ObjectWriter::new();
    w.str("verdict", analysis.verdict.tag())
        .u64("points", analysis.points as u64);
    if let Some(cp) = analysis.verdict.changepoint() {
        w.str("git_rev", &cp.git_rev)
            .u64("unix_time_s", cp.unix_time_s)
            .u64("index", cp.index as u64)
            .f64("before_median", cp.before_median)
            .f64("after_median", cp.after_median)
            .f64("delta_pct", cp.delta_pct);
    }
    w.finish()
}

/// Serialises one case's verdicts as a JSON object (shared between the
/// detect report and the dashboard index).
pub fn case_json(report: &CaseVerdicts) -> String {
    let mut w = ObjectWriter::new();
    w.str("kind", &report.kind)
        .str("case", &report.case)
        .u64("threads", report.threads)
        .u64("runs", report.runs as u64)
        .raw("wall_ns", &series_json(&report.wall))
        .raw("alloc_bytes_per_iter", &series_json(&report.alloc));
    w.finish()
}

/// Renders the analysis as one JSON document
/// (`tsv3d-history-detect/v1`).
pub fn render_json(reports: &[CaseVerdicts], ledger: &Ledger, threshold_pct: f64) -> String {
    let docs: Vec<String> = reports.iter().map(case_json).collect();
    let mut w = ObjectWriter::new();
    w.str("schema", "tsv3d-history-detect/v1")
        .f64("threshold_pct", threshold_pct)
        .u64("records", ledger.records.len() as u64)
        .u64("skipped", ledger.skipped as u64)
        .u64(
            "regressed",
            reports.iter().filter(|r| r.regressed()).count() as u64,
        )
        .raw("cases", &format!("[{}]", docs.join(",")));
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};

    fn record(case: &str, t: u64, rev: &str, median: f64, alloc: Option<f64>) -> HistoryRecord {
        HistoryRecord {
            kind: "bench".to_string(),
            case: case.to_string(),
            git_rev: rev.to_string(),
            unix_time_s: t,
            median_ns: median,
            p95_ns: None,
            alloc_bytes_per_iter: alloc,
            wall_s: None,
            threads: 4,
            available_parallelism: None,
        }
    }

    fn ledger_of(medians: &[f64]) -> Ledger {
        let mut ledger = Ledger::default();
        for (i, &m) in medians.iter().enumerate() {
            ledger.records.push(record(
                "case_a",
                i as u64 + 1,
                &format!("rev{i}"),
                m,
                None,
            ));
        }
        ledger
    }

    #[test]
    fn a_jump_at_the_last_record_is_caught() {
        // The seeded regressed-fixture shape: steady then a 2x jump on
        // the newest record. The only significant split is before the
        // final record (earlier splits fail the rank guard).
        let ledger = ledger_of(&[500_000.0, 505_000.0, 495_000.0, 502_000.0, 1_000_000.0]);
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports.len(), 1);
        let cp = match &reports[0].wall.verdict {
            SeriesVerdict::Regressed(cp) => cp,
            other => panic!("expected regressed, got {other:?}"),
        };
        assert_eq!(cp.index, 4);
        assert_eq!(cp.git_rev, "rev4");
        assert!(cp.delta_pct > 90.0, "{}", cp.delta_pct);
        assert!(reports[0].regressed());
    }

    #[test]
    fn a_steady_noisy_series_stays_steady() {
        let ledger = ledger_of(&[1_000_000.0, 1_020_000.0, 990_000.0, 1_005_000.0, 1_010_000.0]);
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports[0].wall.verdict, SeriesVerdict::Steady);
        assert!(!reports[0].regressed());
    }

    #[test]
    fn a_mid_series_improvement_names_the_first_fast_record() {
        let ledger = ledger_of(&[200.0, 198.0, 202.0, 100.0, 101.0, 99.0]);
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        let cp = match &reports[0].wall.verdict {
            SeriesVerdict::Improved(cp) => cp,
            other => panic!("expected improved, got {other:?}"),
        };
        assert_eq!(cp.index, 3);
        assert_eq!(cp.git_rev, "rev3");
        assert!(cp.delta_pct < -45.0, "{}", cp.delta_pct);
    }

    #[test]
    fn short_series_report_insufficient_not_a_verdict() {
        let ledger = ledger_of(&[100.0, 100.0, 100.0, 500.0]);
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports[0].wall.verdict, SeriesVerdict::Insufficient);
        assert!(!reports[0].regressed(), "insufficient must not gate");
    }

    #[test]
    fn one_outlier_fails_the_rank_guard() {
        // A single spike inside a steady series: the best median split
        // would put the spike alone on the right only at its own
        // index, but every split containing it plus steady records
        // fails the cross-pair guard, and the spike-alone split is not
        // the last record here.
        let ledger = ledger_of(&[100.0, 101.0, 99.0, 300.0, 100.0, 101.0, 100.0]);
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(
            reports[0].wall.verdict,
            SeriesVerdict::Steady,
            "one outlier is noise, not a regime change"
        );
    }

    #[test]
    fn detect_split_honors_the_threshold() {
        // A clean +8% step everywhere: significant by rank, but below
        // a 10% threshold.
        let values = [100.0, 100.0, 100.0, 108.0, 108.0, 108.0];
        assert_eq!(detect_split(&values, 10.0), None);
        let hit = detect_split(&values, 5.0).expect("8% step clears a 5% threshold");
        assert_eq!(hit.0, 3);
    }

    #[test]
    fn a_clean_step_reports_its_exact_boundary() {
        let values = [100.0, 101.0, 99.0, 100.0, 250.0, 251.0, 249.0];
        let (split, before, after, delta) = detect_split(&values, 10.0).unwrap();
        assert_eq!(split, 4);
        assert_eq!(before, 100.0);
        assert_eq!(after, 250.0);
        assert!((delta - 150.0).abs() < 1e-9, "{delta}");
    }

    #[test]
    fn stacked_regime_changes_still_flag_a_regression() {
        // Two upward steps: whichever split maximises the effect, the
        // verdict must be regressed and span the overall growth.
        let ledger = ledger_of(&[100.0, 100.0, 200.0, 200.0, 200.0, 1000.0, 1000.0, 1000.0]);
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        let cp = match &reports[0].wall.verdict {
            SeriesVerdict::Regressed(cp) => cp,
            other => panic!("expected regressed, got {other:?}"),
        };
        assert!((2..=5).contains(&cp.index), "{}", cp.index);
        assert!(cp.delta_pct > 100.0, "{}", cp.delta_pct);
    }

    #[test]
    fn the_window_cap_keeps_the_comparison_local() {
        // A long ancient fast era, a recent slower era, then a step.
        // With the cap the step's left window holds only the recent
        // era (before-median 100); uncapped it would reach back into
        // the 90s and misstate the regime it stepped from.
        let mut values = vec![90.0; 10];
        values.extend(vec![100.0; 8]);
        values.extend(vec![150.0; 3]);
        let (split, before, after, _) = detect_split(&values, 10.0).unwrap();
        assert_eq!(split, 18, "the step at index 18 dominates");
        assert_eq!(before, 100.0, "left window capped to the recent era");
        assert_eq!(after, 150.0);
    }

    #[test]
    fn alloc_series_are_scanned_independently() {
        let mut ledger = Ledger::default();
        // Wall time steady; allocation doubles at rev3.
        for (i, alloc) in [4096.0, 4096.0, 4096.0, 8192.0, 8192.0].iter().enumerate() {
            ledger.records.push(record(
                "case_a",
                i as u64 + 1,
                &format!("rev{i}"),
                1_000_000.0,
                Some(*alloc),
            ));
        }
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports[0].wall.verdict, SeriesVerdict::Steady);
        let cp = match &reports[0].alloc.verdict {
            SeriesVerdict::Regressed(cp) => cp,
            other => panic!("expected alloc regression, got {other:?}"),
        };
        assert_eq!(cp.git_rev, "rev3");
        assert!(reports[0].regressed());
    }

    #[test]
    fn records_without_alloc_data_drop_out_of_that_series() {
        let mut ledger = Ledger::default();
        for i in 0..6 {
            ledger.records.push(record(
                "case_a",
                i + 1,
                &format!("rev{i}"),
                1_000_000.0,
                None,
            ));
        }
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert_eq!(reports[0].alloc.points, 0);
        assert_eq!(reports[0].alloc.verdict, SeriesVerdict::Insufficient);
        assert_eq!(reports[0].wall.points, 6);
    }

    #[test]
    fn table_and_json_render_every_group() {
        let mut ledger = ledger_of(&[500.0, 505.0, 495.0, 502.0, 1000.0]);
        for i in 0..2 {
            let mut r = record("young", i + 1, "zzz", 7.0, None);
            r.kind = "run".to_string();
            ledger.records.push(r);
        }
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        let table = render_table(&reports, DEFAULT_DETECT_PCT);
        assert!(table.contains("REGRESSED@rev4"), "{table}");
        assert!(table.contains("insufficient (2 pts)"), "{table}");
        let doc = json::parse(&render_json(&reports, &ledger, DEFAULT_DETECT_PCT)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("tsv3d-history-detect/v1")
        );
        assert_eq!(doc.get("regressed").and_then(JsonValue::as_u64), Some(1));
        let cases = doc.get("cases").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cases.len(), 2);
        let wall = cases[0].get("wall_ns").unwrap();
        assert_eq!(wall.get("verdict").and_then(JsonValue::as_str), Some("regressed"));
        assert_eq!(wall.get("git_rev").and_then(JsonValue::as_str), Some("rev4"));
        assert_eq!(wall.get("index").and_then(JsonValue::as_u64), Some(4));
    }

    /// The verdicts `detect` gives a series of `(rev, median)` pairs.
    fn detect_revs(points: &[(&str, f64)]) -> SeriesVerdict {
        let mut ledger = Ledger::default();
        for (i, (rev, median)) in points.iter().enumerate() {
            ledger
                .records
                .push(record("case_a", i as u64, rev, *median, None));
        }
        detect(&ledger, DEFAULT_DETECT_PCT).remove(0).wall.verdict
    }

    #[test]
    fn a_step_is_named_at_its_first_new_record_not_one_early() {
        // Splitting one record early has the same median effect (+30 %)
        // and passes the rank guard, but leaves a 100 in the new window.
        let revs: Vec<String> = (1..=20).map(|i| format!("r{i}")).collect();
        let points: Vec<(&str, f64)> = revs
            .iter()
            .enumerate()
            .map(|(i, rev)| (rev.as_str(), if i < 4 { 100.0 } else { 130.0 }))
            .collect();
        match detect_revs(&points) {
            SeriesVerdict::Regressed(cp) => {
                assert_eq!((cp.git_rev.as_str(), cp.index), ("r5", 4));
                assert!((cp.delta_pct - 30.0).abs() < 1e-9, "{}", cp.delta_pct);
            }
            other => panic!("expected regressed, got {other:?}"),
        }
    }

    #[test]
    fn the_large_anneal_speed_up_is_named_at_its_first_fast_record() {
        // The committed anneal_large_6x6_serial rows, then eight rows at
        // the last one's median. The largest effect starts at the third
        // c26e2ca row (96.7 ms); the tightest windows start where the
        // speed-up did.
        let mut points = vec![
            ("c26e2ca", 101_480_660.0),
            ("c26e2ca", 99_915_239.0),
            ("c26e2ca", 96_661_511.0),
            ("f0aab8e", 45_866_441.0),
            ("f0aab8e", 18_636_047.0),
        ];
        points.extend([("next", 18_636_047.0); 8]);
        match detect_revs(&points) {
            SeriesVerdict::Improved(cp) => {
                assert_eq!((cp.git_rev.as_str(), cp.index), ("f0aab8e", 3));
            }
            other => panic!("expected improved, got {other:?}"),
        }
    }

    #[test]
    fn empty_ledger_renders_cleanly() {
        let ledger = Ledger::default();
        let reports = detect(&ledger, DEFAULT_DETECT_PCT);
        assert!(reports.is_empty());
        assert!(render_table(&reports, DEFAULT_DETECT_PCT).contains("no records"));
    }
}
