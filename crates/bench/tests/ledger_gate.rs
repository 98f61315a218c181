//! The ledger regression gate (`tsv3d history --gate-detect`): each
//! series' newest record judged against up to eight records before it,
//! on wall time and allocated bytes, with the BAD-BASELINE contract for
//! unusable rows.

use tsv3d_bench::analytics::{detect, gate, render_table, CaseVerdicts, SeriesVerdict};
use tsv3d_bench::history::{parse_ledger, HistoryRecord, Ledger};

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

/// A `case` series: one `(median, alloc)` point per record, revs
/// `rev0`, `rev1`, ….
fn series(case: &str, points: &[(f64, Option<f64>)]) -> Vec<HistoryRecord> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(median, alloc))| record(case, i as u64 + 1, &format!("rev{i}"), median, alloc))
        .collect()
}

/// Five records at `median`/`alloc`, then `newest`.
fn steady_then(
    case: &str,
    median: f64,
    alloc: Option<f64>,
    newest: (f64, Option<f64>),
) -> Vec<HistoryRecord> {
    let mut points = vec![(median, alloc); 5];
    points.push(newest);
    series(case, &points)
}

fn gate_of(records: Vec<HistoryRecord>, threshold_pct: f64) -> Vec<CaseVerdicts> {
    gate(
        &Ledger {
            records,
            ..Ledger::default()
        },
        threshold_pct,
    )
    .expect("a usable ledger")
}

#[test]
fn regression_beyond_threshold_fails_the_gate() {
    let mut records = steady_then("a", 100.0, None, (130.0, None));
    records.extend(steady_then("b", 100.0, None, (100.0, None)));
    let reports = gate_of(records, 10.0);
    assert!(reports[0].regressed());
    match &reports[0].wall.verdict {
        SeriesVerdict::Regressed(cp) => {
            assert_eq!(cp.git_rev, "rev5");
            assert!((cp.delta_pct - 30.0).abs() < 1e-9, "{}", cp.delta_pct);
        }
        other => panic!("expected regressed, got {other:?}"),
    }
    assert!(!reports[1].regressed());
}

#[test]
fn improvement_and_within_threshold_pass() {
    let mut records = steady_then("a", 100.0, None, (70.0, None));
    records.extend(steady_then("b", 100.0, None, (105.0, None)));
    let reports = gate_of(records, 10.0);
    assert!(reports.iter().all(|r| !r.regressed()));
    match &reports[0].wall.verdict {
        SeriesVerdict::Improved(cp) => assert!((cp.delta_pct + 30.0).abs() < 1e-9),
        other => panic!("expected improved, got {other:?}"),
    }
    assert_eq!(reports[1].wall.verdict, SeriesVerdict::Steady);
}

#[test]
fn unmatched_cases_are_informational_only() {
    // A new case with two records is insufficient even at 5x, and a
    // case that stopped appearing is judged at its own newest record.
    let mut records = series("new_case", &[(100.0, None), (500.0, None)]);
    records.extend(steady_then("old_case", 100.0, None, (101.0, None)));
    let reports = gate_of(records, 10.0);
    assert_eq!(reports[0].case, "new_case");
    assert_eq!(reports[0].wall.verdict, SeriesVerdict::Insufficient);
    assert_eq!(reports[1].wall.verdict, SeriesVerdict::Steady);
    assert!(reports.iter().all(|r| !r.regressed()));
    assert!(render_table(&reports, 10.0).contains("insufficient (2 pts)"));
}

#[test]
fn zero_baseline_median_is_flagged_not_silently_skipped() {
    let mut records = steady_then("a", 100.0, None, (100.0, None));
    records[2].median_ns = 0.0;
    records.extend(steady_then("b", 50.0, None, (50.0, None)));
    let ledger = Ledger {
        records,
        ..Ledger::default()
    };
    assert_eq!(
        gate(&ledger, 10.0).unwrap_err(),
        vec!["bench/a (threads 4)".to_string()]
    );
    // A negative newest median is just as unusable.
    let records = steady_then("c", 100.0, None, (-1.0, None));
    assert!(gate(
        &Ledger {
            records,
            ..Ledger::default()
        },
        10.0
    )
    .is_err());
    // History still renders: the detector skips splits it cannot price.
    assert_eq!(detect(&ledger, 10.0).len(), 2);
}

#[test]
fn missing_baseline_rows_are_not_invalid() {
    // A series too young to gate is not judged at all, zero or not.
    let records = series("young", &[(0.0, None), (100.0, None), (100.0, None)]);
    let reports = gate_of(records, 10.0);
    assert_eq!(reports[0].wall.verdict, SeriesVerdict::Insufficient);
}

#[test]
fn non_finite_baseline_median_is_invalid() {
    // `1e400` parses as infinity: the ledger line is skipped and
    // counted, and the gate judges the records around it.
    let line = |median: &str| {
        format!(
            "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\"case\":\"a\",\
             \"git_rev\":\"r\",\"unix_time_s\":1,\"median_ns\":{median},\"threads\":4}}\n"
        )
    };
    let mut text = line("100").repeat(5);
    text.push_str(&line("1e400"));
    text.push_str(&line("100"));
    let ledger = parse_ledger(&text);
    assert_eq!((ledger.records.len(), ledger.skipped), (6, 1));
    let reports = gate(&ledger, 10.0).expect("the infinite row never reaches the gate");
    assert_eq!(reports[0].wall.verdict, SeriesVerdict::Steady);
}

#[test]
fn exact_threshold_is_not_a_regression() {
    let reports = gate_of(steady_then("a", 100.0, None, (110.0, None)), 10.0);
    assert_eq!(reports[0].wall.verdict, SeriesVerdict::Steady);
    let reports = gate_of(steady_then("a", 100.0, None, (110.01, None)), 10.0);
    assert!(reports[0].regressed(), "strictly-greater-than semantics");
}

#[test]
fn render_includes_all_columns() {
    let reports = gate_of(steady_then("fast_case", 100.0, None, (90.0, None)), 5.0);
    let table = render_table(&reports, 5.0);
    for column in [
        "kind",
        "case",
        "thr",
        "runs",
        "wall_ns",
        "alloc_bytes_per_iter",
    ] {
        assert!(table.contains(column), "{column}: {table}");
    }
    assert!(table.contains("fast_case"), "{table}");
    assert!(table.contains("IMPROVED@rev5 (-10.0%)"), "{table}");
    // No allocation data: that column reads insufficient.
    assert!(table.contains("insufficient (0 pts)"), "{table}");
}

#[test]
fn mem_regression_beyond_threshold_fails_the_gate() {
    let mut records = steady_then("a", 100.0, Some(1000.0), (100.0, Some(2000.0)));
    records.extend(steady_then("b", 100.0, Some(1000.0), (100.0, Some(1000.0))));
    let reports = gate_of(records, 20.0);
    assert_eq!(
        reports[0].wall.verdict,
        SeriesVerdict::Steady,
        "time is unchanged"
    );
    match &reports[0].alloc.verdict {
        SeriesVerdict::Regressed(cp) => assert!((cp.delta_pct - 100.0).abs() < 1e-9),
        other => panic!("expected an alloc regression, got {other:?}"),
    }
    assert!(reports[0].regressed(), "alloc regressions fail the gate");
    assert!(!reports[1].regressed());
    assert!(render_table(&reports, 20.0).contains("REGRESSED@rev5 (+100.0%)"));
}

#[test]
fn mem_delta_is_informational_without_a_mem_gate() {
    // Allocation tripled at rev3 and stayed there: history shows the
    // change, and the gate — which judges only the newest record —
    // passes.
    let points: Vec<(f64, Option<f64>)> = [1000.0, 1000.0, 1000.0, 3000.0, 3000.0, 3000.0]
        .iter()
        .map(|&alloc| (100.0, Some(alloc)))
        .collect();
    let ledger = Ledger {
        records: series("a", &points),
        ..Ledger::default()
    };
    let history = detect(&ledger, 10.0);
    assert_eq!(
        history[0].alloc.verdict.changepoint().unwrap().git_rev,
        "rev3"
    );
    assert!(history[0].regressed());
    let reports = gate(&ledger, 10.0).unwrap();
    assert_eq!(reports[0].alloc.verdict, SeriesVerdict::Steady);
    assert!(!reports[0].regressed());
}

#[test]
fn zero_or_missing_mem_baseline_skips_the_mem_comparison() {
    // Zero bytes is a real window (an allocation-free case), and
    // records without allocation data drop out of that series.
    let mut records = steady_then("a", 100.0, Some(0.0), (100.0, Some(5000.0)));
    records.extend(steady_then("b", 100.0, None, (100.0, Some(5000.0))));
    let reports = gate_of(records, 5.0);
    assert_eq!(reports[0].alloc.verdict, SeriesVerdict::Steady);
    assert_eq!(reports[1].alloc.verdict, SeriesVerdict::Insufficient);
    assert!(reports.iter().all(|r| !r.regressed()));
}

#[test]
fn combined_time_and_mem_regression_reads_as_both() {
    let records = steady_then("a", 100.0, Some(1000.0), (200.0, Some(2000.0)));
    let reports = gate_of(records, 10.0);
    assert!(matches!(
        reports[0].wall.verdict,
        SeriesVerdict::Regressed(_)
    ));
    assert!(matches!(
        reports[0].alloc.verdict,
        SeriesVerdict::Regressed(_)
    ));
    assert_eq!(
        render_table(&reports, 10.0)
            .matches("REGRESSED@rev5")
            .count(),
        2
    );
}

#[test]
fn the_gate_judges_the_newest_record_not_the_strongest_changepoint() {
    // A big old speed-up outranks a newer +30 % in history, but the
    // gate sees the newest record against its own window.
    let mut points = vec![(1000.0, None); 3];
    points.extend([(100.0, None); 8]);
    points.push((130.0, None));
    let ledger = Ledger {
        records: series("a", &points),
        ..Ledger::default()
    };
    assert!(matches!(
        detect(&ledger, 25.0)[0].wall.verdict,
        SeriesVerdict::Improved(_)
    ));
    assert!(gate(&ledger, 25.0).unwrap()[0].regressed());
    // A level confirmed by later runs no longer fails the gate.
    let mut settled = points.clone();
    settled.extend([(130.0, None); 8]);
    let ledger = Ledger {
        records: series("a", &settled),
        ..Ledger::default()
    };
    assert!(!gate(&ledger, 25.0).unwrap()[0].regressed());
}
