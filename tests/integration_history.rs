//! End-to-end tests of `tsv3d history` against the committed fixture
//! ledgers in `tests/data/`: the newest-record table with its
//! `--gate-detect` exit contract (0 pass / 1 regressed / 2 usage), the
//! `--detect` changepoint mode, old-ledger back-compat, and the
//! skip-and-count robustness policy for malformed ledger lines.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tsv3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsv3d"))
        .args(args)
        .env_remove("TSV3D_TELEMETRY")
        .output()
        .expect("tsv3d binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Path of a committed fixture ledger (tests run from the package
/// root, `crates/experiments`).
fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name)
        .to_str()
        .expect("fixture path is UTF-8")
        .to_string()
}

#[test]
fn steady_ledger_passes_the_detect_gate() {
    let out = tsv3d(&["history", &fixture("history_steady.jsonl"), "--gate-detect"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("anneal_quick_3x3"), "{text}");
    assert!(text.contains("steady"), "{text}");
    assert!(!text.contains("REGRESSED"), "{text}");
    // The fixture carries one junk line and one truncated line — the
    // crash-mid-append failure modes — which are skipped and counted.
    assert!(
        stderr(&out).contains("2 of 7 ledger line(s) skipped"),
        "{}",
        stderr(&out)
    );
    // Without a flag, history prints the gate's table; a steady cell
    // shows its newest record's delta.
    let plain = tsv3d(&["history", &fixture("history_steady.jsonl")]);
    assert_eq!(plain.status.code(), Some(0), "stderr: {}", stderr(&plain));
    assert_eq!(stdout(&plain), text);
    assert!(text.contains("steady (+0.7%)"), "{text}");
}

#[test]
fn regressed_ledger_fails_the_detect_gate() {
    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--gate-detect",
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("REGRESSED"), "{text}");
    // The steady sibling case in the same ledger stays green.
    assert!(text.contains("mna_lu_factor_n40"), "{text}");
    let err = stderr(&out);
    assert!(
        err.contains("regression changepoint") && err.contains("gray_encode_w16_4k"),
        "{err}"
    );
}

#[test]
fn case_filter_can_rescue_a_gated_run() {
    // Filtering to the healthy case removes the regression from view,
    // so the same ledger gates green.
    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--case",
        "mna_lu",
        "--gate-detect",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stdout(&out).contains("gray_encode"), "{}", stdout(&out));
}

#[test]
fn insufficient_window_never_fails_the_gate() {
    // Two records are too few for a verdict: even a 3x slowdown is
    // reported, not gated — a young ledger is not a regression.
    let out = tsv3d(&["history", &fixture("history_short.jsonl"), "--gate-detect"]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("insufficient"), "{}", stdout(&out));
    // The fixture's older `kind:"run"` rows all parse.
    assert!(!stderr(&out).contains("skipped"), "{}", stderr(&out));
    let plain = tsv3d(&["history", &fixture("history_short.jsonl")]);
    assert_eq!(plain.status.code(), Some(0), "stdout: {}", stdout(&plain));
    assert_eq!(stdout(&plain), stdout(&out));
    assert!(
        stdout(&plain).contains("insufficient (2 pts)"),
        "{}",
        stdout(&plain)
    );
}

#[test]
fn json_format_emits_a_machine_readable_report() {
    use tsv3d_bench::json::{self, JsonValue};

    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let value = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    assert_eq!(
        value.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-history-detect/v1")
    );
    assert_eq!(value.get("records").and_then(JsonValue::as_u64), Some(9));
    let cases = match value.get("cases") {
        Some(JsonValue::Array(items)) => items,
        other => panic!("cases must be an array, got {other:?}"),
    };
    assert_eq!(cases.len(), 2);
    let verdicts: Vec<&str> = cases
        .iter()
        .filter_map(|c| c.get("wall_ns")?.get("verdict")?.as_str())
        .collect();
    assert_eq!(verdicts, ["regressed", "insufficient"]);
    let plain = stdout(&out);

    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--format",
        "json",
        "--gate-detect",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "gate verdict survives --format json"
    );
    assert_eq!(stdout(&out), plain, "the gate emits the same document");
}

#[test]
fn prepulse_records_parse_trend_and_gate_without_skips() {
    // The fixture ledger predates the available_parallelism and
    // allocation fields. Every line must parse (no skip-and-count) and
    // participate fully in the table and the gate.
    let out = tsv3d(&["history", &fixture("history_prepulse.jsonl")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // Without a flag the table only reports…
    assert!(text.contains("10 record(s)"), "{text}");
    assert!(text.contains("codec_hamming_w16"), "{text}");
    assert!(text.contains("steady (-0.4%)"), "{text}");
    assert!(text.contains("REGRESSED@eeee555"), "{text}");

    // …the steady case stays green, and the regression in equally
    // old records still trips the gate.
    let out = tsv3d(&[
        "history",
        &fixture("history_prepulse.jsonl"),
        "--gate-detect",
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(
        !err.contains("skipped"),
        "old records must not be skipped:\n{err}"
    );
    let text = stdout(&out);
    assert!(text.contains("steady"), "{text}");
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(err.contains("anneal_inc_delta_6x6"), "{err}");

    // Filtered to the steady case, the same old ledger gates 0.
    let out = tsv3d(&[
        "history",
        &fixture("history_prepulse.jsonl"),
        "--case",
        "codec_hamming",
        "--gate-detect",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn detect_flags_the_regressed_fixture_and_clears_the_steady_one() {
    // The steady fixture: every series is steady or insufficient, so
    // even the gated detect run exits 0.
    let out = tsv3d(&[
        "history",
        &fixture("history_steady.jsonl"),
        "--detect",
        "--gate-detect",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("steady"), "{text}");
    assert!(!text.contains("REGRESSED"), "{text}");

    // The regressed fixture: the gray_encode series jumps 2x at its
    // last record (rev eeee555) — flagged at the exact revision, while
    // the 4-point mna series stays insufficient and never gates.
    let out = tsv3d(&["history", &fixture("history_regressed.jsonl"), "--detect"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "detect without gate reports only"
    );
    let text = stdout(&out);
    assert!(text.contains("REGRESSED@eeee555"), "{text}");
    assert!(text.contains("insufficient"), "{text}");

    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--gate-detect",
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("regression changepoint")
            && stderr(&out).contains("gray_encode_w16_4k"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn detect_json_emits_the_pinned_detect_schema() {
    use tsv3d_bench::json::{self, JsonValue};

    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--detect",
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let value = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    assert_eq!(
        value.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-history-detect/v1")
    );
    assert_eq!(value.get("regressed").and_then(JsonValue::as_u64), Some(1));
    let cases = match value.get("cases") {
        Some(JsonValue::Array(items)) => items,
        other => panic!("cases must be an array, got {other:?}"),
    };
    let gray = cases
        .iter()
        .find(|c| c.get("case").and_then(JsonValue::as_str) == Some("gray_encode_w16_4k"))
        .expect("gray case present");
    let wall = gray.get("wall_ns").expect("wall series");
    assert_eq!(
        wall.get("verdict").and_then(JsonValue::as_str),
        Some("regressed")
    );
    assert_eq!(
        wall.get("git_rev").and_then(JsonValue::as_str),
        Some("eeee555")
    );

    // Bad detect thresholds are usage errors under the 0/1/2 contract.
    let out = tsv3d(&[
        "history",
        &fixture("history_regressed.jsonl"),
        "--detect-pct",
        "-5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("Usage: tsv3d history"));
}

#[test]
fn usage_errors_exit_2_and_missing_ledger_exits_1() {
    // The trailing-window trend and its --window flag are gone.
    let out = tsv3d(&["history", "--window", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("Usage: tsv3d history"));

    let out = tsv3d(&["history", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    let out = tsv3d(&["history", "/nonexistent/ledger.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"));
}

/// Writes `text` to a per-test ledger file and returns its path.
fn scratch_ledger(tag: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join(format!("tsv3d_history_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    let path = dir.join("history.jsonl");
    std::fs::write(&path, text).expect("ledger is writable");
    path.to_str().expect("path is UTF-8").to_string()
}

/// One `case` ledger line at threads 4; `alloc` is the optional
/// allocation field.
fn line(case: &str, rev: &str, median_ns: f64, alloc: Option<f64>) -> String {
    let alloc = alloc.map_or(String::new(), |a| format!("\"alloc_bytes_per_iter\":{a},"));
    format!(
        "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\"case\":\"{case}\",\
         \"git_rev\":\"{rev}\",\"unix_time_s\":1,\"median_ns\":{median_ns},{alloc}\"threads\":4}}\n"
    )
}

#[test]
fn a_new_regression_after_an_old_speed_up_fails_the_gate() {
    // The committed anneal_large_6x6_serial rows carry the f0aab8e
    // speed-up, then eight rows settle at its last median. A newest row
    // at +77 % fails a 75 % gate even though the old speed-up is the
    // series' strongest changepoint.
    let base = std::fs::read_to_string(fixture("history_large_anneal.jsonl")).unwrap();
    let settled = scratch_ledger("large_settled", &base);
    let out = tsv3d(&["history", &settled, "--gate-detect", "--detect-pct", "75"]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    let out = tsv3d(&["history", &settled, "--detect"]);
    assert!(
        stdout(&out).contains("IMPROVED@f0aab8e"),
        "{}",
        stdout(&out)
    );

    let newest = line(
        "anneal_large_6x6_serial",
        "9999999",
        32_985_803.0,
        Some(7647.0),
    );
    let regressed = scratch_ledger("large_regressed", &(base + &newest));
    let out = tsv3d(&["history", &regressed, "--gate-detect", "--detect-pct", "75"]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("REGRESSED@9999999 (+77.0%)"),
        "{}",
        stdout(&out)
    );
    assert!(
        stderr(&out).contains("anneal_large_6x6_serial (threads 4)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn the_gate_holds_its_threshold_exactly_on_wall_time_and_alloc() {
    // Steady windows whose spread (±1 %) is far below each threshold;
    // the newest record lands exactly at, then just above, it.
    let walls = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1000.0, 1002.0, 998.0];
    for pct in [25.0, 75.0] {
        for (newest, code) in [
            (1000.0 * (1.0 + pct / 100.0), 0),
            (1001.0 * (1.0 + pct / 100.0), 1),
        ] {
            let mut text: String = walls
                .iter()
                .map(|&w| line("wall_case", "old", w, None))
                .collect();
            text.push_str(&line("wall_case", "new", newest, None));
            let path = scratch_ledger(&format!("wall_{pct}_{code}"), &text);
            let out = tsv3d(&[
                "history",
                &path,
                "--gate-detect",
                "--detect-pct",
                &pct.to_string(),
            ]);
            assert_eq!(
                out.status.code(),
                Some(code),
                "{pct}% at {newest}: {}",
                stdout(&out)
            );
        }
    }
    let allocs = [
        4000.0, 4040.0, 3960.0, 4000.0, 4020.0, 3980.0, 4000.0, 4000.0,
    ];
    for (newest, code) in [(4800.0, 0), (4801.0, 1)] {
        let mut text: String = allocs
            .iter()
            .map(|&a| line("gray_encode_w16_4k", "old", 1000.0, Some(a)))
            .collect();
        text.push_str(&line("gray_encode_w16_4k", "new", 1000.0, Some(newest)));
        let path = scratch_ledger(&format!("alloc_{code}"), &text);
        let out = tsv3d(&[
            "history",
            &path,
            "--case",
            "gray_encode",
            "--gate-detect",
            "--detect-pct",
            "20",
        ]);
        assert_eq!(
            out.status.code(),
            Some(code),
            "alloc at {newest}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn a_non_positive_median_in_a_gated_window_is_a_bad_baseline() {
    for bad in [0.0, -5.0] {
        let mut text: String = (0..6)
            .map(|_| line("broken_case", "r", 100.0, None))
            .collect();
        text.push_str(&line("broken_case", "bad", bad, None));
        text.push_str(&line("broken_case", "r", 100.0, None));
        text.push_str(&line("healthy_case", "r", 100.0, None).repeat(6));
        let path = scratch_ledger("bad_baseline", &text);
        let out = tsv3d(&["history", &path, "--gate-detect"]);
        assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
        let err = stderr(&out);
        assert!(
            err.contains("BAD-BASELINE") && err.contains("broken_case"),
            "{err}"
        );
        assert!(!err.contains("healthy_case"), "{err}");
        // History still renders the same ledger, and the ungated table
        // warns about the row it cannot use.
        assert_eq!(
            tsv3d(&["history", &path, "--detect"]).status.code(),
            Some(0)
        );
        let out = tsv3d(&["history", &path]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains("warning: BAD-BASELINE"),
            "{}",
            stderr(&out)
        );
        assert!(stdout(&out).contains("healthy_case"), "{}", stdout(&out));
    }
    // A zero allocation window is an allocation-free case: the alloc
    // comparison is skipped, never flagged.
    let mut text: String = (0..6)
        .map(|_| line("free_case", "r", 100.0, Some(0.0)))
        .collect();
    text.push_str(&line("free_case", "r", 100.0, Some(5000.0)));
    let path = scratch_ledger("zero_alloc", &text);
    let out = tsv3d(&["history", &path, "--gate-detect", "--detect-pct", "20"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
}

#[test]
fn a_settled_step_passes_the_gate_and_history_names_its_first_record() {
    // Four rows at 100, then sixteen at 130 (revs r1…r20).
    let text: String = (1..=20)
        .map(|i| {
            line(
                "step_case",
                &format!("r{i}"),
                if i <= 4 { 100.0 } else { 130.0 },
                None,
            )
        })
        .collect();
    let path = scratch_ledger("settled_step", &text);
    let out = tsv3d(&["history", &path, "--gate-detect"]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    let out = tsv3d(&["history", &path, "--detect"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        stdout(&out).contains("REGRESSED@r5 (+30.0%)"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn thread_counts_keep_their_own_series() {
    // Threads-2 rows (a 2-core CI runner) never share a window with the
    // threads-4 rows of the same case.
    let mut text = line("pool_case", "r", 100.0, None).repeat(8);
    text.push_str(
        &line("pool_case", "r", 180.0, None)
            .replace("\"threads\":4", "\"threads\":2")
            .repeat(6),
    );
    let path = scratch_ledger("threads", &text);
    let out = tsv3d(&["history", &path, "--gate-detect"]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    let table = stdout(&out);
    assert_eq!(
        table.lines().filter(|l| l.contains("pool_case")).count(),
        2,
        "{table}"
    );
}
