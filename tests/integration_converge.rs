//! End-to-end tests of `tsv3d converge`: single-trace convergence
//! reports over committed fixtures, `--compare` divergence flagging,
//! JSON output validity, deterministic SVG rendering, and the full
//! record-then-analyze loop through `tsv3d bench --trace`.
//!
//! Exit-code contract: 0 success, 1 runtime failure (unreadable file,
//! no `anneal.epoch` series), 2 usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

use tsv3d_bench::json::{self, JsonValue};

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

/// Path of a committed fixture trace (tests run from the package
/// root, `crates/experiments`).
fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name)
        .to_str()
        .expect("fixture path is UTF-8")
        .to_string()
}

/// A per-test scratch directory under the target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsv3d_converge_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

#[test]
fn single_trace_report_tables_both_restarts() {
    let out = tsv3d(&["converge", &fixture("converge_small_a.jsonl")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 restart series"), "{text}");
    assert!(text.contains("case: fixture_anneal"), "{text}");
    assert!(text.contains("calibrated:"), "{text}");
    for label in ["r0", "r1"] {
        assert!(text.contains(label), "series `{label}` tabled:\n{text}");
    }
    // r1 holds the global best (50 < 60) and improved over r0.
    assert!(text.contains("global best 5.000000e1 from r1"), "{text}");
    assert!(text.contains("2 of 2 restart(s) improved the global best"), "{text}");
}

#[test]
fn single_trace_json_is_valid_and_carries_the_schema() {
    let out = tsv3d(&[
        "converge",
        &fixture("converge_small_a.jsonl"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("output is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-converge/v1")
    );
    assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("single"));
    let body = doc.get("report").expect("report body");
    let restarts = body.get("restarts").and_then(JsonValue::as_array).unwrap();
    assert_eq!(restarts.len(), 2);
    assert_eq!(
        restarts[0].get("label").and_then(JsonValue::as_str),
        Some("r0")
    );
    // r0 descends 100 → 60 and the last epoch adds nothing: the final
    // 25% of its iterations land inside epsilon of the final best.
    assert_eq!(
        restarts[0].get("iters_to_eps").and_then(JsonValue::as_u64),
        Some(75)
    );
    assert_eq!(
        body.get("global")
            .and_then(|g| g.get("best_label"))
            .and_then(JsonValue::as_str),
        Some("r1")
    );
}

#[test]
fn compare_flags_the_diverged_restart_only() {
    let out = tsv3d(&[
        "converge",
        "--compare",
        &fixture("converge_small_a.jsonl"),
        &fixture("converge_small_b.jsonl"),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // r0 is identical in both traces; r1 was given a collapsed accept
    // rate and a stalled descent in trace b.
    assert!(text.contains("1 of 2 matched restart(s) diverged"), "{text}");
    assert!(text.contains("accept-rate"), "{text}");
    assert!(text.contains("final-energy"), "{text}");
    assert!(text.contains("wasted iterations:"), "{text}");

    let out = tsv3d(&[
        "converge",
        "--compare",
        &fixture("converge_small_a.jsonl"),
        &fixture("converge_small_b.jsonl"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("compare output is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-converge/v1")
    );
    assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("compare"));
    assert_eq!(doc.get("diverged").and_then(JsonValue::as_u64), Some(1));
    let pairs = doc.get("pairs").and_then(JsonValue::as_array).unwrap();
    assert_eq!(pairs.len(), 2);
    assert_eq!(pairs[0].get("diverged"), Some(&JsonValue::Bool(false)));
    assert_eq!(pairs[1].get("diverged"), Some(&JsonValue::Bool(true)));
}

#[test]
fn svg_renders_byte_identically_across_runs() {
    let dir = scratch("svg");
    let svg_a = dir.join("a.svg");
    let svg_b = dir.join("b.svg");
    for svg in [&svg_a, &svg_b] {
        let out = tsv3d(&[
            "converge",
            &fixture("converge_small_a.jsonl"),
            "--svg",
            svg.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    }
    let rendered = std::fs::read(&svg_a).unwrap();
    assert_eq!(
        rendered,
        std::fs::read(&svg_b).unwrap(),
        "same trace must render a byte-identical SVG"
    );
    let text = String::from_utf8(rendered).unwrap();
    assert!(text.starts_with("<?xml"), "self-contained SVG document");
    assert!(text.ends_with("</svg>\n"), "document is complete");
    assert_eq!(
        text.matches("<polyline").count(),
        2,
        "one descent curve per restart:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace with the live pulse's own events mixed in (`pulse.sample`,
/// `pulse.progress`) and the run's start and end: both restart series
/// are read to their final iteration and the rest is counted as
/// ignored.
#[test]
fn pulse_trace_yields_both_restart_series() {
    let trace = fixture("pulse_trace_mixed.jsonl");
    let out = tsv3d(&["converge", &trace]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("2 restart series on 10 line(s), 0 skipped"),
        "{text}"
    );
    assert!(text.contains("ignored: 3 event(s)"), "{text}");
    assert!(text.contains("100 iters x 2 restarts"), "{text}");

    let out = tsv3d(&["converge", &trace, "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let value = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    let restarts = value
        .get("report")
        .and_then(|r| r.get("restarts"))
        .and_then(JsonValue::as_array)
        .expect("restarts array");
    assert_eq!(restarts.len(), 2);
    for restart in restarts {
        assert_eq!(
            restart.get("iterations").and_then(JsonValue::as_u64),
            Some(100)
        );
    }
}

#[test]
fn pulse_trace_warns_about_malformed_lines() {
    let dir = scratch("pulse_bad");
    let path = dir.join("mixed.jsonl");
    let text = std::fs::read_to_string(fixture("pulse_trace_mixed.jsonl")).unwrap();
    std::fs::write(&path, format!("not json\n{text}")).unwrap();
    let out = tsv3d(&["converge", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("warning: 1 of 11 line(s) skipped as malformed"),
        "{err}"
    );
    assert!(stdout(&out).contains("2 restart series on 11 line(s), 1 skipped"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_without_epochs_exits_1_and_missing_file_too() {
    let dir = scratch("empty");
    let path = dir.join("spans_only.jsonl");
    std::fs::write(
        &path,
        "{\"t\":1.0,\"event\":\"span\",\"name\":\"core.anneal\",\"seconds\":0.5}\n",
    )
    .unwrap();
    let out = tsv3d(&["converge", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("no anneal.epoch series"), "{}", stderr(&out));

    let out = tsv3d(&["converge", "/nonexistent/нет.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full loop the feature exists for: record an annealing run with
/// `tsv3d bench --trace`, then analyze and compare it. The anneal is
/// bit-identical at any thread count, so a serial trace and a
/// `--threads 2` trace of the same case produce matching restart
/// series and a clean comparison.
#[test]
fn bench_trace_roundtrip_compares_serial_against_threaded() {
    let dir = scratch("roundtrip");
    let serial = dir.join("serial.jsonl");
    let threaded = dir.join("threads.jsonl");
    for (path, threads) in [(&serial, "1"), (&threaded, "2")] {
        let out = tsv3d(&[
            "bench",
            "--case",
            "anneal_quick_3x3",
            "--iters",
            "1",
            "--warmup",
            "0",
            "--threads",
            threads,
            "--no-history",
            "--out-dir",
            dir.join("artifacts").to_str().unwrap(),
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert!(
            stdout(&out).contains("wrote telemetry trace"),
            "{}",
            stdout(&out)
        );
    }

    // Single-trace report sees the case's two restarts.
    let out = tsv3d(&["converge", serial.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 restart series"), "{text}");
    assert!(text.contains("case: anneal_quick_3x3"), "{text}");

    // The comparison is clean: same seed, same search, no divergence.
    let out = tsv3d(&[
        "converge",
        "--compare",
        serial.to_str().unwrap(),
        threaded.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("compare output is valid JSON");
    assert_eq!(doc.get("diverged").and_then(JsonValue::as_u64), Some(0));
    let pairs = doc.get("pairs").and_then(JsonValue::as_array).unwrap();
    assert_eq!(pairs.len(), 2, "both restarts matched across the traces");
    let _ = std::fs::remove_dir_all(&dir);
}
