//! End-to-end tests of `tsv3d trace` on annealing and span traces: the
//! convergence section over committed fixtures, `--compare` of span
//! self time per call and of restart divergence, JSON output validity,
//! the deterministic convergence panel of `tsv3d dash --trace`, and the
//! full record-then-analyze loop through `tsv3d bench --trace`.
//!
//! Exit-code contract: 0 success, 1 runtime failure (unreadable file,
//! two traces with nothing to compare), 2 usage error.

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
    let dir = std::env::temp_dir().join(format!("tsv3d_trace_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Writes a span trace to `dir/name`: one span per `(name, seconds)`,
/// each ending a second after the previous one.
fn span_trace(dir: &std::path::Path, name: &str, spans: &[(&str, f64)]) -> String {
    let mut text = String::new();
    for (i, (span, seconds)) in spans.iter().enumerate() {
        text.push_str(&format!(
            "{{\"t\":{}.0,\"event\":\"span\",\"name\":\"{span}\",\"seconds\":{seconds}}}\n",
            i + 1
        ));
    }
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn single_trace_report_tables_both_restarts() {
    let out = tsv3d(&["trace", &fixture("converge_small_a.jsonl")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("convergence: 2 restart series"), "{text}");
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
    let out = tsv3d(&["trace", &fixture("converge_small_a.jsonl"), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("output is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-trace/v2")
    );
    assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("single"));
    let body = doc.get("converge").expect("converge member");
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
    let (a, b) = (fixture("converge_small_a.jsonl"), fixture("converge_small_b.jsonl"));
    let out = tsv3d(&["trace", &b, "--compare", &a]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // r0 is identical in both traces; r1 was given a collapsed accept
    // rate and a stalled descent in trace b.
    assert!(text.contains("1 of 2 matched restart(s) diverged"), "{text}");
    assert!(text.contains("accept-rate"), "{text}");
    assert!(text.contains("final-energy"), "{text}");
    assert!(text.contains("wasted iterations:"), "{text}");

    let out = tsv3d(&["trace", &b, "--compare", &a, "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("compare output is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-trace/v2")
    );
    assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("compare"));
    let converge = doc.get("converge").expect("converge member");
    assert_eq!(converge.get("diverged").and_then(JsonValue::as_u64), Some(1));
    let pairs = converge.get("pairs").and_then(JsonValue::as_array).unwrap();
    assert_eq!(pairs.len(), 2);
    assert_eq!(pairs[0].get("diverged"), Some(&JsonValue::Bool(false)));
    assert_eq!(pairs[1].get("diverged"), Some(&JsonValue::Bool(true)));
}

/// The convergence plot now lives in `tsv3d dash --trace`: the same
/// trace renders the same page, one descent curve per restart.
#[test]
fn svg_renders_byte_identically_across_runs() {
    let dir = scratch("svg");
    let pages = [dir.join("a.html"), dir.join("b.html")];
    for page in &pages {
        let out = tsv3d(&[
            "dash",
            "--trace",
            &fixture("converge_small_a.jsonl"),
            "--bench-dir",
            dir.to_str().unwrap(),
            "--artifacts",
            dir.to_str().unwrap(),
            "--history",
            &fixture("history_steady.jsonl"),
            "--out",
            page.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    }
    let rendered = std::fs::read_to_string(&pages[0]).unwrap();
    assert_eq!(
        rendered,
        std::fs::read_to_string(&pages[1]).unwrap(),
        "same trace must render a byte-identical page"
    );
    let section = rendered
        .split("<h2>Convergence</h2>")
        .nth(1)
        .and_then(|rest| rest.split("<h2>").next())
        .expect("a convergence section");
    assert_eq!(
        section.matches("<polyline").count(),
        2,
        "one descent curve per restart:\n{section}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace with foreign events mixed in (`pulse.sample` and
/// `pulse.progress`, as older traces carry them) and the run's start
/// and end: both restart series are read to their final iteration and
/// the rest is counted among the events.
#[test]
fn pulse_trace_yields_both_restart_series() {
    let trace = fixture("pulse_trace_mixed.jsonl");
    let out = tsv3d(&["trace", &trace]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("10 event(s) on 10 line(s), 0 skipped"), "{text}");
    assert!(text.contains("  pulse.sample       2\n"), "{text}");
    assert!(text.contains("convergence: 2 restart series"), "{text}");
    assert!(text.contains("100 iters x 2 restarts"), "{text}");

    let out = tsv3d(&["trace", &trace, "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let value = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    let restarts = value
        .get("converge")
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
    let out = tsv3d(&["trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("warning: 1 of 11 line(s) skipped as malformed"),
        "{err}"
    );
    let text = stdout(&out);
    assert!(text.contains("on 11 line(s), 1 skipped"), "{text}");
    assert!(text.contains("convergence: 2 restart series"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_without_epochs_prints_no_convergence_and_exits_0() {
    let dir = scratch("empty");
    let path = span_trace(&dir, "spans_only.jsonl", &[("core.anneal", 0.5)]);
    let out = tsv3d(&["trace", &path]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("core.anneal"), "{text}");
    assert!(!text.contains("convergence"), "{text}");
    let out = tsv3d(&["trace", &path, "--format", "json"]);
    assert!(stdout(&out).contains("\"converge\":null"), "{}", stdout(&out));

    let out = tsv3d(&["trace", "/nonexistent/нет.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A benchmark run's time budget records a different number of passes
/// each time, so the comparison normalises per call: twice the calls
/// at the same time per call is no change.
#[test]
fn equal_per_call_times_compare_as_no_change() {
    let dir = scratch("per_call");
    let base = span_trace(&dir, "base.jsonl", &[("work", 0.25); 2]);
    let change = span_trace(&dir, "change.jsonl", &[("work", 0.25); 4]);
    let out = tsv3d(&["trace", &change, "--compare", &base]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let row = text.lines().find(|l| l.starts_with("work ")).expect("work row");
    assert!(row.ends_with("+0.0%"), "{text}");
    assert!(text.contains("moved most: work (+0.0% self time per call"), "{text}");
    assert!(!text.contains("convergence"), "span traces hold no epochs:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_ranks_spans_by_time_moved_and_needs_a_shared_name() {
    let dir = scratch("rank");
    // `slow` doubles per call but runs once; `fast` rises 50 % per call
    // over four calls and so moves more time.
    let base = span_trace(&dir, "base.jsonl", &[("fast", 0.25), ("slow", 0.25), ("gone", 0.5)]);
    let change = span_trace(
        &dir,
        "change.jsonl",
        &[("fast", 0.375), ("fast", 0.375), ("fast", 0.375), ("fast", 0.375), ("slow", 0.5), ("new", 0.5)],
    );
    let out = tsv3d(&["trace", &change, "--compare", &base]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let (fast, slow) = (text.find("\nfast ").unwrap(), text.find("\nslow ").unwrap());
    assert!(fast < slow, "{text}");
    assert!(text.contains("moved most: fast (+50.0% self time per call, +0.500000 s"), "{text}");
    assert!(text.contains("spans only in a: gone\nspans only in b: new\n"), "{text}");

    let out = tsv3d(&["trace", &change, "--compare", &base, "--format", "json"]);
    let doc = json::parse(&stdout(&out)).expect("compare output is valid JSON");
    let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
    assert_eq!(spans[0].get("name").and_then(JsonValue::as_str), Some("fast"));
    assert_eq!(spans[0].get("calls_b").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(doc.get("converge"), Some(&JsonValue::Null));

    // Nothing shared: no span name, no restart label.
    let other = span_trace(&dir, "other.jsonl", &[("elsewhere", 0.25)]);
    let out = tsv3d(&["trace", &other, "--compare", &base]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("share no span name and no restart label"), "{}", stderr(&out));
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

    // The single-trace report sees the case's two restarts.
    let out = tsv3d(&["trace", serial.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("convergence: 2 restart series"), "{text}");
    assert!(text.contains("case: anneal_quick_3x3"), "{text}");

    // The comparison is clean: same seed, same search, no divergence.
    let out = tsv3d(&[
        "trace",
        threaded.to_str().unwrap(),
        "--compare",
        serial.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("\"diverged\":0"), "{}", stdout(&out));
    let doc = json::parse(&stdout(&out)).expect("compare output is valid JSON");
    let pairs = doc
        .get("converge")
        .and_then(|c| c.get("pairs"))
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(pairs.len(), 2, "both restarts matched across the traces");
    let _ = std::fs::remove_dir_all(&dir);
}
