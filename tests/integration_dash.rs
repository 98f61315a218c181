//! End-to-end tests of `tsv3d dash`: byte-determinism of the HTML
//! dashboard across repeated runs, the `tsv3d-dash/v1` JSON index
//! schema pin, the 0/1/2 exit-code contract and the cross-subcommand
//! `--format json` consistency audit (every analysis surface
//! advertises the flag and emits its pinned schema version string).

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

/// Repo-root-relative path (tests run from `crates/experiments`).
fn repo(path: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
        .to_str()
        .expect("path is UTF-8")
        .to_string()
}

fn fixture(name: &str) -> String {
    repo(&format!("tests/data/{name}"))
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsv3d_dash_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The canonical full-input invocation: committed bench artifacts and
/// experiment artifacts, a fixture ledger, and fixture traces for the
/// flamegraph and convergence panels.
fn dash_args<'a>(out: &'a str, extra: &[&'a str]) -> Vec<String> {
    [
        "dash",
        "--bench-dir",
        &repo("results/bench"),
        "--history",
        &fixture("history_regressed.jsonl"),
        "--trace",
        &fixture("pulse_trace_mixed.jsonl"),
        "--converge",
        &fixture("converge_small_a.jsonl"),
        "--artifacts",
        &repo("results"),
        "--out",
        out,
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(extra.iter().map(|s| s.to_string()))
    .collect()
}

fn run_dash(out: &str, extra: &[&str]) -> Output {
    let args = dash_args(out, extra);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    tsv3d(&args)
}

#[test]
fn dashboard_is_byte_identical_across_runs() {
    let dir = scratch("determinism");
    let base = dir.join("a.html");
    let out = run_dash(base.to_str().unwrap(), &[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let reference = std::fs::read(&base).expect("dashboard written");
    assert!(!reference.is_empty());

    // A rerun produces the exact same bytes — the dashboard is a pure
    // function of its inputs, with no wall clock and no current git
    // revision.
    let path = dir.join("rerun.html");
    let out = run_dash(path.to_str().unwrap(), &[]);
    assert_eq!(out.status.code(), Some(0), "rerun stderr: {}", stderr(&out));
    let bytes = std::fs::read(&path).expect("dashboard written");
    assert_eq!(
        bytes, reference,
        "dashboard bytes must not depend on reruns"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dashboard_html_is_self_contained_and_fuses_every_section() {
    let dir = scratch("content");
    let path = dir.join("dash.html");
    let out = run_dash(path.to_str().unwrap(), &[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let html = std::fs::read_to_string(&path).unwrap();
    assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60.min(html.len())]);
    // Self-containment: no scripts, no stylesheets, no referenced
    // assets. (Inline SVG xmlns URLs are declarations, not fetches.)
    assert!(!html.contains("<script"), "no JS");
    assert!(!html.contains("<link"), "no external CSS");
    assert!(!html.contains(" src="), "no referenced assets");
    // Every panel made it in: bench cases, trend + changepoint
    // verdicts from the ledger, the three figures, and the committed
    // experiment artifacts.
    assert!(html.contains("Bench cases"), "{html}");
    assert!(html.contains("gray_encode_w16_4k"), "ledger case present");
    assert!(html.contains("regressed@eeee555"), "changepoint verdict surfaced");
    assert!(html.contains("<svg"), "inline SVG figures present");
    assert!(html.contains("fig3_gaussian.txt"), "artifact listing present");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dash_json_index_pins_the_schema() {
    let dir = scratch("json");
    let path = dir.join("dash.html");
    let out = run_dash(path.to_str().unwrap(), &["--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let value = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    assert_eq!(
        value.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-dash/v1")
    );
    assert!(
        value.get("bench_files").and_then(JsonValue::as_u64).unwrap_or(0) >= 10,
        "committed bench artifacts ingested"
    );
    // The regressed fixture ledger surfaces through the index too.
    assert_eq!(value.get("regressed").and_then(JsonValue::as_u64), Some(1));
    let sections = value.get("sections").expect("sections object");
    assert_eq!(
        sections.get("flamegraph").map(|v| matches!(v, JsonValue::Bool(true))),
        Some(true)
    );
    assert_eq!(
        sections.get("converge").map(|v| matches!(v, JsonValue::Bool(true))),
        Some(true)
    );
    // The HTML is written even in json mode.
    assert!(path.exists(), "--format json still writes --out");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dash_exit_codes_follow_the_contract() {
    let dir = scratch("exits");
    // Usage errors exit 2 and print the usage text.
    let out = tsv3d(&["dash", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("Usage: tsv3d dash"), "{}", stderr(&out));
    let out = tsv3d(&["dash", "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));

    // An explicitly-named unreadable input is an operational failure.
    let html = dir.join("x.html");
    let out = tsv3d(&[
        "dash",
        "--history",
        "/nonexistent/ledger.jsonl",
        "--out",
        html.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
    let out = tsv3d(&[
        "dash",
        "--trace",
        "/nonexistent/trace.jsonl",
        "--out",
        html.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));

    // Missing *defaults* degrade: pointed at empty directories with no
    // ledger, the dashboard still renders (with empty sections).
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = tsv3d(&[
        "dash",
        "--bench-dir",
        empty.to_str().unwrap(),
        "--artifacts",
        empty.to_str().unwrap(),
        "--out",
        html.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let page = std::fs::read_to_string(&html).unwrap();
    assert!(page.contains("data as of unknown"), "empty inputs degrade");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite audit: every analysis subcommand advertises `--format
/// json|text` in its usage text and emits its pinned schema version
/// string in json mode. `bench` reports through its artifact schema
/// instead, pinned from a committed artifact.
#[test]
fn format_json_audit_pins_every_subcommand_schema() {
    use tsv3d_bench::cli;

    let dir = scratch("audit");
    let html = dir.join("dash.html");
    let html_path = html.to_str().unwrap().to_string();
    let steady = fixture("history_steady.jsonl");
    let trace = fixture("converge_small_a.jsonl");

    let table: Vec<(&str, &str, Vec<&str>, &str)> = vec![
        (
            "trace",
            cli::TRACE_USAGE,
            vec!["trace", &trace, "--format", "json"],
            "tsv3d-trace/v1",
        ),
        (
            "converge",
            cli::CONVERGE_USAGE,
            vec!["converge", &trace, "--format", "json"],
            "tsv3d-converge/v1",
        ),
        (
            "history",
            cli::HISTORY_USAGE,
            vec!["history", &steady, "--format", "json"],
            "tsv3d-history-report/v1",
        ),
        (
            "history --detect",
            cli::HISTORY_USAGE,
            vec!["history", &steady, "--detect", "--format", "json"],
            "tsv3d-history-detect/v1",
        ),
        (
            "explain",
            cli::EXPLAIN_USAGE,
            vec!["explain", "--method", "greedy", "--format", "json"],
            "tsv3d-explain/v1",
        ),
        (
            "dash",
            cli::DASH_USAGE,
            vec![
                "dash",
                "--bench-dir",
                &steady, // not a dir: degrades to an empty bench table
                "--out",
                &html_path,
                "--format",
                "json",
            ],
            "tsv3d-dash/v1",
        ),
    ];
    for (name, usage, args, schema) in table {
        assert!(
            usage.contains("--format json|text"),
            "{name}: usage must advertise --format json|text"
        );
        let out = tsv3d(&args);
        assert_eq!(out.status.code(), Some(0), "{name} stderr: {}", stderr(&out));
        let value = json::parse(&stdout(&out))
            .unwrap_or_else(|e| panic!("{name}: stdout is one JSON document ({e})"));
        assert_eq!(
            value.get("schema").and_then(JsonValue::as_str),
            Some(schema),
            "{name}: schema version string"
        );
    }

    // bench: the artifact carries the schema; pin it from a committed
    // artifact instead of a (slow) fresh run.
    let artifact = std::fs::read_to_string(repo("results/bench/BENCH_anneal_quick_3x3.json"))
        .expect("committed bench artifact");
    let value = json::parse(&artifact).expect("artifact parses");
    assert_eq!(
        value.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-bench/v2")
    );
    std::fs::remove_dir_all(&dir).ok();
}
