//! End-to-end tests of `tsv3d dash`: byte-determinism of the HTML
//! dashboard across repeated runs, the `tsv3d-dash/v1` JSON index
//! schema pin, the 0/1/2 exit-code contract — including `--live`'s
//! against a test-local listener serving the committed pulse fixtures
//! and against a real `tsv3d serve --demo` — and the cross-subcommand
//! `--format json` consistency audit (every analysis surface
//! advertises the flag and emits its pinned schema version string).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsv3d_bench::json::{self, JsonValue};

fn tsv3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsv3d"))
        .args(args)
        .env_remove("TSV3D_TELEMETRY")
        .env_remove("TSV3D_METRICS_ADDR")
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
/// instead, pinned from a committed artifact; `serve` has no report
/// document.
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

/// A test-local stand-in for `tsv3d serve`: answers `GET /progress`
/// with `progress` and any other request with a small `/metrics` body,
/// for the two scrapes one `dash --live` run makes. Returns the bound
/// address and the server thread.
fn fixture_server(progress: String) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let Ok(mut stream) = stream else { continue };
            let (mut head, mut chunk) = (Vec::new(), [0u8; 1024]);
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut chunk) {
                    Ok(n) if n > 0 => head.extend_from_slice(&chunk[..n]),
                    _ => break,
                }
            }
            let body = if head.starts_with(b"GET /progress ") {
                progress.as_str()
            } else {
                "# TYPE tsv3d_uptime_seconds gauge\ntsv3d_uptime_seconds 1.5\n"
            };
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    (addr, server)
}

/// Joins a test-local server thread. Two throwaway connections first
/// release a server still waiting for scrapes that never came.
fn join_server(addr: &str, server: JoinHandle<()>) {
    for _ in 0..2 {
        let _ = TcpStream::connect(addr);
    }
    server.join().expect("the server thread finishes cleanly");
}

/// Runs `dash --live ADDR --format json` over empty bench and artifact
/// dirs; returns the output and the page path.
fn dash_live(label: &str, addr: &str) -> (Output, PathBuf) {
    let dir = scratch(label);
    let html = dir.join("live.html");
    let dir = dir.to_str().unwrap();
    let out = tsv3d(&[
        "dash",
        "--live",
        addr,
        "--bench-dir",
        dir,
        "--artifacts",
        dir,
        "--out",
        html.to_str().unwrap(),
        "--format",
        "json",
    ]);
    (out, html)
}

/// `dash --live` against the fixture server serving `progress`.
fn dash_live_fixture(label: &str, progress: String) -> (Output, PathBuf) {
    let (addr, server) = fixture_server(progress);
    let result = dash_live(label, &addr);
    join_server(&addr, server);
    result
}

fn pulse_fixture(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("committed pulse fixture")
}

#[test]
fn live_progress_renders_a_table_and_exits_zero() {
    let (out, html) = dash_live_fixture("live_ok", pulse_fixture("pulse_live.json"));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let page = std::fs::read_to_string(&html).expect("page written");
    assert!(page.contains("<td>r0</td>"), "{page}");
    assert!(page.contains("<td>running</td>"), "{page}");
    assert!(page.contains("<td>done</td>"), "{page}");
    assert!(
        page.contains("tsv3d_uptime_seconds 1.5"),
        "/metrics shown verbatim"
    );
    let index = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    assert_eq!(index.get("stalled").and_then(JsonValue::as_u64), Some(0));
}

#[test]
fn a_stalled_progress_exits_one_and_still_writes_the_page() {
    let (out, html) = dash_live_fixture("live_stalled", pulse_fixture("pulse_stalled.json"));
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("stalled restart(s): r0"),
        "{}",
        stderr(&out)
    );
    let page = std::fs::read_to_string(&html).expect("page written before the exit");
    assert!(page.contains("STALLED"), "{page}");
    let index = json::parse(&stdout(&out)).expect("stdout is one JSON document");
    assert_eq!(index.get("stalled").and_then(JsonValue::as_u64), Some(1));
}

#[test]
fn a_malformed_progress_exits_two() {
    let (out, html) = dash_live_fixture("live_malformed", pulse_fixture("pulse_malformed.json"));
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("unsupported schema"),
        "{}",
        stderr(&out)
    );
    assert!(html.exists(), "the page is written before the exit");
}

#[test]
fn a_deeply_nested_progress_exits_two_instead_of_overflowing() {
    let (out, _) = dash_live_fixture("live_deep", "[".repeat(200_000));
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("nesting deeper"), "{}", stderr(&out));
}

#[test]
fn live_against_a_dead_endpoint_exits_one() {
    // Bind-then-drop to get a port nothing listens on.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let (out, html) = dash_live("live_dead", &format!("127.0.0.1:{port}"));
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot connect"), "{}", stderr(&out));
    assert!(!html.exists(), "no page without a live answer");
}

#[test]
fn a_trickling_endpoint_times_out_and_exits_one() {
    // Accepts one scrape, then sends one byte every 300 ms: without a
    // total deadline the fetch would wait for as long as bytes keep
    // coming.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let mut head = [0u8; 1024];
        let _ = stream.read(&mut head);
        for _ in 0..200 {
            if stream.write_all(b"H").is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    let started = Instant::now();
    let (out, _) = dash_live("live_trickle", &addr);
    let took = started.elapsed();
    join_server(&addr, server);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("did not answer"), "{}", stderr(&out));
    assert!(took < Duration::from_secs(10), "took {took:?}");
}

/// A `tsv3d serve` child killed on drop, so a failing assertion never
/// leaks a listener process into the test run.
struct ServeGuard {
    child: Child,
    addr: String,
    // Keeps the child's stdout pipe open for its exit summary line.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServeGuard {
    /// Spawns `tsv3d serve --addr 127.0.0.1:0 <extra>` and parses the
    /// resolved address from its announcement line.
    fn spawn(extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tsv3d"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .env_remove("TSV3D_TELEMETRY")
            .env_remove("TSV3D_METRICS_ADDR")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tsv3d serve spawns");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("stdout is readable");
            assert!(n > 0, "serve announces its address before EOF");
            if let Some(rest) = line.trim_end().strip_prefix("serving metrics on http://") {
                break rest.trim_end_matches('/').to_string();
            }
        };
        ServeGuard {
            child,
            addr,
            _stdout: reader,
        }
    }

    /// One raw HTTP GET; returns the full response.
    fn get(&self, path: &str) -> String {
        let mut conn = TcpStream::connect(&self.addr).expect("connect to serve");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("request written");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("response read");
        response
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn live_reads_a_serve_demo_progress_endpoint() {
    let serve = ServeGuard::spawn(&["--demo"]);
    // The demo annealer registers its progress cells on first use;
    // poll /progress until restarts appear.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = serve.get("/progress");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        if response.contains("\"restart\":0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "demo progress never appeared:\n{response}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (out, html) = dash_live("live_serve", &serve.addr);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("\"stalled\":0"), "{}", stdout(&out));
    let page = std::fs::read_to_string(&html).expect("page written");
    assert!(page.contains("<td>r0</td>"), "{page}");
    assert!(
        page.contains("tsv3d_run_progress_iterations"),
        "/metrics scraped"
    );
}
