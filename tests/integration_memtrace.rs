//! End-to-end tests of the memory-observability surface: allocation
//! deltas on span events, provenance on `run.start`, `tsv3d trace
//! --mem` / `--format json`, bench memory stats and the ledger gate
//! on allocated bytes.
//!
//! The `tsv3d` binary links the counting global allocator through the
//! experiments crate's `obs` module, so these tests exercise the real
//! production wiring, not a fixture.

use std::path::PathBuf;
use std::process::{Command, Output};
use tsv3d_bench::json::{self, JsonValue};

fn tsv3d_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tsv3d"));
    cmd.args(args).env_remove("TSV3D_TELEMETRY");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("tsv3d binary runs")
}

fn tsv3d(args: &[&str]) -> Output {
    tsv3d_env(args, &[])
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tsv3d_memtrace_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

const ASSIGN_ARGS: &[&str] = &["assign", "--rows", "2", "--cols", "2", "--cycles", "500"];

#[test]
fn disabled_telemetry_stdout_is_byte_identical() {
    // The counting allocator is linked into every run; with telemetry
    // fully off it must be pure passthrough — two runs (and a run with
    // an explicitly non-telemetry value) produce identical bytes.
    let a = tsv3d(ASSIGN_ARGS);
    let b = tsv3d(ASSIGN_ARGS);
    let c = tsv3d_env(ASSIGN_ARGS, &[("TSV3D_TELEMETRY", "off")]);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "unset-env runs must be byte-identical");
    assert_eq!(a.stdout, c.stdout, "TSV3D_TELEMETRY=off is also disabled");
    assert!(
        !stdout(&a).contains("alloc_bytes"),
        "no telemetry leakage into stdout"
    );
}

#[test]
fn json_mode_spans_carry_alloc_deltas_and_runs_carry_provenance() {
    let dir = scratch("spans");
    let trace_path = dir.join("run_telemetry.jsonl");
    let out = tsv3d_env(
        ASSIGN_ARGS,
        &[
            ("TSV3D_TELEMETRY", "json"),
            ("TSV3D_TELEMETRY_PATH", trace_path.to_str().unwrap()),
            ("TSV3D_GIT_REV", "feedc0de"),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&trace_path).expect("trace written");

    let span_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"span\""))
        .collect();
    assert!(!span_lines.is_empty(), "instrumented run emits spans");
    for line in &span_lines {
        for key in ["alloc_bytes", "alloc_count", "peak_delta"] {
            assert!(line.contains(key), "span close lacks {key}: {line}");
        }
    }
    // The annealer allocates: at least one span must attribute bytes.
    assert!(
        span_lines.iter().any(|l| {
            let at = l.find("\"alloc_bytes\":").unwrap() + "\"alloc_bytes\":".len();
            !l[at..].starts_with('0')
        }),
        "all spans report zero bytes:\n{text}"
    );

    let start = text
        .lines()
        .find(|l| l.contains("\"event\":\"run.start\""))
        .expect("run.start present");
    let start_doc = json::parse(start).expect("run.start is valid JSON");
    assert_eq!(
        start_doc.get("git_rev").and_then(JsonValue::as_str),
        Some("feedc0de"),
        "provenance honours TSV3D_GIT_REV: {start}"
    );
    assert_eq!(
        start_doc.get("telemetry").and_then(JsonValue::as_str),
        Some("json")
    );
    assert!(
        start_doc
            .get("threads")
            .and_then(JsonValue::as_u64)
            .is_some_and(|t| t >= 1),
        "{start}"
    );
    assert!(start_doc.get("seed").and_then(JsonValue::as_u64).is_some());

    let done = text
        .lines()
        .find(|l| l.contains("\"event\":\"run.done\""))
        .expect("run.done present");
    let done_doc = json::parse(done).expect("run.done is valid JSON");
    assert!(
        done_doc
            .get("peak_bytes")
            .and_then(JsonValue::as_u64)
            .is_some_and(|b| b > 0),
        "process peak rides on run.done: {done}"
    );

    // `tsv3d trace --mem` ranks by self-allocated bytes.
    let out = tsv3d(&["trace", trace_path.to_str().unwrap(), "--mem"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("self B"), "mem columns shown:\n{report}");
    assert!(report.contains("0 skipped"), "{report}");

    // Bytes-weighted collapsed stacks.
    let flame_path = dir.join("bytes.collapsed");
    let out = tsv3d(&[
        "trace",
        trace_path.to_str().unwrap(),
        "--mem",
        "--collapsed",
        flame_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let flame = std::fs::read_to_string(&flame_path).unwrap();
    assert!(
        flame.lines().any(|l| {
            l.rsplit(' ').next().and_then(|n| n.parse::<u64>().ok()).unwrap_or(0) > 0
        }),
        "bytes-weighted stacks carry nonzero weights:\n{flame}"
    );

    // `--format json` emits one machine-readable rollup object.
    let out = tsv3d(&["trace", trace_path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let doc = json::parse(stdout(&out).trim()).expect("rollup is valid JSON");
    assert_eq!(doc.get("has_alloc"), Some(&JsonValue::Bool(true)));
    assert_eq!(doc.get("skipped").and_then(JsonValue::as_u64), Some(0));
    let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("self_bytes").and_then(JsonValue::as_u64).unwrap_or(0) > 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_surfaces_skipped_lines_in_every_format() {
    let dir = scratch("skipped");
    let path = dir.join("degraded.jsonl");
    std::fs::write(
        &path,
        "{\"t\":1.0,\"event\":\"ok\"}\nnot json\n{\"t\":2.0,\"event\":\"span\",\"name\":\"x\",\"seconds\":0.5,\"alloc_bytes\":128,\"alloc_count\":1,\"peak_delta\":0}\n",
    )
    .unwrap();
    let out = tsv3d(&["trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("1 skipped"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("1 of 3 line(s) skipped"),
        "stderr warning survives piping stdout: {}",
        stderr(&out)
    );
    let out = tsv3d(&["trace", path.to_str().unwrap(), "--format", "json"]);
    let doc = json::parse(stdout(&out).trim()).unwrap();
    assert_eq!(doc.get("skipped").and_then(JsonValue::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Five `gray_encode_w16_4k` ledger rows at a very slow median and
/// the given allocation field (`""` for rows without one).
fn gray_rows(alloc_field: &str) -> String {
    format!(
        "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
         \"case\":\"gray_encode_w16_4k\",\"git_rev\":\"base\",\"unix_time_s\":1,\
         \"median_ns\":900000000000,{alloc_field}\"threads\":4}}\n"
    )
    .repeat(5)
}

#[test]
fn bench_records_mem_stats_and_the_ledger_gate_catches_alloc_regressions() {
    let dir = scratch("gatemem");
    let out_dir = dir.join("artifacts");
    let bench = |ledger: &PathBuf| {
        tsv3d(&[
            "bench",
            "--case",
            "gray_encode",
            "--iters",
            "2",
            "--warmup",
            "0",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--history",
            ledger.to_str().unwrap(),
        ])
    };
    let fresh = dir.join("fresh.jsonl");
    let out = bench(&fresh);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("B/iter"),
        "per-case mem line printed: {}",
        stdout(&out)
    );

    // The v2 artifact carries the mem object.
    let artifact = out_dir.join("BENCH_gray_encode_w16_4k.json");
    let doc = json::parse(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-bench/v2")
    );
    let mem = doc.get("mem").expect("mem object in v2 artifact");
    let measured = mem
        .get("median_iter_bytes")
        .and_then(JsonValue::as_u64)
        .expect("median_iter_bytes present");
    assert!(measured > 0, "gray encode allocates its output Vec");
    assert!(mem.get("peak_bytes").and_then(JsonValue::as_u64).is_some());

    // The ledger row carries alloc_bytes_per_iter.
    let row = json::parse(std::fs::read_to_string(&fresh).unwrap().trim()).unwrap();
    assert_eq!(
        row.get("alloc_bytes_per_iter").and_then(JsonValue::as_u64),
        Some(measured)
    );

    let gate = |rows: String, extra: &[&str]| {
        let ledger = dir.join("gated.jsonl");
        std::fs::write(&ledger, rows).unwrap();
        let out = bench(&ledger);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let path = ledger.to_str().unwrap().to_string();
        let mut args = vec!["history", path.as_str(), "--detect-pct", "20"];
        args.extend_from_slice(extra);
        tsv3d(&args)
    };
    // Rows at a fraction of the real usage: the unchanged workload now
    // reads as an allocation regression.
    let half = format!("\"alloc_bytes_per_iter\":{},", (measured / 2).max(1));
    let out = gate(gray_rows(&half), &["--gate-detect"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "alloc regression must exit 1; stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    assert!(stdout(&out).contains("REGRESSED"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("gray_encode_w16_4k"),
        "{}",
        stderr(&out)
    );

    // The same ledger without the gate: history only.
    let out = gate(gray_rows(&half), &["--detect"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));

    // Rows at the measured usage gate clean on both axes.
    let same = format!("\"alloc_bytes_per_iter\":{measured},");
    let out = gate(gray_rows(&same), &["--gate-detect"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical workload must pass its own baseline: {}",
        stdout(&out)
    );

    // Rows without allocation data never alloc-gate.
    let out = gate(gray_rows(""), &["--gate-detect"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "rows without alloc data have nothing to gate on: {}\n{}",
        stdout(&out),
        stderr(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
