//! End-to-end tests of the `tsv3d` multiplexer binary: command
//! dispatch, the usage/exit-code contract of all ten commands, the
//! assignment-flow commands' stdout, and the `bench`/`trace` surfaces;
//! plus the same contract and `--csv` for the 14 table binaries.
//!
//! Exit-code contract: 0 success, 1 runtime failure or gated
//! regression, 2 usage error (unknown command/option, missing or
//! out-of-range value).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tsv3d(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tsv3d"), args, Path::new("."))
}

/// Runs the executable `exe` on `args` in `dir`, with telemetry off.
fn run(exe: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env_remove("TSV3D_TELEMETRY")
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A per-test scratch directory under the target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tsv3d_cli_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    // Retired commands are unknown commands like any other.
    for unknown in ["frobnicate", "watch", "serve", "converge"] {
        let out = tsv3d(&[unknown]);
        assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown command `{unknown}`")),
            "{err}"
        );
        assert!(err.contains("Usage: tsv3d <command>"), "{err}");
        for cmd in SUBCOMMANDS {
            assert!(err.contains(cmd), "usage must list `{cmd}`: {err}");
        }
    }
}

#[test]
fn unknown_option_prints_usage_and_exits_2() {
    // With or without the command name, `assign` rejects the option
    // with its own usage.
    for args in [&["assign", "--frob", "1"][..], &["--frob", "1"]] {
        let out = tsv3d(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("Usage: tsv3d assign"), "{}", stderr(&out));
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for arg in ["help", "--help", "-h"] {
        let out = tsv3d(&[arg]);
        assert_eq!(out.status.code(), Some(0), "`{arg}`");
        let text = stdout(&out);
        assert!(text.contains("Usage: tsv3d <command>"), "`{arg}`");
        for cmd in SUBCOMMANDS {
            assert!(text.contains(cmd), "`{arg}` must list `{cmd}`: {text}");
        }
    }
}

/// Every command, each with its own usage text: the assignment flow,
/// then the observability subcommands.
const SUBCOMMANDS: [&str; 10] = [
    "assign", "eval", "extract", "spice", "noise", "bench", "trace", "explain", "history", "dash",
];

#[test]
fn out_of_range_values_and_foreign_flags_are_usage_errors() {
    for args in [
        &["assign", "--stream", "seq:2"][..],
        &["assign", "--stream", "gauss:0"],
        &["assign", "--stream", "gauss:1000,1.5"],
        &["assign", "--cycles", "0"],
        &["assign", "--cycles", "1", "--method", "identity"],
        &["eval", "--assignment", "0,1,2,3,4,5,6,7,8", "--cycles", "1"],
        &["explain", "--cycles", "1"],
        &["assign", "--rows", "0"],
        &["assign", "--geometry", "dense"],
        &["assign", "--assignment", "0,1,2"],
        &["extract", "--method", "bnb"],
        &["noise", "--probs", "all:1.5"],
        &["eval"],
        &["eval", "--assignment", "0,1,2"],
        &["eval", "--rows", "2", "--cols", "2", "--assignment", "0,x,2,3"],
        &["dash", "--live", "127.0.0.1:1"],
        &["dash", "--converge", "a.jsonl"],
        &["trace", "a.jsonl", "--epsilon", "1"],
        &["trace", "b.jsonl", "--compare", "a.jsonl", "--svg", "x.svg"],
    ] {
        let out = tsv3d(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let usage = format!("Usage: tsv3d {}", args[0]);
        assert!(stderr(&out).contains(&usage), "{args:?}: {}", stderr(&out));
    }
    // A malformed entry is named, not reported as an out-of-range line.
    let out = tsv3d(&["eval", "--rows", "2", "--cols", "2", "--assignment", "0,x,2,3"]);
    assert!(stderr(&out).contains("bit 1 has entry `x`"), "{}", stderr(&out));
}

#[test]
fn the_one_grammar_takes_every_paper_stream_and_method() {
    // Fig. 3 sweeps negative correlations; every command that builds a
    // problem takes them, and `explain` takes `bnb` like `assign` and
    // names its proof status.
    for (args, shows) in [
        (&["explain", "--stream", "gauss:16000,-0.6"][..], ""),
        (
            &["explain", "--rows", "2", "--cols", "2", "--cycles", "200", "--method", "bnb"],
            "assignment (bnb, proven optimal): ",
        ),
        (
            &["assign", "--rows", "2", "--cols", "2", "--cycles", "200", "--method", "identity"],
            "",
        ),
        (
            &["assign", "--rows", "2", "--cols", "2", "--geometry", "fig2", "--cycles", "200"],
            "",
        ),
    ] {
        let out = tsv3d(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).contains(shows), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn subcommand_help_prints_dedicated_usage() {
    for cmd in SUBCOMMANDS {
        for flag in ["--help", "-h"] {
            let out = tsv3d(&[cmd, flag]);
            assert_eq!(
                out.status.code(),
                Some(0),
                "`{cmd} {flag}`: {}",
                stderr(&out)
            );
            let marker = format!("Usage: tsv3d {cmd}");
            assert!(
                stdout(&out).contains(&marker),
                "`{cmd} {flag}`: {}",
                stdout(&out)
            );
        }
    }
}

#[test]
fn subcommand_unknown_option_prints_its_usage_and_exits_2() {
    for cmd in SUBCOMMANDS {
        let out = tsv3d(&[cmd, "--frobnicate"]);
        assert_eq!(out.status.code(), Some(2), "`{cmd} --frobnicate`");
        let err = stderr(&out);
        assert!(err.contains("`--frobnicate`"), "{err}");
        assert!(err.contains(&format!("Usage: tsv3d {cmd}")), "{err}");
    }
}

/// The assignment-flow commands on small 2x2 arrays, plus a B&B proof at
/// the 3x3 defaults, each with the committed file under `tests/data/`
/// that holds its exact stdout.
const FLOW_GOLDENS: [(&str, &[&str]); 9] = [
    ("cli_extract_2x2.txt", &["extract", "--rows", "2", "--cols", "2"]),
    ("cli_spice_2x2.sp", &["spice", "--rows", "2", "--cols", "2"]),
    (
        "cli_noise_2x2.txt",
        &["noise", "--rows", "2", "--cols", "2", "--probs", "all:0.3"],
    ),
    (
        "cli_eval_2x2.txt",
        &[
            "eval", "--rows", "2", "--cols", "2", "--assignment", "1,0-,3,2", "--stream",
            "gauss:1000,-0.3", "--cycles", "500",
        ],
    ),
    (
        "cli_assign_anneal_2x2.txt",
        &["assign", "--rows", "2", "--cols", "2", "--cycles", "500", "--method", "anneal"],
    ),
    (
        "cli_assign_bnb_2x2.txt",
        &["assign", "--rows", "2", "--cols", "2", "--cycles", "500", "--method", "bnb"],
    ),
    ("cli_assign_bnb_3x3.txt", &["assign", "--method", "bnb"]),
    (
        "cli_assign_greedy_wide_2x2.txt",
        &[
            "assign", "--rows", "2", "--cols", "2", "--cycles", "500", "--method", "greedy",
            "--geometry", "wide",
        ],
    ),
    (
        "cli_assign_sawtooth_uniform_2x2.txt",
        &[
            "assign", "--rows", "2", "--cols", "2", "--cycles", "500", "--method", "sawtooth",
            "--stream", "uniform",
        ],
    ),
];

#[test]
fn flow_commands_match_their_goldens() {
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    for (file, args) in FLOW_GOLDENS {
        let out = tsv3d(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        let golden = std::fs::read_to_string(data.join(file)).expect("golden file is readable");
        assert_eq!(stdout(&out), golden, "`tsv3d {}` vs {file}", args.join(" "));
    }
}

#[test]
fn bench_list_names_the_registry() {
    let out = tsv3d(&["bench", "--list"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for case in ["anneal_quick_3x3", "mna_lu_factor_n40", "gray_encode_w16_4k"] {
        assert!(text.contains(case), "missing `{case}` in:\n{text}");
    }
    assert!(
        text.lines().filter(|l| !l.trim().is_empty()).count() >= 10,
        "registry lists >= 10 cases:\n{text}"
    );
}

#[test]
fn bench_usage_error_exits_2() {
    // The baseline gate is gone: the ledger gates through `history`.
    let out = tsv3d(&["bench", "--gate", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown bench option `--gate`"),
        "{}",
        stderr(&out)
    );
}

/// Five `gray_encode_w16_4k` ledger rows at `median_ns`, threads 4.
fn gray_rows(median_ns: &str) -> String {
    format!(
        "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
         \"case\":\"gray_encode_w16_4k\",\"git_rev\":\"base\",\
         \"unix_time_s\":1,\"median_ns\":{median_ns},\"threads\":4}}\n"
    )
    .repeat(5)
}

#[test]
fn bench_writes_valid_artifacts_and_gates_against_baselines() {
    use tsv3d_bench::json::{self, JsonValue};

    let dir = scratch("bench");
    let out_dir = dir.join("artifacts");
    let bench = |ledger: &PathBuf| {
        tsv3d(&[
            "bench",
            "--case",
            "gray_encode",
            "--iters",
            "3",
            "--warmup",
            "1",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--history",
            ledger.to_str().unwrap(),
        ])
    };
    let ledger = dir.join("history.jsonl");
    let out = bench(&ledger);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    // The run appended a cross-run ledger record alongside artifacts.
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    assert!(text.contains("\"schema\":\"tsv3d-history/v1\""), "{text}");
    assert!(text.contains("\"case\":\"gray_encode_w16_4k\""), "{text}");
    assert!(
        text.contains("\"threads\":4,\"available_parallelism\":"),
        "{text}"
    );

    // Artifact exists and matches the documented schema.
    let artifact = out_dir.join("BENCH_gray_encode_w16_4k.json");
    let text = std::fs::read_to_string(&artifact).expect("artifact written");
    let value = json::parse(&text).expect("artifact is valid JSON");
    assert_eq!(
        value.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-bench/v2")
    );
    assert_eq!(
        value.get("case").and_then(JsonValue::as_str),
        Some("gray_encode_w16_4k")
    );
    assert_eq!(value.get("iters").and_then(JsonValue::as_u64), Some(3));
    let wall = value.get("wall_ns").expect("wall_ns object");
    for stat in ["median", "p95", "min", "max"] {
        assert!(
            wall.get(stat).and_then(JsonValue::as_f64).unwrap_or(-1.0) > 0.0,
            "{stat} must be a positive number"
        );
    }
    assert!(value.get("git_rev").and_then(JsonValue::as_str).is_some());
    assert!(value.get("unix_time_s").and_then(JsonValue::as_u64).is_some());
    assert_eq!(value.get("threads").and_then(JsonValue::as_u64), Some(4));
    assert!(
        value
            .get("available_parallelism")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1
    );

    // Against a synthetic regressed baseline (impossibly fast rows) the
    // new record fails the ledger gate; against a generous one it
    // passes.
    for (median_ns, code) in [("1", 1), ("900000000000", 0)] {
        let ledger = dir.join(format!("gate_{median_ns}.jsonl"));
        std::fs::write(&ledger, gray_rows(median_ns)).unwrap();
        let out = bench(&ledger);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let out = tsv3d(&[
            "history",
            ledger.to_str().unwrap(),
            "--gate-detect",
            "--detect-pct",
            "10",
        ]);
        assert_eq!(out.status.code(), Some(code), "{}", stdout(&out));
        assert_eq!(
            stdout(&out).contains("REGRESSED"),
            code == 1,
            "{}",
            stdout(&out)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_rolls_up_a_real_telemetry_file() {
    let dir = scratch("trace");
    let trace_path = dir.join("run_telemetry.jsonl");
    // Generate a real trace through the telemetry layer itself by
    // running an instrumented assignment.
    let out = Command::new(env!("CARGO_BIN_EXE_tsv3d"))
        .args(["assign", "--rows", "2", "--cols", "2", "--cycles", "500"])
        .env("TSV3D_TELEMETRY", "json")
        .env("TSV3D_TELEMETRY_PATH", trace_path.to_str().unwrap())
        .output()
        .expect("tsv3d binary runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    let collapsed = dir.join("collapsed.txt");
    let out = tsv3d(&[
        "trace",
        trace_path.to_str().unwrap(),
        "--collapsed",
        collapsed.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("core.anneal"), "span rollup present:\n{text}");
    assert!(text.contains("0 skipped"), "{text}");
    let flame = std::fs::read_to_string(&collapsed).unwrap();
    assert!(
        flame.lines().any(|l| l.contains("cli.solve;core.anneal")),
        "nested stack reconstructed:\n{flame}"
    );

    // The SVG flamegraph renders the same spans and is deterministic:
    // rendering the same trace twice is byte-identical.
    let svg_a = dir.join("flame_a.svg");
    let svg_b = dir.join("flame_b.svg");
    for svg in [&svg_a, &svg_b] {
        let out = tsv3d(&[
            "trace",
            trace_path.to_str().unwrap(),
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
    assert!(text.contains("core.anneal"), "span frames labelled:\n{text}");
    assert!(text.ends_with("</svg>\n"), "document is complete");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_survives_a_malformed_file() {
    let dir = scratch("trace_bad");
    let path = dir.join("bad.jsonl");
    std::fs::write(
        &path,
        "{\"t\":1.0,\"event\":\"ok\"}\nnot json at all\n{\"t\":2.0,\"event\":\"span\",\"name\":\"x\",\"seconds\":0.5}\n{\"t\":3.0,\"event\":\"span\",\"name\":\"tr",
    )
    .unwrap();
    let out = tsv3d(&["trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 skipped"), "{text}");
    assert!(text.contains('x'), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_missing_file_exits_1() {
    let out = tsv3d(&["trace", "/nonexistent/никогда.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"));
}

/// The 14 table binaries, each with whether it takes `--quick` and
/// `--csv`.
const TABLES: [(&str, &str, bool, bool); 14] = [
    ("fig2_sequential", env!("CARGO_BIN_EXE_fig2_sequential"), true, true),
    ("fig3_gaussian", env!("CARGO_BIN_EXE_fig3_gaussian"), true, true),
    ("fig4_image_sensor", env!("CARGO_BIN_EXE_fig4_image_sensor"), true, true),
    ("fig5_mems", env!("CARGO_BIN_EXE_fig5_mems"), true, true),
    ("fig6_circuit", env!("CARGO_BIN_EXE_fig6_circuit"), true, true),
    ("tab_businvert", env!("CARGO_BIN_EXE_tab_businvert"), true, false),
    ("tab_capmodel", env!("CARGO_BIN_EXE_tab_capmodel"), false, false),
    ("tab_crosstalk", env!("CARGO_BIN_EXE_tab_crosstalk"), true, true),
    ("tab_geometry", env!("CARGO_BIN_EXE_tab_geometry"), true, true),
    ("tab_overhead", env!("CARGO_BIN_EXE_tab_overhead"), false, false),
    ("tab_pareto", env!("CARGO_BIN_EXE_tab_pareto"), true, true),
    ("tab_phases", env!("CARGO_BIN_EXE_tab_phases"), true, true),
    ("tab_redundancy", env!("CARGO_BIN_EXE_tab_redundancy"), true, true),
    ("tab_variation", env!("CARGO_BIN_EXE_tab_variation"), true, true),
];

#[test]
fn table_binaries_follow_the_exit_code_contract() {
    let here = Path::new(".");
    for (name, exe, quick, csv) in TABLES {
        let usage = format!("Usage: {name}");
        for help in ["--help", "-h"] {
            let out = run(exe, &[help], here);
            assert_eq!(out.status.code(), Some(0), "`{name} {help}`");
            assert!(stdout(&out).contains(&usage), "`{name} {help}`: {}", stdout(&out));
        }
        for wrong in ["--frobnicate", "extra"] {
            let out = run(exe, &[wrong], here);
            assert_eq!(out.status.code(), Some(2), "`{name} {wrong}`");
            assert!(stderr(&out).contains(&usage), "`{name} {wrong}`: {}", stderr(&out));
        }
        // The flags the usage names; `--help` after a known flag wins,
        // so no figure runs.
        let text = stdout(&run(exe, &["--help"], here));
        let named: Vec<&str> = text
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|word| word.starts_with("--"))
            .collect();
        for &flag in &named {
            let out = run(exe, &[flag, "--help"], here);
            assert_eq!(out.status.code(), Some(0), "`{name} {flag} --help`");
        }
        for (flag, takes) in [("--quick", quick), ("--csv", csv), ("--threads", false)] {
            assert_eq!(named.contains(&flag), takes, "{name}'s usage and {flag}: {text}");
            if !takes {
                let out = run(exe, &[flag, "--help"], here);
                assert_eq!(out.status.code(), Some(2), "`{name} {flag} --help`");
            }
        }
    }
    // A misspelt flag no longer runs the full figure, and the retired
    // sweep-level `--threads` is an unknown option.
    for args in [&["fig5_mems", "--quik"][..], &["fig3_gaussian", "--threads", "2"]] {
        let exe = TABLES.iter().find(|t| t.0 == args[0]).expect("a table binary").1;
        let out = run(exe, &args[1..], here);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let unknown = format!("unknown {} option `{}`", args[0], args[1]);
        assert!(stderr(&out).contains(&unknown), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn csv_writes_the_table_and_a_failed_write_exits_1() {
    let exe = env!("CARGO_BIN_EXE_tab_phases");
    let dir = scratch("csv");
    let out = run(exe, &["--quick", "--csv"], &dir);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("mapping"), "{text}");
    assert!(text.contains("\n(csv written to results/tab_phases.csv)\n"), "{text}");
    let csv = std::fs::read_to_string(dir.join("results/tab_phases.csv")).expect("csv written");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3, "{csv}");
    assert_eq!(lines[0], "mapping,P_red vs random [%]");
    for (line, label) in lines[1..].iter().zip(["fixed (paper's setting)", "re-optimized per phase"]) {
        let value: f64 = line
            .strip_prefix(&format!("{label},"))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("`{line}` is not the {label} row"));
        let row = text.lines().find(|l| l.starts_with(label)).expect("table row");
        assert!(row.ends_with(&format!("{value:.2}")), "`{row}` vs csv {value}");
    }

    // A plain file where `results/` belongs: the write fails, exit 1.
    let blocked = scratch("csv_blocked");
    std::fs::write(blocked.join("results"), "").unwrap();
    let out = run(exe, &["--quick", "--csv"], &blocked);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("results/tab_phases.csv"), "{}", stderr(&out));
    // Traced, the failed run still ends its trace with one `run.done`.
    let trace = blocked.join("t.jsonl");
    let out = Command::new(exe)
        .args(["--quick", "--csv"])
        .current_dir(&blocked)
        .env("TSV3D_TELEMETRY", "json")
        .env("TSV3D_TELEMETRY_PATH", &trace)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let events = std::fs::read_to_string(&trace).expect("trace written");
    assert_eq!(events.matches("\"event\":\"run.done\"").count(), 1, "{events}");
    assert!(events.trim_end().lines().last().unwrap().contains("\"event\":\"run.done\""));
    for dir in [dir, blocked] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
