//! End-to-end tests of `tsv3d explain`: per-TSV attribution values
//! checked against an independent core-API recomputation, the
//! `--compare` identity-vs-optimized roundtrip, deterministic heatmap
//! SVG rendering, and the exit-code contract.
//!
//! Exit-code contract: 0 success, 1 runtime failure (unreadable
//! baseline file, unwritable SVG), 2 usage error (bad flags, malformed
//! assignment or baseline content).

use std::path::PathBuf;
use std::process::{Command, Output};

use tsv3d_bench::json::{self, JsonValue};
use tsv3d_core::{attribution, AssignmentProblem, SignedPerm};
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::gen::SequentialSource;
use tsv3d_stats::SwitchingStats;

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

/// Path of a committed fixture (tests run from the package root,
/// `crates/experiments`).
fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name)
        .to_str()
        .expect("fixture path is UTF-8")
        .to_string()
}

/// A per-test scratch directory under the system tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsv3d_explain_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// The known 4×4 case: `wide_2018` geometry, sequential stream with
/// branch probability 0.02, 4000 cycles, seed 7 — rebuilt here through
/// the core APIs, independently of the CLI's `ExplainSpec`.
fn known_4x4_problem() -> AssignmentProblem {
    let array = TsvArray::new(4, 4, TsvGeometry::wide_2018()).expect("valid geometry");
    let cap = LinearCapModel::fit(&Extractor::new(array)).expect("fit succeeds");
    let stream = SequentialSource::new(16, 0.02)
        .expect("supported width")
        .generate(7, 4_000)
        .expect("generation succeeds");
    AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("sizes match")
}

/// CLI flags selecting exactly the [`known_4x4_problem`] case.
const KNOWN_CASE: [&str; 8] = [
    "--rows", "4", "--cols", "4", "--stream", "seq:0.02", "--cycles", "4000",
];

#[test]
fn help_lists_explain_and_prints_its_usage() {
    let out = tsv3d(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("explain"), "{}", stdout(&out));

    let out = tsv3d(&["explain", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("Usage: tsv3d explain"), "{text}");
    assert!(text.contains("--compare"), "{text}");
    assert!(text.contains("--svg"), "{text}");
}

#[test]
fn known_4x4_identity_values_match_an_independent_recomputation() {
    let mut args = vec!["explain"];
    args.extend_from_slice(&KNOWN_CASE);
    args.extend_from_slice(&["--method", "identity", "--top", "16", "--format", "json"]);
    let out = tsv3d(&args);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("output is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tsv3d-explain/v1")
    );
    assert_eq!(doc.get("method").and_then(JsonValue::as_str), Some("identity"));

    // Recompute the same breakdown straight through the core API.
    let problem = known_4x4_problem();
    let identity = SignedPerm::identity(16);
    let breakdown = attribution::PowerBreakdown::compute(&problem, &identity);
    let classes = breakdown.class_totals(4, 4);
    let power = problem.power(&identity);
    let close = |field: &str, expected: f64| {
        let got = doc.get(field).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
        assert!(
            (got - expected).abs() < 1e-9 * expected.abs().max(1e-12),
            "{field}: CLI {got:.12e} vs core {expected:.12e}"
        );
    };
    close("power", power);
    close("identity_power", problem.identity_power());
    close("self_charge", breakdown.self_total());
    close("coupling_charge", breakdown.coupling_total());

    // Per-class roll-up: a 4×4 grid has 24 adjacent and 18 diagonal
    // pairs of its 120 — the hand-checkable combinatorial part.
    let json_classes = doc.get("classes").expect("classes object");
    for (name, pairs, charge) in [
        ("adjacent", 24, classes.adjacent),
        ("diagonal", 18, classes.diagonal),
        ("distant", 78, classes.distant),
    ] {
        let c = json_classes.get(name).expect("class entry");
        assert_eq!(c.get("pairs").and_then(JsonValue::as_u64), Some(pairs));
        let got = c.get("charge").and_then(JsonValue::as_f64).unwrap();
        assert!(
            (got - charge).abs() < 1e-9 * charge.abs().max(1e-12),
            "{name}: {got:.12e} vs {charge:.12e}"
        );
    }

    // Every per-TSV row matches the core breakdown term for its line.
    let per_tsv = doc.get("per_tsv").and_then(JsonValue::as_array).unwrap();
    assert_eq!(per_tsv.len(), 16);
    for row in per_tsv {
        let line = row.get("line").and_then(JsonValue::as_u64).unwrap() as usize;
        let term = &breakdown.per_tsv()[line];
        assert_eq!(row.get("bit").and_then(JsonValue::as_u64), Some(line as u64));
        for (field, expected) in [
            ("self_charge", term.self_charge),
            ("coupling_charge", term.coupling_charge),
            ("total", term.total()),
        ] {
            let got = row.get(field).and_then(JsonValue::as_f64).unwrap();
            assert!(
                (got - expected).abs() < 1e-9 * expected.abs().max(1e-12),
                "line {line} {field}: {got:.12e} vs {expected:.12e}"
            );
        }
    }
    let tsv_sum: f64 = breakdown.per_tsv().iter().map(|t| t.total()).sum();
    assert!((tsv_sum - power).abs() < 1e-9 * power.abs().max(1e-12));
}

#[test]
fn compare_identity_roundtrip_savings_equal_the_power_delta() {
    let mut args = vec!["explain"];
    args.extend_from_slice(&KNOWN_CASE);
    args.extend_from_slice(&["--method", "greedy", "--compare", "identity", "--format", "json"]);
    let out = tsv3d(&args);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("output is valid JSON");
    let power = doc.get("power").and_then(JsonValue::as_f64).unwrap();
    let identity_power = doc
        .get("identity_power")
        .and_then(JsonValue::as_f64)
        .unwrap();
    let cmp = doc.get("compare").expect("compare fragment");
    assert_eq!(
        cmp.get("baseline").and_then(JsonValue::as_str),
        Some("identity")
    );
    let baseline_power = cmp
        .get("baseline_power")
        .and_then(JsonValue::as_f64)
        .unwrap();
    let savings = cmp.get("savings").and_then(JsonValue::as_f64).unwrap();
    // The roundtrip identity: savings over the identity baseline must
    // equal `identity_power() - power()` computed from the same run.
    assert!(
        (savings - (identity_power - power)).abs() < 1e-9 * identity_power.abs().max(1e-12),
        "savings {savings:.12e} vs delta {:.12e}",
        identity_power - power
    );
    assert!(
        (baseline_power - identity_power).abs() < 1e-9 * identity_power.abs().max(1e-12)
    );
    // And it matches an independent core-API optimisation of the same
    // problem (greedy two-opt is deterministic).
    let problem = known_4x4_problem();
    let best = tsv3d_core::optimize::greedy_two_opt(&problem);
    let expected = problem.identity_power() - best.power;
    assert!(
        (savings - expected).abs() < 1e-9 * expected.abs().max(1e-12),
        "CLI savings {savings:.12e} vs core {expected:.12e}"
    );
    // Pair deltas: every entry's `saved` is baseline − current.
    let deltas = cmp.get("pair_deltas").and_then(JsonValue::as_array).unwrap();
    assert!(!deltas.is_empty());
    for d in deltas {
        let old = d.get("baseline_charge").and_then(JsonValue::as_f64).unwrap();
        let new = d.get("charge").and_then(JsonValue::as_f64).unwrap();
        let saved = d.get("saved").and_then(JsonValue::as_f64).unwrap();
        assert!((saved - (old - new)).abs() < 1e-12, "{saved} != {old} - {new}");
    }
}

#[test]
fn compare_against_the_committed_fixture_assignment_works() {
    let path = fixture("explain_assignment.json");
    let mut args = vec!["explain"];
    args.extend_from_slice(&KNOWN_CASE);
    args.extend_from_slice(&["--method", "identity", "--compare", &path, "--format", "json"]);
    let out = tsv3d(&args);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let doc = json::parse(&stdout(&out)).expect("output is valid JSON");
    let cmp = doc.get("compare").expect("compare fragment");
    assert_eq!(
        cmp.get("baseline_assignment").and_then(JsonValue::as_str),
        Some("15-,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0")
    );
    // Savings against the fixture baseline reproduce the core's power
    // delta for that explicit assignment.
    let problem = known_4x4_problem();
    let baseline: SignedPerm = "15-,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0".parse().unwrap();
    let expected = problem.power(&baseline) - problem.identity_power();
    let savings = cmp.get("savings").and_then(JsonValue::as_f64).unwrap();
    assert!(
        (savings - expected).abs() < 1e-9 * expected.abs().max(1e-12),
        "savings {savings:.12e} vs core delta {expected:.12e}"
    );
}

#[test]
fn per_tsv_inverted_flags_are_json_booleans() {
    let inverted = |assignment: Option<&str>| -> Vec<JsonValue> {
        let mut args = vec!["explain", "--rows", "2", "--cols", "2", "--cycles", "200"];
        match assignment {
            Some(a) => args.extend_from_slice(&["--assignment", a]),
            None => args.extend_from_slice(&["--method", "identity"]),
        }
        args.extend_from_slice(&["--format", "json"]);
        let out = tsv3d(&args);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let doc = json::parse(&stdout(&out)).expect("output is valid JSON");
        let per_tsv = doc
            .get("per_tsv")
            .and_then(JsonValue::as_array)
            .expect("per_tsv");
        per_tsv
            .iter()
            .map(|t| t.get("inverted").expect("inverted").clone())
            .collect()
    };
    assert_eq!(inverted(None), vec![JsonValue::Bool(false); 4]);
    let flags = inverted(Some("0,1-,2,3"));
    assert_eq!(
        flags
            .iter()
            .filter(|&f| *f == JsonValue::Bool(true))
            .count(),
        1
    );
    assert_eq!(
        flags
            .iter()
            .filter(|&f| *f == JsonValue::Bool(false))
            .count(),
        3
    );
}

#[test]
fn heatmap_svg_is_byte_identical_across_runs() {
    let dir = scratch("svg");
    let svg_a = dir.join("a.svg");
    let svg_b = dir.join("b.svg");
    for svg in [&svg_a, &svg_b] {
        let out = tsv3d(&[
            "explain", "--rows", "3", "--cols", "3", "--geometry", "min", "--cycles", "2000",
            "--method", "spiral", "--svg", svg.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert!(stdout(&out).contains("wrote heatmap SVG"), "{}", stdout(&out));
    }
    let rendered = std::fs::read(&svg_a).unwrap();
    assert_eq!(
        rendered,
        std::fs::read(&svg_b).unwrap(),
        "same spec must render a byte-identical heatmap"
    );
    let text = String::from_utf8(rendered).unwrap();
    assert!(text.starts_with("<?xml"), "self-contained SVG document");
    assert!(text.ends_with("</svg>\n"), "document is complete");
    assert_eq!(
        text.matches("<title>").count(),
        9,
        "one tooltip per via of the 3×3 array:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_inputs_exit_2_and_unreadable_files_exit_1() {
    let dir = scratch("bad");

    // Malformed explicit assignment: usage error.
    let out = tsv3d(&["explain", "--assignment", "0,0,1"]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("Usage: tsv3d explain"), "{}", stderr(&out));

    // Baseline JSON without an `assignment` field: usage error.
    let no_field = dir.join("no_field.json");
    std::fs::write(&no_field, "{\"power\": 1.0}\n").unwrap();
    let out = tsv3d(&["explain", "--compare", no_field.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("no string `assignment` field"),
        "{}",
        stderr(&out)
    );

    // Baseline with the wrong width: usage error.
    let short = dir.join("short.txt");
    std::fs::write(&short, "2,0,1\n").unwrap();
    let out = tsv3d(&["explain", "--compare", short.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));

    // Unknown flag: usage error.
    let out = tsv3d(&["explain", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    // Unreadable baseline file: runtime error, not usage.
    let out = tsv3d(&["explain", "--compare", "/nonexistent/нет.json"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    let _ = std::fs::remove_dir_all(&dir);
}
