//! `tsv3d dash` — the unified observability dashboard.
//!
//! Per-case `BENCH_*.json` artifacts, the history ledger's verdicts,
//! trace flamegraphs, convergence reports and attribution heatmaps each
//! answer one question through one subcommand. This
//! module fuses them into a **single self-contained HTML page** —
//! inline CSS, inline SVGs reusing the [`crate::svg`] primitives, no
//! external assets, no JavaScript — that answers "is the system
//! healthy, is it getting faster, and where does the power go" in one
//! place, plus a machine-readable `tsv3d-dash/v1` JSON index of the
//! same content.
//!
//! Determinism discipline: the dashboard is a pure function of its
//! input texts. No wall clock is read and no current git revision is
//! stamped — every timestamp and revision shown comes from the input
//! artifacts themselves ("data as of" is the newest `unix_time_s`
//! across inputs) and bench files are consumed in sorted filename
//! order, so repeated renders are byte-identical.
//!
//! Input robustness follows the ledger policy: unreadable or malformed
//! artifacts are skipped and counted, never fatal.

use crate::analytics::{self, CaseVerdicts, SeriesVerdict};
use crate::explain::{self, ExplainSpec, Method};
use crate::history::{self, group_records, Ledger};
use crate::json::ObjectWriter;
use crate::report;
use crate::svg::{fnv1a, sparkline, xml_escape};
use crate::{converge, flamegraph, trace};
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag of the `--format json` index document.
pub const DASH_SCHEMA: &str = "tsv3d-dash/v1";

/// Everything the dashboard ingests, already read into memory (the
/// CLI does the I/O; the build stays pure).
#[derive(Debug, Clone, Default)]
pub struct DashSources {
    /// Display label of the bench artifact directory.
    pub bench_dir: String,
    /// `(filename, text)` of each `BENCH_*.json`, sorted by filename.
    pub bench_files: Vec<(String, String)>,
    /// `(path label, text)` of the history ledger, when readable.
    pub history: Option<(String, String)>,
    /// `(path label, text)` of a telemetry JSONL trace for the
    /// flamegraph section and, when it holds `anneal.epoch` events, the
    /// convergence section.
    pub trace: Option<(String, String)>,
    /// `(filename, text)` of committed experiment `.txt` artifacts,
    /// sorted by filename.
    pub artifacts: Vec<(String, String)>,
}

/// Reads every file in `dir` whose name passes `keep`, in sorted
/// filename order — the ingestion order the dashboard's determinism
/// contract pins. An unreadable directory yields the error; entries
/// that cannot be read as text (subdirectories, files that vanish
/// between the scan and the read) are silently dropped, and the
/// parse-level skip-and-count handles malformed content.
pub(crate) fn collect_files(
    dir: &Path,
    keep: fn(&str) -> bool,
) -> std::io::Result<Vec<(String, String)>> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| keep(name))
        .collect();
    names.sort();
    Ok(names
        .into_iter()
        .filter_map(|name| {
            std::fs::read_to_string(dir.join(&name))
                .ok()
                .map(|text| (name, text))
        })
        .collect())
}

/// `BENCH_<case>.json` artifact names.
pub(crate) fn is_bench_artifact(name: &str) -> bool {
    name.starts_with("BENCH_") && name.ends_with(".json")
}

/// One parsed bench artifact row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Source filename.
    pub file: String,
    /// Case name.
    pub case: String,
    /// Median iteration wall time, ns.
    pub median_ns: f64,
    /// p95 iteration wall time, ns, when present.
    pub p95_ns: Option<f64>,
    /// Median allocated bytes per iteration, when present.
    pub mem_bytes: Option<f64>,
    /// Revision the artifact was measured at, when stamped.
    pub git_rev: Option<String>,
    /// Timestamp the artifact was stamped with, when present.
    pub unix_time_s: Option<u64>,
    /// `--threads` the artifact was measured at, when stamped; picks
    /// the ledger series its sparkline and delta come from.
    pub threads: Option<u64>,
}

impl BenchRow {
    /// Whether the ledger series `(kind, case, threads)` is this
    /// artifact's (any thread count, for artifacts without one).
    fn is_series(&self, kind: &str, case: &str, threads: u64) -> bool {
        kind == "bench" && case == self.case && self.threads.is_none_or(|t| t == threads)
    }
}

/// One rendered SVG section.
#[derive(Debug, Clone)]
pub struct Section {
    /// Where the section's data came from.
    pub source: String,
    /// The inline SVG markup (XML declaration stripped).
    pub svg: String,
    /// One-line caption.
    pub note: String,
}

/// One committed experiment artifact's listing entry.
#[derive(Debug, Clone)]
pub struct ArtifactNote {
    /// Filename.
    pub file: String,
    /// Size in bytes.
    pub bytes: u64,
    /// The artifact's first line (its title by repo convention).
    pub title: String,
}

/// The fully-ingested dashboard model both renderers consume.
#[derive(Debug, Clone)]
pub struct DashData {
    /// Display label of the bench directory.
    pub bench_dir: String,
    /// Parsed bench artifacts in filename order.
    pub bench: Vec<BenchRow>,
    /// Bench files that failed to parse (skip-and-count).
    pub bench_skipped: Vec<String>,
    /// Ledger path label.
    pub history_path: String,
    /// The parsed ledger (empty when absent).
    pub ledger: Ledger,
    /// Changepoint threshold used, percent.
    pub detect_pct: f64,
    /// Changepoint verdicts per series (`(kind, case, threads)`).
    pub verdicts: Vec<CaseVerdicts>,
    /// The newest-record verdicts `tsv3d history` prints, for the
    /// bench table's delta column.
    pub newest: Vec<CaseVerdicts>,
    /// Flamegraph section, when a trace was supplied.
    pub flamegraph: Option<Section>,
    /// Convergence section, when the trace holds epoch series.
    pub converge: Option<Section>,
    /// The built-in attribution heatmap (always present — it is a pure
    /// function of a fixed reference spec).
    pub heatmap: Section,
    /// Committed experiment artifacts.
    pub artifacts: Vec<ArtifactNote>,
    /// Newest `unix_time_s` across all inputs.
    pub data_as_of: Option<u64>,
}

fn parse_bench_file(file: &str, text: &str) -> Result<BenchRow, String> {
    let value = crate::json::parse(text).map_err(|e| format!("{file}: {e}"))?;
    let summary =
        report::case_summary(&value).ok_or_else(|| format!("{file}: not a bench artifact"))?;
    Ok(BenchRow {
        file: file.to_string(),
        case: summary.case,
        median_ns: summary.median_ns,
        p95_ns: summary.p95_ns,
        mem_bytes: summary.mem_bytes,
        git_rev: value
            .get("git_rev")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        unix_time_s: value.get("unix_time_s").and_then(|v| v.as_u64()),
        threads: value.get("threads").and_then(|v| v.as_u64()),
    })
}

/// Strips the leading XML declaration so a full SVG document embeds
/// cleanly in an HTML body.
fn inline_svg(svg: &str) -> String {
    match svg.strip_prefix("<?xml") {
        Some(rest) => match rest.split_once("?>") {
            Some((_, tail)) => tail.trim_start().to_string(),
            None => svg.to_string(),
        },
        None => svg.to_string(),
    }
}

/// The built-in attribution heatmap: the default 4×4 `tsv3d explain`
/// reference spec with the deterministic greedy + 2-opt assignment.
fn reference_heatmap() -> Section {
    let spec = ExplainSpec::default();
    let (svg, note) = match spec.build_problem().and_then(|problem| {
        spec.resolve_assignment(&problem, Method::Greedy, None)
            .map(|(method, assignment)| explain::analyze(&spec, &problem, method, assignment))
    }) {
        Ok(report) => {
            let saved =
                explain::pct_of(report.identity_power - report.power, report.identity_power);
            (
                inline_svg(&explain::render_heatmap(&report)),
                format!(
                    "greedy assignment: {:.6e} (identity {:.6e}, saved {saved:.1}%)",
                    report.power, report.identity_power
                ),
            )
        }
        Err(e) => (String::new(), format!("unavailable: {e}")),
    };
    Section {
        source: "built-in reference spec: 4x4 wide, seq:0.02, greedy".to_string(),
        svg,
        note,
    }
}

/// Ingests the sources into the dashboard model, judging the ledger at
/// the `detect_pct` changepoint threshold. Pure: same sources + same
/// threshold → identical `DashData`.
pub fn build(sources: &DashSources, detect_pct: f64) -> DashData {
    let mut bench = Vec::new();
    let mut bench_skipped = Vec::new();
    for (file, text) in &sources.bench_files {
        match parse_bench_file(file, text) {
            Ok(row) => bench.push(row),
            Err(_) => bench_skipped.push(file.clone()),
        }
    }

    let (history_path, ledger) = match &sources.history {
        Some((path, text)) => (path.clone(), history::parse_ledger(text)),
        None => (String::new(), Ledger::default()),
    };
    let verdicts = analytics::detect(&ledger, detect_pct);
    let newest = analytics::judge_newest(&ledger, detect_pct);

    let (mut flame, mut conv) = (None, None);
    if let Some((path, text)) = &sources.trace {
        let summary = trace::analyze_text(text);
        let (lines, skipped) = (summary.lines, summary.skipped);
        let section = |svg: String, count: String| Section {
            source: path.clone(),
            svg: inline_svg(&svg),
            note: format!("{count}, {lines} line(s), {skipped} skipped"),
        };
        let flame_svg = flamegraph::render_svg(&summary, flamegraph::Weighting::Time);
        flame = Some(section(
            flame_svg,
            format!("{} span name(s)", summary.spans.len()),
        ));
        let series = summary.converge.series.len();
        if series > 0 {
            let svg = converge::render_svg(&summary.converge);
            conv = Some(section(svg, format!("{series} restart(s)")));
        }
    }

    let artifacts = sources
        .artifacts
        .iter()
        .map(|(file, text)| ArtifactNote {
            file: file.clone(),
            bytes: text.len() as u64,
            title: text.lines().next().unwrap_or("").trim().to_string(),
        })
        .collect();

    let data_as_of = bench
        .iter()
        .filter_map(|row| row.unix_time_s)
        .chain(ledger.records.iter().map(|r| r.unix_time_s))
        .max();

    DashData {
        bench_dir: sources.bench_dir.clone(),
        bench,
        bench_skipped,
        history_path,
        ledger,
        detect_pct,
        verdicts,
        newest,
        flamegraph: flame,
        converge: conv,
        heatmap: reference_heatmap(),
        artifacts,
        data_as_of,
    }
}

/// Deterministic per-case sparkline stroke from the FNV-1a name hash —
/// the dashboard's cool palette, bounded away from the background.
fn spark_color(name: &str) -> String {
    let h = fnv1a(name);
    let r = 30 + (h & 0x3f) as u8;
    let g = 60 + ((h >> 8) & 0x5f) as u8;
    let b = 120 + ((h >> 16) & 0x7f) as u8;
    format!("#{r:02x}{g:02x}{b:02x}")
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn fmt_opt_ns(ns: Option<f64>) -> String {
    ns.map_or_else(|| "-".to_string(), fmt_ns)
}

fn fmt_bytes(bytes: Option<f64>) -> String {
    match bytes {
        None => "-".to_string(),
        Some(b) if b >= 1048576.0 => format!("{:.1} MiB", b / 1048576.0),
        Some(b) if b >= 1024.0 => format!("{:.1} KiB", b / 1024.0),
        Some(b) => format!("{b:.0} B"),
    }
}

fn verdict_class(verdict: &SeriesVerdict) -> &'static str {
    match verdict {
        SeriesVerdict::Steady => "ok",
        SeriesVerdict::Improved(_) => "good",
        SeriesVerdict::Regressed(_) => "bad",
        SeriesVerdict::Insufficient => "dim",
    }
}

fn verdict_cell(analysis: &analytics::SeriesAnalysis) -> String {
    let text = match &analysis.verdict {
        SeriesVerdict::Steady => "steady".to_string(),
        SeriesVerdict::Insufficient => format!("insufficient ({} pts)", analysis.points),
        SeriesVerdict::Improved(cp) => {
            format!("improved@{} ({:+.1}%)", cp.git_rev, cp.delta_pct)
        }
        SeriesVerdict::Regressed(cp) => {
            format!("regressed@{} ({:+.1}%)", cp.git_rev, cp.delta_pct)
        }
    };
    format!(
        r#"<td class="{}">{}</td>"#,
        verdict_class(&analysis.verdict),
        xml_escape(&text)
    )
}

const STYLE: &str = "\
body{font-family:-apple-system,'Segoe UI',sans-serif;margin:24px auto;max-width:1240px;\
padding:0 16px;color:#1c2733;background:#fdfdfd}\
h1{font-size:1.5em;border-bottom:2px solid #2a6fb0;padding-bottom:6px}\
h2{font-size:1.15em;margin-top:28px;color:#21506f}\
table{border-collapse:collapse;font-size:0.88em;width:100%}\
th,td{border:1px solid #d5dde4;padding:4px 8px;text-align:left}\
th{background:#eef3f7}\
td.num{text-align:right;font-variant-numeric:tabular-nums}\
td.ok{color:#1c2733}td.good{color:#1a7f37;font-weight:600}\
td.bad{color:#b62323;font-weight:600}td.dim{color:#8a949e}\
.meta{color:#5a6570;font-size:0.9em}\
.chips span{display:inline-block;border-radius:10px;padding:2px 10px;margin-right:6px;\
font-size:0.85em;border:1px solid #d5dde4}\
.chips .bad{background:#fbeaea;color:#b62323}\
.chips .good{background:#e8f5ec;color:#1a7f37}\
.chips .ok{background:#eef3f7}\
.chips .dim{background:#f4f4f4;color:#8a949e}\
svg.spark{vertical-align:middle}\
figure{margin:8px 0;overflow-x:auto}\
figcaption{color:#5a6570;font-size:0.85em;margin-top:4px}\
pre{background:#f4f6f8;border:1px solid #d5dde4;padding:8px;overflow-x:auto;\
font-size:0.8em;max-height:320px}\
footer{margin-top:32px;color:#8a949e;font-size:0.8em;border-top:1px solid #d5dde4;\
padding-top:8px}";

/// Renders the self-contained HTML dashboard. Byte-deterministic for
/// equal [`DashData`].
pub fn render_html(data: &DashData) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>tsv3d dashboard</title>\n");
    let _ = writeln!(out, "<style>{STYLE}</style>");
    out.push_str("</head>\n<body>\n<h1>tsv3d dashboard</h1>\n");

    let as_of = data
        .data_as_of
        .map_or_else(|| "unknown".to_string(), |t| format!("unix {t}"));
    let _ = writeln!(
        out,
        "<p class=\"meta\">data as of {as_of} · {} bench artifact(s) from {} · \
         {} ledger record(s) from {} ({} line(s) skipped)</p>",
        data.bench.len(),
        xml_escape(if data.bench_dir.is_empty() {
            "-"
        } else {
            &data.bench_dir
        }),
        data.ledger.records.len(),
        xml_escape(if data.history_path.is_empty() {
            "-"
        } else {
            &data.history_path
        }),
        data.ledger.skipped,
    );

    // Health chips: changepoint verdict counts over both metrics.
    let mut regressed = 0usize;
    let mut improved = 0usize;
    let mut steady = 0usize;
    let mut insufficient = 0usize;
    for v in &data.verdicts {
        for series in [&v.wall, &v.alloc] {
            match series.verdict {
                SeriesVerdict::Regressed(_) => regressed += 1,
                SeriesVerdict::Improved(_) => improved += 1,
                SeriesVerdict::Steady => steady += 1,
                SeriesVerdict::Insufficient => insufficient += 1,
            }
        }
    }
    out.push_str("<h2>Health</h2>\n<p class=\"chips\">");
    let _ = write!(out, "<span class=\"bad\">{regressed} regressed</span>");
    let _ = write!(out, "<span class=\"good\">{improved} improved</span>");
    let _ = write!(out, "<span class=\"ok\">{steady} steady</span>");
    let _ = write!(
        out,
        "<span class=\"dim\">{insufficient} insufficient</span>"
    );
    let _ = writeln!(
        out,
        "</p>\n<p class=\"meta\">changepoint detector: two-window median split, \
         threshold {:.0}%, rank guard {:.0}%</p>",
        data.detect_pct,
        analytics::RANK_FRACTION * 100.0
    );

    // Bench table, joined with ledger sparklines and newest deltas.
    out.push_str("<h2>Bench cases</h2>\n");
    if data.bench.is_empty() {
        out.push_str("<p class=\"meta\">no bench artifacts found</p>\n");
    } else {
        let groups = group_records(&data.ledger);
        out.push_str(
            "<table>\n<tr><th>case</th><th>median</th><th>p95</th>\
             <th>alloc/iter</th><th>rev</th><th>ledger trend</th>\
             <th>&Delta; vs window</th></tr>\n",
        );
        for row in &data.bench {
            let medians: Vec<f64> = groups
                .iter()
                .find(|((kind, case, threads), _)| row.is_series(kind, case, *threads))
                .map(|(_, records)| records.iter().map(|r| r.median_ns).collect())
                .unwrap_or_default();
            let spark = sparkline(&medians, 140.0, 26.0, &spark_color(&row.case));
            let delta = data
                .newest
                .iter()
                .find(|v| row.is_series(&v.kind, &v.case, v.threads))
                .and_then(|v| v.wall.newest)
                .map_or_else(|| "-".to_string(), |(.., pct)| format!("{pct:+.1}%"));
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td>{}</td><td>{spark}</td>\
                 <td class=\"num\">{}</td></tr>",
                xml_escape(&row.case),
                fmt_ns(row.median_ns),
                fmt_opt_ns(row.p95_ns),
                fmt_bytes(row.mem_bytes),
                xml_escape(row.git_rev.as_deref().unwrap_or("-")),
                xml_escape(&delta),
            );
        }
        out.push_str("</table>\n");
    }

    // Changepoint verdicts.
    out.push_str("<h2>Changepoint verdicts</h2>\n");
    if data.verdicts.is_empty() {
        out.push_str("<p class=\"meta\">no ledger records to analyze</p>\n");
    } else {
        out.push_str(
            "<table>\n<tr><th>kind</th><th>case</th><th>threads</th><th>runs</th>\
             <th>wall time</th><th>alloc/iter</th></tr>\n",
        );
        for v in &data.verdicts {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td>{}{}</tr>",
                xml_escape(&v.kind),
                xml_escape(&v.case),
                v.threads,
                v.runs,
                verdict_cell(&v.wall),
                verdict_cell(&v.alloc),
            );
        }
        out.push_str("</table>\n");
    }

    for (title, section) in [
        ("Flamegraph", data.flamegraph.as_ref()),
        ("Convergence", data.converge.as_ref()),
        ("Power attribution", Some(&data.heatmap)),
    ] {
        let Some(section) = section else { continue };
        let _ = writeln!(out, "<h2>{title}</h2>");
        let _ = writeln!(
            out,
            "<figure>{}<figcaption>{} — {}</figcaption></figure>",
            section.svg,
            xml_escape(&section.source),
            xml_escape(&section.note),
        );
    }

    out.push_str("<h2>Experiment artifacts</h2>\n");
    if data.artifacts.is_empty() {
        out.push_str("<p class=\"meta\">none supplied</p>\n");
    } else {
        out.push_str("<table>\n<tr><th>file</th><th>bytes</th><th>title</th></tr>\n");
        for a in &data.artifacts {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td>{}</td></tr>",
                xml_escape(&a.file),
                a.bytes,
                xml_escape(&a.title),
            );
        }
        out.push_str("</table>\n");
    }

    out.push_str("<footer>");
    if !data.bench_skipped.is_empty() {
        let _ = write!(
            out,
            "skipped {} unreadable bench artifact(s): {} · ",
            data.bench_skipped.len(),
            xml_escape(&data.bench_skipped.join(", "))
        );
    }
    let _ = write!(
        out,
        "generated by tsv3d dash (threshold {:.0}%)",
        data.detect_pct
    );
    out.push_str("</footer>\n</body>\n</html>\n");
    out
}

/// Renders the machine-readable index (`tsv3d-dash/v1`).
pub fn render_json(data: &DashData) -> String {
    let bench_docs: Vec<String> = data
        .bench
        .iter()
        .map(|row| {
            let mut w = ObjectWriter::new();
            w.str("file", &row.file)
                .str("case", &row.case)
                .f64("median_ns", row.median_ns)
                .f64("p95_ns", row.p95_ns.unwrap_or(f64::NAN))
                .f64("alloc_bytes_per_iter", row.mem_bytes.unwrap_or(f64::NAN))
                .str("git_rev", row.git_rev.as_deref().unwrap_or("unknown"));
            w.f64(
                "unix_time_s",
                row.unix_time_s.map_or(f64::NAN, |t| t as f64),
            );
            w.finish()
        })
        .collect();
    let detect_docs: Vec<String> = data.verdicts.iter().map(analytics::case_json).collect();
    let sections = {
        let mut w = ObjectWriter::new();
        w.bool("flamegraph", data.flamegraph.is_some())
            .bool("converge", data.converge.is_some())
            .raw("heatmap", "true")
            .u64("artifacts", data.artifacts.len() as u64);
        w.finish()
    };
    let mut w = ObjectWriter::new();
    w.str("schema", DASH_SCHEMA)
        .f64("threshold_pct", data.detect_pct)
        .f64("data_as_of", data.data_as_of.map_or(f64::NAN, |t| t as f64))
        .u64("bench_files", data.bench.len() as u64)
        .u64("bench_skipped", data.bench_skipped.len() as u64)
        .u64("history_records", data.ledger.records.len() as u64)
        .u64("history_skipped", data.ledger.skipped as u64)
        .u64(
            "regressed",
            data.verdicts.iter().filter(|v| v.regressed()).count() as u64,
        )
        .raw("bench", &format!("[{}]", bench_docs.join(",")))
        .raw("detect", &format!("[{}]", detect_docs.join(",")))
        .raw("sections", &sections);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::DEFAULT_DETECT_PCT;
    use crate::json::{self, JsonValue};

    fn bench_text(case: &str, median: u64, rev: &str, t: u64) -> String {
        format!(
            "{{\"schema\":\"tsv3d-bench/v2\",\"case\":\"{case}\",\"area\":\"core\",\
             \"iters\":3,\"warmup_iters\":1,\
             \"wall_ns\":{{\"median\":{median},\"p95\":{p95},\"mean\":{median}.0,\
             \"stddev\":1.0,\"min\":{median},\"max\":{p95}}},\
             \"samples_ns\":[{median},{median},{p95}],\"counters\":{{}},\
             \"mem\":{{\"alloc_count\":2,\"dealloc_count\":2,\"realloc_count\":0,\
             \"alloc_bytes\":4096,\"median_iter_bytes\":2048,\"peak_bytes\":4096}},\
             \"git_rev\":\"{rev}\",\"unix_time_s\":{t}}}",
            p95 = median + median / 10,
        )
    }

    fn ledger_text() -> String {
        let mut out = String::new();
        for (i, median) in [500_000u64, 505_000, 495_000, 502_000, 1_000_000]
            .iter()
            .enumerate()
        {
            out.push_str(&format!(
                "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
                 \"case\":\"case_a\",\"git_rev\":\"rev{i}\",\"unix_time_s\":{t},\
                 \"median_ns\":{median},\"threads\":4}}\n",
                t = 100 + i,
            ));
        }
        out.push_str("junk line\n");
        out
    }

    fn sources() -> DashSources {
        DashSources {
            bench_dir: "results/bench".to_string(),
            bench_files: vec![
                (
                    "BENCH_case_a.json".to_string(),
                    bench_text("case_a", 1_000_000, "rev4", 104),
                ),
                (
                    "BENCH_case_b.json".to_string(),
                    bench_text("case_b", 2_000_000, "rev4", 200),
                ),
                ("BENCH_junk.json".to_string(), "not json".to_string()),
            ],
            history: Some(("results/history.jsonl".to_string(), ledger_text())),
            trace: None,
            artifacts: vec![(
                "fig3_gaussian.txt".to_string(),
                "Figure 3 sweep\ndata...\n".to_string(),
            )],
        }
    }

    #[test]
    fn build_ingests_parses_and_detects() {
        let data = build(&sources(), DEFAULT_DETECT_PCT);
        assert_eq!(data.bench.len(), 2);
        assert_eq!(data.bench_skipped, vec!["BENCH_junk.json".to_string()]);
        assert_eq!(data.bench[0].case, "case_a");
        assert_eq!(data.bench[0].mem_bytes, Some(2048.0));
        assert_eq!(data.ledger.records.len(), 5);
        assert_eq!(data.ledger.skipped, 1);
        assert_eq!(data.verdicts.len(), 1);
        assert!(data.verdicts[0].regressed(), "seeded jump flagged");
        assert_eq!(data.data_as_of, Some(200), "max across bench + ledger");
        assert_eq!(data.artifacts[0].title, "Figure 3 sweep");
        assert_eq!(data.artifacts[0].bytes, 23);
    }

    #[test]
    fn html_is_byte_identical_across_builds() {
        let src = sources();
        let base = render_html(&build(&src, DEFAULT_DETECT_PCT));
        assert_eq!(render_html(&build(&src, DEFAULT_DETECT_PCT)), base);
    }

    #[test]
    fn html_is_self_contained_and_carries_every_section() {
        let data = build(&sources(), DEFAULT_DETECT_PCT);
        let html = render_html(&data);
        assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60]);
        assert!(html.contains("<style>"), "inline CSS");
        assert!(!html.contains("<script"), "no JS");
        // No external fetches: no stylesheet links, images or iframes
        // (the only URL anywhere is the inline-SVG xmlns).
        assert!(!html.contains("<link"), "no external stylesheets");
        assert!(!html.contains(" src="), "no external resources");
        assert!(
            html.contains("data as of unix 200"),
            "provenance from inputs"
        );
        assert!(html.contains("case_a"));
        assert!(html.contains("regressed@rev4"), "verdict surfaced");
        assert!(html.contains("<svg"), "inline SVGs");
        assert!(!html.contains("<?xml"), "XML declarations stripped");
        assert!(html.contains("Power attribution"), "heatmap always present");
        assert!(html.contains("Figure 3 sweep"), "artifact title listed");
        assert!(html.contains("BENCH_junk.json"), "skip note in footer");
    }

    #[test]
    fn html_never_stamps_the_current_clock_or_revision() {
        // Render from empty sources: with no inputs there is no
        // provenance, so "data as of" must be unknown rather than now.
        let data = build(&DashSources::default(), DEFAULT_DETECT_PCT);
        let html = render_html(&data);
        assert!(html.contains("data as of unknown"), "{html}");
    }

    #[test]
    fn json_index_pins_the_schema_and_counts() {
        let data = build(&sources(), DEFAULT_DETECT_PCT);
        let doc = json::parse(&render_json(&data)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(DASH_SCHEMA)
        );
        assert_eq!(doc.get("bench_files").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            doc.get("bench_skipped").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("history_records").and_then(JsonValue::as_u64),
            Some(5)
        );
        assert_eq!(doc.get("regressed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("data_as_of").and_then(JsonValue::as_u64), Some(200));
        let bench = doc.get("bench").and_then(JsonValue::as_array).unwrap();
        assert_eq!(bench.len(), 2);
        assert_eq!(
            bench[0].get("case").and_then(JsonValue::as_str),
            Some("case_a")
        );
        let detect = doc.get("detect").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            detect[0]
                .get("wall_ns")
                .and_then(|w| w.get("verdict"))
                .and_then(JsonValue::as_str),
            Some("regressed")
        );
        let sections = doc.get("sections").unwrap();
        assert_eq!(sections.get("heatmap"), Some(&JsonValue::Bool(true)));
        assert_eq!(sections.get("flamegraph"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn trace_and_converge_sections_render_when_supplied() {
        let mut src = sources();
        let spans = "{\"t\":1.0,\"event\":\"span\",\"name\":\"outer\",\"seconds\":1.0}\n";
        src.trace = Some(("run.jsonl".to_string(), spans.to_string()));
        let data = build(&src, DEFAULT_DETECT_PCT);
        assert!(
            data.flamegraph.is_some() && data.converge.is_none(),
            "no epochs, no plot"
        );
        src.trace = Some((
            "run.jsonl".to_string(),
            spans.to_string()
                + "{\"t\":0.1,\"event\":\"anneal.epoch\",\"restart\":0,\"iteration\":100,\
                   \"temperature\":1.0,\"current_power\":2.0,\"best_power\":1.5,\
                   \"accept_rate\":0.5,\"swap_moves\":10,\"flip_moves\":10}\n",
        ));
        let data = build(&src, DEFAULT_DETECT_PCT);
        let html = render_html(&data);
        assert!(html.contains("Flamegraph"), "{html}");
        assert!(html.contains("Convergence"), "{html}");
        let doc = json::parse(&render_json(&data)).unwrap();
        let sections = doc.get("sections").unwrap();
        assert_eq!(sections.get("flamegraph"), Some(&JsonValue::Bool(true)));
        assert_eq!(sections.get("converge"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn inline_svg_strips_only_the_xml_declaration() {
        let full = "<?xml version=\"1.0\"?>\n<svg>x</svg>";
        assert_eq!(inline_svg(full), "<svg>x</svg>");
        assert_eq!(inline_svg("<svg>y</svg>"), "<svg>y</svg>");
    }
}
