//! Per-TSV power attribution reports for `tsv3d explain`, and the one
//! problem grammar ([`ExplainSpec`], [`Method`]) that `assign`, `eval`,
//! `explain` and the benchmark registry build their problems from.
//!
//! Builds on [`tsv3d_core::attribution`]: the exact decomposition of
//! `power(Aπ)` into per-via self terms and per-pair coupling terms is
//! computed in core; this module turns it into user-facing artifacts —
//!
//! * ranked per-TSV tables (total / self / coupling / inversion
//!   effect) and top-coupling-pair tables,
//! * a deterministic array heatmap SVG (grid laid out from the array
//!   geometry, cells shaded by attributed charge on a sequential
//!   value-keyed ramp — *not* the hash palettes of flamegraph/converge,
//!   because here the color must encode magnitude, not identity),
//! * `--compare` diff reports attributing the savings of one
//!   assignment over another pair-by-pair,
//! * a `tsv3d-explain/v1` JSON shape for machine consumers.
//!
//! Everything is a pure function of the (seeded) problem spec and the
//! assignments, so text, JSON and SVG outputs are byte-identical
//! across runs.

use crate::cli::Fail;
use crate::json::ObjectWriter;
use crate::svg::{document_open, xml_escape};
use std::fmt::Write as _;
use tsv3d_core::attribution::{neighbor_class, ClassTotals, PowerBreakdown};
use tsv3d_core::{optimize, systematic, AssignmentProblem, SignedPerm};
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::gen::{GaussianSource, SequentialSource, UniformSource};
use tsv3d_stats::SwitchingStats;
use tsv3d_telemetry::TelemetryHandle;

/// Schema identifier stamped on every JSON report.
pub const SCHEMA: &str = "tsv3d-explain/v1";

/// TSV geometry presets selectable from the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryKind {
    /// ITRS 2018 minimum-pitch geometry.
    Min,
    /// The relaxed wide-pitch 2018 geometry (default).
    Wide,
    /// The paper's Fig. 2 5×5 geometry.
    Fig2,
}

impl GeometryKind {
    /// Parses the `--geometry` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "min" => Ok(GeometryKind::Min),
            "wide" => Ok(GeometryKind::Wide),
            "fig2" => Ok(GeometryKind::Fig2),
            other => Err(format!(
                "--geometry must be `min`, `wide` or `fig2`, got `{other}`"
            )),
        }
    }

    /// The stable name echoed in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            GeometryKind::Min => "min",
            GeometryKind::Wide => "wide",
            GeometryKind::Fig2 => "fig2",
        }
    }

    fn geometry(self) -> TsvGeometry {
        match self {
            GeometryKind::Min => TsvGeometry::itrs_2018_min(),
            GeometryKind::Wide => TsvGeometry::wide_2018(),
            GeometryKind::Fig2 => TsvGeometry::fig2_5x5(),
        }
    }
}

/// Data-stream presets selectable from the CLI (`--stream`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamSpec {
    /// `seq:P` — sequential counter-like data with branch probability
    /// `P` (DSP-style LSB/MSB activity split).
    Sequential(f64),
    /// `gauss:SIGMA[,RHO]` — Gaussian samples with lag-1 correlation
    /// `RHO` (default 0).
    Gaussian(f64, f64),
    /// `uniform` — i.i.d. uniform words (the pessimistic baseline).
    Uniform,
}

impl StreamSpec {
    /// Parses the `--stream` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(p) = s.strip_prefix("seq:") {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("--stream seq: bad probability `{p}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err("--stream seq: probability must be in [0, 1]".to_string());
            }
            return Ok(StreamSpec::Sequential(p));
        }
        if let Some(rest) = s.strip_prefix("gauss:") {
            let (sigma, rho) = match rest.split_once(',') {
                Some((s, r)) => (s, Some(r)),
                None => (rest, None),
            };
            let sigma: f64 = sigma
                .parse()
                .map_err(|_| format!("--stream gauss: bad sigma `{sigma}`"))?;
            let rho: f64 = match rho {
                Some(r) => r
                    .parse()
                    .map_err(|_| format!("--stream gauss: bad correlation `{r}`"))?,
                None => 0.0,
            };
            if !(sigma > 0.0 && sigma.is_finite() && rho > -1.0 && rho < 1.0) {
                return Err(
                    "--stream gauss: need sigma > 0 and correlation in (-1, 1)".to_string()
                );
            }
            return Ok(StreamSpec::Gaussian(sigma, rho));
        }
        if s == "uniform" {
            return Ok(StreamSpec::Uniform);
        }
        Err(format!(
            "--stream must be `seq:P`, `gauss:SIGMA[,RHO]` or `uniform`, got `{s}`"
        ))
    }

    /// The canonical spelling echoed in reports.
    pub fn label(self) -> String {
        match self {
            StreamSpec::Sequential(p) => format!("seq:{p}"),
            StreamSpec::Gaussian(sigma, rho) => format!("gauss:{sigma},{rho}"),
            StreamSpec::Uniform => "uniform".to_string(),
        }
    }
}

/// How an assignment is obtained (`--method`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The identity assignment (bit `i` on line `i`).
    Identity,
    /// Seeded simulated annealing with the command's budget (default).
    Anneal,
    /// Branch & bound under its default node budget; proves optimality
    /// when the search completes.
    Bnb,
    /// Greedy construction + 2-opt.
    Greedy,
    /// The data-independent Spiral assignment.
    Spiral,
    /// The data-independent Sawtooth assignment.
    Sawtooth,
}

impl Method {
    /// Parses the `--method` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "identity" => Ok(Method::Identity),
            "anneal" => Ok(Method::Anneal),
            "bnb" => Ok(Method::Bnb),
            "greedy" => Ok(Method::Greedy),
            "spiral" => Ok(Method::Spiral),
            "sawtooth" => Ok(Method::Sawtooth),
            other => Err(format!(
                "--method must be `identity`, `anneal`, `bnb`, `greedy`, `spiral` \
                 or `sawtooth`, got `{other}`"
            )),
        }
    }

    /// The stable name echoed in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Identity => "identity",
            Method::Anneal => "anneal",
            Method::Bnb => "bnb",
            Method::Greedy => "greedy",
            Method::Spiral => "spiral",
            Method::Sawtooth => "sawtooth",
        }
    }

    /// Runs the method on `problem` under `tel`, `anneal` with `budget`.
    /// Returns the assignment and the method's description for reports
    /// (`branch & bound (proven optimal)`).
    pub fn solve(
        self,
        problem: &AssignmentProblem,
        budget: &optimize::AnnealOptions,
        tel: &TelemetryHandle,
    ) -> Result<(SignedPerm, &'static str), String> {
        Ok(match self {
            Method::Identity => (SignedPerm::identity(problem.n()), "identity"),
            Method::Anneal => {
                let result = optimize::anneal_with_telemetry(problem, budget, tel)
                    .map_err(|e| format!("anneal: {e}"))?;
                (result.assignment, "simulated annealing")
            }
            Method::Bnb => {
                let outcome =
                    optimize::branch_and_bound_with_telemetry(problem, &Default::default(), tel)
                        .map_err(|e| format!("bnb: {e}"))?;
                let proof = if outcome.proven_optimal {
                    "branch & bound (proven optimal)"
                } else {
                    "branch & bound (budget exhausted)"
                };
                (outcome.result.assignment, proof)
            }
            Method::Greedy => (optimize::greedy_two_opt(problem).assignment, "greedy 2-opt"),
            Method::Spiral => (systematic::spiral(problem), "Spiral (systematic)"),
            Method::Sawtooth => (systematic::sawtooth(problem), "Sawtooth (systematic)"),
        })
    }
}

/// A fully-resolved, seeded assignment problem: the array, its
/// geometry and the data stream. The default is `tsv3d explain`'s.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainSpec {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// TSV geometry preset.
    pub geometry: GeometryKind,
    /// Data-stream preset.
    pub stream: StreamSpec,
    /// Stream length in cycles.
    pub cycles: usize,
    /// Stream seed; `explain` also seeds its annealer with it.
    pub seed: u64,
}

impl Default for ExplainSpec {
    fn default() -> Self {
        Self {
            rows: 4,
            cols: 4,
            geometry: GeometryKind::Wide,
            stream: StreamSpec::Sequential(0.02),
            cycles: 8_000,
            seed: 7,
        }
    }
}

impl ExplainSpec {
    /// The TSV array the spec describes.
    pub fn array(&self) -> Result<TsvArray, String> {
        TsvArray::new(self.rows, self.cols, self.geometry.geometry())
            .map_err(|e| format!("array: {e}"))
    }

    /// Builds the assignment problem the spec describes. Fully seeded,
    /// so the same spec always yields the same problem.
    pub fn build_problem(&self) -> Result<AssignmentProblem, String> {
        let n = self.rows * self.cols;
        let cap =
            LinearCapModel::fit(&Extractor::new(self.array()?)).map_err(|e| format!("fit: {e}"))?;
        let stream = match self.stream {
            StreamSpec::Sequential(p) => SequentialSource::new(n, p)
                .map_err(|e| format!("stream: {e}"))?
                .generate(self.seed, self.cycles),
            StreamSpec::Gaussian(sigma, rho) => GaussianSource::new(n, sigma)
                .with_correlation(rho)
                .generate(self.seed, self.cycles),
            StreamSpec::Uniform => UniformSource::new(n)
                .map_err(|e| format!("stream: {e}"))?
                .generate(self.seed, self.cycles),
        }
        .map_err(|e| format!("stream: {e}"))?;
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap)
            .map_err(|e| format!("problem: {e}"))
    }

    /// Resolves the explained assignment: either a method's output, with
    /// a quick fixed anneal budget, or an explicit compact-form
    /// permutation string. B&B's name carries its proof status
    /// (`bnb, proven optimal` or `bnb, budget exhausted`), so a report
    /// never reads an unproven incumbent as an optimum.
    pub fn resolve_assignment(
        &self,
        problem: &AssignmentProblem,
        method: Method,
        explicit: Option<&str>,
    ) -> Result<(String, SignedPerm), String> {
        if let Some(text) = explicit {
            let a = parse_assignment(text, problem.n())?;
            return Ok(("explicit".to_string(), a));
        }
        // Explain is an analysis command: determinism (seeded,
        // threads=1) matters more than squeezing the last percent.
        let budget = optimize::AnnealOptions {
            iterations: 4_000,
            restarts: 2,
            seed: self.seed,
            threads: 1,
        };
        let (a, label) = method.solve(problem, &budget, &TelemetryHandle::disabled())?;
        let name = match label.strip_prefix("branch & bound (") {
            Some(status) => format!("bnb, {}", status.trim_end_matches(')')),
            None => method.as_str().to_string(),
        };
        Ok((name, a))
    }
}

/// Parses a compact-form assignment (`"2,0-,1"`) and checks its size
/// against the problem.
pub fn parse_assignment(text: &str, n: usize) -> Result<SignedPerm, String> {
    let a: SignedPerm = text
        .trim()
        .parse()
        .map_err(|e| format!("malformed assignment `{}`: {e}", text.trim()))?;
    if a.n() != n {
        return Err(format!(
            "assignment has {} bits but the problem has {n}",
            a.n()
        ));
    }
    Ok(a)
}

/// Reads a `--compare` operand: the literal `identity`, a JSON file
/// with an `"assignment"` field (e.g. a saved report), or a file whose
/// content is the compact form itself. An unreadable file is a runtime
/// failure, malformed content a usage error.
pub fn load_compare_assignment(operand: &str, n: usize) -> Result<(String, SignedPerm), Fail> {
    if operand == "identity" {
        return Ok(("identity".to_string(), SignedPerm::identity(n)));
    }
    let text = std::fs::read_to_string(operand)
        .map_err(|e| Fail::Runtime(format!("cannot read `{operand}`: {e}")))?;
    let trimmed = text.trim();
    let compact = if trimmed.starts_with('{') {
        let value = crate::json::parse(trimmed)
            .map_err(|e| Fail::Usage(format!("`{operand}` is not valid JSON: {e}")))?;
        value
            .get("assignment")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| Fail::Usage(format!("`{operand}` has no string `assignment` field")))?
    } else {
        trimmed.to_string()
    };
    let a = parse_assignment(&compact, n).map_err(|m| Fail::Usage(format!("`{operand}`: {m}")))?;
    Ok((operand.to_string(), a))
}

/// One fully-analyzed assignment: the breakdown plus the context the
/// renderers need.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The spec the problem was built from.
    pub spec: ExplainSpec,
    /// How the assignment was obtained (`anneal`, `explicit`, …).
    pub method: String,
    /// The explained assignment.
    pub assignment: SignedPerm,
    /// Its exact decomposition.
    pub breakdown: PowerBreakdown,
    /// The breakdown rolled up by neighbor class.
    pub classes: ClassTotals,
    /// `problem.power(assignment)` — equals `breakdown.total()` up to
    /// round-off.
    pub power: f64,
    /// The identity-assignment reference power.
    pub identity_power: f64,
}

/// Analyzes one assignment against the problem.
pub fn analyze(
    spec: &ExplainSpec,
    problem: &AssignmentProblem,
    method: String,
    assignment: SignedPerm,
) -> ExplainReport {
    let breakdown = PowerBreakdown::compute(problem, &assignment);
    let classes = breakdown.class_totals(spec.rows, spec.cols);
    ExplainReport {
        spec: spec.clone(),
        method,
        power: problem.power(&assignment),
        identity_power: problem.identity_power(),
        assignment,
        breakdown,
        classes,
    }
}

/// `part` as a percentage of `whole`; 0 when `whole` is 0.
pub fn pct_of(part: f64, whole: f64) -> f64 {
    if whole.abs() < 1e-300 {
        0.0
    } else {
        part / whole * 100.0
    }
}

/// Renders the human-readable report: totals, per-class roll-up, the
/// top `top` TSVs by attributed charge and the top coupling pairs.
pub fn render_text(report: &ExplainReport, top: usize) -> String {
    let mut out = String::new();
    let spec = &report.spec;
    let _ = writeln!(out, "tsv3d explain — per-TSV power attribution");
    let _ = writeln!(
        out,
        "array: {}x{} ({} geometry) · stream {} · {} cycles · seed {}",
        spec.rows,
        spec.cols,
        spec.geometry.as_str(),
        spec.stream.label(),
        spec.cycles,
        spec.seed
    );
    let _ = writeln!(
        out,
        "assignment ({}): {}",
        report.method, report.assignment
    );
    let _ = writeln!(
        out,
        "power {:.6e}  (identity {:.6e}, {:+.2}%)",
        report.power,
        report.identity_power,
        pct_of(report.power - report.identity_power, report.identity_power)
    );
    out.push('\n');
    let b = &report.breakdown;
    let _ = writeln!(
        out,
        "self charge      {:>12.6e}  ({:.1}%)",
        b.self_total(),
        pct_of(b.self_total(), b.total())
    );
    let _ = writeln!(
        out,
        "coupling charge  {:>12.6e}  ({:.1}%)",
        b.coupling_total(),
        pct_of(b.coupling_total(), b.total())
    );
    let c = &report.classes;
    for (name, charge, count) in [
        ("adjacent", c.adjacent, c.adjacent_pairs),
        ("diagonal", c.diagonal, c.diagonal_pairs),
        ("distant", c.distant, c.distant_pairs),
    ] {
        let _ = writeln!(
            out,
            "  {name:<9} {count:>4} pairs  {charge:>12.6e}  ({:.1}%)",
            pct_of(charge, b.total())
        );
    }
    out.push('\n');

    let mut lines: Vec<usize> = (0..b.n()).collect();
    lines.sort_by(|&a, &x| {
        b.per_tsv()[x]
            .total()
            .total_cmp(&b.per_tsv()[a].total())
            .then(a.cmp(&x))
    });
    let shown = top.min(lines.len());
    let _ = writeln!(
        out,
        "per-TSV (top {shown} of {} by total, coupling half-split):",
        b.n()
    );
    let _ = writeln!(
        out,
        "  line  pos    bit        total         self     coupling  flip_effect"
    );
    for &l in lines.iter().take(shown) {
        let t = &b.per_tsv()[l];
        let (r, col) = (l / spec.cols, l % spec.cols);
        let bit = format!("b{}{}", t.bit, if t.inverted { "-" } else { "" });
        let flip = match t.flip_effect {
            Some(d) => format!("{d:+.3e}"),
            None => "pinned".to_string(),
        };
        let _ = writeln!(
            out,
            "  {l:>4}  ({r},{col})  {bit:<5} {:>12.5e} {:>12.5e} {:>12.5e}  {flip}",
            t.total(),
            t.self_charge,
            t.coupling_charge
        );
    }
    out.push('\n');

    let mut pairs: Vec<usize> = (0..b.pairs().len()).collect();
    pairs.sort_by(|&a, &x| {
        b.pairs()[x]
            .charge
            .abs()
            .total_cmp(&b.pairs()[a].charge.abs())
            .then(a.cmp(&x))
    });
    let shown = top.min(pairs.len());
    let _ = writeln!(out, "top {shown} coupling pairs by |charge|:");
    let _ = writeln!(out, "  lines      bits        class           charge");
    for &i in pairs.iter().take(shown) {
        let p = &b.pairs()[i];
        let class = neighbor_class(spec.rows, spec.cols, p.line_lo, p.line_hi);
        let _ = writeln!(
            out,
            "  ({:>2},{:>2})    b{}·b{:<6} {:<9} {:>14.5e}",
            p.line_lo,
            p.line_hi,
            p.bit_lo,
            p.bit_hi,
            class.as_str(),
            p.charge
        );
    }
    out
}

fn classes_json(c: &ClassTotals) -> String {
    let mut w = ObjectWriter::new();
    for (name, charge, count) in [
        ("adjacent", c.adjacent, c.adjacent_pairs),
        ("diagonal", c.diagonal, c.diagonal_pairs),
        ("distant", c.distant, c.distant_pairs),
    ] {
        let mut inner = ObjectWriter::new();
        inner.u64("pairs", count as u64).f64("charge", charge);
        w.raw(name, &inner.finish());
    }
    w.finish()
}

/// Renders the `tsv3d-explain/v1` JSON object (one line,
/// stdout-ready). When a [`CompareReport`] is given, its diff rides
/// inside as the `compare` field.
pub fn render_json(report: &ExplainReport, top: usize, cmp: Option<&CompareReport>) -> String {
    let spec = &report.spec;
    let b = &report.breakdown;
    let mut w = ObjectWriter::new();
    w.str("schema", SCHEMA)
        .u64("rows", spec.rows as u64)
        .u64("cols", spec.cols as u64)
        .str("geometry", spec.geometry.as_str())
        .str("stream", &spec.stream.label())
        .u64("cycles", spec.cycles as u64)
        .u64("seed", spec.seed)
        .str("method", &report.method)
        .str("assignment", &report.assignment.to_string())
        .f64("power", report.power)
        .f64("identity_power", report.identity_power)
        .f64("self_charge", b.self_total())
        .f64("coupling_charge", b.coupling_total())
        .raw("classes", &classes_json(&report.classes));

    let mut per_tsv = String::from("[");
    for (i, t) in b.per_tsv().iter().enumerate() {
        if i > 0 {
            per_tsv.push(',');
        }
        let mut o = ObjectWriter::new();
        o.u64("line", t.line as u64)
            .u64("row", (t.line / spec.cols) as u64)
            .u64("col", (t.line % spec.cols) as u64)
            .u64("bit", t.bit as u64)
            .bool("inverted", t.inverted)
            .f64("self_charge", t.self_charge)
            .f64("coupling_charge", t.coupling_charge)
            .f64("total", t.total());
        if let Some(d) = t.flip_effect {
            o.f64("flip_effect", d);
        }
        per_tsv.push_str(&o.finish());
    }
    per_tsv.push(']');
    w.raw("per_tsv", &per_tsv);

    let mut order: Vec<usize> = (0..b.pairs().len()).collect();
    order.sort_by(|&a, &x| {
        b.pairs()[x]
            .charge
            .abs()
            .total_cmp(&b.pairs()[a].charge.abs())
            .then(a.cmp(&x))
    });
    let mut pairs = String::from("[");
    for (i, &idx) in order.iter().take(top).enumerate() {
        if i > 0 {
            pairs.push(',');
        }
        let p = &b.pairs()[idx];
        let mut o = ObjectWriter::new();
        o.u64("line_lo", p.line_lo as u64)
            .u64("line_hi", p.line_hi as u64)
            .u64("bit_lo", p.bit_lo as u64)
            .u64("bit_hi", p.bit_hi as u64)
            .str(
                "class",
                neighbor_class(spec.rows, spec.cols, p.line_lo, p.line_hi).as_str(),
            )
            .f64("charge", p.charge);
        pairs.push_str(&o.finish());
    }
    pairs.push(']');
    w.raw("top_pairs", &pairs);
    if let Some(cmp) = cmp {
        w.raw("compare", &render_compare_json(report, cmp, top));
    }
    w.finish()
}

// ---------------------------------------------------------------- heatmap

const CELL: f64 = 72.0;
const MARGIN: f64 = 14.0;
const HEADER: f64 = 40.0;
const FOOTER: f64 = 34.0;

/// Sequential value-keyed ramp: pale yellow (cool) → deep red (hot).
/// `t` is the cell's normalised charge in `[0, 1]`. Channels are
/// rounded from exact affine interpolation, so the color is a pure
/// function of the value.
fn ramp_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0);
    let lerp = |a: f64, b: f64| -> u32 { (a + (b - a) * t).round() as u32 };
    let r = lerp(255.0, 165.0);
    let g = lerp(250.0, 15.0);
    let b = lerp(205.0, 21.0);
    format!("rgb({r},{g},{b})")
}

/// Renders the array heatmap SVG: one cell per via, laid out on the
/// `rows × cols` grid, shaded by the via's attributed total charge.
/// Each cell names its bit (compact form, `-` = inverted) and carries
/// a `<title>` tooltip with the exact split. Byte-identical across
/// runs for the same report.
pub fn render_heatmap(report: &ExplainReport) -> String {
    let spec = &report.spec;
    let b = &report.breakdown;
    let width = 2.0 * MARGIN + spec.cols as f64 * CELL;
    let height = HEADER + spec.rows as f64 * CELL + FOOTER;
    let mut out = document_open(width, height);
    let title = format!(
        "tsv3d explain — per-TSV charge, {}x{} {} ({})",
        spec.rows,
        spec.cols,
        spec.geometry.as_str(),
        report.method
    );
    let _ = writeln!(
        out,
        r##"<text x="{MARGIN}" y="24" font-size="14" font-family="monospace" fill="#000">{}</text>"##,
        xml_escape(&title)
    );
    let totals: Vec<f64> = b.per_tsv().iter().map(|t| t.total()).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &totals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    for t in b.per_tsv() {
        let (r, c) = (t.line / spec.cols, t.line % spec.cols);
        let x = MARGIN + c as f64 * CELL;
        let y = HEADER + r as f64 * CELL;
        let norm = if span > 0.0 { (t.total() - lo) / span } else { 0.5 };
        let bit = format!("b{}{}", t.bit, if t.inverted { "-" } else { "" });
        let tooltip = format!(
            "line {} ({r},{c}) ← {bit}: total {:.6e} = self {:.6e} + coupling {:.6e}",
            t.line,
            t.total(),
            t.self_charge,
            t.coupling_charge
        );
        let _ = writeln!(
            out,
            r##"<g><title>{}</title><rect x="{x:.2}" y="{y:.2}" width="{:.2}" height="{:.2}" fill="{}" stroke="#555" stroke-width="1"/>"##,
            xml_escape(&tooltip),
            CELL - 2.0,
            CELL - 2.0,
            ramp_color(norm),
        );
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="13" font-family="monospace" fill="#000">{}</text>"##,
            x + 5.0,
            y + 18.0,
            xml_escape(&bit),
        );
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="9" font-family="monospace" fill="#333">{:.3e}</text>"##,
            x + 5.0,
            y + CELL - 10.0,
            t.total(),
        );
        let _ = writeln!(out, "</g>");
    }
    let _ = writeln!(
        out,
        r##"<text x="{MARGIN}" y="{:.2}" font-size="10" font-family="monospace" fill="#666">charge ramp: {:.3e} (pale) → {:.3e} (dark) · total {:.6e}</text>"##,
        height - 12.0,
        lo,
        hi,
        b.total(),
    );
    let _ = writeln!(out, "</svg>");
    out
}

// ---------------------------------------------------------------- compare

/// The diff of two assignments over the same problem: where the
/// explained assignment's savings (or losses) against a baseline come
/// from, pair by pair and class by class.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Name of the baseline (`identity` or a file path).
    pub baseline_name: String,
    /// The baseline assignment.
    pub baseline_assignment: SignedPerm,
    /// Baseline decomposition.
    pub baseline: PowerBreakdown,
    /// Baseline class roll-up.
    pub baseline_classes: ClassTotals,
    /// `baseline power − explained power` (positive = the explained
    /// assignment is cheaper). Computed from the two `power()` calls,
    /// not the breakdowns, so the report's headline number is exactly
    /// the quantity the optimizers minimise.
    pub savings: f64,
}

/// Builds the diff of `report.assignment` against a baseline.
pub fn compare(
    problem: &AssignmentProblem,
    report: &ExplainReport,
    baseline_name: String,
    baseline_assignment: SignedPerm,
) -> CompareReport {
    let baseline = PowerBreakdown::compute(problem, &baseline_assignment);
    let baseline_classes = baseline.class_totals(report.spec.rows, report.spec.cols);
    let savings = problem.power(&baseline_assignment) - report.power;
    CompareReport {
        baseline_name,
        baseline_assignment,
        baseline,
        baseline_classes,
        savings,
    }
}

/// Pair deltas sorted by descending savings (baseline − explained).
fn pair_deltas(report: &ExplainReport, cmp: &CompareReport) -> Vec<(usize, f64)> {
    let mut deltas: Vec<(usize, f64)> = report
        .breakdown
        .pairs()
        .iter()
        .zip(cmp.baseline.pairs())
        .enumerate()
        .map(|(i, (new, old))| (i, old.charge - new.charge))
        .collect();
    deltas.sort_by(|a, x| x.1.total_cmp(&a.1).then(a.0.cmp(&x.0)));
    deltas
}

/// Renders the human-readable `--compare` diff.
pub fn render_compare_text(report: &ExplainReport, cmp: &CompareReport, top: usize) -> String {
    let spec = &report.spec;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "compare: {} (baseline) vs {} (explained)",
        cmp.baseline_name, report.method
    );
    let baseline_power = report.power + cmp.savings;
    let _ = writeln!(
        out,
        "baseline power {:.6e} · explained power {:.6e} · savings {:+.6e} ({:+.2}%)",
        baseline_power,
        report.power,
        cmp.savings,
        pct_of(cmp.savings, baseline_power)
    );
    let _ = writeln!(
        out,
        "self delta {:+.6e} · coupling delta {:+.6e}",
        cmp.baseline.self_total() - report.breakdown.self_total(),
        cmp.baseline.coupling_total() - report.breakdown.coupling_total()
    );
    for (name, old, new) in [
        ("adjacent", cmp.baseline_classes.adjacent, report.classes.adjacent),
        ("diagonal", cmp.baseline_classes.diagonal, report.classes.diagonal),
        ("distant", cmp.baseline_classes.distant, report.classes.distant),
    ] {
        let _ = writeln!(out, "  {name:<9} {old:>12.5e} → {new:>12.5e}  ({:+.5e})", old - new);
    }
    out.push('\n');
    let deltas = pair_deltas(report, cmp);
    let shown = top.min(deltas.len());
    let _ = writeln!(out, "top {shown} de-weighted pairs (baseline − explained):");
    let _ = writeln!(
        out,
        "  lines      class      bits (base → new)         saved"
    );
    for &(i, delta) in deltas.iter().take(shown) {
        let new = &report.breakdown.pairs()[i];
        let old = &cmp.baseline.pairs()[i];
        let class = neighbor_class(spec.rows, spec.cols, new.line_lo, new.line_hi);
        let _ = writeln!(
            out,
            "  ({:>2},{:>2})    {:<9} b{}·b{} → b{}·b{:<5} {:>14.5e}",
            new.line_lo,
            new.line_hi,
            class.as_str(),
            old.bit_lo,
            old.bit_hi,
            new.bit_lo,
            new.bit_hi,
            delta
        );
    }
    if let Some(&(i, delta)) = deltas.last() {
        if delta < 0.0 {
            let worst = &report.breakdown.pairs()[i];
            let _ = writeln!(
                out,
                "worst regressed pair: ({},{}) at {:+.5e}",
                worst.line_lo, worst.line_hi, delta
            );
        }
    }
    out
}

/// The `compare` JSON fragment embedded in the `tsv3d-explain/v1`
/// object when `--compare` is active.
pub fn render_compare_json(report: &ExplainReport, cmp: &CompareReport, top: usize) -> String {
    let spec = &report.spec;
    let mut w = ObjectWriter::new();
    let baseline_power = report.power + cmp.savings;
    w.str("baseline", &cmp.baseline_name)
        .str("baseline_assignment", &cmp.baseline_assignment.to_string())
        .f64("baseline_power", baseline_power)
        .f64("savings", cmp.savings)
        .f64("savings_pct", pct_of(cmp.savings, baseline_power))
        .f64(
            "self_delta",
            cmp.baseline.self_total() - report.breakdown.self_total(),
        )
        .f64(
            "coupling_delta",
            cmp.baseline.coupling_total() - report.breakdown.coupling_total(),
        );
    let deltas = pair_deltas(report, cmp);
    let mut arr = String::from("[");
    for (j, &(i, delta)) in deltas.iter().take(top).enumerate() {
        if j > 0 {
            arr.push(',');
        }
        let new = &report.breakdown.pairs()[i];
        let old = &cmp.baseline.pairs()[i];
        let mut o = ObjectWriter::new();
        o.u64("line_lo", new.line_lo as u64)
            .u64("line_hi", new.line_hi as u64)
            .str(
                "class",
                neighbor_class(spec.rows, spec.cols, new.line_lo, new.line_hi).as_str(),
            )
            .f64("baseline_charge", old.charge)
            .f64("charge", new.charge)
            .f64("saved", delta);
        arr.push_str(&o.finish());
    }
    arr.push(']');
    w.raw("pair_deltas", &arr);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ExplainSpec {
        ExplainSpec {
            rows: 3,
            cols: 3,
            cycles: 1_000,
            ..ExplainSpec::default()
        }
    }

    fn quick_report(method: Method) -> (AssignmentProblem, ExplainReport) {
        let spec = quick_spec();
        let problem = spec.build_problem().expect("problem");
        let (name, a) = spec
            .resolve_assignment(&problem, method, None)
            .expect("assignment");
        let report = analyze(&spec, &problem, name, a);
        (problem, report)
    }

    #[test]
    fn stream_spec_parses_and_round_trips() {
        assert_eq!(
            StreamSpec::parse("seq:0.02").unwrap(),
            StreamSpec::Sequential(0.02)
        );
        assert_eq!(
            StreamSpec::parse("gauss:3000,0.4").unwrap(),
            StreamSpec::Gaussian(3000.0, 0.4)
        );
        assert_eq!(
            StreamSpec::parse("gauss:10").unwrap(),
            StreamSpec::Gaussian(10.0, 0.0)
        );
        assert_eq!(StreamSpec::parse("uniform").unwrap(), StreamSpec::Uniform);
        // Fig. 3's negative correlations parse.
        assert!(StreamSpec::parse("gauss:16000,-0.6").is_ok());
        for bad in ["seq:2", "seq:x", "gauss:-1", "gauss:1,2", "gauss:1,-1", "gauss:nan", "noise"] {
            assert!(StreamSpec::parse(bad).is_err(), "{bad} must not parse");
        }
        assert_eq!(StreamSpec::Sequential(0.02).label(), "seq:0.02");
    }

    #[test]
    fn report_totals_are_consistent() {
        let (problem, report) = quick_report(Method::Greedy);
        let err = (report.breakdown.total() - report.power).abs();
        assert!(err <= 1e-9 * report.power.abs().max(1e-12), "err {err}");
        assert_eq!(report.identity_power, problem.identity_power());
    }

    #[test]
    fn text_report_names_every_section() {
        let (_, report) = quick_report(Method::Identity);
        let text = render_text(&report, 5);
        for needle in [
            "per-TSV power attribution",
            "self charge",
            "coupling charge",
            "adjacent",
            "diagonal",
            "distant",
            "top 5 coupling pairs",
        ] {
            assert!(text.contains(needle), "missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn json_report_carries_the_schema_and_sums() {
        let (_, report) = quick_report(Method::Spiral);
        let json = render_json(&report, 4, None);
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        let self_c = v.get("self_charge").and_then(|x| x.as_f64()).unwrap();
        let coup = v.get("coupling_charge").and_then(|x| x.as_f64()).unwrap();
        let power = v.get("power").and_then(|x| x.as_f64()).unwrap();
        assert!((self_c + coup - power).abs() <= 1e-9 * power.abs().max(1e-12));
        assert_eq!(
            v.get("per_tsv").and_then(|x| x.as_array()).unwrap().len(),
            9
        );
        assert_eq!(
            v.get("top_pairs").and_then(|x| x.as_array()).unwrap().len(),
            4
        );
    }

    #[test]
    fn heatmap_is_byte_identical_and_value_keyed() {
        let (_, report) = quick_report(Method::Anneal);
        let first = render_heatmap(&report);
        for _ in 0..3 {
            assert_eq!(render_heatmap(&report), first);
        }
        assert!(first.starts_with("<?xml version=\"1.0\""));
        assert!(first.trim_end().ends_with("</svg>"));
        // One cell per via.
        assert_eq!(first.matches("<g><title>line ").count(), 9);
        // The ramp is value-keyed: the legend names its endpoints.
        assert!(first.contains("charge ramp:"), "{first}");
    }

    #[test]
    fn ramp_endpoints_are_the_documented_colors() {
        assert_eq!(ramp_color(0.0), "rgb(255,250,205)");
        assert_eq!(ramp_color(1.0), "rgb(165,15,21)");
        assert_eq!(ramp_color(-3.0), ramp_color(0.0));
        assert_eq!(ramp_color(7.0), ramp_color(1.0));
    }

    #[test]
    fn compare_savings_equal_the_independent_power_delta() {
        let (problem, report) = quick_report(Method::Anneal);
        let cmp = compare(
            &problem,
            &report,
            "identity".to_string(),
            SignedPerm::identity(9),
        );
        let direct = problem.identity_power() - problem.power(&report.assignment);
        assert!(
            (cmp.savings - direct).abs() <= 1e-12 * direct.abs().max(1e-12),
            "savings {} vs direct {direct}",
            cmp.savings
        );
        // And the pair/self deltas recombine to the same number.
        let parts = (cmp.baseline.self_total() - report.breakdown.self_total())
            + (cmp.baseline.coupling_total() - report.breakdown.coupling_total());
        assert!((parts - direct).abs() <= 1e-9 * direct.abs().max(1e-12));
        let text = render_compare_text(&report, &cmp, 5);
        assert!(text.contains("savings"), "{text}");
        let json = render_compare_json(&report, &cmp, 5);
        let v = crate::json::parse(&json).expect("valid JSON");
        let js = v.get("savings").and_then(|x| x.as_f64()).unwrap();
        assert!((js - direct).abs() <= 1e-12 * direct.abs().max(1e-12));
    }

    #[test]
    fn explicit_assignment_and_compare_loaders_validate() {
        let spec = quick_spec();
        let problem = spec.build_problem().unwrap();
        assert!(parse_assignment("0,1,2,3,4,5,6,7,8", 9).is_ok());
        assert!(parse_assignment("0,1,2", 9).is_err(), "size mismatch");
        assert!(parse_assignment("0,0,1", 3).is_err(), "duplicate line");
        let (name, a) = load_compare_assignment("identity", problem.n()).unwrap();
        assert_eq!(name, "identity");
        assert_eq!(a, SignedPerm::identity(9));
        let fail = load_compare_assignment("/nonexistent/x.json", 9).unwrap_err();
        assert!(matches!(fail, Fail::Runtime(_)), "unreadable file is a runtime error");
    }

    #[test]
    fn resolved_methods_are_feasible_and_deterministic() {
        let spec = quick_spec();
        let problem = spec.build_problem().unwrap();
        for method in [
            Method::Identity,
            Method::Anneal,
            Method::Greedy,
            Method::Spiral,
            Method::Sawtooth,
        ] {
            let (_, a) = spec.resolve_assignment(&problem, method, None).unwrap();
            assert!(problem.is_feasible(&a), "{method:?}");
            let (_, b) = spec.resolve_assignment(&problem, method, None).unwrap();
            assert_eq!(a, b, "{method:?} must be deterministic");
        }
    }
}
