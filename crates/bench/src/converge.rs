//! Convergence analysis of annealing telemetry: turns the
//! `anneal.epoch` event stream into per-restart descent tables,
//! cross-restart dispersion diagnostics, a deterministic convergence
//! SVG and a restart-by-restart comparison of two runs.
//!
//! The optimizer emits one `anneal.epoch` event per restart roughly
//! every `iterations/32` iterations (temperature, current/best power,
//! accept rate, swap/flip move mix), on a handle labelled `r0…rN` —
//! so each restart is its own series, recovered here with the same
//! per-thread-label grouping the span analyzer uses. The questions this
//! module answers are the ones ROADMAP item 2 (the ≥5× annealer
//! rewrite) will be judged with: *where do iterations go?* Which
//! restarts ever improve the global best, how early does each restart
//! get within ε of its final energy (everything after that point is
//! wasted budget), and does a `--threads` run descend the same way the
//! serial run does?
//!
//! Robustness follows the trace-subsystem contract: malformed lines
//! are skipped and counted by [`crate::trace::parse_jsonl`], epoch
//! events with missing fields are ignored, and a trace whose body was
//! measured more than once (iteration counters reset) keeps the first
//! pass and reports the extras — analysis never panics on a degraded
//! input.

use crate::svg::{document_open, fnv1a, xml_escape};
use crate::json::{JsonValue, ObjectWriter};
use crate::trace::ParsedTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default ε of the iterations-to-convergence metric: within 1 % of
/// the restart's final best energy (`tsv3d converge --epsilon`).
pub const DEFAULT_EPSILON: f64 = 0.01;

/// Two restarts' mean accept rates further apart than this (absolute)
/// are flagged as diverged by `--compare`.
pub const ACCEPT_DIVERGENCE: f64 = 0.05;

/// Two restarts' iterations-to-ε further apart than this (relative to
/// the larger) are flagged as descent-speed divergence by `--compare`.
pub const DESCENT_DIVERGENCE: f64 = 0.25;

/// One `anneal.epoch` sample of one restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPoint {
    /// Iterations completed when the epoch was emitted (1-based).
    pub iteration: u64,
    /// Annealing temperature after this epoch.
    pub temperature: f64,
    /// Energy of the current (walking) assignment.
    pub current_power: f64,
    /// Best energy the restart has seen so far (non-increasing).
    pub best_power: f64,
    /// Accepted / proposed moves within this epoch.
    pub accept_rate: f64,
    /// Swap moves proposed within this epoch.
    pub swap_moves: u64,
    /// Flip moves proposed within this epoch.
    pub flip_moves: u64,
}

/// The epoch series of one restart (one `r<N>` thread label).
#[derive(Debug, Clone)]
pub struct RestartSeries {
    /// Thread label the epochs were emitted under (`r0`, `r1`, …).
    pub label: String,
    /// The `restart` field of the epoch events.
    pub restart: u64,
    /// First monotonic pass of epochs, in iteration order.
    pub epochs: Vec<EpochPoint>,
    /// Additional passes seen after an iteration-counter reset (the
    /// trace covered more than one run of the same body); dropped from
    /// analysis but reported.
    pub extra_passes: u64,
}

/// The calibration record (`anneal.calibrated`) of the run, if present.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Initial annealing temperature.
    pub t_start: f64,
    /// Final annealing temperature.
    pub t_end: f64,
    /// Probe energy spread the temperatures were derived from.
    pub probe_spread: f64,
    /// Iteration budget per restart.
    pub iterations: u64,
    /// Restart count.
    pub restarts: u64,
    /// Worker-pool size the run fanned out over.
    pub threads: u64,
}

/// Optional run provenance pulled from `run.start` / `run.done` /
/// `bench.case` events when the trace carries them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunInfo {
    /// `binary` field of `run.start`.
    pub binary: Option<String>,
    /// `git_rev` field of `run.start`.
    pub git_rev: Option<String>,
    /// `case` field of `bench.case` (traces written by
    /// `tsv3d bench --trace`).
    pub case: Option<String>,
    /// `wall_seconds` field of `run.done`.
    pub wall_seconds: Option<f64>,
}

/// Everything [`extract`] recovers from one parsed trace.
#[derive(Debug, Clone, Default)]
pub struct ConvergeData {
    /// Per-restart epoch series, sorted by restart index then label.
    pub series: Vec<RestartSeries>,
    /// The calibration record, when the trace has one.
    pub calibration: Option<Calibration>,
    /// Run provenance, when the trace has it.
    pub run: RunInfo,
    /// Non-blank lines in the file.
    pub lines: usize,
    /// Lines skipped as malformed.
    pub skipped: usize,
    /// Well-formed events whose name this analysis does not consume
    /// (span events, other emitters' events) — skipped and
    /// counted, never misattributed.
    pub other_events: usize,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            t_start: 0.0,
            t_end: 0.0,
            probe_spread: 0.0,
            iterations: 0,
            restarts: 0,
            threads: 0,
        }
    }
}

fn epoch_point(value: &JsonValue) -> Option<EpochPoint> {
    let iteration = value.get("iteration").and_then(JsonValue::as_u64)?;
    let best_power = value.get("best_power").and_then(JsonValue::as_f64)?;
    if !best_power.is_finite() {
        return None;
    }
    Some(EpochPoint {
        iteration,
        temperature: value
            .get("temperature")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        current_power: value
            .get("current_power")
            .and_then(JsonValue::as_f64)
            .unwrap_or(best_power),
        best_power,
        accept_rate: value
            .get("accept_rate")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        swap_moves: value.get("swap_moves").and_then(JsonValue::as_u64).unwrap_or(0),
        flip_moves: value.get("flip_moves").and_then(JsonValue::as_u64).unwrap_or(0),
    })
}

/// Extracts the per-restart epoch series (plus calibration and run
/// provenance) from a parsed trace.
///
/// Restarts are grouped by the epoch events' `thread` label — the same
/// per-label separation the span analyzer uses — falling back to
/// `r<restart>` from the `restart` field for unlabelled events. Epoch
/// events missing `iteration` or `best_power` are ignored.
pub fn extract(trace: &ParsedTrace) -> ConvergeData {
    let mut raw: BTreeMap<String, (u64, Vec<EpochPoint>)> = BTreeMap::new();
    let mut data = ConvergeData {
        lines: trace.lines,
        skipped: trace.skipped,
        ..ConvergeData::default()
    };
    for event in &trace.events {
        match event.name.as_str() {
            "anneal.epoch" => {
                let Some(point) = epoch_point(&event.value) else {
                    continue;
                };
                let restart = event
                    .value
                    .get("restart")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(u64::MAX);
                let label = event
                    .value
                    .get("thread")
                    .and_then(JsonValue::as_str)
                    .map_or_else(|| format!("r{restart}"), str::to_string);
                let slot = raw.entry(label).or_insert_with(|| (restart, Vec::new()));
                slot.0 = slot.0.min(restart);
                slot.1.push(point);
            }
            "anneal.calibrated" => {
                let v = &event.value;
                data.calibration = Some(Calibration {
                    t_start: v.get("t_start").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    t_end: v.get("t_end").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    probe_spread: v
                        .get("probe_spread")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                    iterations: v.get("iterations").and_then(JsonValue::as_u64).unwrap_or(0),
                    restarts: v.get("restarts").and_then(JsonValue::as_u64).unwrap_or(0),
                    threads: v.get("threads").and_then(JsonValue::as_u64).unwrap_or(0),
                });
            }
            "run.start" => {
                let v = &event.value;
                data.run.binary = v.get("binary").and_then(JsonValue::as_str).map(String::from);
                data.run.git_rev =
                    v.get("git_rev").and_then(JsonValue::as_str).map(String::from);
            }
            "run.done" => {
                data.run.wall_seconds =
                    event.value.get("wall_seconds").and_then(JsonValue::as_f64);
            }
            "bench.case" => {
                data.run.case =
                    event.value.get("case").and_then(JsonValue::as_str).map(String::from);
            }
            _ => data.other_events += 1,
        }
    }
    for (label, (restart, points)) in raw {
        // A body measured N times re-emits the same epoch sequence N
        // times on one label; keep the first monotonic pass so the
        // descent metrics describe one run, and report the rest.
        let mut epochs: Vec<EpochPoint> = Vec::new();
        let mut extra_passes = 0u64;
        let mut in_first_pass = true;
        for point in points {
            let reset = epochs
                .last()
                .is_some_and(|last| point.iteration <= last.iteration);
            if reset {
                if in_first_pass {
                    in_first_pass = false;
                }
                extra_passes += u64::from(
                    epochs.last().map(|l| l.iteration).unwrap_or(0) >= point.iteration
                        && point.iteration <= epochs.first().map(|f| f.iteration).unwrap_or(0),
                );
            }
            if in_first_pass {
                epochs.push(point);
            }
        }
        data.series.push(RestartSeries {
            label,
            restart,
            epochs,
            extra_passes,
        });
    }
    data.series
        .sort_by(|a, b| a.restart.cmp(&b.restart).then(a.label.cmp(&b.label)));
    data
}

/// Convergence statistics of one restart.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartStats {
    /// Thread label (`r0`, `r1`, …).
    pub label: String,
    /// Restart index.
    pub restart: u64,
    /// Epoch samples in the analysed pass.
    pub epochs: u64,
    /// Extra measured passes dropped from analysis.
    pub extra_passes: u64,
    /// Iterations covered (last epoch's `iteration`).
    pub iterations: u64,
    /// Best energy at the first epoch.
    pub start_best: f64,
    /// Best energy at the last epoch — the restart's final answer.
    pub final_best: f64,
    /// Energy descent from first to last epoch, percent of the start.
    pub descent_pct: f64,
    /// Accept rate of the first epoch (hot phase).
    pub first_accept: f64,
    /// Accept rate of the last epoch (frozen phase).
    pub last_accept: f64,
    /// Mean accept rate across epochs.
    pub mean_accept: f64,
    /// Total swap moves proposed.
    pub swap_moves: u64,
    /// Total flip moves proposed.
    pub flip_moves: u64,
    /// First iteration count at which the best energy was within ε of
    /// the final best — everything after it bought < ε improvement.
    pub iters_to_eps: u64,
    /// `iterations − iters_to_eps`.
    pub wasted_iters: u64,
    /// Wasted fraction of this restart's budget.
    pub wasted_frac: f64,
    /// Whether this restart improved on the best of all lower-indexed
    /// restarts (restart 0 trivially does).
    pub improved_global: bool,
}

/// Cross-restart dispersion diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalStats {
    /// Best final energy across restarts — the run's answer.
    pub global_best: f64,
    /// Label of the restart that produced it.
    pub best_label: String,
    /// Lowest final energy (== `global_best`).
    pub final_min: f64,
    /// Highest final energy across restarts.
    pub final_max: f64,
    /// Mean final energy.
    pub final_mean: f64,
    /// `final_max − final_min` relative to `|global_best|` (percent) —
    /// how much the restarts disagree.
    pub spread_pct: f64,
    /// Restarts that improved the running global best.
    pub improving_restarts: u64,
    /// Summed iterations across restarts.
    pub total_iterations: u64,
    /// Summed wasted iterations across restarts.
    pub wasted_iterations: u64,
    /// `wasted_iterations / total_iterations`.
    pub wasted_frac: f64,
}

/// The full single-trace convergence report.
#[derive(Debug, Clone)]
pub struct ConvergeReport {
    /// Per-restart statistics, in restart order.
    pub restarts: Vec<RestartStats>,
    /// Dispersion diagnostics; `None` when no restart had epochs.
    pub global: Option<GlobalStats>,
    /// The ε the convergence metrics used (relative).
    pub epsilon: f64,
    /// Calibration record carried over from extraction.
    pub calibration: Option<Calibration>,
    /// Run provenance carried over from extraction.
    pub run: RunInfo,
    /// Non-blank lines in the file.
    pub lines: usize,
    /// Lines skipped as malformed.
    pub skipped: usize,
    /// Well-formed events with names this analysis does not consume.
    pub other_events: usize,
}

/// Analyses extracted series into the convergence report.
///
/// `epsilon` is relative: a restart has converged once its best energy
/// is within `|final_best| · epsilon` of its final best.
pub fn analyze(data: &ConvergeData, epsilon: f64) -> ConvergeReport {
    let mut restarts: Vec<RestartStats> = Vec::new();
    let mut running_best = f64::INFINITY;
    for series in &data.series {
        let Some(first) = series.epochs.first() else {
            continue;
        };
        let last = series.epochs.last().expect("non-empty series has a last");
        let final_best = last.best_power;
        let threshold = final_best + final_best.abs() * epsilon;
        let iters_to_eps = series
            .epochs
            .iter()
            .find(|p| p.best_power <= threshold)
            .map_or(last.iteration, |p| p.iteration);
        let iterations = last.iteration;
        let wasted_iters = iterations.saturating_sub(iters_to_eps);
        let accept_sum: f64 = series.epochs.iter().map(|p| p.accept_rate).sum();
        let improved_global = final_best < running_best;
        running_best = running_best.min(final_best);
        restarts.push(RestartStats {
            label: series.label.clone(),
            restart: series.restart,
            epochs: series.epochs.len() as u64,
            extra_passes: series.extra_passes,
            iterations,
            start_best: first.best_power,
            final_best,
            descent_pct: if first.best_power.abs() > 0.0 {
                (first.best_power - final_best) / first.best_power.abs() * 100.0
            } else {
                0.0
            },
            first_accept: first.accept_rate,
            last_accept: last.accept_rate,
            mean_accept: accept_sum / series.epochs.len() as f64,
            swap_moves: series.epochs.iter().map(|p| p.swap_moves).sum(),
            flip_moves: series.epochs.iter().map(|p| p.flip_moves).sum(),
            iters_to_eps,
            wasted_iters,
            wasted_frac: if iterations > 0 {
                wasted_iters as f64 / iterations as f64
            } else {
                0.0
            },
            improved_global,
        });
    }
    let global = (!restarts.is_empty()).then(|| {
        let best = restarts
            .iter()
            .min_by(|a, b| {
                a.final_best
                    .partial_cmp(&b.final_best)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty restarts");
        let final_min = best.final_best;
        let final_max = restarts
            .iter()
            .map(|r| r.final_best)
            .fold(f64::NEG_INFINITY, f64::max);
        let final_mean =
            restarts.iter().map(|r| r.final_best).sum::<f64>() / restarts.len() as f64;
        let total_iterations: u64 = restarts.iter().map(|r| r.iterations).sum();
        let wasted_iterations: u64 = restarts.iter().map(|r| r.wasted_iters).sum();
        GlobalStats {
            global_best: final_min,
            best_label: best.label.clone(),
            final_min,
            final_max,
            final_mean,
            spread_pct: if final_min.abs() > 0.0 {
                (final_max - final_min) / final_min.abs() * 100.0
            } else {
                0.0
            },
            improving_restarts: restarts.iter().filter(|r| r.improved_global).count() as u64,
            total_iterations,
            wasted_iterations,
            wasted_frac: if total_iterations > 0 {
                wasted_iterations as f64 / total_iterations as f64
            } else {
                0.0
            },
        }
    });
    ConvergeReport {
        restarts,
        global,
        epsilon,
        calibration: data.calibration,
        run: data.run.clone(),
        lines: data.lines,
        skipped: data.skipped,
        other_events: data.other_events,
    }
}

/// Renders the human-readable single-trace report.
pub fn render_report(report: &ConvergeReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "converge: {} restart series on {} line(s), {} skipped",
        report.restarts.len(),
        report.lines,
        report.skipped
    );
    if report.other_events > 0 {
        let _ = writeln!(
            out,
            "ignored: {} event(s) with names this analysis does not consume",
            report.other_events
        );
    }
    if let Some(case) = &report.run.case {
        let _ = writeln!(out, "case: {case}");
    }
    if let Some(binary) = &report.run.binary {
        let _ = writeln!(
            out,
            "run: {binary} (git {})",
            report.run.git_rev.as_deref().unwrap_or("unknown")
        );
    }
    if let Some(cal) = &report.calibration {
        let _ = writeln!(
            out,
            "calibrated: t_start {:.4e}  t_end {:.4e}  {} iters x {} restarts, threads {}",
            cal.t_start, cal.t_end, cal.iterations, cal.restarts, cal.threads
        );
    }
    if report.restarts.is_empty() {
        let _ = writeln!(
            out,
            "no anneal.epoch events — run the annealer with TSV3D_TELEMETRY=json \
             or `tsv3d bench --trace` to record a convergence trace"
        );
        return out;
    }
    let _ = writeln!(
        out,
        "\n{:<8} {:>7} {:>14} {:>14} {:>9} {:>14} {:>9} {:>8} {:>8} {:>7}",
        "restart",
        "epochs",
        "start best",
        "final best",
        "descent",
        "iters-to-eps",
        "wasted",
        "accept0",
        "acceptN",
        "mix s/f"
    );
    for r in &report.restarts {
        let moves = r.swap_moves + r.flip_moves;
        let swap_pct = if moves > 0 {
            r.swap_moves as f64 / moves as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>14.6e} {:>14.6e} {:>8.2}% {:>14} {:>8.1}% {:>8.3} {:>8.3} {:>6.0}%{}",
            r.label,
            r.epochs,
            r.start_best,
            r.final_best,
            r.descent_pct,
            r.iters_to_eps,
            r.wasted_frac * 100.0,
            r.first_accept,
            r.last_accept,
            swap_pct,
            if r.extra_passes > 0 {
                format!("  (+{} pass(es) dropped)", r.extra_passes)
            } else {
                String::new()
            }
        );
    }
    if let Some(g) = &report.global {
        let _ = writeln!(
            out,
            "\nglobal best {:.6e} from {} (epsilon {:.2}% of final best)",
            g.global_best,
            g.best_label,
            report.epsilon * 100.0
        );
        let _ = writeln!(
            out,
            "final energies: min {:.6e}  mean {:.6e}  max {:.6e}  spread {:.2}%",
            g.final_min, g.final_mean, g.final_max, g.spread_pct
        );
        let _ = writeln!(
            out,
            "{} of {} restart(s) improved the global best; {} of {} iterations \
             ({:.1}%) spent after convergence to epsilon",
            g.improving_restarts,
            report.restarts.len(),
            g.wasted_iterations,
            g.total_iterations,
            g.wasted_frac * 100.0
        );
    }
    out
}

fn restart_json(r: &RestartStats) -> String {
    let mut w = ObjectWriter::new();
    w.str("label", &r.label)
        .u64("restart", r.restart)
        .u64("epochs", r.epochs)
        .u64("extra_passes", r.extra_passes)
        .u64("iterations", r.iterations)
        .f64("start_best", r.start_best)
        .f64("final_best", r.final_best)
        .f64("descent_pct", r.descent_pct)
        .f64("first_accept", r.first_accept)
        .f64("last_accept", r.last_accept)
        .f64("mean_accept", r.mean_accept)
        .u64("swap_moves", r.swap_moves)
        .u64("flip_moves", r.flip_moves)
        .u64("iters_to_eps", r.iters_to_eps)
        .u64("wasted_iters", r.wasted_iters)
        .f64("wasted_frac", r.wasted_frac)
        .raw(
            "improved_global",
            if r.improved_global { "true" } else { "false" },
        );
    w.finish()
}

fn global_json(g: &GlobalStats) -> String {
    let mut w = ObjectWriter::new();
    w.f64("global_best", g.global_best)
        .str("best_label", &g.best_label)
        .f64("final_min", g.final_min)
        .f64("final_mean", g.final_mean)
        .f64("final_max", g.final_max)
        .f64("spread_pct", g.spread_pct)
        .u64("improving_restarts", g.improving_restarts)
        .u64("total_iterations", g.total_iterations)
        .u64("wasted_iterations", g.wasted_iterations)
        .f64("wasted_frac", g.wasted_frac);
    w.finish()
}

fn report_body_json(report: &ConvergeReport, file: &str) -> String {
    let restarts: Vec<String> = report.restarts.iter().map(restart_json).collect();
    let mut w = ObjectWriter::new();
    w.str("file", file)
        .u64("lines", report.lines as u64)
        .u64("skipped", report.skipped as u64)
        .u64("other_events", report.other_events as u64);
    if let Some(cal) = &report.calibration {
        let mut c = ObjectWriter::new();
        c.f64("t_start", cal.t_start)
            .f64("t_end", cal.t_end)
            .f64("probe_spread", cal.probe_spread)
            .u64("iterations", cal.iterations)
            .u64("restarts", cal.restarts)
            .u64("threads", cal.threads);
        w.raw("calibration", &c.finish());
    } else {
        w.raw("calibration", "null");
    }
    w.raw("restarts", &format!("[{}]", restarts.join(",")));
    match &report.global {
        Some(g) => w.raw("global", &global_json(g)),
        None => w.raw("global", "null"),
    };
    w.finish()
}

/// Renders the machine-readable single-trace report
/// (`tsv3d converge --format json`, schema `tsv3d-converge/v1`).
pub fn render_json(report: &ConvergeReport, file: &str) -> String {
    let mut w = ObjectWriter::new();
    w.str("schema", "tsv3d-converge/v1")
        .str("mode", "single")
        .f64("epsilon", report.epsilon)
        .raw("report", &report_body_json(report, file));
    w.finish()
}

/// One matched restart pair of a `--compare` run.
#[derive(Debug, Clone)]
pub struct ComparePair {
    /// Shared restart label.
    pub label: String,
    /// Stats from the first trace.
    pub a: RestartStats,
    /// Stats from the second trace.
    pub b: RestartStats,
    /// Final-energy difference, percent of `a`'s final best.
    pub final_delta_pct: f64,
    /// Divergence reasons (empty when the restarts agree).
    pub flags: Vec<&'static str>,
}

/// The full two-trace comparison.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Report of the first trace.
    pub a: ConvergeReport,
    /// Report of the second trace.
    pub b: ConvergeReport,
    /// Matched restart pairs, in restart order.
    pub pairs: Vec<ComparePair>,
    /// Restart labels present only in the first trace.
    pub only_a: Vec<String>,
    /// Restart labels present only in the second trace.
    pub only_b: Vec<String>,
}

impl CompareReport {
    /// Pairs flagged as diverged.
    pub fn diverged(&self) -> usize {
        self.pairs.iter().filter(|p| !p.flags.is_empty()).count()
    }
}

/// Diffs two single-trace reports restart-by-restart (matched by
/// label). Divergence flags:
///
/// * `accept-rate` — mean accept rates differ by more than
///   [`ACCEPT_DIVERGENCE`] (absolute);
/// * `descent-speed` — iterations-to-ε differ by more than
///   [`DESCENT_DIVERGENCE`] of the larger;
/// * `final-energy` — final best energies differ by more than ε
///   relative to `a`'s.
pub fn compare(a: ConvergeReport, b: ConvergeReport) -> CompareReport {
    let epsilon = a.epsilon;
    let mut pairs = Vec::new();
    let mut only_a = Vec::new();
    let mut only_b: Vec<String> = b
        .restarts
        .iter()
        .filter(|rb| a.restarts.iter().all(|ra| ra.label != rb.label))
        .map(|rb| rb.label.clone())
        .collect();
    only_b.sort();
    for ra in &a.restarts {
        let Some(rb) = b.restarts.iter().find(|rb| rb.label == ra.label) else {
            only_a.push(ra.label.clone());
            continue;
        };
        let mut flags = Vec::new();
        if (ra.mean_accept - rb.mean_accept).abs() > ACCEPT_DIVERGENCE {
            flags.push("accept-rate");
        }
        let eps_max = ra.iters_to_eps.max(rb.iters_to_eps).max(1) as f64;
        if (ra.iters_to_eps as f64 - rb.iters_to_eps as f64).abs() / eps_max > DESCENT_DIVERGENCE
        {
            flags.push("descent-speed");
        }
        let denom = ra.final_best.abs().max(f64::MIN_POSITIVE);
        let final_delta_pct = (rb.final_best - ra.final_best) / denom * 100.0;
        if (final_delta_pct / 100.0).abs() > epsilon {
            flags.push("final-energy");
        }
        pairs.push(ComparePair {
            label: ra.label.clone(),
            a: ra.clone(),
            b: rb.clone(),
            final_delta_pct,
            flags,
        });
    }
    CompareReport {
        a,
        b,
        pairs,
        only_a,
        only_b,
    }
}

/// Renders the human-readable comparison (`tsv3d converge --compare`).
pub fn render_compare(report: &CompareReport, file_a: &str, file_b: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "converge compare:");
    let _ = writeln!(
        out,
        "  a: {file_a} ({} restart series, {} skipped line(s))",
        report.a.restarts.len(),
        report.a.skipped
    );
    let _ = writeln!(
        out,
        "  b: {file_b} ({} restart series, {} skipped line(s))",
        report.b.restarts.len(),
        report.b.skipped
    );
    if report.pairs.is_empty() {
        let _ = writeln!(out, "no matching restart labels between the two traces");
    } else {
        let _ = writeln!(
            out,
            "\n{:<8} {:>14} {:>9} {:>13} {:>13} {:>9} {:>9}  flags",
            "restart",
            "final a",
            "delta b",
            "to-eps a",
            "to-eps b",
            "accept a",
            "accept b"
        );
        for p in &report.pairs {
            let _ = writeln!(
                out,
                "{:<8} {:>14.6e} {:>+8.3}% {:>13} {:>13} {:>9.3} {:>9.3}  {}",
                p.label,
                p.a.final_best,
                p.final_delta_pct,
                p.a.iters_to_eps,
                p.b.iters_to_eps,
                p.a.mean_accept,
                p.b.mean_accept,
                if p.flags.is_empty() {
                    "-".to_string()
                } else {
                    p.flags.join(",")
                }
            );
        }
        let _ = writeln!(
            out,
            "\n{} of {} matched restart(s) diverged (accept > {:.2} abs, \
             iters-to-eps > {:.0}% rel, final energy > {:.2}% rel)",
            report.diverged(),
            report.pairs.len(),
            ACCEPT_DIVERGENCE,
            DESCENT_DIVERGENCE * 100.0,
            report.a.epsilon * 100.0
        );
        if let (Some(ga), Some(gb)) = (&report.a.global, &report.b.global) {
            let _ = writeln!(
                out,
                "wasted iterations: a {:.1}%  b {:.1}%; global best: a {:.6e}  b {:.6e}",
                ga.wasted_frac * 100.0,
                gb.wasted_frac * 100.0,
                ga.global_best,
                gb.global_best
            );
        }
    }
    for (tag, labels) in [("a", &report.only_a), ("b", &report.only_b)] {
        if !labels.is_empty() {
            let _ = writeln!(out, "only in {tag}: {}", labels.join(", "));
        }
    }
    out
}

/// Renders the machine-readable comparison
/// (`tsv3d converge --compare --format json`, schema
/// `tsv3d-converge/v1`, `mode: "compare"`).
pub fn render_compare_json(report: &CompareReport, file_a: &str, file_b: &str) -> String {
    let pairs: Vec<String> = report
        .pairs
        .iter()
        .map(|p| {
            let flags: Vec<String> =
                p.flags.iter().map(|f| format!("\"{f}\"")).collect();
            let mut w = ObjectWriter::new();
            w.str("label", &p.label)
                .f64("final_delta_pct", p.final_delta_pct)
                .raw(
                    "diverged",
                    if p.flags.is_empty() { "false" } else { "true" },
                )
                .raw("flags", &format!("[{}]", flags.join(",")))
                .raw("a", &restart_json(&p.a))
                .raw("b", &restart_json(&p.b));
            w.finish()
        })
        .collect();
    let strings =
        |labels: &[String]| -> String {
            let quoted: Vec<String> = labels
                .iter()
                .map(|l| {
                    let mut s = String::new();
                    tsv3d_telemetry::push_json_str(&mut s, l);
                    s
                })
                .collect();
            format!("[{}]", quoted.join(","))
        };
    let mut w = ObjectWriter::new();
    w.str("schema", "tsv3d-converge/v1")
        .str("mode", "compare")
        .f64("epsilon", report.a.epsilon)
        .u64("diverged", report.diverged() as u64)
        .raw("pairs", &format!("[{}]", pairs.join(",")))
        .raw("only_a", &strings(&report.only_a))
        .raw("only_b", &strings(&report.only_b))
        .raw("a", &report_body_json(&report.a, file_a))
        .raw("b", &report_body_json(&report.b, file_b));
    w.finish()
}

const SVG_WIDTH: f64 = 1000.0;
const PLOT_LEFT: f64 = 70.0;
const PLOT_RIGHT: f64 = 810.0;
const PLOT_TOP: f64 = 46.0;
const PLOT_BOTTOM: f64 = 356.0;
const SVG_HEIGHT: f64 = 392.0;
const LEGEND_X: f64 = 822.0;

/// A cool (blue/green) palette keyed by the restart label's FNV-1a
/// hash — deliberately distinct from the flamegraph's warm palette,
/// same determinism rule: color is a pure function of the name.
fn series_color(label: &str) -> String {
    let hash = fnv1a(label);
    let r = 30 + (hash % 90) as u32;
    let g = 90 + ((hash >> 8) % 130) as u32;
    let b = 150 + ((hash >> 16) % 106) as u32;
    format!("rgb({r},{g},{b})")
}

/// Renders the convergence SVG: one polyline per restart, best energy
/// vs. iteration, plus a dashed global-best reference line and a
/// legend. Self-contained and deterministic — coordinates derive only
/// from the (seeded, reproducible) epoch fields, never from wall-clock
/// timestamps, and are printed with fixed two-decimal precision, so
/// the same trace renders to byte-identical SVG on every run.
pub fn render_svg(data: &ConvergeData) -> String {
    let mut out = document_open(SVG_WIDTH, SVG_HEIGHT);
    let _ = writeln!(
        out,
        r##"<text x="10" y="24" font-size="15" font-family="monospace" fill="#000">tsv3d convergence — best power vs iteration</text>"##
    );
    let series: Vec<&RestartSeries> =
        data.series.iter().filter(|s| !s.epochs.is_empty()).collect();
    if series.is_empty() {
        let _ = writeln!(
            out,
            r##"<text x="10" y="{:.2}" font-size="11" font-family="monospace" fill="#666">no anneal.epoch events in this trace</text>"##,
            PLOT_TOP + 14.0
        );
        let _ = writeln!(out, "</svg>");
        return out;
    }
    let max_iter = series
        .iter()
        .flat_map(|s| s.epochs.iter())
        .map(|p| p.iteration)
        .max()
        .unwrap_or(1)
        .max(1);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in series.iter().flat_map(|s| s.epochs.iter()) {
        y_min = y_min.min(p.best_power);
        y_max = y_max.max(p.best_power);
    }
    let global_best = y_min;
    let pad = ((y_max - y_min) * 0.05).max(y_max.abs() * 1e-9).max(f64::MIN_POSITIVE);
    y_min -= pad;
    y_max += pad;
    let x_of = |iteration: u64| -> f64 {
        PLOT_LEFT + iteration as f64 / max_iter as f64 * (PLOT_RIGHT - PLOT_LEFT)
    };
    let y_of = |power: f64| -> f64 {
        PLOT_BOTTOM - (power - y_min) / (y_max - y_min) * (PLOT_BOTTOM - PLOT_TOP)
    };
    // Frame and axis ticks.
    let _ = writeln!(
        out,
        r##"<rect x="{PLOT_LEFT:.2}" y="{PLOT_TOP:.2}" width="{:.2}" height="{:.2}" fill="#ffffff" stroke="#999" stroke-width="1"/>"##,
        PLOT_RIGHT - PLOT_LEFT,
        PLOT_BOTTOM - PLOT_TOP
    );
    for quarter in 0..=4u64 {
        let iteration = max_iter * quarter / 4;
        let x = x_of(iteration);
        let _ = writeln!(
            out,
            r##"<line x1="{x:.2}" y1="{PLOT_BOTTOM:.2}" x2="{x:.2}" y2="{:.2}" stroke="#999" stroke-width="1"/>"##,
            PLOT_BOTTOM + 4.0
        );
        let _ = writeln!(
            out,
            r##"<text x="{x:.2}" y="{:.2}" font-size="10" font-family="monospace" fill="#333" text-anchor="middle">{iteration}</text>"##,
            PLOT_BOTTOM + 16.0
        );
    }
    for (value, anchor_y) in [(y_max - pad, y_of(y_max - pad)), (global_best, y_of(global_best))]
    {
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="10" font-family="monospace" fill="#333" text-anchor="end">{value:.4e}</text>"##,
            PLOT_LEFT - 6.0,
            anchor_y + 3.0
        );
    }
    let _ = writeln!(
        out,
        r##"<text x="{:.2}" y="{:.2}" font-size="10" font-family="monospace" fill="#333" text-anchor="middle">iteration</text>"##,
        (PLOT_LEFT + PLOT_RIGHT) / 2.0,
        PLOT_BOTTOM + 30.0
    );
    // Global-best reference line.
    let gy = y_of(global_best);
    let _ = writeln!(
        out,
        r##"<line x1="{PLOT_LEFT:.2}" y1="{gy:.2}" x2="{PLOT_RIGHT:.2}" y2="{gy:.2}" stroke="#888" stroke-width="1" stroke-dasharray="4,3"/>"##
    );
    // One polyline per restart, legend row alongside.
    for (index, s) in series.iter().enumerate() {
        let color = series_color(&s.label);
        let points: Vec<String> = s
            .epochs
            .iter()
            .map(|p| format!("{:.2},{:.2}", x_of(p.iteration), y_of(p.best_power)))
            .collect();
        let _ = writeln!(
            out,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.5"><title>{}: final best {:.6e}</title></polyline>"#,
            points.join(" "),
            xml_escape(&s.label),
            s.epochs.last().map(|p| p.best_power).unwrap_or(f64::NAN)
        );
        let ly = PLOT_TOP + 8.0 + index as f64 * 16.0;
        let _ = writeln!(
            out,
            r#"<line x1="{LEGEND_X:.2}" y1="{ly:.2}" x2="{:.2}" y2="{ly:.2}" stroke="{color}" stroke-width="2"/>"#,
            LEGEND_X + 18.0
        );
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="10" font-family="monospace" fill="#000">{} {:.4e}</text>"##,
            LEGEND_X + 24.0,
            ly + 3.0,
            xml_escape(&s.label),
            s.epochs.last().map(|p| p.best_power).unwrap_or(f64::NAN)
        );
    }
    let _ = writeln!(
        out,
        r##"<text x="10" y="{:.2}" font-size="9" font-family="monospace" fill="#666">global best {global_best:.6e} (dashed) · {} restart(s) · hover a line for its final energy</text>"##,
        SVG_HEIGHT - 8.0,
        series.len()
    );
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::parse_jsonl;

    fn epoch_line(
        t: f64,
        restart: u64,
        iteration: u64,
        best: f64,
        accept: f64,
        label: &str,
    ) -> String {
        format!(
            "{{\"t\":{t},\"event\":\"anneal.epoch\",\"restart\":{restart},\
             \"iteration\":{iteration},\"temperature\":1.0,\"current_power\":{best},\
             \"best_power\":{best},\"accept_rate\":{accept},\"swap_moves\":80,\
             \"flip_moves\":20,\"thread\":\"{label}\"}}\n"
        )
    }

    /// Two restarts: r0 converges fast (within eps by iteration 20),
    /// r1 keeps descending to a worse final energy.
    fn two_restart_trace() -> String {
        let mut text = String::new();
        text.push_str(
            "{\"t\":0.01,\"event\":\"anneal.calibrated\",\"t_start\":5.0,\
             \"t_end\":0.0005,\"probe_spread\":10.0,\"iterations\":40,\
             \"restarts\":2,\"threads\":1}\n",
        );
        for (iteration, best, accept) in
            [(10, 100.0, 0.9), (20, 50.1, 0.5), (30, 50.05, 0.2), (40, 50.0, 0.1)]
        {
            text.push_str(&epoch_line(0.1, 0, iteration, best, accept, "r0"));
        }
        for (iteration, best, accept) in
            [(10, 120.0, 0.9), (20, 90.0, 0.6), (30, 70.0, 0.3), (40, 60.0, 0.1)]
        {
            text.push_str(&epoch_line(0.2, 1, iteration, best, accept, "r1"));
        }
        text
    }

    #[test]
    fn extract_groups_epochs_per_restart_label() {
        let data = extract(&parse_jsonl(&two_restart_trace()));
        assert_eq!(data.series.len(), 2);
        assert_eq!(data.series[0].label, "r0");
        assert_eq!(data.series[0].restart, 0);
        assert_eq!(data.series[0].epochs.len(), 4);
        assert_eq!(data.series[1].label, "r1");
        let cal = data.calibration.expect("calibration parsed");
        assert_eq!(cal.iterations, 40);
        assert_eq!(cal.restarts, 2);
        assert!((cal.t_start - 5.0).abs() < 1e-12);
    }

    #[test]
    fn extract_survives_malformed_and_incomplete_lines() {
        let mut text = two_restart_trace();
        text.push_str("not json\n");
        text.push_str("{\"t\":1.0,\"event\":\"anneal.epoch\"}\n"); // no fields
        text.push_str("{\"t\":1.0,\"event\":\"anneal.epoch\",\"iteration\":5}\n"); // no best
        let data = extract(&parse_jsonl(&text));
        assert_eq!(data.skipped, 1, "only the non-JSON line is a parse skip");
        assert_eq!(data.series.len(), 2, "field-less epochs are ignored");
    }

    #[test]
    fn pulse_events_are_counted_and_leave_the_rollups_unchanged() {
        // Interleave foreign event names (`pulse.*`, as older traces
        // carry them) between every line of a clean trace.
        let clean = two_restart_trace();
        let mut mixed = String::new();
        for line in clean.lines() {
            mixed.push_str(line);
            mixed.push('\n');
            mixed.push_str(
                "{\"t\":0.11,\"event\":\"pulse.sample\",\"thread\":\"r0\",\
                 \"stack\":\"main;anneal.restart;anneal.epoch\"}\n",
            );
        }
        mixed.push_str(
            "{\"t\":0.9,\"event\":\"pulse.progress\",\"restart\":0,\"iters_done\":40}\n",
        );

        let clean_report = analyze(&extract(&parse_jsonl(&clean)), 0.01);
        let mixed_report = analyze(&extract(&parse_jsonl(&mixed)), 0.01);
        assert_eq!(clean_report.other_events, 0);
        assert_eq!(mixed_report.other_events, 10, "9 samples + 1 progress");
        assert_eq!(mixed_report.skipped, 0, "unknown names are not malformed");

        // The descent analysis itself is byte-identical.
        assert_eq!(
            format!("{:?}", mixed_report.restarts),
            format!("{:?}", clean_report.restarts)
        );
        assert_eq!(
            format!("{:?}", mixed_report.global),
            format!("{:?}", clean_report.global)
        );
        assert_eq!(mixed_report.calibration, clean_report.calibration);

        // And the report says what it ignored.
        let text = render_report(&mixed_report);
        assert!(
            text.contains("ignored: 10 event(s)"),
            "{text}"
        );
        assert!(!render_report(&clean_report).contains("ignored:"));
    }

    #[test]
    fn unlabelled_epochs_fall_back_to_the_restart_field() {
        let text = "{\"t\":0.1,\"event\":\"anneal.epoch\",\"restart\":3,\
                    \"iteration\":10,\"best_power\":5.0}\n";
        let data = extract(&parse_jsonl(text));
        assert_eq!(data.series.len(), 1);
        assert_eq!(data.series[0].label, "r3");
        assert_eq!(data.series[0].restart, 3);
    }

    #[test]
    fn repeated_passes_keep_the_first_and_count_the_rest() {
        let mut text = String::new();
        for _ in 0..3 {
            for (iteration, best) in [(10, 100.0), (20, 60.0)] {
                text.push_str(&epoch_line(0.1, 0, iteration, best, 0.5, "r0"));
            }
        }
        let data = extract(&parse_jsonl(&text));
        assert_eq!(data.series.len(), 1);
        assert_eq!(data.series[0].epochs.len(), 2, "first pass only");
        assert_eq!(data.series[0].extra_passes, 2);
        let report = analyze(&data, DEFAULT_EPSILON);
        assert_eq!(report.restarts[0].iterations, 20);
    }

    #[test]
    fn analyze_computes_descent_and_wasted_iterations() {
        let report = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        assert_eq!(report.restarts.len(), 2);
        let r0 = &report.restarts[0];
        // r0: final best 50.0, eps 1% → threshold 50.5; first epoch
        // within it is iteration 20 (50.1), so 20 of 40 iterations were
        // spent buying < 1%.
        assert_eq!(r0.iters_to_eps, 20);
        assert_eq!(r0.wasted_iters, 20);
        assert!((r0.wasted_frac - 0.5).abs() < 1e-12);
        assert!((r0.descent_pct - 50.0).abs() < 1e-9);
        assert!((r0.first_accept - 0.9).abs() < 1e-12);
        assert!((r0.last_accept - 0.1).abs() < 1e-12);
        // r1 only reaches its final energy at the last epoch.
        let r1 = &report.restarts[1];
        assert_eq!(r1.iters_to_eps, 40);
        assert_eq!(r1.wasted_iters, 0);
        // Move mix sums across epochs.
        assert_eq!(r0.swap_moves, 320);
        assert_eq!(r0.flip_moves, 80);
    }

    #[test]
    fn global_stats_track_improvement_and_spread() {
        let report = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let g = report.global.as_ref().expect("two series analysed");
        assert_eq!(g.best_label, "r0");
        assert!((g.global_best - 50.0).abs() < 1e-12);
        // r0 improves (trivially), r1's 60.0 never beats 50.0.
        assert!(report.restarts[0].improved_global);
        assert!(!report.restarts[1].improved_global);
        assert_eq!(g.improving_restarts, 1);
        assert!((g.spread_pct - 20.0).abs() < 1e-9, "{}", g.spread_pct);
        assert_eq!(g.total_iterations, 80);
        assert_eq!(g.wasted_iterations, 20);
    }

    #[test]
    fn empty_trace_yields_an_empty_report_not_a_panic() {
        let report = analyze(&extract(&parse_jsonl("")), DEFAULT_EPSILON);
        assert!(report.restarts.is_empty());
        assert!(report.global.is_none());
        assert!(render_report(&report).contains("no anneal.epoch events"));
        let svg = render_svg(&extract(&parse_jsonl("")));
        assert!(svg.contains("no anneal.epoch events"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn text_report_shows_the_diagnosis_numbers() {
        let report = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let text = render_report(&report);
        assert!(text.contains("2 restart series"), "{text}");
        assert!(text.contains("r0"), "{text}");
        assert!(text.contains("iters-to-eps"), "{text}");
        assert!(text.contains("global best 5.000000e1 from r0"), "{text}");
        assert!(text.contains("1 of 2 restart(s) improved"), "{text}");
        assert!(text.contains("calibrated: t_start"), "{text}");
    }

    #[test]
    fn json_report_is_valid_and_schema_stamped() {
        let report = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let doc = json::parse(&render_json(&report, "x.jsonl")).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("tsv3d-converge/v1")
        );
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("single"));
        let body = doc.get("report").expect("report body");
        assert_eq!(body.get("file").and_then(JsonValue::as_str), Some("x.jsonl"));
        let restarts = body.get("restarts").and_then(JsonValue::as_array).unwrap();
        assert_eq!(restarts.len(), 2);
        assert_eq!(
            restarts[0].get("iters_to_eps").and_then(JsonValue::as_u64),
            Some(20)
        );
        assert_eq!(
            restarts[0].get("improved_global"),
            Some(&JsonValue::Bool(true))
        );
        let global = body.get("global").expect("global stats");
        assert_eq!(
            global.get("best_label").and_then(JsonValue::as_str),
            Some("r0")
        );
        assert!(body
            .get("calibration")
            .and_then(|c| c.get("iterations"))
            .and_then(JsonValue::as_u64)
            .is_some());
    }

    #[test]
    fn compare_flags_divergent_restarts_and_matches_by_label() {
        let a = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        // b: r0 identical; r1 descends much faster to a better energy
        // with hotter acceptance; r2 exists only in b.
        let mut text = String::new();
        for (iteration, best, accept) in
            [(10, 100.0, 0.9), (20, 50.1, 0.5), (30, 50.05, 0.2), (40, 50.0, 0.1)]
        {
            text.push_str(&epoch_line(0.1, 0, iteration, best, accept, "r0"));
        }
        for (iteration, best, accept) in
            [(10, 45.0, 0.9), (20, 44.9, 0.9), (30, 44.9, 0.9), (40, 44.9, 0.9)]
        {
            text.push_str(&epoch_line(0.2, 1, iteration, best, accept, "r1"));
        }
        text.push_str(&epoch_line(0.3, 2, 40, 70.0, 0.5, "r2"));
        let b = analyze(&extract(&parse_jsonl(&text)), DEFAULT_EPSILON);
        let cmp = compare(a, b);
        assert_eq!(cmp.pairs.len(), 2);
        assert!(cmp.pairs[0].flags.is_empty(), "{:?}", cmp.pairs[0].flags);
        let r1 = &cmp.pairs[1];
        assert!(r1.flags.contains(&"accept-rate"), "{:?}", r1.flags);
        assert!(r1.flags.contains(&"descent-speed"), "{:?}", r1.flags);
        assert!(r1.flags.contains(&"final-energy"), "{:?}", r1.flags);
        assert_eq!(cmp.diverged(), 1);
        assert_eq!(cmp.only_b, vec!["r2".to_string()]);
        assert!(cmp.only_a.is_empty());
        let text = render_compare(&cmp, "a.jsonl", "b.jsonl");
        assert!(text.contains("1 of 2 matched restart(s) diverged"), "{text}");
        assert!(text.contains("only in b: r2"), "{text}");
    }

    #[test]
    fn compare_json_is_valid_and_mode_stamped() {
        let a = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let b = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let cmp = compare(a, b);
        let doc =
            json::parse(&render_compare_json(&cmp, "a.jsonl", "b.jsonl")).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("tsv3d-converge/v1")
        );
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("compare"));
        assert_eq!(doc.get("diverged").and_then(JsonValue::as_u64), Some(0));
        let pairs = doc.get("pairs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].get("diverged"), Some(&JsonValue::Bool(false)));
        assert!(doc.get("a").and_then(|a| a.get("global")).is_some());
    }

    #[test]
    fn identical_traces_compare_clean() {
        let a = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let b = analyze(&extract(&parse_jsonl(&two_restart_trace())), DEFAULT_EPSILON);
        let cmp = compare(a, b);
        assert_eq!(cmp.diverged(), 0);
        for p in &cmp.pairs {
            assert!(p.flags.is_empty());
            assert!(p.final_delta_pct.abs() < 1e-12);
        }
    }

    #[test]
    fn svg_is_deterministic_and_names_every_restart() {
        let data = extract(&parse_jsonl(&two_restart_trace()));
        let first = render_svg(&data);
        for _ in 0..3 {
            assert_eq!(render_svg(&data), first, "byte-identical rendering");
        }
        assert!(first.starts_with("<?xml version=\"1.0\""));
        assert!(first.trim_end().ends_with("</svg>"));
        assert!(first.contains("<polyline points="), "{first}");
        assert_eq!(first.matches("<polyline").count(), 2, "one line per restart");
        for label in ["r0", "r1"] {
            assert!(first.contains(&format!("<title>{label}:")), "{first}");
        }
        assert!(first.contains("global best"), "{first}");
    }

    #[test]
    fn svg_colors_are_pure_functions_of_the_label() {
        assert_eq!(series_color("r0"), series_color("r0"));
        assert_ne!(series_color("r0"), series_color("r1"));
    }

    #[test]
    fn svg_escapes_hostile_labels() {
        let text = "{\"t\":0.1,\"event\":\"anneal.epoch\",\"restart\":0,\
                    \"iteration\":10,\"best_power\":5.0,\"thread\":\"r<0>&\\\"x\\\"\"}\n";
        let svg = render_svg(&extract(&parse_jsonl(text)));
        assert!(svg.contains("r&lt;0&gt;&amp;&quot;x&quot;"), "{svg}");
        assert!(!svg.contains("<0>"), "raw label must not leak:\n{svg}");
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        // A single epoch (and identical energies): y span collapses.
        let text = "{\"t\":0.1,\"event\":\"anneal.epoch\",\"restart\":0,\
                    \"iteration\":10,\"best_power\":5.0,\"thread\":\"r0\"}\n";
        let data = extract(&parse_jsonl(text));
        let svg = render_svg(&data);
        assert!(svg.contains("<polyline"), "{svg}");
        assert!(!svg.contains("NaN"), "{svg}");
        let report = analyze(&data, DEFAULT_EPSILON);
        assert_eq!(report.restarts[0].iters_to_eps, 10);
        assert_eq!(report.restarts[0].wasted_iters, 0);
    }
}
