//! Metrics derived from a [`Measurement`], and the three ways they are
//! printed: a table, one JSON document, and the one-line result.

use crate::measure::{median, quantile, Measurement, Options};
use crate::workloads::{Counts, Workload};
use std::fmt::Write as _;
use tsv3d_bench::json::ObjectWriter;

/// End-to-end metrics, measured with tracing off. `BENCHMARK.json`
/// lists the same names.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "jobs_per_s",
    "job_p50_ms",
    "job_p90_ms",
    "peak_rss_mb",
    "power_reduction_pct",
];

/// Per-layer metrics every workload yields when traced. `BENCHMARK.json`
/// lists the same names; the table and `--format json` add the layers
/// only some workloads use.
pub const PER_LAYER: [&str; 18] = [
    "stats.generate_s",
    "model.fit_s",
    "stats.from_stream_s",
    "stats.from_stream_share",
    "stats.ns_per_word",
    "stats.toggles_per_word",
    "core.problem_new_s",
    "core.anneal_s",
    "core.anneal_share",
    "core.ns_per_proposal",
    "core.attribution_s",
    "bench.glue_s",
    "bench.glue_share",
    "dominant_layer_s",
    "dominant_layer_share",
    "dominant_layer_ns_per_unit",
    "dominant_layer_units",
    "trace_overhead_pct",
];

/// Spans of the set-up phase; reported per set-up, not per pass.
const SETUP_SPANS: [&str; 3] = ["bench.setup", "stats.generate", "model.fit"];

/// One named value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises, where that is not obvious.
    pub samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

/// A run's metrics and its context.
pub struct Report {
    /// What was run.
    pub options: Options,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// Diagnostics that are not contract metrics (failure share, and the
    /// exact search's optimality figures).
    pub quality: Vec<Metric>,
    /// Every per-layer metric (traced runs only).
    pub layers: Vec<Metric>,
    /// Job runs attempted.
    pub attempted: u64,
    /// Job runs failed.
    pub failed: u64,
    /// The distinct failure messages.
    pub failures: Vec<String>,
    /// FNV-1a over every job's result.
    pub result_digest: u64,
    /// Jobs in the list.
    pub jobs: usize,
    /// Wall time of each untraced pass, seconds.
    pub pass_s: Vec<f64>,
    /// Wall time of each traced pass, seconds.
    pub traced_pass_s: Vec<f64>,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Git revision of the checkout, or `unknown`.
    pub git_rev: String,
}

impl Report {
    /// Derives every metric of `m`.
    pub fn new(options: Options, m: &Measurement, git_rev: String) -> Report {
        let jobs = m.outcomes.len();
        let job_medians = m.job_medians();
        let ok: Vec<_> = m.outcomes.iter().flatten().collect();
        let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
        let reductions: Vec<f64> = ok.iter().map(|o| o.reduction_pct).collect();
        let peak_rss = m.peak_rss_mb.unwrap_or(f64::NAN);
        let end_to_end = vec![
            Metric {
                samples: Some(m.setup_s.len()),
                ..metric("setup_s", median(&m.setup_s), "s")
            },
            Metric {
                samples: Some(m.pass_s.len()),
                ..metric("jobs_per_s", jobs as f64 / median(&m.pass_s), "jobs/s")
            },
            Metric {
                samples: Some(jobs),
                ..metric("job_p50_ms", median(&job_medians) * 1e3, "ms")
            },
            Metric {
                samples: Some(jobs),
                ..metric("job_p90_ms", quantile(&job_medians, 0.9) * 1e3, "ms")
            },
            metric("peak_rss_mb", peak_rss, "MB"),
            Metric {
                samples: Some(reductions.len()),
                ..metric("power_reduction_pct", mean(&reductions), "%")
            },
        ];
        let mut quality = vec![metric(
            "failed_share",
            m.failed as f64 / m.attempted.max(1) as f64,
            "ratio",
        )];
        if options.workload == Workload::Exact2x4 {
            let gaps: Vec<f64> = ok.iter().filter_map(|o| o.anneal_gap_pct).collect();
            quality.push(Metric {
                samples: Some(gaps.len()),
                ..metric("anneal_gap_pct", mean(&gaps), "%")
            });
            quality.push(metric(
                "proven_share",
                gaps.len() as f64 / jobs.max(1) as f64,
                "ratio",
            ));
        }
        Report {
            options,
            end_to_end,
            quality,
            layers: layer_metrics(options.workload, m),
            attempted: m.attempted,
            failed: m.failed,
            failures: m.failures.clone(),
            result_digest: m.result_digest(),
            jobs,
            pass_s: m.pass_s.clone(),
            traced_pass_s: m.traced_pass_s.clone(),
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            git_rev,
        }
    }

    /// No job failed a check and every contract metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.contract_metrics().iter().all(|m| m.value.is_finite())
    }

    /// The metrics the result line carries: end-to-end untraced,
    /// per-layer traced.
    fn contract_metrics(&self) -> Vec<Metric> {
        let (names, pool): (&[&str], &[Metric]) = if self.options.trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        names
            .iter()
            .map(|&name| {
                pool.iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| metric(name, f64::NAN, "missing"))
            })
            .collect()
    }

    /// The last line of output: `correct`, `attempted`, `failed` and
    /// the contract metrics.
    pub fn result_line(&self) -> String {
        let mut metrics = ObjectWriter::new();
        for m in self.contract_metrics() {
            let mut value = ObjectWriter::new();
            value.f64("value", m.value).str("unit", m.unit);
            metrics.raw(&m.name, &value.finish());
        }
        let mut line = ObjectWriter::new();
        line.raw("correct", if self.correct() { "true" } else { "false" })
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        line.finish()
    }

    /// One JSON document with the run context and every metric by name,
    /// unit and workload.
    pub fn json_document(&self) -> String {
        let workload = self.options.workload.name();
        let mut entries = Vec::new();
        for (kind, list) in [
            ("end_to_end", &self.end_to_end),
            ("quality", &self.quality),
            ("per_layer", &self.layers),
        ] {
            for m in list {
                let mut w = ObjectWriter::new();
                w.str("name", &m.name)
                    .f64("value", m.value)
                    .str("unit", m.unit)
                    .str("kind", kind)
                    .str("workload", workload);
                if let Some(samples) = m.samples {
                    w.u64("samples", samples as u64);
                }
                entries.push(w.finish());
            }
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                let mut s = String::new();
                tsv3d_telemetry::push_json_str(&mut s, f);
                s
            })
            .collect();
        let mut doc = ObjectWriter::new();
        doc.str("workload", workload)
            .raw("context", &self.context_json())
            .raw("correct", if self.correct() { "true" } else { "false" })
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .str("result_digest", &format!("{:016x}", self.result_digest))
            .raw("metrics", &format!("[{}]", entries.join(",")))
            .raw("failures", &format!("[{}]", failures.join(",")));
        doc.finish()
    }

    fn context_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64("seed", self.options.seed)
            .u64("available_parallelism", self.parallelism as u64)
            .str("git_rev", &self.git_rev)
            .str("profile", build_profile())
            .u64("jobs", self.jobs as u64)
            .u64("passes", self.pass_s.len() as u64)
            .u64("traced_passes", self.traced_pass_s.len() as u64)
            .f64("seconds", self.options.seconds)
            .raw("smoke", if self.options.smoke { "true" } else { "false" });
        w.finish()
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  seed {}  jobs {}  passes {} untraced + {} traced  \
             available_parallelism {}  git_rev {}  profile {}",
            self.options.workload.name(),
            self.options.seed,
            self.jobs,
            self.pass_s.len(),
            self.traced_pass_s.len(),
            self.parallelism,
            self.git_rev,
            build_profile(),
        );
        let _ = writeln!(out, "result_digest {:016x}", self.result_digest);
        let seconds = |list: &[f64]| {
            list.iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            out,
            "pass seconds: untraced [{}] traced [{}]",
            seconds(&self.pass_s),
            seconds(&self.traced_pass_s)
        );
        let _ = writeln!(
            out,
            "power reduction against: {}",
            self.options.workload.reference()
        );
        for (title, list) in [
            ("end to end (tracing off)", &self.end_to_end),
            ("quality", &self.quality),
            (
                "per layer (traced passes; `_s` is seconds per pass)",
                &self.layers,
            ),
        ] {
            if list.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}");
            for m in list {
                let samples = m.samples.map_or(String::new(), |n| format!("n={n}"));
                let _ = writeln!(
                    out,
                    "  {:<34} {:>16.6} {:<7} {samples}",
                    m.name, m.value, m.unit
                );
            }
        }
        let _ = writeln!(out, "{} of {} job runs failed", self.failed, self.attempted);
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED {failure}");
        }
        out
    }
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Every per-layer metric of a traced run: per span its self time per
/// pass (per set-up for set-up spans) and its share of job time, then
/// the work rates, the workload's dominant layer and the tracing
/// overhead. Empty when the run was not traced.
fn layer_metrics(workload: Workload, m: &Measurement) -> Vec<Metric> {
    let Some(trace) = &m.trace else {
        return Vec::new();
    };
    let passes = trace.passes.max(1) as f64;
    let span = |name: &str| trace.summary.spans.iter().find(|s| s.name == name);
    let self_per_pass = |name: &str| span(name).map_or(0.0, |s| s.self_s) / passes;
    let job_s = span("bench.job").map_or(0.0, |s| s.total_s) / passes;
    let share = |seconds: f64| seconds / job_s;

    let mut out = Vec::new();
    let mut spans: Vec<_> = trace.summary.spans.iter().collect();
    spans.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    for s in spans {
        if SETUP_SPANS.contains(&s.name.as_str()) {
            let per_setup = s.self_s / trace.setups.max(1) as f64;
            out.push(metric(format!("{}_s", s.name), per_setup, "s"));
            continue;
        }
        let name = if s.name == "bench.job" {
            "bench.glue"
        } else {
            &s.name
        };
        let seconds = s.self_s / passes;
        out.push(metric(format!("{name}_s"), seconds, "s"));
        out.push(metric(format!("{name}_share"), share(seconds), "ratio"));
    }

    let mut counts = Counts::default();
    for outcome in m.outcomes.iter().flatten() {
        counts.add(&outcome.counts);
    }
    let per_unit_ns = |seconds: f64, units: u64| seconds * 1e9 / units.max(1) as f64;
    out.push(metric("stats.words", counts.words as f64, "count"));
    out.push(metric(
        "stats.toggles_per_word",
        counts.toggles as f64 / counts.words.max(1) as f64,
        "count",
    ));
    out.push(metric(
        "stats.ns_per_word",
        per_unit_ns(self_per_pass("stats.from_stream"), counts.words),
        "ns",
    ));
    out.push(metric(
        "core.anneal_proposals",
        counts.anneal_proposals as f64,
        "count",
    ));
    out.push(metric(
        "core.ns_per_proposal",
        per_unit_ns(self_per_pass("core.anneal"), counts.anneal_proposals),
        "ns",
    ));
    if counts.bnb_nodes > 0 {
        out.push(metric("core.bnb_nodes", counts.bnb_nodes as f64, "count"));
        out.push(metric(
            "core.ns_per_node",
            per_unit_ns(self_per_pass("core.bnb"), counts.bnb_nodes),
            "ns",
        ));
    }
    if counts.cycles > 0 {
        out.push(metric("circuit.cycles", counts.cycles as f64, "count"));
        out.push(metric(
            "circuit.cycles_per_s",
            counts.cycles as f64 / self_per_pass("circuit.simulate"),
            "1/s",
        ));
    }
    if counts.codec_words > 0 {
        out.push(metric("codec.words", counts.codec_words as f64, "count"));
    }

    let dominant: f64 = workload
        .dominant_spans()
        .iter()
        .map(|s| self_per_pass(s))
        .sum();
    let units = counts.dominant_units(workload);
    out.push(metric("dominant_layer_s", dominant, "s"));
    out.push(metric("dominant_layer_share", share(dominant), "ratio"));
    out.push(metric("dominant_layer_units", units as f64, "count"));
    out.push(metric(
        "dominant_layer_ns_per_unit",
        per_unit_ns(dominant, units),
        "ns",
    ));
    out.push(metric(
        "trace_overhead_pct",
        (median(&m.traced_pass_s) / median(&m.pass_s) - 1.0) * 100.0,
        "%",
    ));
    out
}
