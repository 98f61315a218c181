//! Telemetry trace analysis: turns the PR-1 `*.jsonl` event streams
//! into per-span rollups and a flamegraph-style collapsed-stack export.
//!
//! The JSONL format is one object per line, e.g.
//! `{"t":1.5,"event":"span","name":"core.anneal","seconds":0.2}` —
//! `t` is the emit time (seconds since the handle's epoch) and span
//! events are emitted *on drop*, so a span's interval is
//! `[t − seconds, t]`. Nesting is reconstructed from interval
//! containment *per thread label*: spans emitted from worker threads
//! (the parallel optimizer, the experiment work queue) carry a
//! `thread` field, and containment is only well defined within one
//! label's stream — unlabelled spans form their own group. The
//! reconstruction yields per-span *self time* and
//! `parent;child`-style collapsed stacks directly consumable by
//! standard flamegraph tooling; rollups and paths still merge across
//! labels, so the report is thread-count independent in shape.
//!
//! Robustness contract (pinned by `tests/trace_parser.rs`): malformed
//! lines, a truncated final record and an empty file all degrade to
//! *skip and count* — an analysis pass over a partially-written trace
//! must never panic.

use crate::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tsv3d_telemetry::Histogram;

/// Two span intervals closer than this (seconds) are considered
/// touching; absorbs f64 noise in `t − seconds` reconstruction.
const EPS: f64 = 1e-9;

/// One well-formed telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emit time, seconds since the handle's epoch.
    pub t: f64,
    /// Event name (`span`, `anneal.epoch`, `run.start`, …).
    pub name: String,
    /// The full parsed line, for field access.
    pub value: JsonValue,
}

/// The outcome of parsing one `.jsonl` text.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// Well-formed events, in file order.
    pub events: Vec<TraceEvent>,
    /// Non-blank lines seen.
    pub lines: usize,
    /// Lines that failed to parse or lacked `t`/`event` (skipped).
    pub skipped: usize,
}

/// Parses JSON-lines text, skipping (and counting) malformed lines.
///
/// Never fails: a truncated final record — the normal state of a trace
/// whose writer was killed mid-line — counts as one skipped line, and
/// an empty input yields an empty trace.
pub fn parse_jsonl(text: &str) -> ParsedTrace {
    let mut trace = ParsedTrace::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        trace.lines += 1;
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(_) => {
                trace.skipped += 1;
                continue;
            }
        };
        let t = parsed.get("t").and_then(JsonValue::as_f64);
        let name = parsed.get("event").and_then(JsonValue::as_str);
        match (t, name) {
            (Some(t), Some(name)) if t.is_finite() => trace.events.push(TraceEvent {
                t,
                name: name.to_string(),
                value: parsed.clone(),
            }),
            _ => trace.skipped += 1,
        }
    }
    trace
}

/// Aggregated timing (and, when the trace carries allocator data,
/// memory) of one span name.
#[derive(Debug, Clone)]
pub struct SpanRollup {
    /// Span name (`core.anneal`, `circuit.lu_factor`, …).
    pub name: String,
    /// Completed instances.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed *self* time (duration minus nested child spans), seconds.
    pub self_s: f64,
    /// Shortest instance, seconds.
    pub min_s: f64,
    /// Longest instance, seconds.
    pub max_s: f64,
    /// Median duration estimated from the log2 histogram, seconds.
    pub p50_s: f64,
    /// 95th percentile, same estimator.
    pub p95_s: f64,
    /// 99th percentile, same estimator.
    pub p99_s: f64,
    /// Summed `alloc_bytes` across instances (0 for traces without
    /// allocator data).
    pub alloc_bytes: u64,
    /// Summed *self*-allocated bytes (total minus nested child spans'
    /// bytes, clamped at 0 — same attribution rule as `self_s`).
    pub self_bytes: u64,
    /// 95th-percentile per-instance `alloc_bytes`, log2-histogram
    /// estimate (0 without allocator data).
    pub p95_alloc_bytes: f64,
}

/// One collapsed flamegraph path: its self time and self bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CollapsedPath {
    /// `parent;child` span-name path.
    pub path: String,
    /// Self seconds accumulated on this exact path.
    pub self_s: f64,
    /// Self-allocated bytes accumulated on this exact path.
    pub self_bytes: u64,
}

/// The full analysis of one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Per-span-name rollups, sorted by descending total time.
    pub spans: Vec<SpanRollup>,
    /// Count of every event name seen (spans included).
    pub event_counts: BTreeMap<String, u64>,
    /// Collapsed stacks, sorted by path.
    pub collapsed: Vec<CollapsedPath>,
    /// Non-blank lines in the file.
    pub lines: usize,
    /// Lines skipped as malformed.
    pub skipped: usize,
    /// `true` when at least one span event carried an `alloc_bytes`
    /// field — the switch for memory columns and `--mem` ranking.
    pub has_alloc: bool,
}

struct SpanInterval {
    name: String,
    /// `thread` field of the span event; empty for unlabelled spans.
    thread: String,
    start: f64,
    end: f64,
    /// `alloc_bytes` field of the span event (0 when absent).
    alloc_bytes: u64,
}

/// Analyses parsed events into rollups and collapsed stacks.
pub fn analyze(trace: &ParsedTrace) -> TraceSummary {
    let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut intervals: Vec<SpanInterval> = Vec::new();
    let mut has_alloc = false;
    for event in &trace.events {
        *event_counts.entry(event.name.clone()).or_insert(0) += 1;
        if event.name == "span" {
            let name = event.value.get("name").and_then(JsonValue::as_str);
            let seconds = event.value.get("seconds").and_then(JsonValue::as_f64);
            if let (Some(name), Some(seconds)) = (name, seconds) {
                if seconds.is_finite() && seconds >= 0.0 {
                    let thread = event
                        .value
                        .get("thread")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("");
                    let alloc_bytes = event
                        .value
                        .get("alloc_bytes")
                        .and_then(JsonValue::as_u64);
                    has_alloc |= alloc_bytes.is_some();
                    intervals.push(SpanInterval {
                        name: name.to_string(),
                        thread: thread.to_string(),
                        start: event.t - seconds,
                        end: event.t,
                        alloc_bytes: alloc_bytes.unwrap_or(0),
                    });
                }
            }
        }
    }

    // Containment pass, independently per thread label: spans from
    // concurrent workers interleave in the file and may overlap
    // arbitrarily across labels, but within one label's stream they
    // nest. Sort each group by start (outer spans first on ties) and
    // sweep with a stack to find each span's innermost enclosing span.
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, span) in intervals.iter().enumerate() {
        groups.entry(span.thread.as_str()).or_default().push(idx);
    }
    let mut paths: Vec<String> = vec![String::new(); intervals.len()];
    let mut child_sum: Vec<f64> = vec![0.0; intervals.len()];
    let mut child_bytes: Vec<u64> = vec![0; intervals.len()];
    for group in groups.values() {
        let mut order = group.clone();
        order.sort_by(|&a, &b| {
            intervals[a]
                .start
                .partial_cmp(&intervals[b].start)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    intervals[b]
                        .end
                        .partial_cmp(&intervals[a].end)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let mut stack: Vec<usize> = Vec::new();
        for &idx in &order {
            let span = &intervals[idx];
            // Drop finished ancestors and anything that cannot contain us.
            while let Some(&top) = stack.last() {
                if intervals[top].end <= span.start + EPS
                    || intervals[top].end < span.end - EPS
                {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_sum[parent] += span.end - span.start;
                child_bytes[parent] += span.alloc_bytes;
                paths[idx] = format!("{};{}", paths[parent], span.name);
            } else {
                paths[idx] = span.name.clone();
            }
            stack.push(idx);
        }
    }

    // Per-name rollups and per-path self-time/self-bytes accumulation.
    struct Acc {
        count: u64,
        total: f64,
        self_s: f64,
        min: f64,
        max: f64,
        hist: Histogram,
        alloc_bytes: u64,
        self_bytes: u64,
        bytes_hist: Histogram,
    }
    struct PathAcc {
        self_s: f64,
        self_bytes: u64,
    }
    let mut by_name: BTreeMap<String, Acc> = BTreeMap::new();
    let mut by_path: BTreeMap<String, PathAcc> = BTreeMap::new();
    for (idx, span) in intervals.iter().enumerate() {
        let duration = span.end - span.start;
        let self_s = (duration - child_sum[idx]).max(0.0);
        // Same attribution rule as self-time: the span's own bytes are
        // its total minus whatever its direct children accounted for.
        // Saturating — a child measured on another thread's counter can
        // exceed the parent's own (thread-local) delta.
        let self_bytes = span.alloc_bytes.saturating_sub(child_bytes[idx]);
        let acc = by_name.entry(span.name.clone()).or_insert_with(|| Acc {
            count: 0,
            total: 0.0,
            self_s: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hist: Histogram::new(),
            alloc_bytes: 0,
            self_bytes: 0,
            bytes_hist: Histogram::new(),
        });
        acc.count += 1;
        acc.total += duration;
        acc.self_s += self_s;
        acc.min = acc.min.min(duration);
        acc.max = acc.max.max(duration);
        acc.hist.record(duration);
        acc.alloc_bytes += span.alloc_bytes;
        acc.self_bytes += self_bytes;
        acc.bytes_hist.record(span.alloc_bytes as f64);
        let slot = by_path.entry(paths[idx].clone()).or_insert(PathAcc {
            self_s: 0.0,
            self_bytes: 0,
        });
        slot.self_s += self_s;
        slot.self_bytes += self_bytes;
    }

    let mut spans: Vec<SpanRollup> = by_name
        .into_iter()
        .map(|(name, acc)| SpanRollup {
            name,
            count: acc.count,
            total_s: acc.total,
            self_s: acc.self_s,
            min_s: acc.min,
            max_s: acc.max,
            p50_s: acc.hist.percentile(0.5).unwrap_or(0.0),
            p95_s: acc.hist.percentile(0.95).unwrap_or(0.0),
            p99_s: acc.hist.percentile(0.99).unwrap_or(0.0),
            alloc_bytes: acc.alloc_bytes,
            self_bytes: acc.self_bytes,
            p95_alloc_bytes: acc.bytes_hist.percentile(0.95).unwrap_or(0.0),
        })
        .collect();
    spans.sort_by(|a, b| {
        b.total_s
            .partial_cmp(&a.total_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    TraceSummary {
        spans,
        event_counts,
        collapsed: by_path
            .into_iter()
            .map(|(path, acc)| CollapsedPath {
                path,
                self_s: acc.self_s,
                self_bytes: acc.self_bytes,
            })
            .collect(),
        lines: trace.lines,
        skipped: trace.skipped,
        has_alloc,
    }
}

/// Parses and analyses in one step.
pub fn analyze_text(text: &str) -> TraceSummary {
    analyze(&parse_jsonl(text))
}

/// Renders the human-readable rollup report `tsv3d trace` prints,
/// ranked by descending total time. Memory columns appear when the
/// trace carries allocator data.
pub fn render_summary(summary: &TraceSummary) -> String {
    render_summary_ranked(summary, false)
}

/// Renders the same report ranked by descending *self-allocated bytes*
/// — the `tsv3d trace --mem` view answering "which span allocates".
pub fn render_summary_mem(summary: &TraceSummary) -> String {
    render_summary_ranked(summary, true)
}

fn render_summary_ranked(summary: &TraceSummary, by_mem: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} event(s) on {} line(s), {} skipped",
        summary.event_counts.values().sum::<u64>(),
        summary.lines,
        summary.skipped
    );
    if by_mem && !summary.has_alloc {
        let _ = writeln!(
            out,
            "note: no alloc_bytes in this trace (run with TSV3D_TELEMETRY=json \
             and a counting-allocator binary); falling back to time ranking"
        );
    }
    if !summary.spans.is_empty() {
        let mut spans: Vec<&SpanRollup> = summary.spans.iter().collect();
        if by_mem && summary.has_alloc {
            spans.sort_by_key(|s| std::cmp::Reverse(s.self_bytes));
        }
        let name_width = spans
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(4)
            .max("span".len());
        let _ = write!(
            out,
            "\n{:<name_width$}  {:>7}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}",
            "span", "count", "total s", "self s", "p50 s", "p95 s", "max s"
        );
        if summary.has_alloc {
            let _ = write!(out, "  {:>14}  {:>14}  {:>14}", "alloc B", "self B", "p95 B");
        }
        let _ = writeln!(out);
        for s in spans {
            let _ = write!(
                out,
                "{:<name_width$}  {:>7}  {:>12.6}  {:>12.6}  {:>12.6}  {:>12.6}  {:>12.6}",
                s.name, s.count, s.total_s, s.self_s, s.p50_s, s.p95_s, s.max_s
            );
            if summary.has_alloc {
                let _ = write!(
                    out,
                    "  {:>14}  {:>14}  {:>14.0}",
                    s.alloc_bytes, s.self_bytes, s.p95_alloc_bytes
                );
            }
            let _ = writeln!(out);
        }
    }
    if !summary.event_counts.is_empty() {
        let _ = writeln!(out, "\nevents:");
        let width = summary
            .event_counts
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (name, count) in &summary.event_counts {
            let _ = writeln!(out, "  {name:<width$}  {count}");
        }
    }
    out
}

/// Renders the machine-readable rollup (`tsv3d trace --format json`):
/// one object with the parse counters, per-span rollups and event
/// counts. The malformed-line count is always present, so scripted
/// consumers can refuse visibly-degraded traces.
pub fn render_json(summary: &TraceSummary) -> String {
    use crate::json::ObjectWriter;
    let spans: Vec<String> = summary
        .spans
        .iter()
        .map(|s| {
            let mut w = ObjectWriter::new();
            w.str("name", &s.name)
                .u64("count", s.count)
                .f64("total_s", s.total_s)
                .f64("self_s", s.self_s)
                .f64("min_s", s.min_s)
                .f64("max_s", s.max_s)
                .f64("p50_s", s.p50_s)
                .f64("p95_s", s.p95_s)
                .f64("p99_s", s.p99_s);
            if summary.has_alloc {
                w.u64("alloc_bytes", s.alloc_bytes)
                    .u64("self_bytes", s.self_bytes)
                    .f64("p95_alloc_bytes", s.p95_alloc_bytes);
            }
            w.finish()
        })
        .collect();
    let events = crate::json::object_of_u64s(
        summary.event_counts.iter().map(|(k, v)| (k.as_str(), *v)),
    );
    let mut w = ObjectWriter::new();
    w.str("schema", "tsv3d-trace/v1")
        .u64("lines", summary.lines as u64)
        .u64("skipped", summary.skipped as u64)
        .raw("has_alloc", if summary.has_alloc { "true" } else { "false" })
        .raw("spans", &format!("[{}]", spans.join(",")))
        .raw("events", &events);
    w.finish()
}

/// Renders the collapsed-stack export (`path self_weight_ns` per line),
/// the input format of standard flamegraph tooling.
pub fn render_collapsed(summary: &TraceSummary) -> String {
    let mut out = String::new();
    for c in &summary.collapsed {
        let ns = (c.self_s * 1e9).round().max(0.0) as u64;
        let _ = writeln!(out, "{} {ns}", c.path);
    }
    out
}

/// Renders bytes-weighted collapsed stacks (`path self_bytes` per
/// line) — the same flamegraph input format, with allocated bytes as
/// the flame width instead of time.
pub fn render_collapsed_bytes(summary: &TraceSummary) -> String {
    let mut out = String::new();
    for c in &summary.collapsed {
        let _ = writeln!(out, "{} {}", c.path, c.self_bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_lines() {
        let text = "\
{\"t\":0.5,\"event\":\"run.start\",\"binary\":\"x\"}\n\
{\"t\":1.0,\"event\":\"span\",\"name\":\"a\",\"seconds\":0.25}\n";
        let trace = parse_jsonl(text);
        assert_eq!(trace.lines, 2);
        assert_eq!(trace.skipped, 0);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[1].name, "span");
    }

    #[test]
    fn rollup_counts_totals_and_percentiles() {
        let mut text = String::new();
        for i in 1..=4u32 {
            // Four non-overlapping `work` spans of 0.1 s each.
            let end = f64::from(i);
            text.push_str(&format!(
                "{{\"t\":{end},\"event\":\"span\",\"name\":\"work\",\"seconds\":0.1}}\n"
            ));
        }
        let summary = analyze_text(&text);
        assert_eq!(summary.spans.len(), 1);
        let s = &summary.spans[0];
        assert_eq!(s.name, "work");
        assert_eq!(s.count, 4);
        assert!((s.total_s - 0.4).abs() < 1e-12);
        assert!((s.self_s - 0.4).abs() < 1e-12, "no nesting: self == total");
        // Log2-bucket estimate: all samples in [2^-4, 2^-3), clamped to
        // the observed max.
        assert!((s.p50_s - 0.1).abs() < 1e-12);
        assert_eq!(summary.event_counts["span"], 4);
    }

    #[test]
    fn pulse_events_are_counted_but_never_touch_the_span_rollups() {
        let mut clean = String::new();
        for i in 1..=3u32 {
            let end = f64::from(i);
            clean.push_str(&format!(
                "{{\"t\":{end},\"event\":\"span\",\"name\":\"work\",\"seconds\":0.1}}\n"
            ));
        }
        // The same spans with foreign event names (`pulse.*`, as older
        // traces carry them) interleaved between every line.
        let mut mixed = String::new();
        for line in clean.lines() {
            mixed.push_str(
                "{\"t\":0.5,\"event\":\"pulse.sample\",\"stack\":\"main;work\"}\n",
            );
            mixed.push_str(line);
            mixed.push('\n');
        }
        mixed.push_str("{\"t\":3.5,\"event\":\"pulse.progress\",\"restart\":0}\n");

        let clean_summary = analyze_text(&clean);
        let mixed_summary = analyze_text(&mixed);
        assert_eq!(mixed_summary.skipped, 0, "unknown names are not malformed");
        assert_eq!(mixed_summary.event_counts["pulse.sample"], 3);
        assert_eq!(mixed_summary.event_counts["pulse.progress"], 1);
        // Rollups and collapsed stacks are byte-identical to the
        // clean twin — unknown events are skip-and-count only.
        assert_eq!(
            format!("{:?}", mixed_summary.spans),
            format!("{:?}", clean_summary.spans)
        );
        assert_eq!(
            format!("{:?}", mixed_summary.collapsed),
            format!("{:?}", clean_summary.collapsed)
        );
    }

    #[test]
    fn nesting_attributes_self_time_to_the_parent_remainder() {
        // outer: [0, 1.0]; inner: [0.2, 0.6] — emitted first (drops
        // first), exactly as the JsonLines sink writes them.
        let text = "\
{\"t\":0.6,\"event\":\"span\",\"name\":\"inner\",\"seconds\":0.4}\n\
{\"t\":1.0,\"event\":\"span\",\"name\":\"outer\",\"seconds\":1.0}\n";
        let summary = analyze_text(text);
        let outer = summary.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = summary.spans.iter().find(|s| s.name == "inner").unwrap();
        assert!((outer.total_s - 1.0).abs() < 1e-9);
        assert!((outer.self_s - 0.6).abs() < 1e-9, "1.0 − 0.4 nested");
        assert!((inner.self_s - 0.4).abs() < 1e-9);
        let paths: Vec<&str> = summary
            .collapsed
            .iter()
            .map(|c| c.path.as_str())
            .collect();
        assert_eq!(paths, vec!["outer", "outer;inner"]);
        let flame = render_collapsed(&summary);
        assert!(flame.contains("outer;inner 400000000"), "{flame}");
        assert!(flame.contains("outer 600000000"), "{flame}");
    }

    #[test]
    fn siblings_do_not_nest() {
        // a: [0, 0.3]; b: [0.4, 0.7] — disjoint, both roots.
        let text = "\
{\"t\":0.3,\"event\":\"span\",\"name\":\"a\",\"seconds\":0.3}\n\
{\"t\":0.7,\"event\":\"span\",\"name\":\"b\",\"seconds\":0.3}\n";
        let summary = analyze_text(text);
        let paths: Vec<&str> = summary
            .collapsed
            .iter()
            .map(|c| c.path.as_str())
            .collect();
        assert_eq!(paths, vec!["a", "b"]);
    }

    #[test]
    fn overlapping_spans_on_different_threads_do_not_nest() {
        // Worker r0's span [0.0, 0.8] overlaps worker r1's [0.3, 1.0]
        // without containing it — with a single global containment pass
        // r1's span would be misattributed as a child of r0's. An
        // unlabelled outer span [0.0, 1.2] must not swallow either.
        let text = "\
{\"t\":0.8,\"event\":\"span\",\"name\":\"work\",\"seconds\":0.8,\"thread\":\"r0\"}\n\
{\"t\":1.0,\"event\":\"span\",\"name\":\"work\",\"seconds\":0.7,\"thread\":\"r1\"}\n\
{\"t\":1.2,\"event\":\"span\",\"name\":\"outer\",\"seconds\":1.2}\n";
        let summary = analyze_text(text);
        let work = summary.spans.iter().find(|s| s.name == "work").unwrap();
        assert_eq!(work.count, 2);
        assert!(
            (work.self_s - 1.5).abs() < 1e-9,
            "both worker spans are roots of their own label: {}",
            work.self_s
        );
        let outer = summary.spans.iter().find(|s| s.name == "outer").unwrap();
        assert!((outer.self_s - 1.2).abs() < 1e-9, "no cross-label children");
        let paths: Vec<&str> = summary
            .collapsed
            .iter()
            .map(|c| c.path.as_str())
            .collect();
        assert_eq!(paths, vec!["outer", "work"], "rollups merge across labels");
    }

    #[test]
    fn same_thread_label_still_nests() {
        let text = "\
{\"t\":0.6,\"event\":\"span\",\"name\":\"inner\",\"seconds\":0.4,\"thread\":\"r2\"}\n\
{\"t\":1.0,\"event\":\"span\",\"name\":\"outer\",\"seconds\":1.0,\"thread\":\"r2\"}\n";
        let summary = analyze_text(text);
        let paths: Vec<&str> = summary
            .collapsed
            .iter()
            .map(|c| c.path.as_str())
            .collect();
        assert_eq!(paths, vec!["outer", "outer;inner"]);
    }

    #[test]
    fn malformed_and_incomplete_lines_are_counted_not_fatal() {
        let text = "\
{\"t\":1.0,\"event\":\"ok\"}\n\
this is not json\n\
{\"t\":2.0}\n\
{\"event\":\"no-time\"}\n\
{\"t\":3.0,\"event\":\"ok\"}\n\
{\"t\":4.0,\"event\":\"span\",\"name\":\"trunc";
        let trace = parse_jsonl(text);
        assert_eq!(trace.lines, 6);
        assert_eq!(trace.skipped, 4);
        assert_eq!(trace.events.len(), 2);
        let summary = analyze(&trace);
        assert_eq!(summary.event_counts["ok"], 2);
        assert!(render_summary(&summary).contains("4 skipped"));
    }

    #[test]
    fn empty_input_is_an_empty_summary() {
        let summary = analyze_text("");
        assert!(summary.spans.is_empty());
        assert_eq!(summary.lines, 0);
        assert_eq!(summary.skipped, 0);
        assert!(render_collapsed(&summary).is_empty());
        assert!(render_summary(&summary).contains("0 event(s)"));
    }

    #[test]
    fn span_events_with_broken_fields_still_count_as_events() {
        // A `span` event missing `seconds` contributes to event counts
        // but not to rollups.
        let text = "{\"t\":1.0,\"event\":\"span\",\"name\":\"x\"}\n";
        let summary = analyze_text(text);
        assert!(summary.spans.is_empty());
        assert_eq!(summary.event_counts["span"], 1);
    }

    #[test]
    fn traces_without_alloc_data_keep_mem_columns_hidden() {
        let text = "{\"t\":1.0,\"event\":\"span\",\"name\":\"a\",\"seconds\":0.5}\n";
        let summary = analyze_text(text);
        assert!(!summary.has_alloc);
        assert_eq!(summary.spans[0].alloc_bytes, 0);
        let report = render_summary(&summary);
        assert!(!report.contains("alloc B"), "{report}");
        // --mem on an alloc-free trace degrades with a note.
        let mem_report = render_summary_mem(&summary);
        assert!(mem_report.contains("no alloc_bytes"), "{mem_report}");
    }

    #[test]
    fn nested_alloc_bytes_attribute_self_bytes_to_the_parent_remainder() {
        // Same shape as the self-time test: inner [0.2, 0.6] inside
        // outer [0, 1.0]. The outer span's thread-local delta (10_000)
        // already includes the inner's 4_000.
        let text = "\
{\"t\":0.6,\"event\":\"span\",\"name\":\"inner\",\"seconds\":0.4,\"alloc_bytes\":4000,\"alloc_count\":4,\"peak_delta\":100}\n\
{\"t\":1.0,\"event\":\"span\",\"name\":\"outer\",\"seconds\":1.0,\"alloc_bytes\":10000,\"alloc_count\":10,\"peak_delta\":200}\n";
        let summary = analyze_text(text);
        assert!(summary.has_alloc);
        let outer = summary.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = summary.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.alloc_bytes, 10_000);
        assert_eq!(outer.self_bytes, 6_000, "10000 − 4000 nested");
        assert_eq!(inner.self_bytes, 4_000);
        let report = render_summary(&summary);
        assert!(report.contains("alloc B"), "{report}");
        let flame = render_collapsed_bytes(&summary);
        assert!(flame.contains("outer;inner 4000"), "{flame}");
        assert!(flame.contains("outer 6000"), "{flame}");
    }

    #[test]
    fn child_bytes_exceeding_the_parent_clamp_to_zero_self_bytes() {
        // A child measured on a different counter stream can report
        // more bytes than its parent's own delta; self bytes saturate.
        let text = "\
{\"t\":0.6,\"event\":\"span\",\"name\":\"inner\",\"seconds\":0.4,\"alloc_bytes\":5000}\n\
{\"t\":1.0,\"event\":\"span\",\"name\":\"outer\",\"seconds\":1.0,\"alloc_bytes\":1000}\n";
        let summary = analyze_text(text);
        let outer = summary.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.self_bytes, 0, "never negative");
    }

    #[test]
    fn mem_ranking_orders_by_self_bytes() {
        // `big` allocates more but `small` has more total time; the
        // --mem view must lead with `big`.
        let text = "\
{\"t\":1.0,\"event\":\"span\",\"name\":\"small\",\"seconds\":0.9,\"alloc_bytes\":100}\n\
{\"t\":3.0,\"event\":\"span\",\"name\":\"big\",\"seconds\":0.1,\"alloc_bytes\":90000}\n";
        let summary = analyze_text(text);
        assert_eq!(summary.spans[0].name, "small", "default rank: time");
        let mem_report = render_summary_mem(&summary);
        let big_at = mem_report.find("big").unwrap();
        let small_at = mem_report.find("small").unwrap();
        assert!(big_at < small_at, "{mem_report}");
    }

    #[test]
    fn json_rollup_includes_parse_counters_and_mem_fields() {
        let text = "\
{\"t\":1.0,\"event\":\"span\",\"name\":\"a\",\"seconds\":0.5,\"alloc_bytes\":2048}\n\
not json\n";
        let summary = analyze_text(text);
        let doc = json::parse(&render_json(&summary)).unwrap();
        assert_eq!(doc.get("lines").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(doc.get("skipped").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("has_alloc"), Some(&JsonValue::Bool(true)));
        let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("self_bytes").and_then(JsonValue::as_u64),
            Some(2048)
        );
        assert_eq!(
            doc.get("events")
                .and_then(|e| e.get("span"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }
}
