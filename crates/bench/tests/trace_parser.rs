//! Round-trip tests: real spans emitted through the telemetry
//! `JsonLinesSink` must parse and roll up exactly, and degraded inputs
//! (malformed lines, truncated tails, empty files) must be skipped and
//! counted, never panic.

use std::io::Write;
use std::sync::{Arc, Mutex};
use tsv3d_bench::trace;
use tsv3d_telemetry::{JsonLinesSink, TelemetryHandle, Value};

/// An in-memory `Write` target shared with the test body.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// Emits through the real sink, parses the bytes back, and returns the
/// rollup summary alongside the raw text.
fn capture(run: impl FnOnce(&TelemetryHandle)) -> (trace::TraceSummary, String) {
    let buf = SharedBuf::default();
    let tel = TelemetryHandle::with_sink(Box::new(JsonLinesSink::with_writer(
        Box::new(buf.clone()),
    )));
    run(&tel);
    tel.flush();
    let text = buf.text();
    (trace::analyze_text(&text), text)
}

#[test]
fn sink_to_parser_round_trip_preserves_every_event() {
    let (summary, text) = capture(|tel| {
        tel.event("run.start", &[("binary", Value::from("roundtrip"))]);
        {
            let _outer = tel.span("outer.stage");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = tel.span("inner.kernel");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = tel.span("inner.kernel");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        tel.event("run.done", &[]);
    });

    assert_eq!(summary.skipped, 0, "sink output must parse fully:\n{text}");
    assert_eq!(summary.event_counts["run.start"], 1);
    assert_eq!(summary.event_counts["run.done"], 1);
    assert_eq!(summary.event_counts["span"], 3);

    let outer = summary
        .spans
        .iter()
        .find(|s| s.name == "outer.stage")
        .expect("outer span rolled up");
    let inner = summary
        .spans
        .iter()
        .find(|s| s.name == "inner.kernel")
        .expect("inner span rolled up");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 2);
    // Both inner executions nest inside the outer interval, so the
    // outer self time is its total minus the inner totals.
    assert!(outer.total_s >= inner.total_s);
    assert!(
        (outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9,
        "outer self {} vs total {} minus inner {}",
        outer.self_s,
        outer.total_s,
        inner.total_s
    );
    assert!(inner.min_s >= 0.002 - 1e-4);

    let paths: Vec<&str> = summary
        .collapsed
        .iter()
        .map(|c| c.path.as_str())
        .collect();
    assert!(paths.contains(&"outer.stage"), "{paths:?}");
    assert!(paths.contains(&"outer.stage;inner.kernel"), "{paths:?}");
}

#[test]
fn string_escapes_survive_the_round_trip() {
    let (summary, text) = capture(|tel| {
        tel.event(
            "weird \"name\"\twith\nescapes",
            &[("payload", Value::from("back\\slash"))],
        );
    });
    assert_eq!(summary.skipped, 0, "{text}");
    assert_eq!(summary.event_counts["weird \"name\"\twith\nescapes"], 1);
}

#[test]
fn truncated_final_record_is_skipped_not_fatal() {
    let (_, mut text) = capture(|tel| {
        drop(tel.span("kept.span"));
        drop(tel.span("lost.span"));
    });
    // Simulate a crashed process: cut the final record mid-object.
    let cut = text.rfind("lost").unwrap();
    text.truncate(cut + 2);
    let summary = trace::analyze_text(&text);
    assert_eq!(summary.skipped, 1);
    assert_eq!(summary.event_counts["span"], 1);
    assert!(summary.spans.iter().any(|s| s.name == "kept.span"));
    assert!(summary.spans.iter().all(|s| s.name != "lost.span"));
}

#[test]
fn malformed_lines_mixed_into_a_real_stream_are_counted() {
    let (_, text) = capture(|tel| {
        drop(tel.span("real.work"));
    });
    let polluted = format!(
        "garbage line one\n{text}{{\"no_time\":true}}\n[1,2,3]\n  \n"
    );
    let summary = trace::analyze_text(&polluted);
    // Blank lines are neither events nor skips; the three junk lines
    // all count as skipped.
    assert_eq!(summary.skipped, 3, "in:\n{polluted}");
    assert_eq!(summary.event_counts["span"], 1);
    assert!(summary.spans.iter().any(|s| s.name == "real.work"));
}

#[test]
fn empty_and_whitespace_only_files_degrade_to_empty_summaries() {
    for text in ["", "\n", "   \n\t\n"] {
        let summary = trace::analyze_text(text);
        assert!(summary.spans.is_empty(), "{text:?}");
        assert_eq!(summary.skipped, 0, "{text:?}");
        assert!(trace::render_collapsed(&summary, false).is_empty());
        // Rendering an empty summary must not panic either.
        let _ = trace::render_summary(&summary, false);
    }
}
