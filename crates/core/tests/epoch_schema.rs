//! Schema pin for the annealer's per-epoch telemetry events.
//!
//! `tsv3d trace` (and any external trace consumer) parses the
//! `anneal.calibrated` and `anneal.epoch` events by field name and
//! type, so their exact shape is an interface: this test runs a tiny
//! instrumented anneal and asserts the ordered field names and
//! [`Value`] variants byte-for-byte. Renaming or reordering a field
//! must update this test — and the trace reader's convergence parser
//! (`tsv3d_bench::converge`) — in one commit.
//!
//! The restart label travels out of band on [`Event::thread`] (sinks
//! serialise it as the trailing `thread` key, so the JSONL stream is
//! unchanged from when it was an appended field).

use std::sync::{Arc, Mutex};

use tsv3d_core::optimize::{anneal_with_telemetry, AnnealOptions};
use tsv3d_core::AssignmentProblem;
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::gen::GaussianSource;
use tsv3d_stats::SwitchingStats;
use tsv3d_telemetry::{Event, Sink, TelemetryHandle, Value};

/// One captured event: name, ordered fields and thread label, owned.
type Captured = (String, Vec<(&'static str, Value)>, Option<String>);

/// Captures every event as an owned `(name, fields, thread)` triple.
struct CaptureSink(Arc<Mutex<Vec<Captured>>>);

impl Sink for CaptureSink {
    fn emit(&self, event: &Event<'_>) {
        self.0.lock().unwrap().push((
            event.name.to_string(),
            event.fields.to_vec(),
            event.thread.map(str::to_string),
        ));
    }
}

fn problem(rows: usize, cols: usize, stream_seed: u64, correlation: f64) -> AssignmentProblem {
    let n = rows * cols;
    let cap = LinearCapModel::fit(&Extractor::new(
        TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
    ))
    .expect("fit");
    let stream = GaussianSource::new(n, (1u64 << (n - 2)) as f64)
        .with_correlation(correlation)
        .generate(stream_seed, 2_000)
        .expect("stream");
    AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("problem")
}

/// Runs a small two-restart anneal and returns the captured events.
fn captured_events() -> Vec<Captured> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let tel = TelemetryHandle::with_sink(Box::new(CaptureSink(Arc::clone(&events))));
    let p = problem(2, 3, 42, 0.4);
    let opts = AnnealOptions {
        iterations: 640,
        restarts: 2,
        seed: 0x5EED,
        threads: 1,
    };
    anneal_with_telemetry(&p, &opts, &tel).unwrap();
    drop(tel); // release the sink's clone of the event buffer
    Arc::try_unwrap(events).unwrap().into_inner().unwrap()
}

fn names(fields: &[(&'static str, Value)]) -> Vec<&'static str> {
    fields.iter().map(|(k, _)| *k).collect()
}

#[test]
fn calibrated_event_pins_field_names_and_types() {
    let events = captured_events();
    let calibrated: Vec<_> = events
        .iter()
        .filter(|(name, _, _)| name == "anneal.calibrated")
        .collect();
    assert_eq!(
        calibrated.len(),
        1,
        "the temperature probe calibrates exactly once per run"
    );
    let fields = &calibrated[0].1;
    assert_eq!(
        names(fields),
        [
            "t_start",
            "t_end",
            "probe_spread",
            "iterations",
            "restarts",
            "threads"
        ],
        "field order is part of the trace interface"
    );
    for key in ["t_start", "t_end", "probe_spread"] {
        let (_, value) = fields.iter().find(|(k, _)| *k == key).unwrap();
        match value {
            Value::F64(v) => assert!(v.is_finite(), "{key} must be finite, got {v}"),
            other => panic!("{key} must be F64, got {other:?}"),
        }
    }
    for (key, expect) in [("iterations", 640), ("restarts", 2), ("threads", 1)] {
        let (_, value) = fields.iter().find(|(k, _)| *k == key).unwrap();
        assert_eq!(
            value,
            &Value::U64(expect),
            "{key} must be U64({expect}), got {value:?}"
        );
    }
    // Calibration happens on the unlabelled handle — no thread label.
    assert_eq!(
        calibrated[0].2, None,
        "anneal.calibrated is emitted before restarts fan out"
    );
}

#[test]
fn epoch_events_pin_field_names_types_and_restart_labels() {
    let events = captured_events();
    let epochs: Vec<_> = events
        .iter()
        .filter(|(name, _, _)| name == "anneal.epoch")
        .collect();
    assert!(
        epochs.len() >= 2,
        "a 640-iteration two-restart anneal emits epochs for both restarts"
    );

    let mut seen_labels = std::collections::BTreeSet::new();
    for (_, fields, thread) in &epochs {
        assert_eq!(
            names(fields),
            [
                "restart",
                "iteration",
                "temperature",
                "current_power",
                "best_power",
                "accept_rate",
                "swap_moves",
                "flip_moves"
            ],
            "field order is part of the trace interface"
        );
        let value_of = |key: &str| &fields.iter().find(|(k, _)| *k == key).unwrap().1;
        let restart = match value_of("restart") {
            Value::U64(r) => *r,
            other => panic!("restart must be U64, got {other:?}"),
        };
        assert!(restart < 2, "restart index within the configured count");
        match value_of("iteration") {
            Value::U64(it) => assert!(*it >= 1 && *it <= 640, "iteration is 1-based"),
            other => panic!("iteration must be U64, got {other:?}"),
        }
        for key in ["temperature", "current_power", "best_power"] {
            match value_of(key) {
                Value::F64(v) => assert!(v.is_finite(), "{key} must be finite"),
                other => panic!("{key} must be F64, got {other:?}"),
            }
        }
        match value_of("accept_rate") {
            Value::F64(r) => assert!((0.0..=1.0).contains(r), "accept_rate in [0, 1], got {r}"),
            other => panic!("accept_rate must be F64, got {other:?}"),
        }
        for key in ["swap_moves", "flip_moves"] {
            match value_of(key) {
                Value::U64(_) => {}
                other => panic!("{key} must be U64, got {other:?}"),
            }
        }
        // The per-restart handle stamps its label on the event's
        // out-of-band `thread` slot (sinks serialise it last), which is
        // how `tsv3d trace` separates the r0…rN series.
        let label = thread.as_deref().expect("epoch events carry a thread label");
        assert_eq!(
            label,
            format!("r{restart}"),
            "thread label matches the restart field"
        );
        seen_labels.insert(label.to_string());
    }
    assert_eq!(
        seen_labels.into_iter().collect::<Vec<_>>(),
        ["r0", "r1"],
        "both restarts produce their own labelled series"
    );

    // The final epoch of each restart lands exactly on the last
    // iteration, so downstream analysis always sees the endpoint.
    for want in 0u64..2 {
        let last = epochs
            .iter()
            .rfind(|(_, fields, _)| fields.first().map(|(_, v)| v) == Some(&Value::U64(want)))
            .expect("each restart has epochs");
        let (_, iteration) = last.1.iter().find(|(k, _)| *k == "iteration").unwrap();
        assert_eq!(
            iteration,
            &Value::U64(640),
            "restart {want} reports its final iteration"
        );
    }
}
