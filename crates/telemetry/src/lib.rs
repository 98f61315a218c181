//! `tsv3d-telemetry` — zero-dependency instrumentation for the tsv3d
//! workspace.
//!
//! The optimisers (simulated annealing, branch-and-bound), the
//! transient circuit engine and the experiment flow are hot loops that
//! previously ran as black boxes. This crate provides the shared
//! observability substrate they report into:
//!
//! * [`TelemetryHandle`] — a cheap, cloneable handle; a *disabled*
//!   handle (the default everywhere) reduces every instrumentation
//!   call to a branch on an `Option`, so uninstrumented runs pay
//!   effectively nothing;
//! * monotonic **span timers** ([`TelemetryHandle::span`]) feeding
//!   per-name duration [`Histogram`]s;
//! * **counters** ([`TelemetryHandle::add`]), **gauges**
//!   ([`TelemetryHandle::set_gauge`], last-write-wins `f64` readings)
//!   and **value histograms** ([`TelemetryHandle::record`]),
//!   log-bucketed;
//! * a pluggable [`Sink`] for event streams: [`NullSink`] (default),
//!   [`StderrSink`] (human-readable) and [`JsonLinesSink`]
//!   (machine-readable `.jsonl`);
//! * [`TelemetryHandle::from_env`] — the `TSV3D_TELEMETRY=json|stderr|off`
//!   switch every reproduction binary uses.
//!
//! **Determinism contract:** telemetry only *observes*. No RNG draw,
//! no floating-point value and no control-flow decision in the
//! instrumented code may depend on the handle, so seeded runs produce
//! bit-identical results with any sink attached (`tsv3d-core` enforces
//! this with a property test).
//!
//! The [`alloc`] module extends the same contract to *memory*: a
//! [`alloc::CountingAlloc`] global allocator feeds process-wide and
//! thread-local counters, and spans closing while counting is active
//! ([`alloc::is_active`]) stamp their events with
//! `alloc_bytes`/`alloc_count`/`peak_delta` deltas.
//!
//! # Examples
//!
//! ```
//! use tsv3d_telemetry::TelemetryHandle;
//!
//! let tel = TelemetryHandle::disabled();
//! {
//!     let _span = tel.span("stage.optimize"); // no-op: handle disabled
//! }
//! tel.add("nodes", 17);
//! assert!(!tel.is_enabled());
//! assert_eq!(tel.counter_value("nodes"), None);
//! ```

// `deny` rather than `forbid`: the [`alloc`] module implements the
// (unsafe by contract) `GlobalAlloc` trait and opts in locally; every
// other module stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod histogram;
mod sink;

pub use histogram::Histogram;
pub use sink::{push_json_f64, push_json_str, Event, JsonLinesSink, NullSink, Sink, StderrSink};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values serialise as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

struct Inner {
    sink: Box<dyn Sink>,
    epoch: Instant,
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

/// Cheap, cloneable entry point to the telemetry registry.
///
/// A disabled handle (the workspace-wide default) makes every method a
/// near-free early return; an enabled handle aggregates counters and
/// histograms in a shared registry and forwards events to its sink.
///
/// Handles may additionally carry a *thread label*
/// ([`with_thread_label`](Self::with_thread_label)): every event the
/// labelled handle emits — span events included — gains a `thread`
/// field, which is how concurrent workers writing to the one
/// `Mutex`-guarded sink stay distinguishable in the stream.
#[derive(Clone)]
pub struct TelemetryHandle {
    inner: Option<Arc<Inner>>,
    /// Worker label stamped on emitted events; `None` on unlabelled
    /// handles (the common case — serial code never pays for it).
    thread: Option<Arc<str>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for TelemetryHandle {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TelemetryHandle {
    /// The no-op handle: every instrumentation call is a cheap branch.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            thread: None,
        }
    }

    /// An enabled handle forwarding events to `sink`.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
            thread: None,
        }
    }

    /// A handle sharing this one's registry and sink whose events (span
    /// events included) carry an extra `thread: label` field — the
    /// disambiguator trace analysis groups by when spans from
    /// concurrent workers interleave in a single stream.
    ///
    /// Counters and histograms stay shared (same registry); a disabled
    /// handle stays disabled, so labelling costs nothing on
    /// uninstrumented runs.
    pub fn with_thread_label(&self, label: &str) -> TelemetryHandle {
        TelemetryHandle {
            inner: self.inner.clone(),
            thread: self.inner.is_some().then(|| Arc::from(label)),
        }
    }

    /// The worker label this handle stamps on events, if any.
    pub fn thread_label(&self) -> Option<&str> {
        self.thread.as_deref()
    }

    /// Builds a handle from the `TSV3D_TELEMETRY` environment switch:
    ///
    /// * `json` — [`JsonLinesSink`] writing
    ///   `results/<context>_telemetry.jsonl` (or the file named by
    ///   `TSV3D_TELEMETRY_PATH`);
    /// * `stderr` — [`StderrSink`];
    /// * `off`, empty or unset — disabled.
    ///
    /// Unknown values and sink-creation failures disable telemetry
    /// with a warning on stderr rather than failing the run.
    pub fn from_env(context: &str) -> Self {
        match std::env::var("TSV3D_TELEMETRY").as_deref() {
            Ok("json") | Ok("stderr") => {}
            _ => return Self::from_env_inner(context),
        }
        // An enabled run also switches on allocation counting, so span
        // events carry memory deltas wherever a `CountingAlloc` is the
        // global allocator (no-op passthrough otherwise).
        alloc::set_enabled(true);
        Self::from_env_inner(context)
    }

    fn from_env_inner(context: &str) -> Self {
        match std::env::var("TSV3D_TELEMETRY").as_deref() {
            Ok("json") => {
                let path = std::env::var("TSV3D_TELEMETRY_PATH")
                    .unwrap_or_else(|_| format!("results/{context}_telemetry.jsonl"));
                match JsonLinesSink::create(&path) {
                    Ok(sink) => Self::with_sink(Box::new(sink)),
                    Err(err) => {
                        eprintln!(
                            "warning: TSV3D_TELEMETRY=json but `{path}` is not writable \
                             ({err}); telemetry disabled"
                        );
                        Self::disabled()
                    }
                }
            }
            Ok("stderr") => Self::with_sink(Box::new(StderrSink)),
            Ok("off") | Ok("") | Err(_) => Self::disabled(),
            Ok(other) => {
                eprintln!(
                    "warning: unknown TSV3D_TELEMETRY value `{other}` \
                     (expected json|stderr|off); telemetry disabled"
                );
                Self::disabled()
            }
        }
    }

    /// `true` when a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = inner.counters.lock().expect("counter registry poisoned");
            match counters.get_mut(name) {
                Some(slot) => *slot += delta,
                None => {
                    counters.insert(name.to_string(), delta);
                }
            }
        }
    }

    /// Sets gauge `name` to `value`, replacing any previous reading.
    ///
    /// Gauges are last-write-wins point-in-time values (a power figure,
    /// a queue depth) — unlike [`add`](Self::add) counters they do not
    /// accumulate. Non-finite values are stored as-is.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut gauges = inner.gauges.lock().expect("gauge registry poisoned");
            match gauges.get_mut(name) {
                Some(slot) => *slot = value,
                None => {
                    gauges.insert(name.to_string(), value);
                }
            }
        }
    }

    /// Records `value` into histogram `name`.
    pub fn record(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut histograms = inner.histograms.lock().expect("histogram registry poisoned");
            match histograms.get_mut(name) {
                Some(h) => h.record(value),
                None => {
                    let mut h = Histogram::new();
                    h.record(value);
                    histograms.insert(name.to_string(), h);
                }
            }
        }
    }

    /// Emits a structured event to the sink; a thread-labelled handle
    /// stamps its label onto the event's out-of-band `thread` slot
    /// (serialised by sinks as a trailing `thread` key), so labelled
    /// emission allocates nothing.
    pub fn event(&self, name: &str, fields: &[(&'static str, Value)]) {
        if let Some(inner) = &self.inner {
            inner.sink.emit(&Event {
                elapsed: inner.epoch.elapsed().as_secs_f64(),
                name,
                fields,
                thread: self.thread.as_deref(),
            });
        }
    }

    /// Starts a monotonic span timer; on drop the duration is recorded
    /// into histogram `name` and emitted as a `span` event (carrying
    /// the handle's thread label, if any).
    ///
    /// When allocation counting is active ([`alloc::is_active`]) the
    /// close event additionally carries `alloc_bytes` / `alloc_count`
    /// (this thread's requests while the span was open) and
    /// `peak_delta` (growth of the process live-bytes high-water
    /// mark). The deltas are cumulative over nested spans, exactly
    /// like wall time — trace analysis subtracts children to recover
    /// self-attribution.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            inner: self.inner.as_ref().map(|inner| SpanInner {
                registry: Arc::clone(inner),
                name,
                thread: self.thread.clone(),
                alloc: alloc::active_mark(),
                start: Instant::now(),
            }),
        }
    }

    /// The current value of counter `name` (`None` when disabled or
    /// never incremented).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .get(name)
            .copied()
    }

    /// The current value of gauge `name` (`None` when disabled or
    /// never set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        inner
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .get(name)
            .copied()
    }

    /// A snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let inner = self.inner.as_ref()?;
        inner
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .get(name)
            .cloned()
    }

    /// A point-in-time copy of every counter, in name order. Empty for
    /// a disabled handle.
    ///
    /// This is the export surface for harnesses (e.g. `tsv3d-bench`)
    /// that serialise a run's counters next to its timings.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            Some(inner) => inner
                .counters
                .lock()
                .expect("counter registry poisoned")
                .clone(),
            None => BTreeMap::new(),
        }
    }

    /// Seconds since the handle was created (0 when disabled).
    pub fn elapsed_seconds(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |inner| inner.epoch.elapsed().as_secs_f64())
    }

    /// Renders a fixed-width, human-readable digest of every counter
    /// and histogram — the "timing footer" the experiment binaries
    /// append to their tables. Empty string when disabled.
    pub fn summary(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let counters = inner.counters.lock().expect("counter registry poisoned");
        let histograms = inner.histograms.lock().expect("histogram registry poisoned");
        let gauges = inner.gauges.lock().expect("gauge registry poisoned");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry summary (wall {:.3} s)",
            inner.epoch.elapsed().as_secs_f64()
        );
        if !counters.is_empty() {
            let width = counters.keys().map(|k| k.len()).max().unwrap_or(0);
            let _ = writeln!(out, "  counters:");
            for (name, value) in counters.iter() {
                let _ = writeln!(out, "    {name:<width$}  {value}");
            }
        }
        if !gauges.is_empty() {
            let width = gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            let _ = writeln!(out, "  gauges:");
            for (name, value) in gauges.iter() {
                let _ = writeln!(out, "    {name:<width$}  {value:.6e}");
            }
        }
        if !histograms.is_empty() {
            let width = histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            let _ = writeln!(out, "  timings/values:");
            for (name, h) in histograms.iter() {
                let _ = writeln!(
                    out,
                    "    {name:<width$}  n={:<6} total {:<12.6e} mean {:<12.6e} \
                     min {:<12.6e} max {:.6e}",
                    h.count(),
                    h.sum(),
                    h.mean(),
                    if h.count() == 0 { 0.0 } else { h.min() },
                    if h.count() == 0 { 0.0 } else { h.max() },
                );
            }
        }
        out
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

struct SpanInner {
    registry: Arc<Inner>,
    name: &'static str,
    thread: Option<Arc<str>>,
    /// Allocation baseline captured at open; `None` when counting was
    /// inactive, so binaries without the allocator never emit zeros.
    alloc: Option<alloc::AllocMark>,
    start: Instant,
}

/// A running span timer; the measurement ends when it is dropped.
///
/// Returned by [`TelemetryHandle::span`]. For a disabled handle this
/// is inert (not even the clock is read).
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(span) = self.inner.take() {
            let seconds = span.start.elapsed().as_secs_f64();
            // Read the allocation deltas before any bookkeeping below
            // allocates (histogram inserts, the fields vector): the
            // measurement must cover only the span's own scope, which
            // is also what makes single-threaded deltas repeatable.
            let alloc_delta = span.alloc.as_ref().map(alloc::delta_since);
            {
                let mut histograms = span
                    .registry
                    .histograms
                    .lock()
                    .expect("histogram registry poisoned");
                match histograms.get_mut(span.name) {
                    Some(h) => h.record(seconds),
                    None => {
                        let mut h = Histogram::new();
                        h.record(seconds);
                        histograms.insert(span.name.to_string(), h);
                    }
                }
            }
            let mut fields = vec![
                ("name", Value::Str(span.name.to_string())),
                ("seconds", Value::F64(seconds)),
            ];
            if let Some(delta) = alloc_delta {
                fields.push(("alloc_bytes", Value::U64(delta.alloc_bytes)));
                fields.push(("alloc_count", Value::U64(delta.alloc_count)));
                fields.push(("peak_delta", Value::U64(delta.peak_delta)));
            }
            span.registry.sink.emit(&Event {
                elapsed: span.registry.epoch.elapsed().as_secs_f64(),
                name: "span",
                fields: &fields,
                thread: span.thread.as_deref(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = TelemetryHandle::disabled();
        tel.add("c", 5);
        tel.record("h", 1.0);
        tel.set_gauge("g", 2.5);
        tel.event("e", &[("k", Value::U64(1))]);
        drop(tel.span("s"));
        assert_eq!(tel.counter_value("c"), None);
        assert_eq!(tel.gauge_value("g"), None);
        assert!(tel.histogram("h").is_none());
        assert_eq!(tel.summary(), "");
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.set_gauge("power.total", 1.5);
        tel.set_gauge("power.total", 0.75);
        tel.set_gauge("power.self_charge", 0.25);
        assert_eq!(tel.gauge_value("power.total"), Some(0.75));
        assert_eq!(tel.gauge_value("power.self_charge"), Some(0.25));
        let summary = tel.summary();
        assert!(summary.contains("gauges:"), "{summary}");
        assert!(summary.contains("power.total"), "{summary}");
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.add("nodes", 3);
        tel.add("nodes", 4);
        tel.record("gap", 0.5);
        tel.record("gap", 2.0);
        assert_eq!(tel.counter_value("nodes"), Some(7));
        let h = tel.histogram("gap").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2.5);
        let summary = tel.summary();
        assert!(summary.contains("nodes"), "{summary}");
        assert!(summary.contains("gap"), "{summary}");
    }

    #[test]
    fn spans_record_durations() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        {
            let _span = tel.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = tel.histogram("work").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.002, "span measured {:.6}s", h.sum());
    }

    #[test]
    fn snapshots_copy_the_registry_state() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.add("a", 1);
        tel.add("b", 2);
        let counters = tel.counters_snapshot();
        assert_eq!(
            counters.into_iter().collect::<Vec<_>>(),
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        // The snapshot is a copy: later mutation must not show up.
        tel.add("a", 10);
        let counters = tel.counters_snapshot();
        assert_eq!(counters["a"], 11);
    }

    #[test]
    fn disabled_handle_snapshots_are_empty() {
        let tel = TelemetryHandle::disabled();
        tel.add("a", 1);
        assert!(tel.counters_snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        let clone = tel.clone();
        clone.add("shared", 1);
        tel.add("shared", 1);
        assert_eq!(tel.counter_value("shared"), Some(2));
    }

    /// One captured event: its name, owned fields, and thread label.
    type CapturedEvent = (String, Vec<(&'static str, Value)>, Option<String>);

    /// Captures emitted events as `(name, fields, thread)` triples.
    struct CaptureSink(Mutex<Vec<CapturedEvent>>);

    impl Sink for CaptureSink {
        fn emit(&self, event: &Event<'_>) {
            self.0.lock().unwrap().push((
                event.name.to_string(),
                event.fields.to_vec(),
                event.thread.map(str::to_string),
            ));
        }
    }

    #[test]
    fn thread_labelled_handles_stamp_events_and_spans() {
        let sink = Arc::new(CaptureSink(Mutex::new(Vec::new())));
        struct Fwd(Arc<CaptureSink>);
        impl Sink for Fwd {
            fn emit(&self, event: &Event<'_>) {
                self.0.emit(event);
            }
        }
        let tel = TelemetryHandle::with_sink(Box::new(Fwd(Arc::clone(&sink))));
        let worker = tel.with_thread_label("r1");
        assert_eq!(worker.thread_label(), Some("r1"));
        assert_eq!(tel.thread_label(), None);

        tel.event("plain", &[("k", Value::U64(1))]);
        worker.event("labelled", &[("k", Value::U64(2))]);
        drop(worker.span("work"));

        let events = sink.0.lock().unwrap();
        assert_eq!(events[0].0, "plain");
        assert_eq!(events[0].2, None);
        // The label rides the out-of-band slot, never the fields.
        assert!(events.iter().all(|e| e.1.iter().all(|(k, _)| *k != "thread")));
        assert_eq!(events[1].0, "labelled");
        assert_eq!(events[1].2.as_deref(), Some("r1"));
        assert_eq!(events[2].0, "span");
        assert_eq!(events[2].2.as_deref(), Some("r1"));
    }

    #[test]
    fn labelled_handles_share_the_registry_and_disabled_stays_disabled() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        let worker = tel.with_thread_label("w0");
        worker.add("shared", 2);
        tel.add("shared", 1);
        assert_eq!(tel.counter_value("shared"), Some(3));

        let off = TelemetryHandle::disabled().with_thread_label("w1");
        assert!(!off.is_enabled());
        assert_eq!(off.thread_label(), None);
    }
}
