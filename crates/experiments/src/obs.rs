//! Observability plumbing shared by every experiment binary.
//!
//! One call at the top of `main` turns the `TSV3D_TELEMETRY`
//! environment switch into a [`Run`], a guard around the run's
//! [`TelemetryHandle`]:
//!
//! | `TSV3D_TELEMETRY` | behaviour |
//! |---|---|
//! | unset / `off` / `0` | disabled — zero overhead, byte-identical output |
//! | `json` | JSON lines to `results/<binary>_telemetry.jsonl` (or `TSV3D_TELEMETRY_PATH`) |
//! | `stderr` | human-readable events on stderr |
//!
//! ```no_run
//! let tel = tsv3d_experiments::obs::for_binary("fig3_gaussian");
//! // ... run the experiment, passing `&tel` down; dropping `tel`
//! // ends the run, also on an early `?` return ...
//! ```
//!
//! # Memory observability
//!
//! This module also hosts the workspace's one `#[global_allocator]`:
//! a [`tsv3d_telemetry::alloc::CountingAlloc`] over the system
//! allocator. Every binary of this crate (all figure/table binaries,
//! `tsv3d`, and the integration tests) therefore routes allocations
//! through the counting layer. The counters are **off** unless
//! telemetry is enabled (or the bench harness enables them around its
//! timed loop), in which case span close events gain
//! `alloc_bytes`/`alloc_count`/`peak_delta` fields and `run.done`
//! reports the process-wide peak. Disabled runs take a single relaxed
//! atomic load per allocation and stay byte-identical.

pub use tsv3d_telemetry::{Span, TelemetryHandle, Value};

use std::path::PathBuf;
use std::sync::OnceLock;
use tsv3d_bench::history;
use tsv3d_telemetry::alloc;

/// The process-wide counting allocator (see the module docs). Plain
/// `System` passthrough until telemetry (or the bench harness) enables
/// counting.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::system();

/// The binary name a [`Run`] records in its `run` history record: set
/// once by the first [`for_binary_with`] call of the process.
static RUN_BINARY: OnceLock<String> = OnceLock::new();

/// The cross-run ledger path for experiment binaries: the opt-in
/// `TSV3D_HISTORY` env var. Deliberately **no default** — `tsv3d bench`
/// defaults to `results/history.jsonl`, but instrumented test runs and
/// ad-hoc experiments must not grow the committed ledger unasked.
fn history_path() -> Option<PathBuf> {
    std::env::var("TSV3D_HISTORY")
        .ok()
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
}

/// Builds the process-wide telemetry handle for one experiment binary
/// from the `TSV3D_TELEMETRY` environment switch and announces the run
/// with a `run.start` event.
///
/// `run.start` carries enough provenance to attribute a trace to a
/// commit and configuration — the same fields `BENCH_*.json` records:
/// the binary name, abbreviated git revision, telemetry mode, thread
/// count (the host's available parallelism), and (via
/// [`for_binary_with`]) the workload seed.
pub fn for_binary(binary: &str) -> Run {
    for_binary_with(binary, None)
}

/// [`for_binary`] with the workload seed, when the binary has a single
/// governing one.
pub fn for_binary_with(binary: &str, seed: Option<u64>) -> Run {
    let tel = TelemetryHandle::from_env(binary);
    if tel.is_enabled() {
        let mode = std::env::var("TSV3D_TELEMETRY").unwrap_or_else(|_| "off".to_string());
        let mut fields = vec![
            ("binary", Value::from(binary)),
            ("git_rev", Value::from(tsv3d_bench::report::git_rev())),
            ("telemetry", Value::from(mode)),
            ("threads", Value::from(threads())),
        ];
        if let Some(seed) = seed {
            fields.push(("seed", Value::from(seed)));
        }
        tel.event("run.start", &fields);
        let _ = RUN_BINARY.set(binary.to_string());
    }
    Run(tel)
}

/// An instrumented run: derefs to its [`TelemetryHandle`] and ends the
/// run when dropped, so an early `?` return still writes `run.done`.
pub struct Run(TelemetryHandle);

impl std::ops::Deref for Run {
    type Target = TelemetryHandle;

    fn deref(&self) -> &TelemetryHandle {
        &self.0
    }
}

impl Drop for Run {
    /// A panicking run did not finish, so it ends without `run.done`.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            finish(&self.0);
        }
    }
}

/// The thread count a run records: the host's available parallelism.
fn threads() -> u64 {
    tsv3d_bench::report::available_parallelism().unwrap_or(1)
}

/// Ends an instrumented run ([`Run`]'s drop): emits `run.done`, prints
/// the aggregate summary (counters + timing digests) to stderr and
/// flushes the sink. A disabled handle makes this a no-op.
///
/// With allocation counting active, `run.done` additionally reports
/// the process-wide memory picture: `peak_bytes` (live-bytes
/// high-water mark), `alloc_bytes` and `alloc_count` (cumulative),
/// and `live_bytes` at exit.
///
/// When the run published power-attribution gauges (`tsv3d assign` /
/// `tsv3d eval` do, via [`tsv3d_core::attribution`]), `run.done` also
/// carries `power_self_charge` and `power_coupling_charge`, so a trace
/// alone answers "where did the final assignment's power go" without
/// re-running the workload.
fn finish(tel: &TelemetryHandle) {
    if !tel.is_enabled() {
        return;
    }
    let mut fields = vec![("wall_seconds", Value::from(tel.elapsed_seconds()))];
    if let Some(self_charge) = tel.gauge_value("power.self_charge") {
        fields.push(("power_self_charge", Value::from(self_charge)));
    }
    if let Some(coupling) = tel.gauge_value("power.coupling_charge") {
        fields.push(("power_coupling_charge", Value::from(coupling)));
    }
    if alloc::is_active() {
        let mem = alloc::snapshot();
        fields.push(("peak_bytes", Value::from(mem.peak_bytes)));
        fields.push(("alloc_bytes", Value::from(mem.alloc_bytes)));
        fields.push(("alloc_count", Value::from(mem.alloc_count)));
        fields.push(("live_bytes", Value::from(mem.live_bytes)));
    }
    tel.event("run.done", &fields);
    eprintln!("{}", tel.summary());
    tel.flush();
    if let (Some(path), Some(binary)) = (history_path(), RUN_BINARY.get()) {
        let record = history::HistoryRecord {
            kind: "run".to_string(),
            case: binary.clone(),
            git_rev: tsv3d_bench::report::git_rev(),
            unix_time_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            // A run record's "median" is its single wall time.
            median_ns: tel.elapsed_seconds() * 1e9,
            p95_ns: None,
            alloc_bytes_per_iter: None,
            wall_s: Some(tel.elapsed_seconds()),
            threads: threads(),
            available_parallelism: tsv3d_bench::report::available_parallelism(),
        };
        if let Err(err) = history::append(&path, &[record]) {
            eprintln!(
                "warning: cannot append run history to `{}`: {err}",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_makes_finish_a_noop() {
        // No env manipulation here (tests run in parallel): a disabled
        // handle simply short-circuits.
        let tel = TelemetryHandle::disabled();
        finish(&tel); // must not print or panic
        assert!(!tel.is_enabled());
    }

    #[test]
    fn enabled_handle_survives_the_full_cycle() {
        let tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
        tel.add("demo.counter", 3);
        {
            let _s = tel.span("demo.stage");
        }
        finish(&tel);
        assert_eq!(tel.counter_value("demo.counter"), Some(3));
    }

    #[test]
    fn finish_stamps_power_gauges_onto_run_done() {
        use std::sync::Mutex;
        use tsv3d_telemetry::{Event, Sink};

        type CapturedEvent = (String, Vec<(&'static str, Value)>);
        struct Capture(std::sync::Arc<Mutex<Vec<CapturedEvent>>>);
        impl Sink for Capture {
            fn emit(&self, event: &Event<'_>) {
                self.0
                    .lock()
                    .unwrap()
                    .push((event.name.to_string(), event.fields.to_vec()));
            }
        }

        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tel = TelemetryHandle::with_sink(Box::new(Capture(std::sync::Arc::clone(&events))));
        tel.set_gauge("power.self_charge", 0.125);
        tel.set_gauge("power.coupling_charge", 0.0625);
        finish(&tel);

        let events = events.lock().unwrap();
        let (name, fields) = events.last().expect("run.done emitted");
        assert_eq!(name, "run.done");
        let field = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                Value::F64(x) if *k == key => Some(*x),
                _ => None,
            })
        };
        assert_eq!(field("power_self_charge"), Some(0.125));
        assert_eq!(field("power_coupling_charge"), Some(0.0625));
    }

    #[test]
    fn finish_omits_power_fields_when_no_gauges_were_set() {
        use std::sync::Mutex;
        use tsv3d_telemetry::{Event, Sink};

        struct Capture(std::sync::Arc<Mutex<Vec<Vec<&'static str>>>>);
        impl Sink for Capture {
            fn emit(&self, event: &Event<'_>) {
                self.0
                    .lock()
                    .unwrap()
                    .push(event.fields.iter().map(|(k, _)| *k).collect());
            }
        }

        let keys = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tel = TelemetryHandle::with_sink(Box::new(Capture(std::sync::Arc::clone(&keys))));
        finish(&tel);
        let keys = keys.lock().unwrap();
        let done = keys.last().expect("run.done emitted");
        assert!(!done.contains(&"power_self_charge"), "{done:?}");
        assert!(!done.contains(&"power_coupling_charge"), "{done:?}");
    }

    #[test]
    fn counting_allocator_is_installed_for_this_crate() {
        // The `#[global_allocator]` above serves this very test
        // binary, so the installation marker must be set by the
        // allocations the test harness already made.
        assert!(alloc::is_installed());
    }
}
