//! Observability plumbing shared by every experiment binary.
//!
//! One call at the top of `main` turns the `TSV3D_TELEMETRY`
//! environment switch into a [`TelemetryHandle`]:
//!
//! | `TSV3D_TELEMETRY` | behaviour |
//! |---|---|
//! | unset / `off` / `0` | disabled — zero overhead, byte-identical output |
//! | `json` | JSON lines to `results/<binary>_telemetry.jsonl` (or `TSV3D_TELEMETRY_PATH`) |
//! | `stderr` | human-readable events on stderr |
//!
//! ```no_run
//! let tel = tsv3d_experiments::obs::for_binary("fig3_gaussian");
//! // ... run the experiment, passing `&tel` down ...
//! tsv3d_experiments::obs::finish(&tel);
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
//!
//! # Live progress (tsv3d-pulse)
//!
//! With telemetry enabled, a [`tsv3d_telemetry::pulse::Pulse`] is
//! attached when either knob asks for one:
//!
//! | env var | behaviour |
//! |---|---|
//! | `TSV3D_PULSE=1` | progress cells + span-stack registry on |
//! | `TSV3D_METRICS_ADDR` | implies the pulse (feeds `/progress` and the `tsv3d_run_*` gauges) |
//! | `TSV3D_PULSE_STALL_TICKS=N` | watchdog threshold override (default 40 ticks of 250 ms) |
//! | `TSV3D_PULSE_SAMPLE_MS=N` | background span-stack sampler every `N` ms |
//!
//! The sampler's collapsed profile lands next to the telemetry stream
//! at [`finish`] time: `results/<binary>_pulse.folded` plus a
//! sample-weighted flamegraph `results/<binary>_pulse.svg`. The pulse
//! is observational only — optimizer results and telemetry streams
//! stay bit-identical with it on or off.

pub use tsv3d_telemetry::{Span, TelemetryHandle, Value};

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use tsv3d_bench::history;
use tsv3d_telemetry::alloc;
use tsv3d_telemetry::export;
use tsv3d_telemetry::pulse::{Pulse, Sampler};

/// The process-wide counting allocator (see the module docs). Plain
/// `System` passthrough until telemetry (or the bench harness) enables
/// counting.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::system();

/// The process-wide metrics listener, when `TSV3D_METRICS_ADDR` asked
/// for one. Held for the process lifetime — the accept thread serves
/// until exit; there is deliberately no shutdown path.
static METRICS_SERVER: OnceLock<Option<export::MetricsServer>> = OnceLock::new();

/// What [`finish`] needs to append a `run` history record: set once by
/// the first [`for_binary_with`] call of the process.
struct RunContext {
    binary: String,
    threads: u64,
}

static RUN_CONTEXT: OnceLock<RunContext> = OnceLock::new();

/// The background span-stack sampler, when `TSV3D_PULSE_SAMPLE_MS`
/// started one. [`finish`] takes it out to stop the thread and write
/// the profile artifacts.
static SAMPLER: OnceLock<Mutex<Option<Sampler>>> = OnceLock::new();

/// `1`/`true`/`on`/`yes` (case-insensitive) count as set.
fn env_truthy(var: &str) -> bool {
    std::env::var(var).is_ok_and(|v| {
        matches!(
            v.to_ascii_lowercase().as_str(),
            "1" | "true" | "on" | "yes"
        )
    })
}

/// Builds the run's pulse when the environment asks for one: either
/// `TSV3D_PULSE` explicitly, or `TSV3D_METRICS_ADDR` implicitly (the
/// exporter's `/progress` document and `tsv3d_run_*` gauges are empty
/// without it).
fn maybe_pulse() -> Option<Arc<Pulse>> {
    let metrics_on = std::env::var("TSV3D_METRICS_ADDR").is_ok_and(|a| !a.is_empty());
    if !env_truthy("TSV3D_PULSE") && !metrics_on {
        return None;
    }
    let mut pulse = Pulse::new();
    if let Some(ticks) = std::env::var("TSV3D_PULSE_STALL_TICKS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        pulse = pulse.with_stall_after(ticks);
    }
    Some(Arc::new(pulse))
}

/// Starts the span-stack sampler when `TSV3D_PULSE_SAMPLE_MS` parses
/// to a positive period. The sampler thread only reads atomics and
/// its own profile map — the workload never blocks on it.
fn maybe_start_sampler(pulse: &Arc<Pulse>) {
    let Some(ms) = std::env::var("TSV3D_PULSE_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
    else {
        return;
    };
    SAMPLER.get_or_init(|| {
        Mutex::new(Some(Sampler::start(
            Arc::clone(pulse),
            Duration::from_millis(ms),
        )))
    });
}

/// Stops the sampler (if one ran) and writes its collapsed profile to
/// `results/<binary>_pulse.folded` plus a sample-weighted flamegraph
/// SVG beside it. Returns quietly when no sampler was started.
fn finish_sampler(binary: &str) {
    let Some(sampler) = SAMPLER
        .get()
        .and_then(|slot| slot.lock().ok().and_then(|mut s| s.take()))
    else {
        return;
    };
    let profile = sampler.stop();
    let folded = profile.render_folded();
    let _ = std::fs::create_dir_all("results");
    let folded_path = PathBuf::from(format!("results/{binary}_pulse.folded"));
    let svg_path = PathBuf::from(format!("results/{binary}_pulse.svg"));
    if let Err(err) = std::fs::write(&folded_path, &folded) {
        eprintln!(
            "warning: cannot write sampled profile to `{}`: {err}",
            folded_path.display()
        );
        return;
    }
    let svg = tsv3d_bench::flamegraph::render_folded_svg(&folded);
    if let Err(err) = std::fs::write(&svg_path, svg) {
        eprintln!(
            "warning: cannot write sampled flamegraph to `{}`: {err}",
            svg_path.display()
        );
        return;
    }
    eprintln!(
        "pulse: sampled profile ({} rounds) -> {} + {}",
        profile.samples,
        folded_path.display(),
        svg_path.display()
    );
}

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

/// Starts the live-metrics listener when `TSV3D_METRICS_ADDR` is set
/// (e.g. `127.0.0.1:9184`; port 0 picks a free port). Idempotent; a
/// failed bind warns and disables rather than failing the run — the
/// exporter is an observability side-channel, never the workload.
fn maybe_start_metrics_server(tel: &TelemetryHandle) {
    let Ok(addr) = std::env::var("TSV3D_METRICS_ADDR") else {
        return;
    };
    if addr.is_empty() {
        return;
    }
    METRICS_SERVER.get_or_init(|| {
        let runs: export::RunsJson = Arc::new(|| {
            history_path()
                .or_else(|| Some(PathBuf::from("results/history.jsonl")))
                .and_then(|p| std::fs::read_to_string(p).ok())
                .map_or_else(
                    || "[]\n".to_string(),
                    |text| history::runs_json(&history::parse_ledger(&text), 50),
                )
        });
        // /dash serves the same renderer as `tsv3d serve`, fed from the
        // committed default locations plus a live in-process registry
        // snapshot.
        let dash = tsv3d_bench::dash::served_page(
            PathBuf::from("results/bench"),
            history_path().unwrap_or_else(|| PathBuf::from("results/history.jsonl")),
            tel.clone(),
        );
        match export::MetricsServer::start_with(addr.as_str(), tel, Some(runs), Some(dash)) {
            Ok(server) => {
                eprintln!("metrics: serving on http://{}/", server.local_addr());
                Some(server)
            }
            Err(err) => {
                eprintln!(
                    "warning: TSV3D_METRICS_ADDR=`{addr}` is not bindable ({err}); \
                     metrics export disabled"
                );
                None
            }
        }
    });
}

/// Optional provenance for [`for_binary_with`]: what the binary knows
/// about its own run beyond its name.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMeta {
    /// The workload seed, when the binary has a single governing one.
    pub seed: Option<u64>,
    /// The requested worker-pool size (`0` = one per CPU); defaults to
    /// the host's available parallelism when absent.
    pub threads: Option<usize>,
}

/// Builds the process-wide telemetry handle for one experiment binary
/// from the `TSV3D_TELEMETRY` environment switch and announces the run
/// with a `run.start` event.
///
/// `run.start` carries enough provenance to attribute a trace to a
/// commit and configuration — the same fields `BENCH_*.json` records:
/// the binary name, abbreviated git revision, telemetry mode, thread
/// count, and (via [`for_binary_with`]) the workload seed.
pub fn for_binary(binary: &str) -> TelemetryHandle {
    for_binary_with(binary, RunMeta::default())
}

/// [`for_binary`] with explicit run provenance (seed, thread count).
pub fn for_binary_with(binary: &str, meta: RunMeta) -> TelemetryHandle {
    let mut tel = TelemetryHandle::from_env(binary);
    if tel.is_enabled() {
        // Attach the pulse before the metrics server starts: the
        // server clones this handle, and only a pulse-carrying clone
        // can serve `/progress` and the `tsv3d_run_*` gauges.
        if let Some(pulse) = maybe_pulse() {
            tel = tel.with_pulse(Arc::clone(&pulse));
            maybe_start_sampler(&pulse);
        }
        let mode = std::env::var("TSV3D_TELEMETRY").unwrap_or_else(|_| "off".to_string());
        let threads = meta.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let mut fields = vec![
            ("binary", Value::from(binary)),
            ("git_rev", Value::from(tsv3d_bench::report::git_rev())),
            ("telemetry", Value::from(mode)),
            ("threads", Value::from(threads)),
        ];
        if let Some(seed) = meta.seed {
            fields.push(("seed", Value::from(seed)));
        }
        tel.event("run.start", &fields);
        let _ = RUN_CONTEXT.set(RunContext {
            binary: binary.to_string(),
            threads: threads as u64,
        });
        maybe_start_metrics_server(&tel);
    }
    tel
}

/// Ends an instrumented run: emits `run.done`, prints the aggregate
/// summary (counters + timing digests) to stderr and flushes the sink.
/// A disabled handle makes this a no-op.
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
pub fn finish(tel: &TelemetryHandle) {
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
    if let Some(ctx) = RUN_CONTEXT.get() {
        finish_sampler(&ctx.binary);
    }
    if let (Some(path), Some(ctx)) = (history_path(), RUN_CONTEXT.get()) {
        // A final watchdog pass so the ledger's stall count reflects
        // the whole run, not just the last live snapshot.
        let stalls = tel.pulse().map(|pulse| {
            let _ = pulse.progress_snapshot();
            pulse.peak_stalled()
        });
        let record = history::HistoryRecord {
            kind: "run".to_string(),
            case: ctx.binary.clone(),
            git_rev: tsv3d_bench::report::git_rev(),
            unix_time_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            // A run record's "median" is its single wall time.
            median_ns: tel.elapsed_seconds() * 1e9,
            p95_ns: None,
            alloc_bytes_per_iter: None,
            wall_s: Some(tel.elapsed_seconds()),
            stalls,
            threads: ctx.threads,
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
