//! Live metrics export: point-in-time snapshots of a telemetry
//! registry rendered in the Prometheus text exposition format, plus a
//! std-only HTTP listener serving them.
//!
//! The exporter obeys the workspace determinism contract by
//! construction: [`MetricsSnapshot::capture`] copies the handle's
//! counter/histogram registries (the same snapshot API `tsv3d-bench`
//! serialises) and the allocator statistics, and the [`MetricsServer`]
//! answers every scrape from such a copy. The serve loop's only writes
//! are its own `serve.requests.*` bookkeeping counters — plain
//! registry increments, no events and no RNG — so the instrumented
//! workload cannot observe whether a scraper is attached and seeded
//! optimizer runs stay bit-identical with the listener up (pinned by
//! the `tsv3d-core` determinism property test). No lock is held while
//! a response is written.
//!
//! Everything here is `std`-only (`std::net::TcpListener`, hand-rolled
//! request parsing) — the same no-crates.io constraint as the rest of
//! the workspace.
//!
//! # Endpoints
//!
//! | path | response |
//! |---|---|
//! | `/metrics` | Prometheus text exposition format (version 0.0.4) |
//! | `/healthz` | `ok` — liveness for scripts and CI smoke jobs |
//! | `/runs`    | JSON array of recent run summaries (ledger-backed) |
//! | `/progress` | `tsv3d-pulse/v1` JSON: live per-restart progress |
//! | `/dash`    | live HTML dashboard (when a renderer is attached) |
//!
//! Every endpoint answers `HEAD` with the same status and headers as
//! `GET` (including an accurate `Content-Length`) and an empty body —
//! the probe shape load balancers and uptime checks use. Every
//! response carries `Content-Length`. Malformed request lines get
//! `400`, methods other than `GET`/`HEAD` get `405`, unknown paths
//! `404`; every response closes the connection.
//!
//! # Examples
//!
//! ```
//! use tsv3d_telemetry::{export, NullSink, TelemetryHandle};
//!
//! let tel = TelemetryHandle::with_sink(Box::new(NullSink));
//! tel.add("anneal.proposals", 8000);
//! let text = export::render_prometheus(&export::MetricsSnapshot::capture(&tel));
//! assert!(text.contains("tsv3d_anneal_proposals_total 8000"));
//! ```

use crate::alloc::{self, AllocStats};
use crate::pulse::{ProgressSnapshot, PULSE_SCHEMA};
use crate::{Histogram, TelemetryHandle};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point-in-time copy of everything `/metrics` exposes.
///
/// Counters and histograms are **sorted by name** (the registries are
/// `BTreeMap`s and the copy preserves that order), so repeated scrapes
/// of an idle process — and golden tests — are byte-stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values, in name order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values (last-write-wins `f64` readings, e.g. the power
    /// attribution figures), in name order.
    pub gauges: Vec<(String, f64)>,
    /// Histogram copies, in name order.
    pub histograms: Vec<(String, Histogram)>,
    /// Process-wide allocator statistics, when a counting allocator is
    /// installed and enabled ([`alloc::is_active`]).
    pub alloc: Option<AllocStats>,
    /// Seconds since the handle was created (0 for a disabled handle).
    pub uptime_seconds: f64,
    /// Build provenance stamped on the `tsv3d_build_info` gauge —
    /// the same revision the history ledger records. Empty (the
    /// `Default`) suppresses the gauge.
    pub git_rev: String,
    /// Live per-restart progress when the handle carries a
    /// [`Pulse`](crate::pulse::Pulse) — rendered as the
    /// `tsv3d_run_progress_*` / `tsv3d_run_stalled` gauges.
    pub progress: Option<ProgressSnapshot>,
}

impl MetricsSnapshot {
    /// Copies the handle's registries. A disabled handle yields an
    /// empty snapshot (uptime 0, no series) — `/metrics` still answers
    /// with a valid, nearly-empty exposition.
    pub fn capture(tel: &TelemetryHandle) -> Self {
        Self {
            counters: tel.counters_snapshot().into_iter().collect(),
            gauges: tel.gauges_snapshot().into_iter().collect(),
            histograms: tel.histograms_snapshot().into_iter().collect(),
            alloc: alloc::is_active().then(alloc::snapshot),
            uptime_seconds: tel.elapsed_seconds(),
            git_rev: build_git_rev().to_string(),
            progress: tel.pulse().map(|pulse| pulse.progress_snapshot()),
        }
    }
}

/// The build revision `/metrics` advertises, resolved once per process:
/// the `TSV3D_GIT_REV` environment variable when set (containers and CI
/// without a `.git`), else `git rev-parse --short HEAD`, else
/// `"unknown"` — mirroring what the bench reports stamp into the
/// history ledger, so a scrape and a ledger row can be correlated.
pub fn build_git_rev() -> &'static str {
    static REV: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REV.get_or_init(|| {
        if let Ok(rev) = std::env::var("TSV3D_GIT_REV") {
            let rev = rev.trim().to_string();
            if !rev.is_empty() {
                return rev;
            }
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Escapes a Prometheus label value: backslash, double quote and
/// newline are the three characters the exposition format requires
/// escaping in quoted label values.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Maps a registry name (`anneal.proposals`, `core.anneal`) to a
/// Prometheus metric-name fragment: every character outside
/// `[A-Za-z0-9_:]` becomes `_`. The exporter always prefixes `tsv3d_`,
/// so a leading digit in the input stays legal.
pub fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats an `f64` for the exposition body. Rust's shortest-roundtrip
/// `Display` is deterministic for a given bit pattern, which is what
/// keeps repeated scrapes of unchanged state byte-identical.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders the snapshot in the Prometheus text exposition format
/// (content type `text/plain; version=0.0.4`).
///
/// * counters → `tsv3d_<name>_total` (TYPE `counter`);
/// * gauges → `tsv3d_<name>` (TYPE `gauge`), rendered with the
///   shortest-roundtrip `f64` formatting;
/// * histograms → `tsv3d_<name>` with cumulative `_bucket{le="…"}`
///   series derived from the log2 buckets (each populated bucket
///   reports its upper edge `2^(exp+1)`), plus `_sum`/`_count`;
/// * allocator stats → `tsv3d_alloc_*` counters and
///   `tsv3d_live_bytes`/`tsv3d_peak_bytes` gauges;
/// * live progress (when a pulse is attached) →
///   `tsv3d_run_progress_iterations{restart="N"}` and friends, plus
///   the `tsv3d_run_stalled{restart="N"}` watchdog verdicts;
/// * `tsv3d_uptime_seconds` gauge and (when the snapshot carries a
///   revision) the `tsv3d_build_info{git_rev="…"} 1` provenance gauge.
///
/// Series order is fixed (uptime, build info, counters by name, gauges
/// by name, histograms by name, allocator block, progress block), so
/// two renders of equal snapshots are byte-identical.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP tsv3d_uptime_seconds Seconds since the telemetry handle was created."
    );
    let _ = writeln!(out, "# TYPE tsv3d_uptime_seconds gauge");
    let _ = writeln!(out, "tsv3d_uptime_seconds {}", fmt_f64(snap.uptime_seconds));
    if !snap.git_rev.is_empty() {
        let _ = writeln!(
            out,
            "# HELP tsv3d_build_info Build provenance; the value is always 1."
        );
        let _ = writeln!(out, "# TYPE tsv3d_build_info gauge");
        let _ = writeln!(
            out,
            "tsv3d_build_info{{git_rev=\"{}\"}} 1",
            escape_label_value(&snap.git_rev)
        );
    }
    for (name, value) in &snap.counters {
        let metric = format!("tsv3d_{}_total", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, value) in &snap.gauges {
        let metric = format!("tsv3d_{}", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {}", fmt_f64(*value));
    }
    for (name, hist) in &snap.histograms {
        let metric = format!("tsv3d_{}", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = hist.zero_count();
        if cumulative > 0 {
            let _ = writeln!(out, "{metric}_bucket{{le=\"0\"}} {cumulative}");
        }
        for (exp, count) in hist.buckets() {
            cumulative += count;
            let upper = (f64::from(exp) + 1.0).exp2();
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_f64(upper)
            );
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{metric}_sum {}", fmt_f64(hist.sum()));
        let _ = writeln!(out, "{metric}_count {}", hist.count());
    }
    if let Some(mem) = &snap.alloc {
        for (metric, kind, value) in [
            ("tsv3d_alloc_bytes_total", "counter", mem.alloc_bytes),
            ("tsv3d_alloc_count_total", "counter", mem.alloc_count),
            ("tsv3d_dealloc_count_total", "counter", mem.dealloc_count),
            ("tsv3d_realloc_count_total", "counter", mem.realloc_count),
            ("tsv3d_live_bytes", "gauge", mem.live_bytes),
            ("tsv3d_peak_bytes", "gauge", mem.peak_bytes),
        ] {
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            let _ = writeln!(out, "{metric} {value}");
        }
    }
    if let Some(progress) = snap.progress.as_ref().filter(|p| !p.restarts.is_empty()) {
        type Series<'a> = (&'a str, &'a dyn Fn(&crate::pulse::RestartProgress) -> String);
        let series: [Series; 5] = [
            ("tsv3d_run_progress_iterations", &|r| r.iters_done.to_string()),
            ("tsv3d_run_progress_iterations_planned", &|r| {
                r.iters_planned.to_string()
            }),
            ("tsv3d_run_progress_best_power", &|r| fmt_f64(r.best_energy)),
            ("tsv3d_run_progress_accepts", &|r| r.accepts.to_string()),
            ("tsv3d_run_stalled", &|r| u64::from(r.stalled).to_string()),
        ];
        for (metric, value_of) in series {
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for r in &progress.restarts {
                let _ = writeln!(
                    out,
                    "{metric}{{restart=\"{}\"}} {}",
                    r.restart,
                    value_of(r)
                );
            }
        }
    }
    out
}

/// Renders a progress snapshot as the `/progress` JSON document
/// (schema [`PULSE_SCHEMA`], `tsv3d-pulse/v1`) — the same shape
/// `tsv3d watch --format json` echoes. `None` (no pulse attached)
/// renders a valid document with an empty `restarts` array, so
/// scrapers never need to special-case a pulse-less server.
///
/// Non-finite best powers (a restart before its first beat reports
/// `+Inf`) serialize as `null`, keeping the body strict JSON.
pub fn render_progress_json(progress: Option<&ProgressSnapshot>, uptime_seconds: f64) -> String {
    let mut out = String::new();
    let (tick, stall_after, restarts) = match progress {
        Some(p) => (p.tick, p.stall_after, p.restarts.as_slice()),
        None => (0, crate::pulse::DEFAULT_STALL_AFTER, &[][..]),
    };
    let _ = write!(
        out,
        "{{\"schema\":\"{PULSE_SCHEMA}\",\"tick\":{tick},\"stall_after\":{stall_after},\
         \"uptime_s\":{},\"restarts\":[",
        json_f64(uptime_seconds)
    );
    for (i, r) in restarts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"restart\":{},\"iters_done\":{},\"iters_planned\":{},\"best_power\":{},\
             \"accepts\":{},\"heartbeat_tick\":{},\"improve_tick\":{},\"state\":\"{}\",\
             \"stalled\":{}}}",
            r.restart,
            r.iters_done,
            r.iters_planned,
            json_f64(r.best_energy),
            r.accepts,
            r.heartbeat_tick,
            r.improve_tick,
            r.state,
            r.stalled
        );
    }
    out.push_str("]}\n");
    out
}

/// JSON number formatting: finite values use Rust's shortest-roundtrip
/// `Display` (always a valid JSON number), non-finite become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Producer of the `/runs` JSON body — a closure so the zero-dependency
/// telemetry crate never learns about ledger files; the CLI layer
/// injects one that reads `results/history.jsonl`.
pub type RunsJson = Arc<dyn Fn() -> String + Send + Sync>;

/// Producer of the `/dash` HTML body — the same injection pattern as
/// [`RunsJson`]: the CLI layer supplies a closure that renders the
/// `tsv3d dash` dashboard from a fresh in-process snapshot plus the
/// ledger, and this crate stays ignorant of the renderer. Without one,
/// `/dash` answers `404`.
pub type DashHtml = Arc<dyn Fn() -> String + Send + Sync>;

struct ServerShared {
    tel: TelemetryHandle,
    runs: Option<RunsJson>,
    dash: Option<DashHtml>,
    stop: AtomicBool,
    requests: AtomicU64,
}

/// A background HTTP listener serving [`MetricsSnapshot`]s.
///
/// One accept thread handles connections sequentially; scrapes are
/// cheap (snapshot + render) and the listener is an observability
/// side-channel, not a traffic path. Dropping the server without
/// [`shutdown`](Self::shutdown) detaches the thread (it keeps serving
/// until the process exits — the behaviour the `TSV3D_METRICS_ADDR`
/// wiring wants).
pub struct MetricsServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .field("requests", &self.requests_served())
            .finish()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port)
    /// and starts the accept thread. The handle is cloned — the server
    /// shares the caller's registry and observes whatever the
    /// instrumented run accumulates.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, bad address, …).
    pub fn start(
        addr: impl ToSocketAddrs,
        tel: &TelemetryHandle,
        runs: Option<RunsJson>,
    ) -> std::io::Result<Self> {
        Self::start_with(addr, tel, runs, None)
    }

    /// [`start`](Self::start) plus an optional `/dash` HTML renderer.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, bad address, …).
    pub fn start_with(
        addr: impl ToSocketAddrs,
        tel: &TelemetryHandle,
        runs: Option<RunsJson>,
        dash: Option<DashHtml>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            tel: tel.clone(),
            runs,
            dash,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("tsv3d-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if worker.stop.load(Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        handle_connection(stream, &worker);
                    }
                }
            })?;
        Ok(Self {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (any status code).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Relaxed)
    }

    /// Stops the accept loop and joins the thread. Idempotent-safe:
    /// consumes the server.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Relaxed);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Reads the request head (up to the blank line, capped at 16 KiB) and
/// returns the request line, or `None` for unreadable/empty input.
///
/// The whole head must arrive within 2 s: each read waits only for the
/// time left, so a client trickling bytes cannot hold the accept
/// thread (and every scrape queued behind it) for longer.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n")
                    || buf.windows(2).any(|w| w == b"\n\n")
                    || buf.len() > 16 * 1024
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if buf.is_empty() {
        return None;
    }
    let end = buf
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(buf.len());
    Some(String::from_utf8_lossy(&buf[..end]).trim_end().to_string())
}

/// Writes one full response. `head_only` (a `HEAD` request) sends the
/// identical status line and headers — `Content-Length` still counts
/// the body a `GET` would have returned — but omits the body itself.
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    head_only: bool,
) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    if !head_only {
        let _ = stream.write_all(body.as_bytes());
    }
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, shared: &ServerShared) {
    shared.requests.fetch_add(1, Relaxed);
    let Some(line) = read_request_line(&mut stream) else {
        shared.tel.add("serve.requests.bad", 1);
        write_response(&mut stream, "400 Bad Request", "text/plain", "bad request\n", false);
        return;
    };
    // Request line: METHOD SP request-target SP HTTP-version.
    let mut parts = line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if v.starts_with("HTTP/") => (m, t, v),
        _ => {
            shared.tel.add("serve.requests.bad", 1);
            write_response(&mut stream, "400 Bad Request", "text/plain", "bad request\n", false);
            return;
        }
    };
    let _ = version;
    if method != "GET" && method != "HEAD" {
        shared.tel.add("serve.requests.bad", 1);
        write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET and HEAD are supported\n",
            false,
        );
        return;
    }
    let head_only = method == "HEAD";
    // Strip any query string; the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    // Resolve status/type/body first, then write once — GET and HEAD
    // share the exact computation, so a HEAD's Content-Length always
    // matches the body the GET would have carried.
    let (status, content_type, body) = match path {
        "/metrics" => {
            // Count before capturing so the exporter observes itself:
            // this very scrape appears in the body it returns.
            shared.tel.add("serve.requests.metrics", 1);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&MetricsSnapshot::capture(&shared.tel)),
            )
        }
        "/healthz" => {
            shared.tel.add("serve.requests.healthz", 1);
            ("200 OK", "text/plain", "ok\n".to_string())
        }
        "/runs" => {
            shared.tel.add("serve.requests.runs", 1);
            let body = shared
                .runs
                .as_ref()
                .map_or_else(|| "[]\n".to_string(), |f| f());
            ("200 OK", "application/json", body)
        }
        "/progress" => {
            shared.tel.add("serve.requests.progress", 1);
            let progress = shared.tel.pulse().map(|pulse| pulse.progress_snapshot());
            (
                "200 OK",
                "application/json",
                render_progress_json(progress.as_ref(), shared.tel.elapsed_seconds()),
            )
        }
        "/dash" => match shared.dash.as_ref() {
            Some(render) => {
                shared.tel.add("serve.requests.dash", 1);
                ("200 OK", "text/html; charset=utf-8", render())
            }
            None => {
                shared.tel.add("serve.requests.bad", 1);
                (
                    "404 Not Found",
                    "text/plain",
                    "no dashboard renderer attached\n".to_string(),
                )
            }
        },
        _ => {
            shared.tel.add("serve.requests.bad", 1);
            ("404 Not Found", "text/plain", "not found\n".to_string())
        }
    };
    write_response(&mut stream, status, content_type, &body, head_only);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullSink;

    #[test]
    fn sanitizer_maps_dots_and_dashes_to_underscores() {
        assert_eq!(sanitize_metric_name("anneal.proposals"), "anneal_proposals");
        assert_eq!(sanitize_metric_name("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("ok_name:42"), "ok_name:42");
    }

    #[test]
    fn disabled_handle_renders_an_empty_but_valid_exposition() {
        let snap = MetricsSnapshot::capture(&TelemetryHandle::disabled());
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
        let text = render_prometheus(&snap);
        assert!(text.starts_with("# HELP tsv3d_uptime_seconds"), "{text}");
        assert!(text.contains("tsv3d_uptime_seconds 0"), "{text}");
    }

    #[test]
    fn counters_render_sorted_with_total_suffix() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.add("b.second", 2);
        tel.add("a.first", 1);
        let text = render_prometheus(&MetricsSnapshot::capture(&tel));
        let a = text.find("tsv3d_a_first_total 1").expect("a present");
        let b = text.find("tsv3d_b_second_total 2").expect("b present");
        assert!(a < b, "name-sorted output:\n{text}");
    }

    #[test]
    fn gauges_render_between_counters_and_histograms() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.add("runs", 1);
        tel.set_gauge("power.total", 0.001953125);
        tel.set_gauge("power.self_charge", 0.5);
        tel.record("gap", 1.0);
        let text = render_prometheus(&MetricsSnapshot::capture(&tel));
        assert!(text.contains("# TYPE tsv3d_power_total gauge"), "{text}");
        assert!(text.contains("tsv3d_power_total 0.001953125"), "{text}");
        assert!(text.contains("tsv3d_power_self_charge 0.5"), "{text}");
        let counter = text.find("tsv3d_runs_total 1").expect("counter present");
        let gauge = text.find("tsv3d_power_self_charge 0.5").expect("gauge");
        let hist = text.find("# TYPE tsv3d_gap histogram").expect("histogram");
        assert!(counter < gauge && gauge < hist, "ordering:\n{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_log2_edges() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        for v in [0.3, 0.3, 1.5, 3.0] {
            tel.record("gap", v);
        }
        let text = render_prometheus(&MetricsSnapshot::capture(&tel));
        // 0.3 twice → bucket -2 (upper edge 0.5); 1.5 → bucket 0 (edge
        // 2); 3.0 → bucket 1 (edge 4). Cumulative: 2, 3, 4.
        assert!(text.contains("tsv3d_gap_bucket{le=\"0.5\"} 2"), "{text}");
        assert!(text.contains("tsv3d_gap_bucket{le=\"2\"} 3"), "{text}");
        assert!(text.contains("tsv3d_gap_bucket{le=\"4\"} 4"), "{text}");
        assert!(text.contains("tsv3d_gap_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("tsv3d_gap_count 4"), "{text}");
        assert!(text.contains("tsv3d_gap_sum 5.1"), "{text}");
    }

    #[test]
    fn zero_samples_get_their_own_bucket() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.record("h", 0.0);
        tel.record("h", 8.0);
        let text = render_prometheus(&MetricsSnapshot::capture(&tel));
        assert!(text.contains("tsv3d_h_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("tsv3d_h_bucket{le=\"16\"} 2"), "{text}");
    }

    #[test]
    fn alloc_stats_render_as_gauges_and_counters() {
        let snap = MetricsSnapshot {
            alloc: Some(AllocStats {
                alloc_count: 10,
                dealloc_count: 9,
                realloc_count: 1,
                alloc_bytes: 4096,
                live_bytes: 512,
                peak_bytes: 2048,
            }),
            ..MetricsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("tsv3d_alloc_bytes_total 4096"), "{text}");
        assert!(text.contains("tsv3d_live_bytes 512"), "{text}");
        assert!(text.contains("tsv3d_peak_bytes 2048"), "{text}");
    }

    #[test]
    fn build_info_renders_after_uptime_with_escaped_label() {
        let snap = MetricsSnapshot {
            git_rev: "abc\"def\\g\n".to_string(),
            ..MetricsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        assert!(
            text.contains("tsv3d_build_info{git_rev=\"abc\\\"def\\\\g\\n\"} 1"),
            "{text}"
        );
        let uptime = text.find("tsv3d_uptime_seconds 0").expect("uptime");
        let info = text.find("tsv3d_build_info").expect("build info");
        assert!(uptime < info, "build info follows the uptime block:\n{text}");
    }

    #[test]
    fn empty_git_rev_suppresses_build_info() {
        let text = render_prometheus(&MetricsSnapshot::default());
        assert!(!text.contains("tsv3d_build_info"), "{text}");
    }

    #[test]
    fn captured_snapshots_always_carry_a_revision() {
        let snap = MetricsSnapshot::capture(&TelemetryHandle::disabled());
        assert!(
            !snap.git_rev.is_empty(),
            "capture falls back to `unknown`, never empty"
        );
        assert_eq!(snap.git_rev, build_git_rev());
    }

    #[test]
    fn progress_renders_labelled_gauges_after_the_alloc_block() {
        use crate::pulse::{ManualTicks, Pulse, TickSource};
        use std::sync::Arc;
        let ticks = Arc::new(ManualTicks::new());
        let pulse =
            Arc::new(Pulse::with_ticks(Arc::clone(&ticks) as Arc<dyn TickSource>));
        let c0 = pulse.cell(0);
        c0.begin(1000);
        c0.beat(250, 0.5, 17);
        pulse.cell(1).begin(1000);
        let snap = MetricsSnapshot {
            progress: Some(pulse.progress_snapshot()),
            ..MetricsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE tsv3d_run_progress_iterations gauge"), "{text}");
        assert!(
            text.contains("tsv3d_run_progress_iterations{restart=\"0\"} 250"),
            "{text}"
        );
        assert!(
            text.contains("tsv3d_run_progress_iterations_planned{restart=\"1\"} 1000"),
            "{text}"
        );
        assert!(
            text.contains("tsv3d_run_progress_best_power{restart=\"0\"} 0.5"),
            "{text}"
        );
        assert!(
            text.contains("tsv3d_run_progress_best_power{restart=\"1\"} +Inf"),
            "{text}"
        );
        assert!(text.contains("tsv3d_run_stalled{restart=\"0\"} 0"), "{text}");
    }

    #[test]
    fn no_pulse_means_no_progress_series() {
        let text = render_prometheus(&MetricsSnapshot::default());
        assert!(!text.contains("tsv3d_run_progress"), "{text}");
        assert!(!text.contains("tsv3d_run_stalled"), "{text}");
    }

    #[test]
    fn progress_json_without_a_pulse_is_a_valid_empty_document() {
        let body = render_progress_json(None, 1.5);
        assert_eq!(
            body,
            "{\"schema\":\"tsv3d-pulse/v1\",\"tick\":0,\"stall_after\":40,\
             \"uptime_s\":1.5,\"restarts\":[]}\n"
        );
    }

    #[test]
    fn progress_json_serializes_restarts_with_null_for_unset_best() {
        use crate::pulse::{ManualTicks, Pulse, TickSource};
        use std::sync::Arc;
        let ticks = Arc::new(ManualTicks::new());
        let pulse =
            Arc::new(Pulse::with_ticks(Arc::clone(&ticks) as Arc<dyn TickSource>));
        let c0 = pulse.cell(0);
        c0.begin(100);
        ticks.advance(2);
        c0.beat(10, 42.5, 3);
        pulse.cell(1).begin(100); // never beats: best stays +Inf
        let snap = pulse.progress_snapshot();
        let body = render_progress_json(Some(&snap), 0.25);
        assert!(body.starts_with("{\"schema\":\"tsv3d-pulse/v1\",\"tick\":2,"), "{body}");
        assert!(body.contains("\"restart\":0"), "{body}");
        assert!(body.contains("\"best_power\":42.5"), "{body}");
        assert!(body.contains("\"best_power\":null"), "{body}");
        assert!(body.contains("\"state\":\"running\""), "{body}");
        assert!(body.ends_with("]}\n"), "{body}");
    }

    #[test]
    fn render_is_byte_identical_for_equal_snapshots() {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        tel.add("n", 3);
        tel.record("h", 1.25);
        let snap = MetricsSnapshot::capture(&tel);
        assert_eq!(render_prometheus(&snap), render_prometheus(&snap.clone()));
    }
}
