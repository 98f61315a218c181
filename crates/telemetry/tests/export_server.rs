//! Socket-level tests of the `export::MetricsServer` HTTP listener:
//! endpoint routing, the HEAD and Content-Length contract, the
//! malformed-input contract (400/404/405, also over arbitrary request
//! heads), and concurrent scrapes against a live registry.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsv3d_telemetry::export::{DashHtml, MetricsServer, RunsJson};
use tsv3d_telemetry::{NullSink, TelemetryHandle};

fn start(tel: &TelemetryHandle, runs: Option<RunsJson>) -> MetricsServer {
    MetricsServer::start("127.0.0.1:0", tel, runs).expect("bind an ephemeral port")
}

fn start_with_dash(tel: &TelemetryHandle, dash: DashHtml) -> MetricsServer {
    MetricsServer::start_with("127.0.0.1:0", tel, None, Some(dash))
        .expect("bind an ephemeral port")
}

/// Sends raw bytes, closes the write side (so the server never waits
/// for more of the head) and returns the full response text.
fn raw_request(server: &MetricsServer, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request).expect("send request");
    stream.shutdown(Shutdown::Write).expect("close the write side");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn get(server: &MetricsServer, path: &str) -> String {
    raw_request(
        server,
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes(),
    )
}

fn head(server: &MetricsServer, path: &str) -> String {
    raw_request(
        server,
        format!("HEAD {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes(),
    )
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

fn content_length_of(response: &str) -> usize {
    response
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .unwrap_or_else(|| panic!("Content-Length header missing:\n{response}"))
        .trim()
        .parse()
        .expect("numeric Content-Length")
}

fn status_line_of(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

#[test]
fn healthz_answers_ok() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let response = get(&server, "/healthz");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert_eq!(body_of(&response), "ok\n");
    server.shutdown();
}

#[test]
fn metrics_reflects_live_registry_state() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    tel.add("anneal.proposals", 41);
    let server = start(&tel, None);
    let first = get(&server, "/metrics");
    assert!(first.contains("text/plain; version=0.0.4"), "{first}");
    assert!(first.contains("tsv3d_anneal_proposals_total 41"), "{first}");
    // A later scrape observes counter growth — the server reads the
    // shared registry, not a startup copy.
    tel.add("anneal.proposals", 1);
    let second = get(&server, "/metrics");
    assert!(
        second.contains("tsv3d_anneal_proposals_total 42"),
        "{second}"
    );
    assert!(server.requests_served() >= 2);
    server.shutdown();
}

#[test]
fn serve_request_counters_advance_and_scrape_themselves() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    // The /metrics endpoint counts itself *before* capturing, so even
    // the first scrape reports its own request.
    let first = get(&server, "/metrics");
    assert!(
        first.contains("tsv3d_serve_requests_metrics_total 1"),
        "{first}"
    );
    // Per-endpoint counters advance with traffic on other endpoints…
    let _ = get(&server, "/healthz");
    let _ = get(&server, "/healthz");
    let _ = get(&server, "/runs");
    // …and bad requests (404 here) land in the 4xx counter.
    let _ = get(&server, "/nope");
    let second = get(&server, "/metrics");
    assert!(
        second.contains("tsv3d_serve_requests_metrics_total 2"),
        "{second}"
    );
    assert!(
        second.contains("tsv3d_serve_requests_healthz_total 2"),
        "{second}"
    );
    assert!(
        second.contains("tsv3d_serve_requests_runs_total 1"),
        "{second}"
    );
    assert!(
        second.contains("tsv3d_serve_requests_bad_total 1"),
        "{second}"
    );
    assert_eq!(tel.counter_value("serve.requests.healthz"), Some(2));
    server.shutdown();
}

#[test]
fn metrics_query_string_is_ignored() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let response = get(&server, "/metrics?debug=1");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    server.shutdown();
}

#[test]
fn unknown_path_is_404() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let response = get(&server, "/nope");
    assert!(response.starts_with("HTTP/1.1 404 Not Found"), "{response}");
    server.shutdown();
}

#[test]
fn non_get_method_is_405() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let response = raw_request(
        &server,
        b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(
        response.starts_with("HTTP/1.1 405 Method Not Allowed"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn malformed_request_lines_get_400() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    for junk in [
        &b"GARBAGE\r\n\r\n"[..],
        &b"GET /metrics\r\n\r\n"[..],          // missing HTTP version
        &b"GET /metrics FTP/1.0\r\n\r\n"[..],  // not an HTTP version
        &b"GET / HTTP/1.1 extra\r\n\r\n"[..],  // 4 tokens
        &b"\r\n\r\n"[..],                      // empty request line
    ] {
        let response = raw_request(&server, junk);
        assert!(
            response.starts_with("HTTP/1.1 400 Bad Request"),
            "request {:?} got:\n{response}",
            String::from_utf8_lossy(junk)
        );
    }
    // The server must still answer well-formed requests afterwards.
    let response = get(&server, "/healthz");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    server.shutdown();
}

/// What arbitrary request heads are drawn from: methods, targets,
/// versions, separators and line ends.
const HEAD_TOKENS: [&str; 20] = [
    "GET", "HEAD", "POST", "get", " ", "\t", "/", "/metrics", "/healthz", "/runs", "/progress",
    "/dash", "/nope", "?q=1", "HTTP/1.1", "HTTP/", "FTP/1.0", ":", "\r\n", "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_request_heads_get_a_status_and_leave_the_server_up(
        heads in prop::collection::vec(
            prop::collection::vec((0..HEAD_TOKENS.len() + 2, any::<u8>()), 0..24),
            1..6,
        ),
    ) {
        let tel = TelemetryHandle::with_sink(Box::new(NullSink));
        let server = start(&tel, None);
        for head in heads {
            // Mostly HTTP tokens, now and then an arbitrary byte.
            let mut bytes = Vec::new();
            for (pick, byte) in head {
                match HEAD_TOKENS.get(pick) {
                    Some(token) => bytes.extend_from_slice(token.as_bytes()),
                    None => bytes.push(byte),
                }
            }
            let response = raw_request(&server, &bytes);
            let status = response.get(..12).unwrap_or_default();
            prop_assert!(
                ["HTTP/1.1 200", "HTTP/1.1 400", "HTTP/1.1 404", "HTTP/1.1 405"].contains(&status),
                "head {:?} got {:?}",
                String::from_utf8_lossy(&bytes),
                response
            );
        }
        let health = get(&server, "/healthz");
        prop_assert!(health.starts_with("HTTP/1.1 200 OK") && body_of(&health) == "ok\n");
        server.shutdown();
    }
}

#[test]
fn runs_endpoint_uses_the_injected_callback() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let runs: RunsJson = Arc::new(|| "[{\"case\":\"demo\"}]\n".to_string());
    let server = start(&tel, Some(runs));
    let response = get(&server, "/runs");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("application/json"), "{response}");
    assert_eq!(body_of(&response), "[{\"case\":\"demo\"}]\n");
    server.shutdown();
}

#[test]
fn runs_endpoint_defaults_to_empty_array() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let response = get(&server, "/runs");
    assert_eq!(body_of(&response), "[]\n");
    server.shutdown();
}

#[test]
fn every_response_carries_an_accurate_content_length() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    for path in ["/metrics", "/healthz", "/runs", "/progress", "/nope"] {
        let response = get(&server, path);
        assert_eq!(
            content_length_of(&response),
            body_of(&response).len(),
            "GET {path}:\n{response}"
        );
    }
    server.shutdown();
}

#[test]
fn head_mirrors_get_headers_with_an_empty_body() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let runs: RunsJson = Arc::new(|| "[{\"case\":\"demo\"}]\n".to_string());
    let server = start(&tel, Some(runs));
    // Stable-body endpoints: HEAD advertises exactly the length GET
    // would send, and sends nothing.
    for path in ["/healthz", "/runs", "/nope"] {
        let got = get(&server, path);
        let probed = head(&server, path);
        assert_eq!(
            status_line_of(&probed),
            status_line_of(&got),
            "HEAD {path} status"
        );
        assert_eq!(body_of(&probed), "", "HEAD {path} must send no body");
        assert_eq!(
            content_length_of(&probed),
            body_of(&got).len(),
            "HEAD {path} Content-Length:\n{probed}"
        );
    }
    // /metrics self-counts before capturing and /progress embeds the
    // live uptime, so their body lengths can drift between requests;
    // the shape contract still holds.
    for path in ["/metrics", "/progress"] {
        let probed = head(&server, path);
        assert!(probed.starts_with("HTTP/1.1 200 OK"), "{probed}");
        assert_eq!(body_of(&probed), "", "HEAD {path} must send no body");
        assert!(content_length_of(&probed) > 0, "{probed}");
    }
    server.shutdown();
}

#[test]
fn dash_endpoint_uses_the_injected_renderer() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let dash: DashHtml = Arc::new(|| "<!DOCTYPE html>\n<html>dash</html>\n".to_string());
    let server = start_with_dash(&tel, dash);
    let response = get(&server, "/dash");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/html; charset=utf-8"), "{response}");
    assert_eq!(body_of(&response), "<!DOCTYPE html>\n<html>dash</html>\n");
    // HEAD probes the same renderer.
    let probed = head(&server, "/dash");
    assert!(probed.starts_with("HTTP/1.1 200 OK"), "{probed}");
    assert_eq!(body_of(&probed), "");
    assert_eq!(
        content_length_of(&probed),
        "<!DOCTYPE html>\n<html>dash</html>\n".len()
    );
    assert_eq!(tel.counter_value("serve.requests.dash"), Some(2));
    server.shutdown();
}

#[test]
fn dash_without_a_renderer_is_404() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let response = get(&server, "/dash");
    assert!(response.starts_with("HTTP/1.1 404 Not Found"), "{response}");
    assert!(response.contains("no dashboard renderer attached"), "{response}");
    server.shutdown();
}

#[test]
fn concurrent_scrapes_during_active_recording_all_succeed() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let addr = server.local_addr();

    // A writer hammers the registry while scrapers poll /metrics —
    // the shape of a live scrape against an annealing run.
    let writer_tel = tel.clone();
    let writer = std::thread::spawn(move || {
        for i in 0..2000u64 {
            writer_tel.add("load.ops", 1);
            writer_tel.record("load.vals", (i % 17) as f64 + 0.5);
        }
    });
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut ok = 0u32;
                for _ in 0..10 {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
                    let mut response = String::new();
                    let _ = stream.read_to_string(&mut response);
                    assert!(
                        response.starts_with("HTTP/1.1 200 OK"),
                        "scrape failed:\n{response}"
                    );
                    // Every snapshot is internally consistent: the
                    // +Inf bucket equals the histogram count.
                    if let Some(count_line) = response
                        .lines()
                        .find(|l| l.starts_with("tsv3d_load_vals_count "))
                    {
                        let count: u64 =
                            count_line.split_whitespace().nth(1).unwrap().parse().unwrap();
                        let inf_line = response
                            .lines()
                            .find(|l| l.starts_with("tsv3d_load_vals_bucket{le=\"+Inf\"}"))
                            .expect("+Inf bucket present with count");
                        let inf: u64 =
                            inf_line.split_whitespace().nth(1).unwrap().parse().unwrap();
                        assert_eq!(inf, count, "cumulative buckets must end at count");
                    }
                    ok += 1;
                }
                ok
            })
        })
        .collect();
    writer.join().unwrap();
    for scraper in scrapers {
        assert_eq!(scraper.join().unwrap(), 10);
    }
    assert_eq!(tel.counter_value("load.ops"), Some(2000));
    server.shutdown();
}

#[test]
fn trickling_client_cannot_hold_the_serve_loop() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let addr = server.local_addr();
    // One byte every 300 ms, never a blank line: each byte arrives well
    // within any per-read timeout, so only a deadline on the whole head
    // frees the single accept thread.
    let stop = Arc::new(AtomicBool::new(false));
    let trickler_stop = Arc::clone(&stop);
    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for &byte in b"GET /metrics?trickled-one-byte-at-a-time" {
            if trickler_stop.load(Relaxed) || stream.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    let asked = Instant::now();
    let response = get(&server, "/healthz");
    let waited = asked.elapsed();
    stop.store(true, Relaxed);
    trickler.join().unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(waited < Duration::from_secs(5), "healthz waited {waited:?}");
    server.shutdown();
}

#[test]
fn shutdown_joins_and_stops_serving() {
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let server = start(&tel, None);
    let addr = server.local_addr();
    assert!(get(&server, "/healthz").starts_with("HTTP/1.1 200 OK"));
    server.shutdown();
    // After shutdown the port no longer accepts (or resets instantly).
    let alive = TcpStream::connect_timeout(&addr, Duration::from_millis(200))
        .map(|mut s| {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let _ = s.read_to_string(&mut buf);
            !buf.is_empty()
        })
        .unwrap_or(false);
    assert!(!alive, "server must stop answering after shutdown");
}
