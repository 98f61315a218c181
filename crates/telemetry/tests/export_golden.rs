//! Golden-file pin of the Prometheus text exposition format.
//!
//! The `/metrics` body is an interface other tooling parses (the
//! smoke script's scrapes, any real Prometheus scraper), so its exact shape —
//! series order, `_total` suffixes, cumulative log2 bucket edges, the
//! zero bucket, sum/count formatting — is pinned byte-for-byte against
//! `tests/data/metrics_golden.txt`. A deliberate format change must
//! update the golden file in the same commit.

use tsv3d_telemetry::alloc::AllocStats;
use tsv3d_telemetry::export::{render_prometheus, MetricsSnapshot};
use tsv3d_telemetry::pulse::{ProgressSnapshot, RestartProgress};
use tsv3d_telemetry::Histogram;

/// Builds the fixed snapshot the golden file describes. All values are
/// exactly representable in binary floating point, so rendering is
/// platform-independent.
fn golden_snapshot() -> MetricsSnapshot {
    let mut anneal = Histogram::new();
    // 0 → zero bucket; 0.03 ≈ bucket -6 (edge 0.03125) twice via two
    // exact values; 0.05 → bucket -5 (edge 0.0625); 1.0 and 1.5 →
    // bucket 0 (edge 2).
    for v in [0.0, 0.021484375, 0.025390625, 0.033203125, 0.994140625, 1.5] {
        anneal.record(v);
    }
    let mut gap = Histogram::new();
    for v in [2.5, 3.5, 7.5] {
        gap.record(v);
    }
    MetricsSnapshot {
        counters: vec![
            ("anneal.accepted".to_string(), 311),
            ("anneal.proposals".to_string(), 8000),
            ("bnb.nodes".to_string(), 1729),
        ],
        // The power-attribution gauges `tsv3d explain` / `tsv3d assign`
        // publish; dyadic values so the shortest-roundtrip rendering is
        // platform-independent.
        gauges: vec![
            ("power.coupling_charge".to_string(), 0.000244140625),
            ("power.self_charge".to_string(), 0.001953125),
            ("power.total".to_string(), 0.002197265625),
        ],
        histograms: vec![
            ("core.anneal".to_string(), anneal),
            ("gap.db".to_string(), gap),
        ],
        alloc: Some(AllocStats {
            alloc_count: 2048,
            dealloc_count: 2000,
            realloc_count: 16,
            alloc_bytes: 1 << 20,
            live_bytes: 1 << 16,
            peak_bytes: 1 << 19,
        }),
        uptime_seconds: 12.5,
        // A fixed revision: the golden file pins the label formatting,
        // not whatever HEAD the test machine happens to have.
        git_rev: "deadbee".to_string(),
        // Two restarts pin the tsv3d-pulse progress block: one mid-run
        // with a dyadic best power, one stalled and still at +Inf.
        progress: Some(ProgressSnapshot {
            tick: 48,
            stall_after: 40,
            restarts: vec![
                RestartProgress {
                    restart: 0,
                    iters_done: 2500,
                    iters_planned: 10000,
                    best_energy: 0.25,
                    accepts: 311,
                    heartbeat_tick: 47,
                    improve_tick: 44,
                    state: "running",
                    stalled: false,
                },
                RestartProgress {
                    restart: 1,
                    iters_done: 0,
                    iters_planned: 10000,
                    best_energy: f64::INFINITY,
                    accepts: 0,
                    heartbeat_tick: 2,
                    improve_tick: 2,
                    state: "running",
                    stalled: true,
                },
            ],
        }),
    }
}

#[test]
fn prometheus_rendering_matches_the_golden_file() {
    let rendered = render_prometheus(&golden_snapshot());
    let golden = include_str!("data/metrics_golden.txt");
    assert_eq!(
        rendered, golden,
        "exposition format drifted from tests/data/metrics_golden.txt; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn rendering_is_stable_across_repeated_calls() {
    let snap = golden_snapshot();
    let first = render_prometheus(&snap);
    for _ in 0..3 {
        assert_eq!(render_prometheus(&snap), first);
    }
}
