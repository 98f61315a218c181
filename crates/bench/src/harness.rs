//! The measurement core: warmup + N timed iterations on a monotonic
//! clock, summarised as order statistics.
//!
//! Every duration comes from [`std::time::Instant`] (monotonic);
//! wall-clock time (`SystemTime`) is used only to *stamp* reports,
//! never to measure. Iterations are timed individually so the summary
//! can expose median and p95 — far more stable under scheduler noise
//! than a single total divided by N.

use std::time::Instant;
use tsv3d_telemetry::{alloc, TelemetryHandle};

/// How a [`BenchCase`](crate::registry::BenchCase) is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Untimed iterations to warm caches/branch predictors.
    pub warmup_iters: u32,
    /// Timed iterations (each contributes one sample).
    pub iters: u32,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            warmup_iters: 3,
            iters: 15,
        }
    }
}

impl BenchOptions {
    /// The reduced budget behind `tsv3d bench --quick` (CI smoke runs).
    pub fn quick() -> Self {
        Self {
            warmup_iters: 1,
            iters: 5,
        }
    }
}

/// Order statistics over the per-iteration wall times, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallStats {
    /// Median (p50) iteration time.
    pub median_ns: u64,
    /// 95th-percentile iteration time (nearest-rank).
    pub p95_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Population standard deviation; `None` for a single sample — a
    /// spread of one measurement is undefined, not zero, and memory
    /// stats layered on the same summary must not inherit a fake 0.
    pub stddev_ns: Option<f64>,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
}

impl WallStats {
    /// Summarises one or more per-iteration samples.
    ///
    /// Returns `None` for an empty slice — a measurement with no
    /// iterations has no statistics.
    pub fn from_samples(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let nearest_rank = |q: f64| {
            let rank = (q * n as f64).ceil().max(1.0) as usize;
            sorted[rank.min(n) - 1]
        };
        let mean = sorted.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
        let stddev = (n > 1).then(|| {
            let variance = sorted
                .iter()
                .map(|&s| {
                    let d = s as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / n as f64;
            variance.sqrt()
        });
        Some(Self {
            median_ns: nearest_rank(0.5),
            p95_ns: nearest_rank(0.95),
            mean_ns: mean,
            stddev_ns: stddev,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
        })
    }
}

/// Per-case allocation statistics, accumulated across the timed
/// iterations from the process-wide counting allocator (worker threads
/// included — unlike span deltas, bench memory attribution is
/// process-scoped because the harness runs cases serially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Allocations across all timed iterations.
    pub alloc_count: u64,
    /// Deallocations across all timed iterations.
    pub dealloc_count: u64,
    /// Reallocations across all timed iterations.
    pub realloc_count: u64,
    /// Bytes requested across all timed iterations.
    pub alloc_bytes: u64,
    /// Median of the per-iteration requested-bytes samples — the
    /// stable quantity the ledger gate compares across runs.
    pub median_iter_bytes: u64,
    /// Live-bytes high-water mark reached during the timed loop
    /// (rebased at loop start, so it is per-case, not cumulative).
    pub peak_bytes: u64,
}

/// One measured case: options used, raw samples, summary and the
/// telemetry counters the workload accumulated while running.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The case name (registry key, also the `BENCH_<case>` stem).
    pub case: String,
    /// Which subsystem the case exercises (`core`, `circuit`, `codec`).
    pub area: String,
    /// Options the measurement ran with.
    pub options: BenchOptions,
    /// Per-iteration wall times, in recording order.
    pub samples_ns: Vec<u64>,
    /// Order statistics over `samples_ns`.
    pub wall: WallStats,
    /// Telemetry counters accumulated across all timed iterations
    /// (instrumented hot paths report node/epoch/step counts here).
    pub counters: Vec<(String, u64)>,
    /// Allocation statistics over the timed iterations; `None` when
    /// the binary does not route allocations through a
    /// [`alloc::CountingAlloc`] (e.g. library unit tests).
    pub mem: Option<MemStats>,
}

/// Runs `body` under `options`: warmup first, then timed iterations.
///
/// The body receives an *enabled* telemetry handle (null sink) so
/// instrumented paths (`anneal_with_telemetry`, …) deposit their
/// counters; the counters snapshot taken after the timed loop rides
/// along in the [`Measurement`]. Telemetry is observational by the
/// workspace contract, so enabling it cannot change results — only
/// add the (measured, honest) cost of counting.
///
/// When the binary's global allocator is a counting one, allocation
/// counting is switched on for the timed loop (warmup stays uncounted)
/// and the per-case [`MemStats`] ride along; the counting cost — a few
/// relaxed atomics per allocation — is inside the measurement, same
/// honesty rule as the telemetry counters.
pub fn measure(
    case: &str,
    area: &str,
    options: BenchOptions,
    body: &mut dyn FnMut(&TelemetryHandle),
) -> Measurement {
    // A fresh handle so warmup counters don't pollute the snapshot.
    let tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
    measure_with_handle(case, area, options, body, tel)
}

/// [`measure`] with a caller-supplied handle for the timed loop — the
/// hook behind `tsv3d bench --trace`, which routes the loop's events
/// (the annealer's `anneal.epoch` stream, spans, …) into a shared
/// JSON-lines sink for `tsv3d trace`. Warmup always runs on a
/// private null-sink handle so the recorded trace covers exactly the
/// timed iterations; the counters snapshot is taken from `tel` after
/// the loop, so pass a fresh handle unless accumulation is intended.
pub fn measure_with_handle(
    case: &str,
    area: &str,
    options: BenchOptions,
    body: &mut dyn FnMut(&TelemetryHandle),
    tel: TelemetryHandle,
) -> Measurement {
    let warm_tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
    for _ in 0..options.warmup_iters {
        body(&warm_tel);
    }
    // Allocation accounting brackets only the timed loop; the previous
    // enablement state is restored afterwards so a bench run inside an
    // otherwise-uninstrumented process leaves no residue.
    let count_allocs = alloc::is_installed();
    let mem_before = count_allocs.then(|| {
        let prev = alloc::set_enabled(true);
        alloc::reset_peak();
        (prev, alloc::snapshot())
    });
    let mut samples = Vec::with_capacity(options.iters as usize);
    let mut iter_bytes = Vec::with_capacity(options.iters as usize);
    for _ in 0..options.iters {
        let bytes_before = count_allocs.then(|| alloc::snapshot().alloc_bytes);
        let start = Instant::now();
        body(&tel);
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Some(before) = bytes_before {
            iter_bytes.push(alloc::snapshot().alloc_bytes.saturating_sub(before));
        }
    }
    let mem = mem_before.map(|(prev_enabled, before)| {
        let after = alloc::snapshot();
        alloc::set_enabled(prev_enabled);
        let mut sorted = iter_bytes.clone();
        sorted.sort_unstable();
        MemStats {
            alloc_count: after.alloc_count.saturating_sub(before.alloc_count),
            dealloc_count: after.dealloc_count.saturating_sub(before.dealloc_count),
            realloc_count: after.realloc_count.saturating_sub(before.realloc_count),
            alloc_bytes: after.alloc_bytes.saturating_sub(before.alloc_bytes),
            median_iter_bytes: sorted.get(sorted.len().saturating_sub(1) / 2).copied().unwrap_or(0),
            peak_bytes: after.peak_bytes,
        }
    });
    let wall = WallStats::from_samples(&samples)
        .expect("options.iters >= 1 produces at least one sample");
    Measurement {
        case: case.to_string(),
        area: area.to_string(),
        options,
        samples_ns: samples,
        wall,
        counters: tel.counters_snapshot().into_iter().collect(),
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_a_known_sample_set() {
        let samples = [10, 20, 30, 40, 100];
        let s = WallStats::from_samples(&samples).unwrap();
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 100);
        assert!((s.mean_ns - 40.0).abs() < 1e-9);
        // population stddev of [10,20,30,40,100] = sqrt(1000)
        assert!((s.stddev_ns.unwrap() - 1000f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn stats_order_does_not_matter() {
        let a = WallStats::from_samples(&[3, 1, 2]).unwrap();
        let b = WallStats::from_samples(&[1, 2, 3]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.median_ns, 2);
    }

    #[test]
    fn empty_samples_have_no_stats() {
        assert!(WallStats::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = WallStats::from_samples(&[7]).unwrap();
        assert_eq!(s.median_ns, 7);
        assert_eq!(s.p95_ns, 7);
        assert_eq!(
            s.stddev_ns, None,
            "n=1 has no spread — explicit None, not a fake 0 or NaN"
        );
        assert!(s.mean_ns.is_finite());
    }

    #[test]
    fn two_samples_have_a_stddev_again() {
        let s = WallStats::from_samples(&[10, 30]).unwrap();
        assert!((s.stddev_ns.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn measure_with_handle_routes_timed_loop_events_to_the_sink() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let sink = tsv3d_telemetry::JsonLinesSink::with_writer(Box::new(buf.clone()));
        let tel = TelemetryHandle::with_sink(Box::new(sink));
        let opts = BenchOptions {
            warmup_iters: 1,
            iters: 2,
        };
        let m = measure_with_handle(
            "demo",
            "test",
            opts,
            &mut |tel| tel.event("probe.tick", &[]),
            tel,
        );
        assert_eq!(m.samples_ns.len(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text.matches("probe.tick").count(),
            2,
            "exactly the timed iterations are recorded, never warmup: {text}"
        );
    }

    #[test]
    fn measure_runs_warmup_plus_timed_and_collects_counters() {
        let mut calls = 0u32;
        let opts = BenchOptions {
            warmup_iters: 2,
            iters: 4,
        };
        let m = measure("demo", "test", opts, &mut |tel| {
            calls += 1;
            tel.add("demo.calls", 1);
        });
        assert_eq!(calls, 6, "2 warmup + 4 timed");
        assert_eq!(m.samples_ns.len(), 4);
        // Counters reflect only the timed iterations.
        assert_eq!(
            m.counters,
            vec![("demo.calls".to_string(), 4)]
        );
        assert!(m.wall.min_ns <= m.wall.median_ns);
        assert!(m.wall.median_ns <= m.wall.max_ns);
    }
}
