//! `BENCH_<case>.json` artifacts: the machine-readable output of one
//! measured case.
//!
//! Schema (`tsv3d-bench/v2`):
//!
//! ```json
//! {
//!   "schema": "tsv3d-bench/v2",
//!   "case": "anneal_quick_3x3",
//!   "area": "core",
//!   "iters": 15,
//!   "warmup_iters": 3,
//!   "wall_ns": {"median": 0, "p95": 0, "mean": 0.0, "stddev": 0.0,
//!               "min": 0, "max": 0},
//!   "samples_ns": [0, 0],
//!   "counters": {"anneal.moves": 8000},
//!   "mem": {"alloc_count": 0, "dealloc_count": 0, "realloc_count": 0,
//!           "alloc_bytes": 0, "median_iter_bytes": 0, "peak_bytes": 0},
//!   "git_rev": "3e0d804",
//!   "unix_time_s": 1754400000,
//!   "threads": 4,
//!   "available_parallelism": 2
//! }
//! ```
//!
//! v2 over v1: the optional `mem` object (absent when the measuring
//! binary lacks the counting allocator) and a `stddev` of `null` for
//! single-iteration runs. `threads` (the `--threads` the run was given)
//! and `available_parallelism` (the machine's core count) came later
//! within v2 and are absent from older artifacts. The reader stays
//! **backward compatible with v1**: every later field is optional on
//! the read side and the schema tag is not used for dispatch.

use crate::harness::Measurement;
use crate::json::{self, JsonValue, ObjectWriter};
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag of a per-case artifact.
pub const CASE_SCHEMA: &str = "tsv3d-bench/v2";

/// One measurement stamped with provenance, ready to serialise.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The measurement itself.
    pub measurement: Measurement,
    /// Abbreviated git revision of the working tree (or `unknown`).
    pub git_rev: String,
    /// Seconds since the Unix epoch when the report was stamped.
    pub unix_time_s: u64,
    /// Worker-thread count the run was configured with.
    pub threads: u64,
    /// The machine's core count, when the platform reports one.
    pub available_parallelism: Option<u64>,
}

impl BenchReport {
    /// Stamps a measurement taken at `threads` with the current
    /// revision, time and core count.
    pub fn stamp(measurement: Measurement, threads: u64) -> Self {
        Self {
            measurement,
            git_rev: git_rev(),
            unix_time_s: unix_time_s(),
            threads,
            available_parallelism: available_parallelism(),
        }
    }

    /// The artifact filename for this case (`BENCH_<case>.json`).
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.measurement.case)
    }

    /// Serialises the `tsv3d-bench/v2` JSON document.
    pub fn to_json(&self) -> String {
        let m = &self.measurement;
        let wall = {
            let mut w = ObjectWriter::new();
            w.u64("median", m.wall.median_ns)
                .u64("p95", m.wall.p95_ns)
                .f64("mean", m.wall.mean_ns)
                // `None` (single-iteration run) serialises as `null`.
                .f64("stddev", m.wall.stddev_ns.unwrap_or(f64::NAN))
                .u64("min", m.wall.min_ns)
                .u64("max", m.wall.max_ns);
            w.finish()
        };
        let samples = format!(
            "[{}]",
            m.samples_ns
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let counters =
            json::object_of_u64s(m.counters.iter().map(|(k, v)| (k.as_str(), *v)));
        let mut w = ObjectWriter::new();
        w.str("schema", CASE_SCHEMA)
            .str("case", &m.case)
            .str("area", &m.area)
            .u64("iters", u64::from(m.options.iters))
            .u64("warmup_iters", u64::from(m.options.warmup_iters))
            .raw("wall_ns", &wall)
            .raw("samples_ns", &samples)
            .raw("counters", &counters);
        if let Some(mem) = &m.mem {
            let mut mw = ObjectWriter::new();
            mw.u64("alloc_count", mem.alloc_count)
                .u64("dealloc_count", mem.dealloc_count)
                .u64("realloc_count", mem.realloc_count)
                .u64("alloc_bytes", mem.alloc_bytes)
                .u64("median_iter_bytes", mem.median_iter_bytes)
                .u64("peak_bytes", mem.peak_bytes);
            w.raw("mem", &mw.finish());
        }
        w.str("git_rev", &self.git_rev)
            .u64("unix_time_s", self.unix_time_s)
            .u64("threads", self.threads);
        if let Some(cores) = self.available_parallelism {
            w.u64("available_parallelism", cores);
        }
        w.finish()
    }
}

/// The per-case summary an artifact reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSummary {
    /// Case name.
    pub case: String,
    /// Median iteration wall time, ns.
    pub median_ns: f64,
    /// p95 iteration wall time, ns.
    pub p95_ns: Option<f64>,
    /// Median per-iteration allocated bytes. Absent in v1 artifacts
    /// and for cases measured without a counting allocator.
    pub mem_bytes: Option<f64>,
}

/// Extracts a [`CaseSummary`] from a parsed per-case artifact of
/// either schema version; `None` when it is not one.
pub fn case_summary(value: &JsonValue) -> Option<CaseSummary> {
    let wall = value.get("wall_ns")?;
    Some(CaseSummary {
        case: value.get("case")?.as_str()?.to_string(),
        median_ns: wall.get("median")?.as_f64()?,
        p95_ns: wall.get("p95").and_then(JsonValue::as_f64),
        mem_bytes: value
            .get("mem")
            .and_then(|m| m.get("median_iter_bytes"))
            .and_then(JsonValue::as_f64),
    })
}

/// The abbreviated git revision of the working tree.
///
/// `TSV3D_GIT_REV` overrides (useful in tests and exotic CI); falls
/// back to `git rev-parse --short HEAD`, then to `unknown` — provenance
/// stamping must never fail a measurement run.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("TSV3D_GIT_REV") {
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
}

fn unix_time_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// `std::thread::available_parallelism`, when the platform reports it.
pub fn available_parallelism() -> Option<u64> {
    std::thread::available_parallelism()
        .ok()
        .map(|n| n.get() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{BenchOptions, MemStats, WallStats};

    fn fake_measurement(case: &str, median: u64) -> Measurement {
        let samples = vec![median; 3];
        Measurement {
            case: case.to_string(),
            area: "core".to_string(),
            options: BenchOptions {
                warmup_iters: 1,
                iters: 3,
            },
            wall: WallStats::from_samples(&samples).unwrap(),
            samples_ns: samples,
            counters: vec![("k".to_string(), 7)],
            mem: None,
        }
    }

    fn fake_measurement_with_mem(case: &str, median: u64, iter_bytes: u64) -> Measurement {
        let mut m = fake_measurement(case, median);
        m.mem = Some(MemStats {
            alloc_count: 12,
            dealloc_count: 11,
            realloc_count: 1,
            alloc_bytes: iter_bytes * 3,
            median_iter_bytes: iter_bytes,
            peak_bytes: iter_bytes * 2,
        });
        m
    }

    fn report(measurement: Measurement) -> BenchReport {
        BenchReport {
            measurement,
            git_rev: "abc1234".to_string(),
            unix_time_s: 1_754_400_000,
            threads: 4,
            available_parallelism: Some(2),
        }
    }

    fn summary_of(text: &str) -> Option<CaseSummary> {
        case_summary(&json::parse(text).ok()?)
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let report = report(fake_measurement("demo_case", 1234));
        assert_eq!(report.filename(), "BENCH_demo_case.json");
        let text = report.to_json();
        let value = json::parse(&text).unwrap();
        assert_eq!(
            value.get("schema").and_then(JsonValue::as_str),
            Some(CASE_SCHEMA)
        );
        assert_eq!(value.get("iters").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            value.get("git_rev").and_then(JsonValue::as_str),
            Some("abc1234")
        );
        assert_eq!(value.get("threads").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(
            value
                .get("available_parallelism")
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        let summary = case_summary(&value).unwrap();
        assert_eq!(summary.case, "demo_case");
        assert_eq!(summary.median_ns, 1234.0);
        assert_eq!(summary.p95_ns, Some(1234.0));
        assert_eq!(
            value
                .get("counters")
                .and_then(|c| c.get("k"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
    }

    #[test]
    fn single_case_artifact_parses_as_one_row() {
        let mut report = report(fake_measurement("solo", 50));
        report.available_parallelism = None;
        let text = report.to_json();
        assert!(!text.contains("available_parallelism"), "{text}");
        assert_eq!(summary_of(&text), Some(CaseSummary {
            case: "solo".to_string(),
            median_ns: 50.0,
            p95_ns: Some(50.0),
            mem_bytes: None,
        }));
    }

    #[test]
    fn mem_stats_round_trip_through_artifact_and_baseline() {
        // The artifact's mem object, and the ledger row the gate judges
        // against (its baseline), carry the same bytes per iteration.
        let report = report(fake_measurement_with_mem("memy", 80, 4096));
        let value = json::parse(&report.to_json()).unwrap();
        let mem = value.get("mem").expect("mem object present");
        assert_eq!(
            mem.get("alloc_count").and_then(JsonValue::as_u64),
            Some(12)
        );
        assert_eq!(
            mem.get("peak_bytes").and_then(JsonValue::as_u64),
            Some(8192)
        );
        let summary = case_summary(&value).unwrap();
        assert_eq!(summary.mem_bytes, Some(4096.0));

        let row = crate::history::HistoryRecord {
            kind: "bench".to_string(),
            case: summary.case,
            git_rev: report.git_rev.clone(),
            unix_time_s: report.unix_time_s,
            median_ns: summary.median_ns,
            p95_ns: summary.p95_ns,
            alloc_bytes_per_iter: summary.mem_bytes,
            wall_s: None,
            threads: report.threads,
            available_parallelism: report.available_parallelism,
        };
        let parsed = crate::history::HistoryRecord::parse_line(&row.to_json_line()).unwrap();
        assert_eq!(parsed.alloc_bytes_per_iter, Some(4096.0));
        assert_eq!(parsed.median_ns, 80.0);
    }

    #[test]
    fn v1_artifacts_without_mem_still_parse() {
        // A hand-written v1 per-case artifact: no `mem` object, no
        // `threads`, numeric stddev.
        let case_v1 = r#"{"schema":"tsv3d-bench/v1","case":"old","area":"core",
            "iters":3,"warmup_iters":1,
            "wall_ns":{"median":100,"p95":120,"mean":105.0,"stddev":2.5,
                       "min":90,"max":120},
            "samples_ns":[100,100,120],"counters":{},
            "git_rev":"deadbee","unix_time_s":1}"#;
        let summary = summary_of(case_v1).unwrap();
        assert_eq!(summary.case, "old");
        assert_eq!(summary.median_ns, 100.0);
        assert_eq!(summary.mem_bytes, None);
    }

    #[test]
    fn single_iteration_stddev_serialises_as_null() {
        let samples = vec![42u64];
        let report = report(Measurement {
            case: "one".to_string(),
            area: "core".to_string(),
            options: BenchOptions {
                warmup_iters: 0,
                iters: 1,
            },
            wall: WallStats::from_samples(&samples).unwrap(),
            samples_ns: samples,
            counters: Vec::new(),
            mem: None,
        });
        let text = report.to_json();
        assert!(
            text.contains("\"stddev\":null"),
            "n=1 stddev must be null, got: {text}"
        );
        // And the document still parses into a summary.
        assert!(summary_of(&text).is_some());
    }

    #[test]
    fn junk_input_is_not_a_case_summary() {
        assert!(summary_of("not json").is_none());
        assert!(summary_of("{\"cases\":[]}").is_none());
        assert!(summary_of("{\"x\":1}").is_none());
        // A flat row without `wall_ns` is not an artifact.
        assert!(summary_of("{\"case\":\"a\",\"median_ns\":10}").is_none());
    }
}
