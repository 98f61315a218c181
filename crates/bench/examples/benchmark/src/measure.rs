//! The measurement loop of one workload: repeated set-ups, then whole
//! passes over the job list until the time budget is spent.

use crate::workloads::{Fnv, Outcome, Setup, Workload};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tsv3d_bench::trace::{self, TraceSummary};
use tsv3d_telemetry::{JsonLinesSink, TelemetryHandle};

/// Set-ups per run are repeated at least this often; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
/// ...and until they took this long in total, seconds...
const SETUP_SECONDS: f64 = 1.0;
/// ...but no more often than this.
const MAX_SETUPS: usize = 20;

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Time budget of the passes, seconds.
    pub seconds: f64,
    /// Whether odd passes run traced.
    pub trace: bool,
    /// One set-up, one job, one pass (two when traced).
    pub smoke: bool,
}

/// The spans of the traced passes and set-ups.
pub struct Trace {
    /// The JSON-lines text, as `tsv3d trace` reads it.
    pub text: String,
    /// Its roll-up.
    pub summary: TraceSummary,
    /// Traced passes.
    pub passes: usize,
    /// Set-ups the trace covers.
    pub setups: usize,
}

/// Everything one run measured.
pub struct Measurement {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Job labels, in run order.
    pub labels: Vec<String>,
    /// Wall time of each untraced pass, seconds.
    pub pass_s: Vec<f64>,
    /// Wall time of each traced pass, seconds.
    pub traced_pass_s: Vec<f64>,
    /// Per job, its wall time in each untraced pass, seconds.
    pub job_s: Vec<Vec<f64>>,
    /// Per job, its first-pass outcome (`None` if it failed).
    pub outcomes: Vec<Option<Outcome>>,
    /// Job runs attempted over all passes.
    pub attempted: u64,
    /// Job runs that errored, failed a check (the facade check included)
    /// or changed their result.
    pub failed: u64,
    /// The distinct failure messages.
    pub failures: Vec<String>,
    /// The process's peak resident set, MB (`None` off Linux).
    pub peak_rss_mb: Option<f64>,
    /// The trace, when tracing was on.
    pub trace: Option<Trace>,
}

/// A `Write` target the trace sink fills and the analysis reads back.
#[derive(Clone, Default)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `options` end to end.
///
/// # Errors
///
/// A set-up failure, as text. Job failures are counted, not returned.
pub fn run(options: &Options) -> Result<Measurement, String> {
    let buffer = SharedBuffer::default();
    let tel = if options.trace {
        TelemetryHandle::with_sink(Box::new(JsonLinesSink::with_writer(Box::new(
            buffer.clone(),
        ))))
    } else {
        TelemetryHandle::disabled()
    };
    let untraced = TelemetryHandle::disabled();

    // Set-up: inputs, fits and one untimed warm-up job, repeated until
    // at least MIN_SETUPS ran and SETUP_SECONDS passed. A smoke run sets
    // up once, without the warm-up, to stay short.
    let setup_tel = tel.with_thread_label("setup");
    let mut setup_s = Vec::new();
    let mut setup = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        // Free the previous inputs first, so they do not count twice in
        // the peak resident set.
        drop(setup.take());
        let start = Instant::now();
        let built = Setup::build(options.workload, options.seed, options.smoke, &setup_tel)?;
        if !options.smoke {
            let _ = built.run(0, &untraced);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        setup = Some(built);
        if options.smoke {
            break;
        }
    }
    let setups = setup_s.len();
    let setup = setup.expect("at least one set-up ran");
    let jobs = setup.jobs.len();

    let mut m = Measurement {
        setup_s,
        labels: setup.jobs.iter().map(|j| j.label.clone()).collect(),
        pass_s: Vec::new(),
        traced_pass_s: Vec::new(),
        job_s: vec![Vec::new(); jobs],
        outcomes: Vec::with_capacity(jobs),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        peak_rss_mb: None,
        trace: None,
    };
    let mut digests: Vec<Option<u64>> = Vec::with_capacity(jobs);
    let min_passes = 1 + usize::from(options.trace);
    let start = Instant::now();
    for pass in 0.. {
        let traced = options.trace && pass % 2 == 1;
        let handle = if traced { &tel } else { &untraced };
        let pass_start = Instant::now();
        for job in 0..jobs {
            let job_start = Instant::now();
            let result = setup.run(job, handle);
            let elapsed = job_start.elapsed().as_secs_f64();
            if !traced {
                m.job_s[job].push(elapsed);
            }
            m.attempted += 1;
            let digest = result.as_ref().ok().map(|o| o.digest);
            if pass == 0 {
                digests.push(digest);
            }
            let failure = match &result {
                Err(message) => Some(format!("{}: {message}", m.labels[job])),
                Ok(_) if digest != digests[job] => {
                    Some(format!("{}: result changed between passes", m.labels[job]))
                }
                Ok(_) => None,
            };
            if let Some(message) = failure {
                m.failed += 1;
                if !m.failures.contains(&message) {
                    m.failures.push(message);
                }
            }
            if pass == 0 {
                m.outcomes.push(result.ok());
            }
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        if traced {
            m.traced_pass_s.push(pass_s);
        } else {
            m.pass_s.push(pass_s);
        }
        // Stop before a pass as long as the longest so far would overrun.
        let longest = m
            .pass_s
            .iter()
            .chain(&m.traced_pass_s)
            .fold(0.0, |a: f64, &b| a.max(b));
        let done = pass + 1 >= min_passes;
        if done && (options.smoke || start.elapsed().as_secs_f64() + longest > options.seconds) {
            break;
        }
    }

    // The facade check is one more check of the first job; a first job
    // that already failed is not compared.
    let facade = match m.outcomes.first() {
        Some(Some(first)) => setup.check_facade(first),
        _ => Ok(()),
    };
    if let Err(message) = facade {
        m.failed += 1;
        m.failures.push(format!("facade check: {message}"));
    }
    m.peak_rss_mb = peak_rss_mb();
    if options.trace {
        let bytes = buffer.0.lock().expect("trace buffer poisoned").clone();
        let text = String::from_utf8(bytes).map_err(|e| format!("trace is not UTF-8: {e}"))?;
        m.trace = Some(Trace {
            summary: trace::analyze_text(&text),
            text,
            passes: m.traced_pass_s.len(),
            setups,
        });
    }
    Ok(m)
}

impl Measurement {
    /// FNV-1a over every job's first-pass digest, in job order; a failed
    /// job contributes a zero.
    pub fn result_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for outcome in &self.outcomes {
            h.u64(outcome.as_ref().map_or(0, |o| o.digest));
        }
        h.0
    }

    /// Per job, its median untraced wall time, seconds.
    pub fn job_medians(&self) -> Vec<f64> {
        self.job_s.iter().map(|times| median(times)).collect()
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
