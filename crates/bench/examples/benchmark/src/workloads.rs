//! The four workloads: their seeded inputs, built in set-up, and their
//! jobs, composed from the layers' plain public calls in the order the
//! figure binaries use. Every job checks its own result.
//!
//! Layer calls are wrapped in spans on the handle a job receives. The
//! handle is disabled on untraced passes, so tracing never changes the
//! work done.

use std::cmp::Ordering;
use tsv3d_circuit::{DriverModel, TsvLink};
use tsv3d_codec::{Correlator, CouplingInvert, GrayCodec};
use tsv3d_core::attribution::PowerBreakdown;
use tsv3d_core::optimize::{self, AnnealOptions, BnbOptions, OptimizeResult};
use tsv3d_core::{systematic, AssignmentProblem, SignedPerm};
use tsv3d_experiments::common;
use tsv3d_experiments::fig2::{Fig2Array, BRANCH_PROBABILITIES};
use tsv3d_experiments::fig3::{RHOS, SIGMAS};
use tsv3d_experiments::fig6::{self, Fig6Stream};
use tsv3d_experiments::flow::Flow;
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry, TsvRcNetlist};
use tsv3d_stats::gen::{
    all_sensors_mux, GaussianSource, ImageSensor, MemsSensor, SensorKind, SequentialSource,
    UniformSource,
};
use tsv3d_stats::{BitStream, SwitchingStats};
use tsv3d_telemetry::TelemetryHandle;

// Job lists are sized so that one pass takes 3 to 6 s on a 2.1 GHz Xeon
// core: a run then holds several passes, and its timings are medians
// over them.

/// Stream length of the Fig. 2 and Fig. 3 jobs, cycles.
const FIGURE_CYCLES: usize = 30_000;
/// Stream seeds per Fig. 2 point (14 points per seed).
const FIG2_SEEDS: usize = 8;
/// Stream seeds per Fig. 3 point (30 points per seed).
const FIG3_SEEDS: usize = 4;
/// Stream length of the exact-search jobs, cycles.
const EXACT_CYCLES: usize = 20_000;
/// Samples per MEMS axis in the Fig. 6 streams.
const FIG6_SAMPLES: usize = 600;

/// Relative tolerance of the attribution identity check.
const ATTRIBUTION_TOL: f64 = 1e-9;
/// How far the annealed power may exceed a systematic layout's. The
/// 20k×3 annealer ends up to 0.25 % above Sawtooth on some σ = 16000,
/// ρ < 0 streams of Fig. 3, so the check allows 1 %.
const SYSTEMATIC_SLACK: f64 = 0.01;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential streams on the two Fig. 2 arrays: search-bound.
    Fig2Seq,
    /// Gaussian streams on the Fig. 3 grid: statistics-bound.
    Fig3Gauss,
    /// Exact branch-and-bound proofs on a 2×4 array: B&B-bound.
    Exact2x4,
    /// The Fig. 6 streams through codec, assignment and circuit.
    Fig6Circuit,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig2Seq,
        Workload::Fig3Gauss,
        Workload::Exact2x4,
        Workload::Fig6Circuit,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Seq => "fig2_seq",
            Workload::Fig3Gauss => "fig3_gauss",
            Workload::Exact2x4 => "exact_2x4",
            Workload::Fig6Circuit => "fig6_circuit",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference `power_reduction_pct` is measured against.
    pub fn reference(self) -> &'static str {
        match self {
            Workload::Fig2Seq => "worst case",
            Workload::Fig3Gauss => "random mean",
            Workload::Exact2x4 => "identity",
            Workload::Fig6Circuit => "plain circuit power",
        }
    }

    /// The spans of the layer this workload is built to stress; its work
    /// is counted by [`Counts::dominant_units`].
    pub fn dominant_spans(self) -> &'static [&'static str] {
        match self {
            Workload::Fig2Seq => &["core.anneal", "core.worst_case"],
            Workload::Fig3Gauss => &["stats.from_stream"],
            Workload::Exact2x4 => &["core.bnb"],
            Workload::Fig6Circuit => &["circuit.simulate"],
        }
    }
}

/// Work counts of one job, summed into per-layer rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Words fed to `SwitchingStats::from_stream`.
    pub words: u64,
    /// Bits that toggled between consecutive words of those streams.
    pub toggles: u64,
    /// Moves proposed by `anneal`.
    pub anneal_proposals: u64,
    /// Moves proposed by `worst_case`.
    pub worst_case_proposals: u64,
    /// Branch-and-bound nodes expanded.
    pub bnb_nodes: u64,
    /// Clock cycles simulated by `TsvLink::simulate`.
    pub cycles: u64,
    /// Words encoded by a codec.
    pub codec_words: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.words += other.words;
        self.toggles += other.toggles;
        self.anneal_proposals += other.anneal_proposals;
        self.worst_case_proposals += other.worst_case_proposals;
        self.bnb_nodes += other.bnb_nodes;
        self.cycles += other.cycles;
        self.codec_words += other.codec_words;
    }

    /// Work units of the workload's dominant layer: anneal and
    /// worst-case proposals, words, B&B nodes or simulated cycles.
    pub fn dominant_units(&self, workload: Workload) -> u64 {
        match workload {
            Workload::Fig2Seq => self.anneal_proposals + self.worst_case_proposals,
            Workload::Fig3Gauss => self.words,
            Workload::Exact2x4 => self.bnb_nodes,
            Workload::Fig6Circuit => self.cycles,
        }
    }
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a over the assignment, every power's bits and the B&B node
    /// count: equal digests mean bit-identical results.
    pub digest: u64,
    /// Power reduction against the workload's reference, percent.
    pub reduction_pct: f64,
    /// Gap of the annealed power over the proven optimum, percent
    /// (exact-search jobs only).
    pub anneal_gap_pct: Option<f64>,
    /// The powers the facade check compares: optimal, Spiral, Sawtooth
    /// and random mean for Fig. 3, the plain circuit power for Fig. 6.
    pub facade_powers: Vec<f64>,
    /// Work counts.
    pub counts: Counts,
}

/// One job's input.
enum Input {
    /// A Fig. 2 sequential stream and the index of its array.
    Fig2 { array: usize, stream: BitStream },
    /// A Fig. 3 Gaussian stream.
    Fig3 { stream: BitStream },
    /// An 8-bit stream for the exact search.
    Exact { stream: BitStream },
    /// A Fig. 6 stream before coding.
    Fig6 {
        kind: Fig6Stream,
        seed: u64,
        raw: BitStream,
    },
}

/// A job: a labelled input.
pub struct Job {
    /// Human-readable description (stream kind and parameters).
    pub label: String,
    input: Input,
}

/// A fitted array: its geometry and the linear capacitance model.
struct Model {
    array: TsvArray,
    cap: LinearCapModel,
    extractor: Extractor,
}

/// Everything a workload's jobs need, built from the seed.
pub struct Setup {
    /// The job list, in run order.
    pub jobs: Vec<Job>,
    models: Vec<Model>,
}

/// SplitMix64: one well-mixed 64-bit value per (seed, index).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

impl Setup {
    /// Generates every input of `workload` from `seed` and fits the
    /// capacitance model of each array. `smoke` keeps only the first
    /// job.
    ///
    /// # Errors
    ///
    /// A generator or model error, as text.
    pub fn build(
        workload: Workload,
        seed: u64,
        smoke: bool,
        tel: &TelemetryHandle,
    ) -> Result<Setup, String> {
        let _span = tel.span("bench.setup");
        let arrays: Vec<(usize, usize, TsvGeometry)> = match workload {
            Workload::Fig2Seq => Fig2Array::all()
                .into_iter()
                .map(|a| (a.dims().0, a.dims().1, a.geometry()))
                .collect(),
            Workload::Fig3Gauss => vec![(4, 4, TsvGeometry::wide_2018())],
            Workload::Exact2x4 => vec![(2, 4, TsvGeometry::itrs_2018_min())],
            Workload::Fig6Circuit => vec![
                (4, 4, TsvGeometry::itrs_2018_min()),
                (3, 3, TsvGeometry::itrs_2018_min()),
            ],
        };
        let models = {
            let _span = tel.span("model.fit");
            arrays
                .into_iter()
                .map(|(rows, cols, geometry)| {
                    let array = TsvArray::new(rows, cols, geometry).map_err(|e| err("array", e))?;
                    let extractor = Extractor::new(array.clone());
                    let cap = LinearCapModel::fit(&extractor).map_err(|e| err("fit", e))?;
                    Ok(Model {
                        array,
                        cap,
                        extractor,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?
        };
        let jobs = {
            let _span = tel.span("stats.generate");
            let mut jobs = generate_jobs(workload, seed)?;
            if smoke {
                jobs.truncate(1);
            }
            jobs
        };
        Ok(Setup { jobs, models })
    }

    /// Runs job `index`, timing each layer call as a span on `tel`.
    ///
    /// # Errors
    ///
    /// A layer error or a failed output check, as text.
    pub fn run(&self, index: usize, tel: &TelemetryHandle) -> Result<Outcome, String> {
        let _span = tel.span("bench.job");
        let job = JobRun::new(tel);
        match &self.jobs[index].input {
            Input::Fig2 { array, stream } => job.fig2(&self.models[*array], stream),
            Input::Fig3 { stream } => job.fig3(&self.models[0], stream),
            Input::Exact { stream } => job.exact(&self.models[0], stream),
            Input::Fig6 { kind, raw, .. } => job.fig6(&self.models[fig6_model(*kind)], *kind, raw),
        }
    }

    /// Checks the first job's `outcome` against the facade the figures
    /// use: a Fig. 3 job must match `Flow::analyze`, a Fig. 6 job must
    /// match `Fig6Stream::stream` and `fig6::simulate_power_mw`, bit for
    /// bit. The other workloads have no facade of their own.
    ///
    /// # Errors
    ///
    /// The first mismatch, as text.
    pub fn check_facade(&self, outcome: &Outcome) -> Result<(), String> {
        match &self.jobs[0].input {
            Input::Fig3 { stream } => {
                let model = &self.models[0];
                let report = Flow::new(
                    model.array.rows(),
                    model.array.cols(),
                    *model.array.geometry(),
                )
                .map_err(|e| err("Flow::new", e))?
                .with_anneal_options(common::anneal_options())
                .analyze(stream)
                .map_err(|e| err("Flow::analyze", e))?;
                let facade = [
                    report.optimal_power,
                    report.spiral_power,
                    report.sawtooth_power,
                    report.random_power,
                ];
                same_bits("Flow::analyze", &outcome.facade_powers, &facade)
            }
            Input::Fig6 { kind, seed, raw } => {
                let model = &self.models[fig6_model(*kind)];
                let tel = TelemetryHandle::disabled();
                let coded = JobRun::new(&tel).encode(*kind, raw)?;
                if coded != kind.stream(FIG6_SAMPLES, *seed) {
                    return Err(format!(
                        "{}: coded stream differs from Fig6Stream::stream",
                        kind.label()
                    ));
                }
                let facade = fig6::simulate_power_mw(
                    &coded,
                    model.array.rows(),
                    model.array.cols(),
                    kind.effective_bits(),
                );
                same_bits("fig6::simulate_power_mw", &outcome.facade_powers, &[facade])
            }
            Input::Fig2 { .. } | Input::Exact { .. } => Ok(()),
        }
    }
}

fn same_bits(facade: &str, mine: &[f64], theirs: &[f64]) -> Result<(), String> {
    if mine
        .iter()
        .map(|p| p.to_bits())
        .eq(theirs.iter().map(|p| p.to_bits()))
    {
        Ok(())
    } else {
        Err(format!(
            "{facade} differs: {theirs:?}, benchmark computed {mine:?}"
        ))
    }
}

fn fig6_model(kind: Fig6Stream) -> usize {
    match kind.dims() {
        (4, 4) => 0,
        _ => 1,
    }
}

fn generate_jobs(workload: Workload, seed: u64) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    let mut next_seed = {
        let mut index = 0;
        move || {
            index += 1;
            mix(seed, index)
        }
    };
    let gen_err = |e| err("generate", e);
    match workload {
        Workload::Fig2Seq => {
            for _ in 0..FIG2_SEEDS {
                for (array, kind) in Fig2Array::all().into_iter().enumerate() {
                    let (rows, cols) = kind.dims();
                    for p in BRANCH_PROBABILITIES {
                        let stream = SequentialSource::new(rows * cols, p)
                            .map_err(gen_err)?
                            .generate(next_seed(), FIGURE_CYCLES)
                            .map_err(gen_err)?;
                        jobs.push(Job {
                            label: format!("{rows}x{cols} p={p}"),
                            input: Input::Fig2 { array, stream },
                        });
                    }
                }
            }
        }
        Workload::Fig3Gauss => {
            for _ in 0..FIG3_SEEDS {
                for rho in RHOS {
                    for sigma in SIGMAS {
                        let stream = GaussianSource::new(16, sigma)
                            .with_correlation(rho)
                            .generate(next_seed(), FIGURE_CYCLES)
                            .map_err(gen_err)?;
                        jobs.push(Job {
                            label: format!("sigma={sigma} rho={rho}"),
                            input: Input::Fig3 { stream },
                        });
                    }
                }
            }
        }
        Workload::Exact2x4 => {
            let streams: [(&str, BitStream); 5] = [
                (
                    "rgb mux",
                    ImageSensor::new(64, 48)
                        .rgb_mux_stream(next_seed())
                        .map_err(gen_err)?,
                ),
                (
                    "grayscale",
                    ImageSensor::new(64, 48)
                        .grayscale_stream(next_seed())
                        .map_err(gen_err)?,
                ),
                (
                    "seq p=0.01",
                    SequentialSource::new(8, 0.01)
                        .map_err(gen_err)?
                        .generate(next_seed(), EXACT_CYCLES)
                        .map_err(gen_err)?,
                ),
                (
                    "gauss sigma=40 rho=-0.3",
                    GaussianSource::new(8, 40.0)
                        .with_correlation(-0.3)
                        .generate(next_seed(), EXACT_CYCLES)
                        .map_err(gen_err)?,
                ),
                (
                    "uniform",
                    UniformSource::new(8)
                        .map_err(gen_err)?
                        .generate(next_seed(), EXACT_CYCLES)
                        .map_err(gen_err)?,
                ),
            ];
            for (label, stream) in streams {
                jobs.push(Job {
                    label: label.to_string(),
                    input: Input::Exact { stream },
                });
            }
        }
        Workload::Fig6Circuit => {
            for kind in Fig6Stream::all() {
                let seed = next_seed();
                jobs.push(Job {
                    label: kind.label().to_string(),
                    input: Input::Fig6 {
                        kind,
                        seed,
                        raw: fig6_raw(kind, seed)?,
                    },
                });
            }
        }
    }
    Ok(jobs)
}

/// The uncoded data of a Fig. 6 stream, generated as `Fig6Stream::stream`
/// does before its codec runs.
fn fig6_raw(kind: Fig6Stream, seed: u64) -> Result<BitStream, String> {
    let gen_err = |e| err("generate", e);
    let sensors = [
        SensorKind::Magnetometer,
        SensorKind::Accelerometer,
        SensorKind::Gyroscope,
    ]
    .map(|k| MemsSensor::new(k).with_samples(FIG6_SAMPLES));
    match kind {
        Fig6Stream::SensorSeq => {
            let mut axes = Vec::with_capacity(9);
            for sensor in &sensors {
                for axis in 0..3 {
                    axes.push(sensor.axis_stream(axis, seed).map_err(gen_err)?);
                }
            }
            BitStream::concat(&axes.iter().collect::<Vec<_>>()).map_err(gen_err)
        }
        Fig6Stream::SensorMux | Fig6Stream::SensorMuxGray => {
            all_sensors_mux(&sensors, seed).map_err(gen_err)
        }
        Fig6Stream::RgbMuxRedundant | Fig6Stream::RgbMuxCorrelator => ImageSensor::new(64, 48)
            .rgb_mux_stream(seed)
            .map_err(gen_err),
        Fig6Stream::CouplingInvertRandom => UniformSource::new(7)
            .map_err(gen_err)?
            .generate(seed, FIG6_SAMPLES * 4)
            .map_err(gen_err),
    }
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes the little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn power(&mut self, p: f64) {
        self.u64(p.to_bits());
    }

    fn assignment(&mut self, a: &SignedPerm) {
        for (&line, &inverted) in a.lines().iter().zip(a.inversions()) {
            self.u64(line as u64);
            self.u64(u64::from(inverted));
        }
    }
}

/// The state of one running job.
struct JobRun<'a> {
    tel: &'a TelemetryHandle,
    counts: Counts,
    digest: Fnv,
}

impl<'a> JobRun<'a> {
    fn new(tel: &'a TelemetryHandle) -> Self {
        JobRun {
            tel,
            counts: Counts::default(),
            digest: Fnv::new(),
        }
    }

    /// `SwitchingStats::from_stream`, counting the words and toggles it
    /// processed.
    fn stats(&mut self, stream: &BitStream) -> SwitchingStats {
        let stats = {
            let _span = self.tel.span("stats.from_stream");
            SwitchingStats::from_stream(stream)
        };
        let words = stream.words();
        self.counts.words += words.len() as u64;
        self.counts.toggles += words
            .windows(2)
            .map(|w| u64::from((w[0] ^ w[1]).count_ones()))
            .sum::<u64>();
        stats
    }

    /// Stream statistics → assignment problem.
    fn problem(&mut self, stream: &BitStream, model: &Model) -> Result<AssignmentProblem, String> {
        let stats = self.stats(stream);
        let _span = self.tel.span("core.problem_new");
        AssignmentProblem::new(stats, model.cap.clone()).map_err(|e| err("problem", e))
    }

    fn anneal(
        &mut self,
        problem: &AssignmentProblem,
        options: &AnnealOptions,
    ) -> Result<OptimizeResult, String> {
        let best = {
            let _span = self.tel.span("core.anneal");
            optimize::anneal(problem, options).map_err(|e| err("anneal", e))?
        };
        self.counts.anneal_proposals += (options.iterations * options.restarts) as u64;
        self.digest.assignment(&best.assignment);
        self.digest.power(best.power);
        Ok(best)
    }

    /// Spiral and Sawtooth powers.
    fn systematic(&mut self, problem: &AssignmentProblem) -> (f64, f64) {
        let powers = {
            let _span = self.tel.span("core.systematic");
            (
                problem.power(&systematic::spiral(problem)),
                problem.power(&systematic::sawtooth(problem)),
            )
        };
        self.digest.power(powers.0);
        self.digest.power(powers.1);
        powers
    }

    /// Checks that the attribution classes of `best` sum to its power.
    fn attribution(
        &mut self,
        problem: &AssignmentProblem,
        model: &Model,
        best: &OptimizeResult,
    ) -> Result<(), String> {
        let classes = {
            let _span = self.tel.span("core.attribution");
            PowerBreakdown::compute(problem, &best.assignment)
                .class_totals(model.array.rows(), model.array.cols())
        };
        let total = classes.total();
        if (total - best.power).abs() <= ATTRIBUTION_TOL * best.power.abs() {
            Ok(())
        } else {
            Err(format!(
                "attribution classes sum to {total:e}, power() is {:e}",
                best.power
            ))
        }
    }

    fn fig2(mut self, model: &Model, stream: &BitStream) -> Result<Outcome, String> {
        let problem = self.problem(stream, model)?;
        let options = common::anneal_options();
        let best = self.anneal(&problem, &options)?;
        let worst = {
            let _span = self.tel.span("core.worst_case");
            optimize::worst_case(&problem, &options)
                .map_err(|e| err("worst_case", e))?
                .power
        };
        self.counts.worst_case_proposals += (options.iterations * options.restarts) as u64;
        self.digest.power(worst);
        let spiral = {
            let _span = self.tel.span("core.systematic");
            problem.power(&systematic::spiral(&problem))
        };
        self.digest.power(spiral);
        self.attribution(&problem, model, &best)?;
        at_most(
            best.power,
            "optimal",
            &[
                (spiral * (1.0 + SYSTEMATIC_SLACK), "Spiral"),
                (worst, "worst case"),
            ],
        )?;
        Ok(self.finish(common::reduction_pct(best.power, worst), None, Vec::new()))
    }

    fn fig3(mut self, model: &Model, stream: &BitStream) -> Result<Outcome, String> {
        let problem = self.problem(stream, model)?;
        let options = common::anneal_options();
        let best = self.anneal(&problem, &options)?;
        let (spiral, sawtooth) = self.systematic(&problem);
        let random = {
            let _span = self.tel.span("core.random_mean");
            // `Flow::analyze` seeds its random baseline with the anneal
            // seed; the facade check relies on that.
            optimize::random_mean(&problem, 300, options.seed).map_err(|e| err("random_mean", e))?
        };
        self.digest.power(random);
        self.attribution(&problem, model, &best)?;
        at_most(
            best.power,
            "optimal",
            &[
                (spiral * (1.0 + SYSTEMATIC_SLACK), "Spiral"),
                (sawtooth * (1.0 + SYSTEMATIC_SLACK), "Sawtooth"),
                (random, "random mean"),
            ],
        )?;
        let reduction = common::reduction_pct(best.power, random);
        Ok(self.finish(reduction, None, vec![best.power, spiral, sawtooth, random]))
    }

    fn exact(mut self, model: &Model, stream: &BitStream) -> Result<Outcome, String> {
        let problem = self.problem(stream, model)?;
        let exact = {
            let _span = self.tel.span("core.bnb");
            optimize::branch_and_bound(&problem, &BnbOptions::default())
                .map_err(|e| err("branch_and_bound", e))?
        };
        self.counts.bnb_nodes += exact.nodes;
        self.digest.u64(exact.nodes);
        self.digest.assignment(&exact.result.assignment);
        self.digest.power(exact.result.power);
        if !exact.proven_optimal {
            return Err(format!(
                "B&B did not prove optimality in {} nodes",
                exact.nodes
            ));
        }
        let annealed = self.anneal(&problem, &common::anneal_options())?;
        let (spiral, sawtooth) = self.systematic(&problem);
        let identity = problem.identity_power();
        self.digest.power(identity);
        self.attribution(&problem, model, &exact.result)?;
        let optimum = exact.result.power;
        at_most(
            optimum,
            "B&B optimum",
            &[
                (annealed.power * (1.0 + 1e-9), "anneal"),
                (spiral, "Spiral"),
                (sawtooth, "Sawtooth"),
                (identity, "identity"),
            ],
        )?;
        let gap = (annealed.power / optimum - 1.0) * 100.0;
        Ok(self.finish(
            common::reduction_pct(optimum, identity),
            Some(gap),
            Vec::new(),
        ))
    }

    /// The codec stage of a Fig. 6 stream.
    fn encode(&mut self, kind: Fig6Stream, raw: &BitStream) -> Result<BitStream, String> {
        let _span = self.tel.span("codec.encode");
        let coded = match kind {
            Fig6Stream::SensorSeq | Fig6Stream::SensorMux => return Ok(raw.clone()),
            Fig6Stream::SensorMuxGray => GrayCodec::new(16)
                .map_err(|e| err("codec", e))?
                .encode(raw)
                .map_err(|e| err("codec", e))?,
            Fig6Stream::RgbMuxRedundant => raw
                .with_stable_lines(&[false])
                .map_err(|e| err("codec", e))?,
            Fig6Stream::RgbMuxCorrelator => Correlator::new(8, 4)
                .map_err(|e| err("codec", e))?
                .encode(raw)
                .map_err(|e| err("codec", e))?
                .with_stable_lines(&[false])
                .map_err(|e| err("codec", e))?,
            Fig6Stream::CouplingInvertRandom => {
                let coded = CouplingInvert::new(7)
                    .map_err(|e| err("codec", e))?
                    .encode(raw)
                    .map_err(|e| err("codec", e))?;
                // Rarely-set control flag on line 8, once every 10 000
                // cycles, as in `Fig6Stream::stream`.
                let words = coded
                    .iter()
                    .enumerate()
                    .map(|(t, w)| w | u64::from(t % 10_000 == 9_999) << 8)
                    .collect();
                BitStream::from_words(9, words).map_err(|e| err("codec", e))?
            }
        };
        self.counts.codec_words += raw.len() as u64;
        Ok(coded)
    }

    /// Circuit-level power of a line stream, mW scaled to 32 b/cycle, as
    /// `fig6::simulate_power_mw` computes it.
    fn simulate(
        &mut self,
        model: &Model,
        kind: Fig6Stream,
        stream: &BitStream,
    ) -> Result<f64, String> {
        let stats = self.stats(stream);
        let cap = {
            let _span = self.tel.span("model.extract");
            model
                .extractor
                .extract(stats.bit_probabilities())
                .map_err(|e| err("extract", e))?
        };
        let link = {
            let _span = self.tel.span("circuit.link_build");
            TsvLink::new(
                TsvRcNetlist::from_extraction(&model.array, cap),
                DriverModel::ptm_22nm_strength6(),
            )
            .map_err(|e| err("link", e))?
        };
        let report = {
            let _span = self.tel.span("circuit.simulate");
            link.simulate(stream, fig6::CLOCK)
                .map_err(|e| err("simulate", e))?
        };
        self.counts.cycles += report.cycles() as u64;
        for (name, energy) in [
            ("dynamic", report.dynamic_energy()),
            ("leakage", report.leakage_energy()),
        ] {
            if !(energy.is_finite() && energy > 0.0) {
                return Err(format!("{} {name} energy is {energy:e} J", kind.label()));
            }
        }
        let power = report.power_scaled_to(kind.effective_bits(), 32.0) * 1e3;
        self.digest.power(power);
        Ok(power)
    }

    fn fig6(mut self, model: &Model, kind: Fig6Stream, raw: &BitStream) -> Result<Outcome, String> {
        let coded = self.encode(kind, raw)?;
        let problem = self.problem(&coded, model)?;
        let best = self.anneal(&problem, &common::anneal_options_quick())?;
        self.attribution(&problem, model, &best)?;
        let assigned = {
            let _span = self.tel.span("experiments.assign_stream");
            common::assign_stream(&coded, &best.assignment)
        };
        let plain_mw = self.simulate(model, kind, &coded)?;
        let assigned_mw = self.simulate(model, kind, &assigned)?;
        let reduction = common::reduction_pct(assigned_mw, plain_mw);
        Ok(self.finish(reduction, None, vec![plain_mw]))
    }

    fn finish(
        self,
        reduction_pct: f64,
        anneal_gap_pct: Option<f64>,
        facade_powers: Vec<f64>,
    ) -> Outcome {
        Outcome {
            digest: self.digest.0,
            reduction_pct,
            anneal_gap_pct,
            facade_powers,
            counts: self.counts,
        }
    }
}

/// Checks `power ≤ bound` for every bound.
fn at_most(power: f64, name: &str, bounds: &[(f64, &str)]) -> Result<(), String> {
    for &(bound, bound_name) in bounds {
        if !matches!(
            power.partial_cmp(&bound),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            return Err(format!(
                "{name} power {power:e} exceeds {bound_name} power {bound:e}"
            ));
        }
    }
    Ok(())
}
