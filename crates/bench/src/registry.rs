//! The built-in benchmark cases: one per hot path the workspace cares
//! about, spanning the optimisers (`tsv3d-core`), the transient engine
//! (`tsv3d-circuit`), the reference codecs (`tsv3d-codec`) and the
//! switching-statistics estimator (`tsv3d-stats`). Stage cases carry
//! the repository benchmark's layer name as a prefix
//! (`stats.from_stream_…`, `core.bnb_…`), so a layer that moves in a
//! traced benchmark run maps to one case.
//!
//! Each case separates *setup* (problem/netlist/stream construction,
//! untimed) from the *body* the harness measures. Workloads are fixed
//! and seeded so a case measures the same computation on every run and
//! every machine — the precondition for PR-over-PR comparisons.
//! Bodies whose single execution would be too small to time reliably
//! (sub-microsecond kernels like the incremental `Δpower` evaluations)
//! batch a fixed number of operations per sample; the batch size is
//! part of the case name.

use crate::explain::{ExplainSpec, GeometryKind, StreamSpec};
use std::hint::black_box;
use tsv3d_circuit::mna::Netlist;
use tsv3d_circuit::{DriverModel, TsvLink};
use tsv3d_codec::{Correlator, CouplingInvert, GrayCodec};
use tsv3d_core::{optimize, SignedPerm};
use tsv3d_model::{Extractor, TsvArray, TsvGeometry, TsvRcNetlist};
use tsv3d_stats::gen::{all_sensors_mux, GaussianSource, MemsSensor, SensorKind, SequentialSource};
use tsv3d_stats::{BitStream, SwitchingStats};
use tsv3d_telemetry::TelemetryHandle;

/// The measured body of one case, produced fresh by its setup.
pub type BenchBody = Box<dyn FnMut(&TelemetryHandle)>;

/// Run-wide knobs the CLI threads through to every case setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Worker-pool size for the parallel optimizer cases (`0` = one
    /// worker per available CPU), set by `tsv3d bench --threads`.
    /// Serial cases ignore it — their workload must not drift with the
    /// machine the bench runs on.
    pub threads: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self { threads: 4 }
    }
}

/// A registered benchmark case.
pub struct BenchCase {
    /// Unique name — also the `BENCH_<name>.json` artifact stem.
    pub name: &'static str,
    /// Subsystem the case exercises (`core`, `circuit`, `codec`, `stats`).
    pub area: &'static str,
    /// One-line description for `tsv3d bench --list`.
    pub about: &'static str,
    /// Builds the workload (untimed) and returns the body to measure.
    pub setup: fn(&BenchConfig) -> BenchBody,
}

/// The full case registry, in execution order.
pub fn cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "anneal_quick_3x3",
            area: "core",
            about: "simulated-annealing search (4k iters x 2 restarts) on a 3x3 sequential problem",
            setup: |_cfg| {
                let problem = SEQ_3X3.build_problem().expect("bench problem builds");
                Box::new(move |tel| {
                    let r = optimize::anneal_with_telemetry(&problem, &quick_anneal(), tel)
                        .expect("anneal budget is non-empty");
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "anneal_quick_4x4",
            area: "core",
            about: "simulated-annealing search (4k iters x 2 restarts) on a 4x4 gaussian problem",
            setup: |_cfg| {
                let problem = GAUSS_4X4.build_problem().expect("bench problem builds");
                Box::new(move |tel| {
                    let r = optimize::anneal_with_telemetry(&problem, &quick_anneal(), tel)
                        .expect("anneal budget is non-empty");
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "anneal_par_equiv_4x4",
            area: "core",
            about: "engine contract pin: serial and parallel anneal must return bit-identical results",
            setup: |cfg| {
                let problem = GAUSS_4X4.build_problem().expect("bench problem builds");
                let threads = cfg.threads;
                Box::new(move |tel| {
                    let serial = optimize::AnnealOptions {
                        threads: 1,
                        ..quick_anneal()
                    };
                    let parallel = optimize::AnnealOptions { threads, ..serial };
                    let s = optimize::anneal_with_telemetry(&problem, &serial, tel)
                        .expect("anneal budget is non-empty");
                    let p = optimize::anneal_with_telemetry(&problem, &parallel, tel)
                        .expect("anneal budget is non-empty");
                    assert_eq!(
                        s.assignment, p.assignment,
                        "parallel anneal diverged from serial at threads={threads}"
                    );
                    assert_eq!(
                        s.power.to_bits(),
                        p.power.to_bits(),
                        "parallel anneal power not bit-identical at threads={threads}"
                    );
                    black_box(p.power);
                })
            },
        },
        BenchCase {
            name: "anneal_large_6x6_serial",
            area: "core",
            about: "large-bundle annealing (20k iters x 4 restarts) on a 6x6 gaussian problem, threads=1",
            setup: |_cfg| {
                let problem = GAUSS_6X6.build_problem().expect("bench problem builds");
                Box::new(move |tel| {
                    let r = optimize::anneal_with_telemetry(&problem, &large_anneal(1), tel)
                        .expect("anneal budget is non-empty");
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "anneal_large_6x6_threads",
            area: "core",
            about: "the same 6x6 workload fanned over the --threads worker pool (default 4)",
            setup: |cfg| {
                let problem = GAUSS_6X6.build_problem().expect("bench problem builds");
                let threads = cfg.threads;
                Box::new(move |tel| {
                    let r =
                        optimize::anneal_with_telemetry(&problem, &large_anneal(threads), tel)
                            .expect("anneal budget is non-empty");
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "core.anneal_4x4_serial",
            area: "core",
            about: "optimize::anneal (20k iters x 3 restarts, threads 1) on a fig3_gauss job (4x4 wide, gaussian sigma 1000 rho -0.3, 30k cycles); asserts the recorded power bits",
            setup: |_cfg| {
                let problem = FIG3_GAUSS_4X4.build_problem().expect("bench problem builds");
                let options = optimize::AnnealOptions {
                    iterations: 20_000,
                    restarts: 3,
                    seed: 0x7_5EED,
                    threads: 1,
                };
                Box::new(move |tel| {
                    let r = optimize::anneal(&problem, &options).expect("anneal budget is non-empty");
                    assert_eq!(
                        r.power.to_bits(),
                        FIG3_GAUSS_4X4_POWER_BITS,
                        "the annealer's trajectory drifted: power {:e}",
                        r.power
                    );
                    tel.add("bench.anneal_proposals", (options.iterations * options.restarts) as u64);
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "bnb_search_3x3",
            area: "core",
            about: "branch-and-bound search (capped at 300k nodes) on a 3x3 sequential problem",
            setup: |_cfg| {
                let problem = SEQ_3X3.build_problem().expect("bench problem builds");
                let options = optimize::BnbOptions {
                    node_limit: 300_000,
                };
                Box::new(move |tel| {
                    let o =
                        optimize::branch_and_bound_with_telemetry(&problem, &options, tel)
                            .expect("3x3 search starts");
                    black_box(o.result.power);
                })
            },
        },
        BenchCase {
            name: "core.bnb_2x4_proof",
            area: "core",
            about: "branch-and-bound run to proof on the exact_2x4 sequential stream (2x4 min, p = 0.01, 20k cycles); asserts the recorded optimum's power bits",
            setup: |_cfg| {
                let problem = SEQ_2X4_MIN.build_problem().expect("bench problem builds");
                Box::new(move |tel| {
                    let o = optimize::branch_and_bound_with_telemetry(
                        &problem,
                        &optimize::BnbOptions::default(),
                        tel,
                    )
                    .expect("2x4 search starts");
                    assert!(o.proven_optimal, "2x4 proof ran out of nodes");
                    assert_eq!(
                        o.result.power.to_bits(),
                        SEQ_2X4_MIN_OPTIMUM_BITS,
                        "the proven optimum moved: power {:e}",
                        o.result.power
                    );
                    black_box(o.result.power);
                })
            },
        },
        BenchCase {
            name: "greedy_two_opt_4x4",
            area: "core",
            about: "deterministic greedy 2-opt local search on a 4x4 gaussian problem",
            setup: |_cfg| {
                let problem = GAUSS_4X4.build_problem().expect("bench problem builds");
                Box::new(move |tel| {
                    let r = optimize::greedy_two_opt(&problem);
                    tel.add("bench.greedy_runs", 1);
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "anneal_objective_xtalk_4x4",
            area: "core",
            about: "incrementally-priced P + λ·X annealing (4k iters x 2 restarts) on a 4x4 gaussian problem",
            setup: |_cfg| {
                let problem = GAUSS_4X4.build_problem().expect("bench problem builds");
                Box::new(move |tel| {
                    let objective = optimize::PowerCrosstalkObjective::new(&problem, 0.5);
                    let r = optimize::anneal_with_objective(&problem, &objective, &quick_anneal())
                        .expect("anneal budget is non-empty");
                    tel.add("bench.objective_runs", 1);
                    black_box(r.power);
                })
            },
        },
        BenchCase {
            name: "power_eval_4x4_x256",
            area: "core",
            about: "256 full <T',C'> power evaluations (Eq. 10 objective) on a 4x4 problem",
            setup: |_cfg| {
                let problem = GAUSS_4X4.build_problem().expect("bench problem builds");
                let assignment = SignedPerm::identity(16);
                Box::new(move |tel| {
                    let mut acc = 0.0;
                    for _ in 0..256 {
                        acc += problem.power(black_box(&assignment));
                    }
                    tel.add("bench.power_evals", 256);
                    black_box(acc);
                })
            },
        },
        BenchCase {
            name: "delta_eval_4x4_x1024",
            area: "core",
            about: "1024 swap/flip deltas of the public reference pricing on the all-+ identity state of a 4x4 problem (not the annealer's kernel)",
            setup: |_cfg| {
                let problem = GAUSS_4X4.build_problem().expect("bench problem builds");
                let assignment = SignedPerm::identity(16);
                Box::new(move |tel| {
                    let mut acc = 0.0;
                    for k in 0..1024usize {
                        let x = k % 16;
                        let y = (k * 7 + 3) % 16;
                        if x != y {
                            acc += problem.swap_lines_delta(&assignment, x, y);
                        }
                        acc += problem.flip_bit_delta(&assignment, x);
                    }
                    tel.add("bench.delta_evals", 2 * 1024);
                    black_box(acc);
                })
            },
        },
        BenchCase {
            name: "mna_lu_factor_n40",
            area: "circuit",
            about: "dense LU factorisation of a 40-node RC ladder (Netlist::transient)",
            setup: |_cfg| {
                let net = rc_ladder(40);
                Box::new(move |tel| {
                    let sim = net
                        .transient_with_telemetry(1.0e-11, tel)
                        .expect("ladder system is non-singular");
                    black_box(sim.h());
                })
            },
        },
        BenchCase {
            name: "mna_transient_n40_x256",
            area: "circuit",
            about: "256 backward-Euler steps of the 40-node ladder (LU solve + history updates)",
            setup: |_cfg| {
                let net = rc_ladder(40);
                let mut sim = net
                    .transient(1.0e-11)
                    .expect("ladder system is non-singular");
                let mut high = false;
                Box::new(move |tel| {
                    // Toggle the drive each sample so the solver keeps
                    // chasing a transient instead of a settled DC point.
                    high = !high;
                    sim.set_rail(0, if high { 1.0 } else { 0.0 });
                    for _ in 0..256 {
                        sim.step();
                    }
                    tel.add("bench.transient_steps", 256);
                    black_box(sim.voltage(1));
                })
            },
        },
        BenchCase {
            name: "link_simulate_2x2_64c",
            area: "circuit",
            about: "full TSV-link energy simulation: 2x2 array, 64 cycles at 3 GHz",
            setup: |_cfg| {
                let array = TsvArray::new(2, 2, TsvGeometry::itrs_2018_min())
                    .expect("2x2 geometry is valid");
                let cap = Extractor::new(array.clone())
                    .extract(&[0.5; 4])
                    .expect("extraction of a valid array succeeds");
                let net = TsvRcNetlist::from_extraction(&array, cap);
                let link = TsvLink::new(net, DriverModel::ptm_22nm_strength6())
                    .expect("link construction succeeds");
                let stream = SequentialSource::new(4, 0.05)
                    .expect("valid width")
                    .generate(9, 64)
                    .expect("generation succeeds");
                Box::new(move |tel| {
                    let report = link
                        .simulate_with_telemetry(&stream, 3.0e9, tel)
                        .expect("simulation succeeds");
                    black_box(report.total_energy());
                })
            },
        },
        BenchCase {
            name: "circuit.simulate_4x4",
            area: "circuit",
            about: "TsvLink::simulate on a fig6_circuit job's link (4x4 min, extracted at the stream's bit probabilities, 3 pi sections, 24 steps) over a 5400-word Sensor Mux stream at 3 GHz; asserts the recorded dynamic energy",
            setup: |_cfg| {
                let sensors = [
                    SensorKind::Magnetometer,
                    SensorKind::Accelerometer,
                    SensorKind::Gyroscope,
                ]
                .map(|k| MemsSensor::new(k).with_samples(600));
                let stream = all_sensors_mux(&sensors, 0xF1_66).expect("mux succeeds");
                let array = TsvArray::new(4, 4, TsvGeometry::itrs_2018_min())
                    .expect("4x4 geometry is valid");
                let cap = Extractor::new(array.clone())
                    .extract(SwitchingStats::from_stream(&stream).bit_probabilities())
                    .expect("bit probabilities are valid");
                let link = TsvLink::new(
                    TsvRcNetlist::from_extraction(&array, cap),
                    DriverModel::ptm_22nm_strength6(),
                )
                .expect("link construction succeeds");
                let recorded = f64::from_bits(SENSOR_MUX_4X4_ENERGY_BITS);
                Box::new(move |tel| {
                    let report = link
                        .simulate_with_telemetry(&stream, 3.0e9, tel)
                        .expect("simulation succeeds");
                    let energy = report.dynamic_energy();
                    assert!(
                        (energy - recorded).abs() <= 1e-12 * recorded,
                        "dynamic energy {energy:e} J (bits {:#018x}) drifted from the recorded {recorded:e} J",
                        energy.to_bits()
                    );
                    tel.add("bench.simulated_cycles", report.cycles() as u64);
                    black_box(energy);
                })
            },
        },
        BenchCase {
            name: "gray_encode_w16_4k",
            area: "codec",
            about: "Gray-code encode of a 4096-cycle, 16-bit gaussian stream",
            setup: |_cfg| {
                let codec = GrayCodec::new(16).expect("width 16 is supported");
                let stream = gaussian_stream(16, 3_000.0, 0.3, 4_096, 5);
                Box::new(move |tel| {
                    let out = codec.encode(&stream).expect("width matches");
                    tel.add("bench.encoded_words", out.len() as u64);
                    black_box(out.len());
                })
            },
        },
        BenchCase {
            name: "correlator_encode_w16_4k",
            area: "codec",
            about: "temporal-correlator (XOR) encode of a 4096-cycle, 16-bit gaussian stream",
            setup: |_cfg| {
                let codec = Correlator::new(16, 1).expect("width 16 is supported");
                let stream = gaussian_stream(16, 3_000.0, 0.3, 4_096, 5);
                Box::new(move |tel| {
                    let out = codec.encode(&stream).expect("width matches");
                    tel.add("bench.encoded_words", out.len() as u64);
                    black_box(out.len());
                })
            },
        },
        BenchCase {
            name: "couplinginvert_encode_w12_4k",
            area: "codec",
            about: "coupling-invert encode (per-word cost search) of a 4096-cycle, 12-bit stream",
            setup: |_cfg| {
                let codec = CouplingInvert::new(12).expect("width 12 is supported");
                let stream = gaussian_stream(12, 800.0, 0.5, 4_096, 11);
                Box::new(move |tel| {
                    let out = codec.encode(&stream).expect("width matches");
                    tel.add("bench.encoded_words", out.len() as u64);
                    black_box(out.len());
                })
            },
        },
        BenchCase {
            name: "stats.from_stream_seq25_30k",
            area: "stats",
            about: "switching statistics of a 30k-word, 25-bit sequential stream (p = 0.1, ~3 toggles/word)",
            setup: |_cfg| {
                let stream = SequentialSource::new(25, 0.1)
                    .expect("width 25 is supported")
                    .generate(3, 30_000)
                    .expect("generation succeeds");
                stats_body(stream)
            },
        },
        BenchCase {
            name: "stats.from_stream_gauss16_30k",
            area: "stats",
            about: "switching statistics of a 30k-word, 16-bit gaussian stream (sigma 1000, rho 0, ~8 toggles/word)",
            setup: |_cfg| stats_body(gaussian_stream(16, 1_000.0, 0.0, 30_000, 3)),
        },
    ]
}

/// Looks up a case by exact name.
pub fn find(name: &str) -> Option<BenchCase> {
    cases().into_iter().find(|c| c.name == name)
}

fn quick_anneal() -> optimize::AnnealOptions {
    optimize::AnnealOptions {
        iterations: 4_000,
        restarts: 2,
        seed: 0x7_5EED,
        threads: 1,
    }
}

/// The speedup-demonstration workload: restarts == the default worker
/// pool, so `anneal_large_6x6_threads` vs. `..._serial` shows the
/// engine's scaling on multi-core machines (the result is
/// bit-identical either way).
fn large_anneal(threads: usize) -> optimize::AnnealOptions {
    optimize::AnnealOptions {
        iterations: 20_000,
        restarts: 4,
        seed: 0x7_5EED,
        threads,
    }
}

/// A seeded `side`×`side` problem on the wide-pitch geometry.
const fn wide(side: usize, stream: StreamSpec, seed: u64) -> ExplainSpec {
    ExplainSpec {
        rows: side,
        cols: side,
        geometry: GeometryKind::Wide,
        stream,
        cycles: 8_000,
        seed,
    }
}

/// The sequential 3×3 problem of the anneal and B&B search cases.
const SEQ_3X3: ExplainSpec = wide(3, StreamSpec::Sequential(0.02), 77);
/// The sequential 2×4 problem of the `exact_2x4` benchmark workload.
const SEQ_2X4_MIN: ExplainSpec = ExplainSpec {
    rows: 2,
    cols: 4,
    geometry: GeometryKind::Min,
    stream: StreamSpec::Sequential(0.01),
    cycles: 20_000,
    seed: 3,
};
/// A `fig3_gauss` job of the repository benchmark, in the state its
/// pipeline anneals it: 4×4 wide pitch, a 16-bit Gaussian stream.
const FIG3_GAUSS_4X4: ExplainSpec = ExplainSpec {
    rows: 4,
    cols: 4,
    geometry: GeometryKind::Wide,
    stream: StreamSpec::Gaussian(1_000.0, -0.3),
    cycles: 30_000,
    seed: 1,
};
/// `core.anneal_4x4_serial`'s power, as the annealer first returned it.
const FIG3_GAUSS_4X4_POWER_BITS: u64 = 0x3d59_4ecf_57c1_f3f1;
/// `core.bnb_2x4_proof`'s proven optimum (7.977052082856807e-14, at
/// `3-,7-,4-,0-,1,6-,5,2-`). Its node count is not pinned, so a tighter
/// bound stays free to lower it.
const SEQ_2X4_MIN_OPTIMUM_BITS: u64 = 0x3d36_7412_61e1_c333;
/// `circuit.simulate_4x4`'s dynamic energy, as the per-word cycle-map
/// loop first computed it.
const SENSOR_MUX_4X4_ENERGY_BITS: u64 = 0x3e0c_9f06_18c9_0830;
/// The Gaussian 4×4 problem of most core cases.
const GAUSS_4X4: ExplainSpec = wide(4, StreamSpec::Gaussian(3_000.0, 0.4), 42);
/// The large-bundle Gaussian 6×6 problem.
const GAUSS_6X6: ExplainSpec = wide(6, StreamSpec::Gaussian(1.7e10, 0.4), 42);

fn gaussian_stream(width: usize, sigma: f64, rho: f64, cycles: usize, seed: u64) -> BitStream {
    GaussianSource::new(width, sigma)
        .with_correlation(rho)
        .generate(seed, cycles)
        .expect("generation succeeds")
}

/// Times `SwitchingStats::from_stream` over `stream`.
fn stats_body(stream: BitStream) -> BenchBody {
    Box::new(move |tel| {
        let stats = SwitchingStats::from_stream(&stream);
        tel.add("bench.stream_words", stream.len() as u64);
        black_box(stats);
    })
}

/// An `n`-node grounded RC ladder with one switched drive at node 1 —
/// a synthetic stand-in for a TSV bundle netlist that scales the dense
/// LU work predictably.
fn rc_ladder(n: usize) -> Netlist {
    let mut net = Netlist::new(n);
    for node in 1..n {
        net.resistor(node, node + 1, 50.0);
    }
    for node in 1..=n {
        net.capacitor(node, 0, 5.0e-15);
        // Neighbour coupling gives the matrix off-diagonal structure.
        if node + 2 <= n {
            net.capacitor(node, node + 2, 1.0e-15);
        }
    }
    net.drive(1, 1.0 / 200.0, 0.0);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, BenchOptions};

    #[test]
    fn registry_names_are_unique_and_area_tagged() {
        let cases = cases();
        assert!(cases.len() >= 10, "the registry must cover >= 10 hot paths");
        let mut names: Vec<_> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "duplicate case name");
        for case in &cases {
            assert!(
                ["core", "circuit", "codec", "stats"].contains(&case.area),
                "unknown area `{}` for `{}`",
                case.area,
                case.name
            );
            assert!(!case.about.is_empty());
        }
        for area in ["core", "circuit", "codec", "stats"] {
            assert!(
                cases.iter().any(|c| c.area == area),
                "no case covers `{area}`"
            );
        }
    }

    #[test]
    fn find_resolves_exact_names_only() {
        assert!(find("gray_encode_w16_4k").is_some());
        assert!(find("gray_encode").is_none());
    }

    #[test]
    fn every_case_runs_under_a_minimal_budget() {
        // One warmup-free iteration per case: catches panicking
        // setups/bodies without turning the test suite into a bench.
        let minimal = BenchOptions {
            warmup_iters: 0,
            iters: 1,
        };
        let config = BenchConfig { threads: 2 };
        for case in cases() {
            let mut body = (case.setup)(&config);
            let m = measure(case.name, case.area, minimal, &mut *body);
            assert_eq!(m.samples_ns.len(), 1, "case `{}`", case.name);
        }
    }

    #[test]
    fn parallel_equivalence_case_accepts_any_thread_count() {
        // The contract pin must hold for auto (0) and oversubscribed
        // pools alike; the case body asserts bit-identity internally.
        for threads in [0, 1, 2, 8] {
            let case = find("anneal_par_equiv_4x4").expect("registered");
            let mut body = (case.setup)(&BenchConfig { threads });
            body(&TelemetryHandle::disabled());
        }
    }
}
