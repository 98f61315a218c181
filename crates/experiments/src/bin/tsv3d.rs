//! `tsv3d` — command-line front end to the assignment flow and the
//! observability subcommands. `tsv3d help` prints every command and
//! option; `tsv3d <command> --help` prints an observability
//! subcommand's own usage.
//!
//! Examples:
//! `tsv3d assign --rows 4 --cols 4 --geometry wide --stream gauss:1000,0.4 --method sawtooth`
//! `tsv3d spice --rows 3 --cols 3 > bundle.sp`
//! `tsv3d eval --assignment "1,2,0-,3,4,5,6,7,8" --stream uniform`

use tsv3d_core::{attribution, optimize, systematic, AssignmentProblem, SignedPerm};
use tsv3d_experiments::common;
use tsv3d_experiments::obs::{self, TelemetryHandle};
use tsv3d_telemetry::Value;
use tsv3d_model::{
    io, noise, Extractor, PositionClass, TsvArray, TsvGeometry, TsvRcNetlist,
};
use tsv3d_stats::gen::{GaussianSource, SequentialSource, UniformSource};
use tsv3d_stats::{BitStream, SwitchingStats};

/// The short usage summary printed for `help` and on usage errors.
const USAGE: &str = "\
Usage: tsv3d <command> [options]

Commands:
  assign    compute a bit-to-TSV assignment (default)
  eval      evaluate a given assignment string on a workload
  extract   print the array's capacitance matrix as CSV
  spice     print the link as a SPICE subcircuit
  noise     print the worst-case crosstalk summary
  bench     run the benchmark registry, write BENCH_*.json artifacts
  trace     aggregate a telemetry .jsonl stream into span rollups
            (--svg renders a flamegraph)
  converge  per-restart convergence report from anneal.epoch events
            (--compare diffs two traces, --svg renders descent curves)
  explain   per-TSV power attribution: ranked contribution tables,
            array heatmap SVG, --compare savings diff reports
  history   analyze the cross-run ledger: trend tables, changepoint
            history (--detect) and the regression gate, which judges
            each series' newest row (--gate-detect)
  serve     HTTP listener: /metrics (Prometheus), /healthz, /runs,
            /progress (live tsv3d-pulse/v1 per-restart progress),
            /dash (live HTML dashboard)
  dash      render the unified observability dashboard (one
            self-contained, byte-deterministic HTML page + a
            tsv3d-dash/v1 JSON index); --live ADDR adds a running
            serve's per-restart progress table and exits 1 on a stall
  help      print this usage summary

Common options:
  --rows N           array rows (default 3)
  --cols N           array cols (default 3)
  --geometry G       min | wide | dense   (default min)

assign/eval options:
  --stream S         seq:<branch_p> | gauss:<sigma>[,<rho>] | uniform
                     (default seq:0.01; width = rows*cols)
  --method M         anneal | bnb | greedy | spiral | sawtooth
                     (default anneal; assign only)
  --assignment A     compact form, e.g. \"2,0-,1\" (eval only)
  --cycles N         sample-stream length (default 20000)
  --seed N           workload seed (default 1)

extract/spice/noise options:
  --probs P          all:<p> (default all:0.5)

Each observability command (bench through dash) prints its own
options with `tsv3d <command> --help`; `tsv3d bench --list` lists the
benchmark cases.
";

#[derive(Debug)]
struct Options {
    command: Command,
    rows: usize,
    cols: usize,
    geometry: TsvGeometry,
    stream: StreamSpec,
    method: Method,
    assignment: Option<String>,
    probs: f64,
    cycles: usize,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Assign,
    Eval,
    Extract,
    Spice,
    Noise,
}

#[derive(Debug)]
enum StreamSpec {
    Sequential { branch_p: f64 },
    Gaussian { sigma: f64, rho: f64 },
    Uniform,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Anneal,
    Bnb,
    Greedy,
    Spiral,
    Sawtooth,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: Command::Assign,
        rows: 3,
        cols: 3,
        geometry: TsvGeometry::itrs_2018_min(),
        stream: StreamSpec::Sequential { branch_p: 0.01 },
        method: Method::Anneal,
        assignment: None,
        probs: 0.5,
        cycles: 20_000,
        seed: 1,
    };
    let mut i = 0;
    if let Some(first) = args.first() {
        if !first.starts_with("--") {
            opts.command = match first.as_str() {
                "assign" => Command::Assign,
                "eval" => Command::Eval,
                "extract" => Command::Extract,
                "spice" => Command::Spice,
                "noise" => Command::Noise,
                other => return Err(format!("unknown command `{other}`")),
            };
            i = 1;
        }
    }
    while i < args.len() {
        let key = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key {
            "--rows" => opts.rows = value.parse().map_err(|e| format!("--rows: {e}"))?,
            "--cols" => opts.cols = value.parse().map_err(|e| format!("--cols: {e}"))?,
            "--geometry" => {
                opts.geometry = match value.as_str() {
                    "min" => TsvGeometry::itrs_2018_min(),
                    "wide" => TsvGeometry::wide_2018(),
                    "dense" => TsvGeometry::fig2_5x5(),
                    other => return Err(format!("unknown geometry `{other}`")),
                }
            }
            "--stream" => {
                opts.stream = if let Some(rest) = value.strip_prefix("seq:") {
                    StreamSpec::Sequential {
                        branch_p: rest.parse().map_err(|e| format!("--stream seq: {e}"))?,
                    }
                } else if let Some(rest) = value.strip_prefix("gauss:") {
                    let mut parts = rest.splitn(2, ',');
                    let sigma = parts
                        .next()
                        .unwrap_or_default()
                        .parse()
                        .map_err(|e| format!("--stream gauss sigma: {e}"))?;
                    let rho = match parts.next() {
                        Some(r) => r.parse().map_err(|e| format!("--stream gauss rho: {e}"))?,
                        None => 0.0,
                    };
                    StreamSpec::Gaussian { sigma, rho }
                } else if value == "uniform" {
                    StreamSpec::Uniform
                } else {
                    return Err(format!("unknown stream spec `{value}`"));
                }
            }
            "--method" => {
                opts.method = match value.as_str() {
                    "anneal" => Method::Anneal,
                    "bnb" => Method::Bnb,
                    "greedy" => Method::Greedy,
                    "spiral" => Method::Spiral,
                    "sawtooth" => Method::Sawtooth,
                    other => return Err(format!("unknown method `{other}`")),
                }
            }
            "--assignment" => opts.assignment = Some(value.clone()),
            "--probs" => {
                let rest = value
                    .strip_prefix("all:")
                    .ok_or_else(|| format!("unknown probs spec `{value}` (use all:<p>)"))?;
                opts.probs = rest.parse().map_err(|e| format!("--probs: {e}"))?;
            }
            "--cycles" => opts.cycles = value.parse().map_err(|e| format!("--cycles: {e}"))?,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(opts)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole.abs() < 1e-300 {
        0.0
    } else {
        part / whole * 100.0
    }
}

fn generate_stream(opts: &Options) -> Result<BitStream, String> {
    let width = opts.rows * opts.cols;
    match opts.stream {
        StreamSpec::Sequential { branch_p } => SequentialSource::new(width, branch_p)
            .map_err(|e| e.to_string())?
            .generate(opts.seed, opts.cycles)
            .map_err(|e| e.to_string()),
        StreamSpec::Gaussian { sigma, rho } => GaussianSource::new(width, sigma)
            .with_correlation(rho)
            .generate(opts.seed, opts.cycles)
            .map_err(|e| e.to_string()),
        StreamSpec::Uniform => UniformSource::new(width)
            .map_err(|e| e.to_string())?
            .generate(opts.seed, opts.cycles)
            .map_err(|e| e.to_string()),
    }
}

fn solve(
    problem: &AssignmentProblem,
    method: Method,
    tel: &TelemetryHandle,
) -> Result<(SignedPerm, &'static str), String> {
    let _span = tel.span("cli.solve");
    match method {
        Method::Anneal => optimize::anneal_with_telemetry(problem, &common::anneal_options(), tel)
            .map(|r| (r.assignment, "simulated annealing"))
            .map_err(|e| e.to_string()),
        Method::Bnb => optimize::branch_and_bound_with_telemetry(problem, &Default::default(), tel)
            .map(|o| {
                (
                    o.result.assignment,
                    if o.proven_optimal {
                        "branch & bound (proven optimal)"
                    } else {
                        "branch & bound (budget exhausted)"
                    },
                )
            })
            .map_err(|e| e.to_string()),
        Method::Greedy => Ok((optimize::greedy_two_opt(problem).assignment, "greedy 2-opt")),
        Method::Spiral => Ok((systematic::spiral(problem), "Spiral (systematic)")),
        Method::Sawtooth => Ok((systematic::sawtooth(problem), "Sawtooth (systematic)")),
    }
}

fn report_assignment(
    opts: &Options,
    array: &TsvArray,
    problem: &AssignmentProblem,
    assignment: &SignedPerm,
    method_name: &str,
    tel: &TelemetryHandle,
) -> Result<(), String> {
    let power = problem.power(assignment);
    let identity = problem.identity_power();
    let random = optimize::random_mean(problem, 300, opts.seed).map_err(|e| e.to_string())?;

    // Attribution is computed *after* the search, from its result — a
    // pure observation that cannot perturb the optimizer.
    let breakdown = {
        let _span = tel.span("cli.attribution");
        attribution::PowerBreakdown::compute(problem, assignment)
    };
    let classes = breakdown.class_totals(opts.rows, opts.cols);
    tel.set_gauge("power.self_charge", breakdown.self_total());
    tel.set_gauge("power.coupling_charge", breakdown.coupling_total());
    tel.set_gauge("power.total", power);
    tel.event(
        "power.attribution",
        &[
            ("self_charge", Value::F64(breakdown.self_total())),
            ("coupling_charge", Value::F64(breakdown.coupling_total())),
            ("adjacent", Value::F64(classes.adjacent)),
            ("diagonal", Value::F64(classes.diagonal)),
            ("distant", Value::F64(classes.distant)),
        ],
    );

    println!(
        "array {}x{} (r = {:.1} um, pitch {:.1} um), {} cycles of {:?}",
        opts.rows,
        opts.cols,
        opts.geometry.radius * 1e6,
        opts.geometry.pitch * 1e6,
        opts.cycles,
        opts.stream,
    );
    println!("method: {method_name}\n");
    println!("normalised power <T', C'>:");
    println!("  this assignment : {power:.4e}");
    println!(
        "  identity        : {identity:.4e}  ({:+.1} % vs this)",
        (identity / power - 1.0) * 100.0
    );
    println!(
        "  random (mean)   : {random:.4e}  ({:+.1} % vs this)",
        (random / power - 1.0) * 100.0
    );
    println!("\nattribution (see `tsv3d explain` for the full breakdown):");
    println!(
        "  self charge     : {:.4e}  ({:.1} %)",
        breakdown.self_total(),
        pct(breakdown.self_total(), power)
    );
    println!(
        "  coupling charge : {:.4e}  ({:.1} %)  [adjacent {:.3e}, diagonal {:.3e}, distant {:.3e}]",
        breakdown.coupling_total(),
        pct(breakdown.coupling_total(), power),
        classes.adjacent,
        classes.diagonal,
        classes.distant
    );
    println!("\ncompact form: {assignment}");
    println!("\nbit -> via mapping (row, col) [class]:");
    for bit in 0..problem.n() {
        let line = assignment.line_of_bit(bit);
        let (r, c) = array.row_col(line);
        let class = match array.class(line) {
            PositionClass::Corner => "corner",
            PositionClass::Edge => "edge",
            PositionClass::Middle => "middle",
        };
        println!(
            "  bit {bit:>2} -> ({r}, {c}) [{class:<6}]{}",
            if assignment.is_inverted(bit) { "  inverted" } else { "" }
        );
    }
    Ok(())
}

fn run(opts: &Options, tel: &TelemetryHandle) -> Result<(), String> {
    let array =
        TsvArray::new(opts.rows, opts.cols, opts.geometry).map_err(|e| e.to_string())?;
    let n = array.len();

    match opts.command {
        Command::Assign => {
            let problem = {
                let _span = tel.span("cli.problem_build");
                let stream = generate_stream(opts)?;
                AssignmentProblem::new(
                    SwitchingStats::from_stream(&stream),
                    common::cap_model(opts.rows, opts.cols, opts.geometry),
                )
                .map_err(|e| e.to_string())?
            };
            let (assignment, method_name) = solve(&problem, opts.method, tel)?;
            report_assignment(opts, &array, &problem, &assignment, method_name, tel)
        }
        Command::Eval => {
            let text = opts
                .assignment
                .as_ref()
                .ok_or("eval requires --assignment \"<compact form>\"")?;
            let assignment: SignedPerm = text.parse().map_err(|e| format!("--assignment: {e}"))?;
            if assignment.n() != n {
                return Err(format!(
                    "assignment covers {} bits but the array has {n} vias",
                    assignment.n()
                ));
            }
            let stream = generate_stream(opts)?;
            let problem = AssignmentProblem::new(
                SwitchingStats::from_stream(&stream),
                common::cap_model(opts.rows, opts.cols, opts.geometry),
            )
            .map_err(|e| e.to_string())?;
            report_assignment(opts, &array, &problem, &assignment, "user-supplied (eval)", tel)
        }
        Command::Extract => {
            let cap = Extractor::new(array)
                .extract(&vec![opts.probs; n])
                .map_err(|e| e.to_string())?;
            print!("{}", io::matrix_to_csv(&cap));
            Ok(())
        }
        Command::Spice => {
            let cap = Extractor::new(array.clone())
                .extract(&vec![opts.probs; n])
                .map_err(|e| e.to_string())?;
            let net = TsvRcNetlist::from_extraction(&array, cap);
            print!(
                "{}",
                io::to_spice(&net, &format!("tsv_bundle_{}x{}", opts.rows, opts.cols), 3)
            );
            Ok(())
        }
        Command::Noise => {
            let cap = Extractor::new(array.clone())
                .extract(&vec![opts.probs; n])
                .map_err(|e| e.to_string())?;
            let summary = noise::worst_case(&cap);
            println!(
                "worst-case crosstalk (all aggressors switching), {}x{} array:",
                opts.rows, opts.cols
            );
            for (i, r) in summary.per_victim.iter().enumerate() {
                let (row, col) = array.row_col(i);
                println!("  via ({row}, {col}): dV/Vdd = {r:.3}");
            }
            println!(
                "worst victim: via {} at {:.3} of Vdd",
                summary.worst_victim, summary.worst
            );
            Ok(())
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The observability subcommands dispatch before the assignment-flow
    // option parser (and before telemetry init, so a bench run never
    // truncates a trace it is about to analyse).
    if let Some(code) = tsv3d_bench::cli::dispatch(&args) {
        std::process::exit(code);
    }
    if let Some("help" | "--help" | "-h") = args.first().map(String::as_str) {
        print!("{USAGE}");
        return;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tel = obs::for_binary_with(
        "tsv3d",
        obs::RunMeta {
            seed: Some(opts.seed),
            ..Default::default()
        },
    );
    let outcome = run(&opts, &tel);
    obs::finish(&tel);
    if let Err(message) = outcome {
        eprintln!("error: {message}");
        eprintln!("run `tsv3d assign` with no options for defaults; see `tsv3d help` for usage");
        std::process::exit(1);
    }
}
