//! `tsv3d` — command-line front end to the assignment flow and the
//! observability subcommands. `tsv3d help` lists every command, and
//! every command prints its own options for `--help` or `-h`.
//!
//! [`FLOW`] registers the assignment-flow commands; their run functions
//! live here because they report through this binary's telemetry
//! ([`obs`]). Parsing, `--help`, usage errors and exit codes belong to
//! `tsv3d_bench::cli::dispatch`, which also runs the observability
//! subcommands.
//!
//! Examples:
//! `tsv3d assign --rows 4 --cols 4 --geometry wide --stream gauss:1000,0.4 --method sawtooth`
//! `tsv3d spice --rows 3 --cols 3 > bundle.sp`
//! `tsv3d eval --assignment "1,2,0-,3,4,5,6,7,8" --stream uniform`

use tsv3d_bench::cli::{self, Args, Arity::One, Fail, Subcommand};
use tsv3d_bench::explain::{self, parse_assignment, ExplainSpec, GeometryKind, StreamSpec};
use tsv3d_core::{optimize, AssignmentProblem, SignedPerm};
use tsv3d_experiments::common;
use tsv3d_experiments::obs::{self, TelemetryHandle};
use tsv3d_matrix::Matrix;
use tsv3d_model::{io, noise, Extractor, PositionClass, TsvArray, TsvRcNetlist};
use tsv3d_telemetry::Value;

/// The flow commands' problem defaults: 20 000 cycles of a sequential
/// stream on a 3x3 minimum-pitch array.
const DEFAULTS: ExplainSpec = ExplainSpec {
    rows: 3,
    cols: 3,
    geometry: GeometryKind::Min,
    stream: StreamSpec::Sequential(0.01),
    cycles: 20_000,
    seed: 1,
};

/// Usage text of `tsv3d assign`.
const ASSIGN_USAGE: &str = "\
Usage: tsv3d assign [options]
       tsv3d [options]

Computes a bit-to-TSV assignment for a seeded workload and prints its
normalised power next to the identity and random assignments, its
power attribution, its compact form and the bit-to-via mapping.
`assign` is the default command.

Options:
  --rows N, --cols N    array size (default 3x3)
  --geometry KIND       min | wide | fig2 (default min)
  --stream SPEC         data stream: seq:P (0 <= P <= 1) |
                        gauss:SIGMA[,RHO] (SIGMA > 0, -1 < RHO < 1) |
                        uniform (default seq:0.01)
  --cycles N            stream length in cycles, N >= 2 (default 20000)
  --seed N              stream seed (default 1)
  --method M            identity | anneal | bnb | greedy | spiral |
                        sawtooth (default anneal)
";

/// Usage text of `tsv3d eval`.
const EVAL_USAGE: &str = "\
Usage: tsv3d eval --assignment A [options]

Evaluates a given assignment on a seeded workload and prints the
report of `tsv3d assign`.

Options:
  --assignment A        the assignment in compact form, e.g. \"2,0-,1\"
                        (`-` = inverted); required
  --rows N, --cols N    array size (default 3x3)
  --geometry KIND       min | wide | fig2 (default min)
  --stream SPEC         data stream: seq:P (0 <= P <= 1) |
                        gauss:SIGMA[,RHO] (SIGMA > 0, -1 < RHO < 1) |
                        uniform (default seq:0.01)
  --cycles N            stream length in cycles, N >= 2 (default 20000)
  --seed N              stream seed (default 1)
";

/// Usage text of `extract`, `spice` or `noise`: `$name` and what it
/// prints.
macro_rules! extraction_usage {
    ($name:literal, $prints:literal) => {
        concat!(
            "Usage: tsv3d ",
            $name,
            " [options]\n\n",
            $prints,
            "\n\nOptions:
  --rows N, --cols N    array size (default 3x3)
  --geometry KIND       min | wide | fig2 (default min)
  --probs all:P         every line's one-probability P, 0 <= P <= 1
                        (default all:0.5)
"
        )
    };
}

/// The flags of `extract`, `spice` and `noise`.
const ARRAY_FLAGS: &[(&str, cli::Arity)] =
    &[("--rows", One), ("--cols", One), ("--geometry", One), ("--probs", One)];

/// The assignment-flow commands; `assign`, the first, is the default.
const FLOW: [Subcommand; 5] = [
    Subcommand {
        name: "assign",
        about: "compute a bit-to-TSV assignment (default)",
        usage: ASSIGN_USAGE,
        flags: &[
            ("--rows", One), ("--cols", One), ("--geometry", One), ("--stream", One),
            ("--cycles", One), ("--seed", One), ("--method", One),
        ],
        positionals: 0,
        run: run_assign,
    },
    Subcommand {
        name: "eval",
        about: "evaluate a given assignment on a workload",
        usage: EVAL_USAGE,
        flags: &[
            ("--rows", One), ("--cols", One), ("--geometry", One), ("--stream", One),
            ("--cycles", One), ("--seed", One), ("--assignment", One),
        ],
        positionals: 0,
        run: run_eval,
    },
    Subcommand {
        name: "extract",
        about: "print the array's capacitance matrix as CSV",
        usage: extraction_usage!("extract", "Prints the array's capacitance matrix as CSV."),
        flags: ARRAY_FLAGS,
        positionals: 0,
        run: run_extract,
    },
    Subcommand {
        name: "spice",
        about: "print the link as a SPICE subcircuit",
        usage: extraction_usage!("spice", "Prints the link as a SPICE subcircuit."),
        flags: ARRAY_FLAGS,
        positionals: 0,
        run: run_spice,
    },
    Subcommand {
        name: "noise",
        about: "print the worst-case crosstalk summary",
        usage: extraction_usage!("noise", "Prints each via's worst-case crosstalk."),
        flags: ARRAY_FLAGS,
        positionals: 0,
        run: run_noise,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::dispatch(&args, &FLOW));
}

/// Runs `body` under the binary's telemetry handle, whose `run.start`
/// carries the workload `seed`.
fn traced(seed: u64, body: impl FnOnce(&TelemetryHandle) -> Result<(), Fail>) -> Result<i32, Fail> {
    body(&obs::for_binary_with("tsv3d", Some(seed))).map(|()| 0)
}

/// Builds the spec's problem inside the `cli.problem_build` span.
fn build(spec: &ExplainSpec, tel: &TelemetryHandle) -> Result<AssignmentProblem, Fail> {
    let _span = tel.span("cli.problem_build");
    spec.build_problem().map_err(Fail::Usage)
}

/// Runs `tsv3d assign`.
fn run_assign(args: &Args) -> Result<i32, Fail> {
    let spec = args.spec(DEFAULTS)?;
    let method = args.method()?;
    traced(spec.seed, |tel| {
        let problem = build(&spec, tel)?;
        let (assignment, name) = {
            let _span = tel.span("cli.solve");
            method.solve(&problem, &common::anneal_options(), tel)
        }
        .map_err(Fail::Runtime)?;
        report(&spec, &problem, assignment, name, tel)
    })
}

/// Runs `tsv3d eval`.
fn run_eval(args: &Args) -> Result<i32, Fail> {
    let spec = args.spec(DEFAULTS)?;
    let text = args
        .str("--assignment")
        .ok_or_else(|| Fail::Usage("eval requires --assignment \"<compact form>\"".into()))?;
    let assignment = parse_assignment(text, spec.rows * spec.cols).map_err(Fail::Usage)?;
    traced(spec.seed, |tel| {
        let problem = build(&spec, tel)?;
        report(&spec, &problem, assignment, "user-supplied (eval)", tel)
    })
}

/// Prints the report of `assign` and `eval`: the assignment's power
/// next to the identity and random baselines, its attribution (also
/// published on `tel`) and its bit-to-via mapping.
fn report(
    spec: &ExplainSpec,
    problem: &AssignmentProblem,
    assignment: SignedPerm,
    method_name: &str,
    tel: &TelemetryHandle,
) -> Result<(), Fail> {
    let array = spec.array().map_err(Fail::Usage)?;
    let random = optimize::random_mean(problem, 300, spec.seed)
        .map_err(|e| Fail::Runtime(e.to_string()))?;
    // Attribution is computed *after* the search, from its result — a
    // pure observation that cannot perturb the optimizer.
    let r = {
        let _span = tel.span("cli.attribution");
        explain::analyze(spec, problem, method_name.to_string(), assignment)
    };
    let (b, classes, power) = (&r.breakdown, &r.classes, r.power);
    tel.set_gauge("power.self_charge", b.self_total());
    tel.set_gauge("power.coupling_charge", b.coupling_total());
    tel.set_gauge("power.total", power);
    tel.event(
        "power.attribution",
        &[
            ("self_charge", Value::F64(b.self_total())),
            ("coupling_charge", Value::F64(b.coupling_total())),
            ("adjacent", Value::F64(classes.adjacent)),
            ("diagonal", Value::F64(classes.diagonal)),
            ("distant", Value::F64(classes.distant)),
        ],
    );

    let (g, stream) = (array.geometry(), spec.stream.label());
    println!(
        "array {}x{} (r = {:.1} um, pitch {:.1} um), {} cycles of {stream}",
        spec.rows,
        spec.cols,
        g.radius * 1e6,
        g.pitch * 1e6,
        spec.cycles
    );
    println!("method: {method_name}\n");
    println!("normalised power <T', C'>:");
    println!("  this assignment : {power:.4e}");
    for (name, other) in [("identity     ", r.identity_power), ("random (mean)", random)] {
        let vs = (other / power - 1.0) * 100.0;
        println!("  {name}   : {other:.4e}  ({vs:+.1} % vs this)");
    }
    println!("\nattribution (see `tsv3d explain` for the full breakdown):");
    let share = |charge: f64| explain::pct_of(charge, power);
    println!(
        "  self charge     : {:.4e}  ({:.1} %)",
        b.self_total(),
        share(b.self_total())
    );
    println!(
        "  coupling charge : {:.4e}  ({:.1} %)  [adjacent {:.3e}, diagonal {:.3e}, distant {:.3e}]",
        b.coupling_total(),
        share(b.coupling_total()),
        classes.adjacent,
        classes.diagonal,
        classes.distant
    );
    println!("\ncompact form: {}", r.assignment);
    println!("\nbit -> via mapping (row, col) [class]:");
    for bit in 0..problem.n() {
        let line = r.assignment.line_of_bit(bit);
        let (row, col) = array.row_col(line);
        let class = match array.class(line) {
            PositionClass::Corner => "corner",
            PositionClass::Edge => "edge",
            PositionClass::Middle => "middle",
        };
        let inverted = if r.assignment.is_inverted(bit) { "  inverted" } else { "" };
        println!("  bit {bit:>2} -> ({row}, {col}) [{class:<6}]{inverted}");
    }
    Ok(())
}

/// Runs `body` on the array of `--rows`, `--cols` and `--geometry` and
/// its capacitance matrix, extracted at the `--probs` one-probability.
fn with_extraction(args: &Args, body: impl FnOnce(&TsvArray, Matrix)) -> Result<i32, Fail> {
    let spec = args.spec(DEFAULTS)?;
    let p = args.parse_with("--probs", |value| {
        match value.strip_prefix("all:").map(str::parse::<f64>) {
            Some(Ok(p)) if (0.0..=1.0).contains(&p) => Ok(p),
            _ => Err(format!("--probs must be all:P with 0 <= P <= 1, got `{value}`")),
        }
    })?;
    traced(spec.seed, |_| {
        let array = spec.array().map_err(Fail::Usage)?;
        let cap = Extractor::new(array.clone())
            .extract(&vec![p.unwrap_or(0.5); array.len()])
            .map_err(|e| Fail::Runtime(e.to_string()))?;
        body(&array, cap);
        Ok(())
    })
}

/// Runs `tsv3d extract`.
fn run_extract(args: &Args) -> Result<i32, Fail> {
    with_extraction(args, |_, cap| print!("{}", io::matrix_to_csv(&cap)))
}

/// Runs `tsv3d spice`.
fn run_spice(args: &Args) -> Result<i32, Fail> {
    with_extraction(args, |array, cap| {
        let name = format!("tsv_bundle_{}x{}", array.rows(), array.cols());
        let net = TsvRcNetlist::from_extraction(array, cap);
        print!("{}", io::to_spice(&net, &name, 3));
    })
}

/// Runs `tsv3d noise`.
fn run_noise(args: &Args) -> Result<i32, Fail> {
    with_extraction(args, |array, cap| {
        let summary = noise::worst_case(&cap);
        println!(
            "worst-case crosstalk (all aggressors switching), {}x{} array:",
            array.rows(),
            array.cols()
        );
        for (i, r) in summary.per_victim.iter().enumerate() {
            let (row, col) = array.row_col(i);
            println!("  via ({row}, {col}): dV/Vdd = {r:.3}");
        }
        println!(
            "worst victim: via {} at {:.3} of Vdd",
            summary.worst_victim, summary.worst
        );
    })
}

#[cfg(test)]
#[path = "tsv3d/tests.rs"]
mod tests;
