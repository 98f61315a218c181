//! The argument and exit-code scaffold of all `tsv3d` commands, and
//! the observability subcommands: `bench`, `trace`, `explain`,
//! `history` and `dash`.
//!
//! Each command is one [`Subcommand`] entry of a static table: its
//! summary, usage text, flag table, positional count and `run`
//! function. The `tsv3d` binary in `tsv3d-experiments` hands
//! [`dispatch`] a second table beside [`SUBCOMMANDS`], with the
//! assignment-flow commands; each of that package's 14 table binaries
//! hands [`main`] its one command. The one argument loop,
//! [`Args::parse`], owns `--help`/`-h`, unknown options and missing
//! values; [`Args::spec`] parses the one problem grammar. Everything
//! but [`main`] returns an exit code instead of calling
//! `std::process::exit` so the logic stays testable in-process.
//!
//! Exit codes: `0` success, `1` failure (I/O, a gated regression),
//! `2` usage error or malformed input.

use crate::analytics;
use crate::dash;
use crate::explain::{self, ExplainSpec, GeometryKind, Method, StreamSpec};
use crate::flamegraph;
use crate::harness::{measure, measure_with_handle, BenchOptions};
use crate::history;
use crate::registry;
use crate::report::BenchReport;
use crate::trace;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use tsv3d_telemetry::{JsonLinesSink, Sink, TelemetryHandle, Value};

/// Usage text of `tsv3d bench`.
pub const BENCH_USAGE: &str = "\
Usage: tsv3d bench [options]

Runs the registered benchmark cases, writes one BENCH_<case>.json
artifact per case (schema tsv3d-bench/v2) and appends one record per
case to the cross-run ledger, which `tsv3d history --gate-detect`
gates on.

Options:
  --quick               reduced budget (1 warmup + 5 iters) for smoke runs
  --iters N             timed iterations per case (default 15)
  --warmup N            warmup iterations per case (default 3)
  --case SUBSTR         only run cases whose name contains SUBSTR
  --threads N           worker pool for the parallel optimizer cases
                        (default 4; 0 = one per CPU). Results are
                        bit-identical for every N — only timings change
  --out-dir DIR         artifact directory (default results/bench)
  --history FILE        cross-run ledger to append per-case summary
                        records to (default results/history.jsonl;
                        schema tsv3d-history/v1, see `tsv3d history`)
  --no-history          skip the ledger append entirely
  --trace FILE          record the timed loop's telemetry events
                        (anneal.epoch, spans, counters' sources) to
                        FILE as JSON lines for `tsv3d trace`;
                        warmup stays unrecorded. Best with a single
                        --case and --iters 1 --warmup 0 so the trace
                        covers exactly one run per restart
  --list                list the registered cases and exit
";

/// Usage text of `tsv3d trace`.
pub const TRACE_USAGE: &str = "\
Usage: tsv3d trace <file.jsonl> [options]

Aggregates a telemetry JSON-lines stream (TSV3D_TELEMETRY=json, or
`tsv3d bench --trace`) into per-span rollups: count, total/self time,
log2-histogram percentiles, and — when the trace carries allocator
data — total/self allocated bytes. A trace holding the annealer's
anneal.epoch events adds per-restart convergence tables: energy
descent, accept rates, move mix, iterations to within 1% of the final
best, wasted iterations and the spread of final energies. Malformed or
truncated lines are skipped and counted, never fatal; the skipped
count is always reported.

Options:
  --compare BASE        diff against the base trace BASE: each shared
                        span's calls and self time per call in both,
                        largest per-call change x calls first, then,
                        when both hold anneal.epoch events, restart by
                        restart. Exits 1 when the traces share no span
                        name and no restart label
  --mem                 rank spans by self-allocated bytes instead of
                        total time; --collapsed output becomes
                        bytes-weighted (`parent;child self_bytes`)
  --format json|text    output format (default text); json emits one
                        tsv3d-trace/v2 object on stdout
  --collapsed FILE      also write flamegraph collapsed stacks
                        (`parent;child self_ns` per line) to FILE
  --svg FILE            also render a self-contained flamegraph SVG to
                        FILE (time-weighted; bytes-weighted with --mem).
                        Deterministic: same trace, byte-identical SVG
";

/// Usage text of `tsv3d history`.
pub const HISTORY_USAGE: &str = "\
Usage: tsv3d history [file.jsonl] [options]

Judges the cross-run ledger (default results/history.jsonl) that
`tsv3d bench` appends to: one tsv3d-history/v1 record per case per
run. A series is one (kind, case, threads) triple. Renders one table:
each series' newest record, on wall time and allocated bytes, against
the median of up to 8 records before it, with the rank-significance
guard of --detect (REGRESSED@rev, IMPROVED@rev, steady with its delta,
or insufficient below 5 records). Malformed ledger lines are skipped
and counted.

Options:
  --case SUBSTR         only show cases whose name contains SUBSTR
  --detect              show history instead: scan each series' full
                        wall and alloc record with a two-window median
                        split + rank-significance guard and report its
                        best-fitting changepoint (steady /
                        improved@rev / regressed@rev); series with
                        fewer than 5 records are `insufficient`
  --detect-pct PCT      changepoint effect-size threshold, percent
                        (default 10; implies --detect)
  --gate-detect         the regression gate: the same table, exiting 1
                        if any newest record regressed; a non-positive
                        median_ns among the gated records exits 2
                        (BAD-BASELINE). Series with fewer than 5
                        records are never gated
  --format json|text    output format (default text); json emits one
                        tsv3d-history-detect/v1 object
";

/// Usage text of `tsv3d dash`.
pub const DASH_USAGE: &str = "\
Usage: tsv3d dash [options]

Renders the unified observability dashboard: one self-contained HTML
page (inline CSS, inline SVGs, no scripts, no external assets) fusing
the BENCH_<case>.json artifacts, the history ledger's changepoint
verdicts and newest-record deltas, an optional trace's flamegraph and
convergence plot, the built-in attribution heatmap, the committed
experiment artifacts — plus a machine-readable tsv3d-dash/v1 JSON
index with --format json.

The page is a pure function of its inputs: no wall clock, no current
git revision — byte-identical across repeated runs. Malformed
artifacts and ledger lines are skipped and counted, never fatal;
missing *default* inputs degrade to empty sections, while an
explicitly-given file that cannot be read is an error (exit 1).

Options:
  --bench-dir DIR       bench artifact directory to scan for
                        BENCH_*.json (default results/bench)
  --history FILE        cross-run ledger (default results/history.jsonl)
  --trace FILE          telemetry JSONL trace for the flamegraph panel
                        and, when it holds anneal.epoch events, the
                        convergence panel
  --artifacts DIR       directory of committed experiment .txt
                        artifacts to list (default results)
  --out FILE            HTML output path (default
                        results/dashboard.html)
  --detect-pct PCT      changepoint effect-size threshold, percent
                        (default 10)
  --format json|text    output format (default text); text prints a
                        one-line summary after writing the HTML, json
                        emits the tsv3d-dash/v1 index on stdout (the
                        HTML is written either way)
";

/// Usage text of `tsv3d explain`.
pub const EXPLAIN_USAGE: &str = "\
Usage: tsv3d explain [options]

Explains where an assignment's power goes: decomposes the objective
⟨T', C'⟩ into per-TSV self terms and per-pair coupling terms (an exact
identity — parts sum back to power() to round-off), ranks the hottest
vias and coupling pairs, rolls coupling up by neighbor distance class
(adjacent/diagonal/distant), and can attribute the savings of an
optimized assignment over a baseline pair by pair. Fully seeded and
deterministic: the same options produce byte-identical text, JSON and
SVG output.

Options:
  --rows N, --cols N    array size (default 4x4)
  --geometry KIND       min | wide | fig2 (default wide)
  --stream SPEC         data stream: seq:P (0 <= P <= 1) |
                        gauss:SIGMA[,RHO] (SIGMA > 0, -1 < RHO < 1) |
                        uniform (default seq:0.02)
  --cycles N            stream length in cycles, N >= 2 (default 8000)
  --seed N              stream and annealer seed (default 7)
  --method M            how the explained assignment is obtained:
                        identity | anneal | bnb | greedy | spiral |
                        sawtooth (default anneal, quick fixed budget)
  --assignment PERM     explain an explicit assignment instead, in
                        compact form (\"2,0-,1\"; `-` = inverted)
  --top N               rows in the ranked tables (default 8)
  --svg FILE            render the array heatmap SVG: one cell per
                        via, shaded by attributed charge on a
                        sequential value ramp; byte-identical across
                        runs
  --compare BASE        diff against a baseline: `identity`, a JSON
                        file with an \"assignment\" field, or a file
                        holding the compact form; shows which pairs
                        the explained assignment de-weighted
  --format json|text    output format (default text); json emits one
                        tsv3d-explain/v1 object on stdout
";

/// How many values a flag consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare switch (`--quick`).
    Switch,
    /// One value (`--iters N`).
    One,
}

use Arity::{One, Switch};

/// Why a command stopped early.
#[derive(Debug)]
pub enum Fail {
    /// Bad arguments: `error: {msg}` plus the usage text, exit 2.
    Usage(String),
    /// A runtime failure (unreadable input, failed write or bind):
    /// `error: {msg}`, exit 1.
    Runtime(String),
}

/// One command's entry in a command table.
pub struct Subcommand {
    /// The command name (`tsv3d <name>`).
    pub name: &'static str,
    /// The one-line summary `tsv3d help` lists.
    pub about: &'static str,
    /// The usage text `--help` prints.
    pub usage: &'static str,
    /// Every flag the command takes, with its arity.
    pub flags: &'static [(&'static str, Arity)],
    /// Positional arguments accepted (an input file).
    pub positionals: usize,
    /// Runs the command on its parsed arguments; returns the exit code.
    pub run: fn(&Args) -> Result<i32, Fail>,
}

/// Every observability subcommand of the `tsv3d` binary.
pub const SUBCOMMANDS: [Subcommand; 5] = [
    Subcommand {
        name: "bench",
        about: "run the benchmark registry, write BENCH_*.json artifacts",
        usage: BENCH_USAGE,
        flags: &[
            ("--quick", Switch),
            ("--iters", One),
            ("--warmup", One),
            ("--case", One),
            ("--threads", One),
            ("--out-dir", One),
            ("--history", One),
            ("--no-history", Switch),
            ("--trace", One),
            ("--list", Switch),
        ],
        positionals: 0,
        run: run_bench,
    },
    Subcommand {
        name: "trace",
        about: "roll a .jsonl trace up into spans and convergence, --compare diffs",
        usage: TRACE_USAGE,
        flags: &[
            ("--compare", One),
            ("--mem", Switch),
            ("--format", One),
            ("--collapsed", One),
            ("--svg", One),
        ],
        positionals: 1,
        run: run_trace,
    },
    Subcommand {
        name: "explain",
        about: "per-TSV power attribution, heatmap SVG, --compare diffs",
        usage: EXPLAIN_USAGE,
        flags: &[
            ("--rows", One),
            ("--cols", One),
            ("--geometry", One),
            ("--stream", One),
            ("--cycles", One),
            ("--seed", One),
            ("--method", One),
            ("--assignment", One),
            ("--top", One),
            ("--svg", One),
            ("--compare", One),
            ("--format", One),
        ],
        positionals: 0,
        run: run_explain,
    },
    Subcommand {
        name: "history",
        about: "ledger verdicts, changepoints and the regression gate",
        usage: HISTORY_USAGE,
        flags: &[
            ("--case", One),
            ("--detect", Switch),
            ("--detect-pct", One),
            ("--gate-detect", Switch),
            ("--format", One),
        ],
        positionals: 1,
        run: run_history,
    },
    Subcommand {
        name: "dash",
        about: "render the observability dashboard (HTML, --format json index)",
        usage: DASH_USAGE,
        flags: &[
            ("--bench-dir", One),
            ("--history", One),
            ("--trace", One),
            ("--artifacts", One),
            ("--out", One),
            ("--detect-pct", One),
            ("--format", One),
        ],
        positionals: 0,
        run: run_dash,
    },
];

/// Runs the command `args[0]` names, from `flow` or [`SUBCOMMANDS`],
/// on the rest of `args` and returns its exit code. When `args` is
/// empty or starts with an option, `flow`'s first entry — the default
/// command, so `flow` must not be empty — takes them all; `help`,
/// `--help` and `-h` list the commands.
pub fn dispatch(args: &[String], flow: &[Subcommand]) -> i32 {
    let commands = || flow.iter().chain(&SUBCOMMANDS);
    match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            print!("{}", usage(commands()));
            0
        }
        Some(name) if !name.starts_with('-') => match commands().find(|cmd| cmd.name == name) {
            Some(cmd) => execute(cmd, &args[1..]),
            None => {
                eprintln!("error: unknown command `{name}`\n\n{}", usage(commands()));
                2
            }
        },
        _ => execute(&flow[0], args),
    }
}

/// The command list of `tsv3d help`.
fn usage<'a>(commands: impl Iterator<Item = &'a Subcommand>) -> String {
    let mut out = String::from("Usage: tsv3d <command> [options]\n\nCommands:\n");
    for cmd in commands {
        out += &format!("  {:<9} {}\n", cmd.name, cmd.about);
    }
    out + "  help      print this usage summary\n\n\
           Every command prints its options for `tsv3d <command> --help`;\n\
           `tsv3d bench --list` lists the benchmark cases.\n"
}

/// Runs the one command of a single-command binary on the process
/// arguments and exits with its code.
pub fn main(cmd: &Subcommand) -> ! {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(execute(cmd, &args))
}

/// Runs `cmd` on `tail` and maps the outcome to its exit code.
fn execute(cmd: &Subcommand, tail: &[String]) -> i32 {
    let outcome = Args::parse(cmd, tail).and_then(|parsed| match parsed {
        Some(parsed) => (cmd.run)(&parsed),
        None => {
            print!("{}", cmd.usage);
            Ok(0)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(Fail::Usage(message)) => {
            eprintln!("error: {message}\n{}", cmd.usage);
            2
        }
        Err(Fail::Runtime(message)) => {
            eprintln!("error: {message}");
            1
        }
    }
}

/// A command's parsed argument tail.
#[derive(Debug)]
pub struct Args {
    /// Flags with their value (none for a switch) in command-line
    /// order; for a repeated flag the last occurrence wins.
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `tail` against `cmd`'s flag table; `Ok(None)` when
    /// `--help`/`-h` asks for the usage text instead.
    pub fn parse(cmd: &Subcommand, tail: &[String]) -> Result<Option<Self>, Fail> {
        let mut args = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = tail.iter();
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with('-') {
                if args.positionals.len() == cmd.positionals {
                    return Err(Fail::Usage(format!("unexpected argument `{arg}`")));
                }
                args.positionals.push(arg.clone());
                continue;
            }
            let Some(&(flag, arity)) = cmd.flags.iter().find(|(name, _)| *name == arg.as_str())
            else {
                return Err(Fail::Usage(format!("unknown {} option `{arg}`", cmd.name)));
            };
            let value = match arity {
                Switch => None,
                One => match rest.next() {
                    Some(value) => Some(value.clone()),
                    None => return Err(Fail::Usage(format!("missing value for {flag}"))),
                },
            };
            args.flags.push((flag, value));
        }
        Ok(Some(args))
    }

    /// The value of the last occurrence of `flag`.
    fn last(&self, flag: &str) -> Option<&Option<String>> {
        self.flags
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| value)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.last(flag).is_some()
    }

    /// The value of the one-value `flag`.
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.last(flag)?.as_deref()
    }

    /// The value of `flag` as a path.
    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.str(flag).map(PathBuf::from)
    }

    /// The value of `flag` as a path, `default` when absent.
    fn path_or(&self, flag: &str, default: &str) -> PathBuf {
        self.path(flag).unwrap_or_else(|| PathBuf::from(default))
    }

    /// The positional argument, when given.
    fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// The value of `flag` through `parse`, whose error is a usage
    /// error.
    pub fn parse_with<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, Fail> {
        self.str(flag).map(parse).transpose().map_err(Fail::Usage)
    }

    /// The value of `flag` parsed with [`FromStr`].
    fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Fail>
    where
        T::Err: Display,
    {
        self.parse_with(flag, |v| v.parse().map_err(|e| format!("{flag}: {e}")))
    }

    /// The value of `flag` as a non-negative, finite percentage.
    fn pct(&self, flag: &str) -> Result<Option<f64>, Fail> {
        match self.value::<f64>(flag)? {
            Some(pct) if !pct.is_finite() || pct < 0.0 => Err(Fail::Usage(format!(
                "{flag} must be a non-negative percentage"
            ))),
            pct => Ok(pct),
        }
    }

    /// The value of `flag` as an integer of at least 1.
    fn positive<T: FromStr + Default + PartialEq>(&self, flag: &str) -> Result<Option<T>, Fail>
    where
        T::Err: Display,
    {
        match self.value::<T>(flag)? {
            Some(n) if n == T::default() => Err(Fail::Usage(format!("{flag} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// The problem spec: `defaults` overridden by `--rows`, `--cols`,
    /// `--geometry`, `--stream`, `--cycles` and `--seed`. A stream needs
    /// two words for one transition, so `--cycles` is at least 2.
    pub fn spec(&self, defaults: ExplainSpec) -> Result<ExplainSpec, Fail> {
        let cycles = match self.value("--cycles")? {
            Some(n) if n < 2 => return Err(Fail::Usage("--cycles must be at least 2".into())),
            n => n.unwrap_or(defaults.cycles),
        };
        Ok(ExplainSpec {
            rows: self.positive("--rows")?.unwrap_or(defaults.rows),
            cols: self.positive("--cols")?.unwrap_or(defaults.cols),
            geometry: self
                .parse_with("--geometry", GeometryKind::parse)?
                .unwrap_or(defaults.geometry),
            stream: self
                .parse_with("--stream", StreamSpec::parse)?
                .unwrap_or(defaults.stream),
            cycles,
            seed: self.value("--seed")?.unwrap_or(defaults.seed),
        })
    }

    /// The `--method` (default `anneal`).
    pub fn method(&self) -> Result<Method, Fail> {
        Ok(self
            .parse_with("--method", Method::parse)?
            .unwrap_or(Method::Anneal))
    }

    /// Whether `--format json` was asked for (`text` is the default).
    fn json_format(&self) -> Result<bool, Fail> {
        match self.str("--format") {
            None | Some("text") => Ok(false),
            Some("json") => Ok(true),
            Some(other) => Err(Fail::Usage(format!(
                "--format must be `json` or `text`, got `{other}`"
            ))),
        }
    }
}

/// Reads `path` to a string.
fn read(path: &Path) -> Result<String, Fail> {
    std::fs::read_to_string(path)
        .map_err(|e| Fail::Runtime(format!("cannot read `{}`: {e}", path.display())))
}

/// Writes `contents` to `path`.
fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), Fail> {
    std::fs::write(path, contents)
        .map_err(|e| Fail::Runtime(format!("cannot write `{}`: {e}", path.display())))
}

/// Creates `dir` and its missing parents; an empty path is the current
/// directory and needs nothing.
fn create_dir(dir: &Path) -> Result<(), Fail> {
    if dir.as_os_str().is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| Fail::Runtime(format!("cannot create `{}`: {e}", dir.display())))
}

/// Reads and analyses a telemetry JSON-lines trace. The skipped-line
/// count rides inside every output format too, but a degraded trace
/// deserves a warning that survives `| jq`.
fn read_trace(path: &str) -> Result<trace::TraceSummary, Fail> {
    let summary = trace::analyze_text(&read(Path::new(path))?);
    if summary.skipped > 0 {
        eprintln!(
            "warning: {} of {} line(s) skipped as malformed in `{path}`",
            summary.skipped, summary.lines
        );
    }
    Ok(summary)
}

/// Runs `tsv3d bench`.
fn run_bench(args: &Args) -> Result<i32, Fail> {
    let mut options = if args.switch("--quick") {
        BenchOptions::quick()
    } else {
        BenchOptions::default()
    };
    options.iters = args.positive("--iters")?.unwrap_or(options.iters);
    options.warmup_iters = args.value("--warmup")?.unwrap_or(options.warmup_iters);
    let config = registry::BenchConfig {
        threads: args
            .value("--threads")?
            .unwrap_or(registry::BenchConfig::default().threads),
    };
    let out_dir = args.path_or("--out-dir", "results/bench");
    let ledger_path =
        (!args.switch("--no-history")).then(|| args.path_or("--history", "results/history.jsonl"));
    let trace_path = args.path("--trace");
    let case_filter = args.str("--case");
    let cases: Vec<_> = registry::cases()
        .into_iter()
        .filter(|c| case_filter.is_none_or(|f| c.name.contains(f)))
        .collect();
    if args.switch("--list") {
        for case in &cases {
            println!("{:<32} [{}] {}", case.name, case.area, case.about);
        }
        return Ok(0);
    }
    if cases.is_empty() {
        return Err(Fail::Usage(format!(
            "no case matches `{}` (try `tsv3d bench --list`)",
            case_filter.unwrap_or("")
        )));
    }
    create_dir(&out_dir)?;

    // One shared JSONL sink across the cases' timed-loop handles; the
    // Arc delegation in tsv3d-telemetry lets each case get a fresh
    // handle (clean counters) writing to the same file.
    let trace_sink = trace_path
        .as_ref()
        .map(|path| {
            JsonLinesSink::create(path)
                .map(std::sync::Arc::new)
                .map_err(|e| Fail::Runtime(format!("cannot create `{}`: {e}", path.display())))
        })
        .transpose()?;
    if trace_sink.is_some() && cases.len() > 1 {
        eprintln!(
            "warning: --trace with {} cases interleaves their restart labels \
             in one file; prefer a single --case for `tsv3d trace`",
            cases.len()
        );
    }

    println!(
        "tsv3d bench: {} case(s), {} warmup + {} timed iteration(s) each, \
         --threads {}",
        cases.len(),
        options.warmup_iters,
        options.iters,
        config.threads
    );
    let mut reports = Vec::with_capacity(cases.len());
    for case in &cases {
        let mut body = (case.setup)(&config);
        let measurement = match &trace_sink {
            Some(sink) => {
                let tel = TelemetryHandle::with_sink(Box::new(std::sync::Arc::clone(sink)));
                tel.event(
                    "bench.case",
                    &[
                        ("case", Value::Str(case.name.to_string())),
                        ("threads", Value::U64(config.threads as u64)),
                    ],
                );
                measure_with_handle(case.name, case.area, options, &mut *body, tel)
            }
            None => measure(case.name, case.area, options, &mut *body),
        };
        let report = BenchReport::stamp(measurement, config.threads as u64);
        match &report.measurement.mem {
            Some(mem) => println!(
                "  {:<32} median {:>12} ns   p95 {:>12} ns   mem {:>12} B/iter",
                report.measurement.case,
                report.measurement.wall.median_ns,
                report.measurement.wall.p95_ns,
                mem.median_iter_bytes
            ),
            None => println!(
                "  {:<32} median {:>12} ns   p95 {:>12} ns",
                report.measurement.case,
                report.measurement.wall.median_ns,
                report.measurement.wall.p95_ns
            ),
        }
        write(&out_dir.join(report.filename()), report.to_json() + "\n")?;
        reports.push(report);
    }
    println!(
        "wrote {} artifact(s) to {}",
        reports.len(),
        out_dir.display()
    );
    if let (Some(sink), Some(path)) = (&trace_sink, &trace_path) {
        sink.flush();
        println!("wrote telemetry trace to {}", path.display());
    }

    if let Some(ledger_path) = &ledger_path {
        let records: Vec<history::HistoryRecord> = reports
            .iter()
            .map(|r| history::HistoryRecord {
                kind: "bench".to_string(),
                case: r.measurement.case.clone(),
                git_rev: r.git_rev.clone(),
                unix_time_s: r.unix_time_s,
                median_ns: r.measurement.wall.median_ns as f64,
                p95_ns: Some(r.measurement.wall.p95_ns as f64),
                alloc_bytes_per_iter: r
                    .measurement
                    .mem
                    .as_ref()
                    .map(|m| m.median_iter_bytes as f64),
                threads: r.threads,
                available_parallelism: r.available_parallelism,
            })
            .collect();
        // The ledger is trajectory bookkeeping, not the measurement:
        // an unwritable path degrades to a warning, never a failed run.
        match history::append(ledger_path, &records) {
            Ok(()) => println!(
                "appended {} record(s) to {}",
                records.len(),
                ledger_path.display()
            ),
            Err(message) => eprintln!(
                "warning: cannot append history to `{}`: {message}",
                ledger_path.display()
            ),
        }
    }

    Ok(0)
}

/// Runs `tsv3d trace`.
fn run_trace(args: &Args) -> Result<i32, Fail> {
    let by_mem = args.switch("--mem");
    let json_format = args.json_format()?;
    let Some(file) = args.positional() else {
        return Err(Fail::Usage("trace requires a .jsonl file".to_string()));
    };
    if let Some(base) = args.str("--compare") {
        if by_mem || args.str("--collapsed").is_some() || args.str("--svg").is_some() {
            return Err(Fail::Usage(
                "--compare takes no --mem, --collapsed or --svg".to_string(),
            ));
        }
        let cmp = trace::compare(&read_trace(base)?, &read_trace(file)?);
        if json_format {
            println!("{}", trace::render_compare_json(&cmp, base, file));
        } else {
            print!("{}", trace::render_compare(&cmp, base, file));
        }
        if cmp.spans.is_empty() && cmp.converge.is_none_or(|c| c.pairs.is_empty()) {
            return Err(Fail::Runtime(format!(
                "`{file}` and `{base}` share no span name and no restart label"
            )));
        }
        return Ok(0);
    }
    let summary = read_trace(file)?;
    if json_format {
        println!("{}", trace::render_json(&summary));
    } else {
        println!("file: {file}");
        print!("{}", trace::render_summary(&summary, by_mem));
    }
    if let Some(path) = args.path("--collapsed") {
        write(&path, trace::render_collapsed(&summary, by_mem))?;
        if !json_format {
            println!("\nwrote collapsed stacks to {}", path.display());
        }
    }
    if let Some(path) = args.path("--svg") {
        let weighting = if by_mem {
            flamegraph::Weighting::Bytes
        } else {
            flamegraph::Weighting::Time
        };
        write(&path, flamegraph::render_svg(&summary, weighting))?;
        if !json_format {
            println!("wrote flamegraph SVG to {}", path.display());
        }
    }
    Ok(0)
}

/// Runs `tsv3d explain`.
fn run_explain(args: &Args) -> Result<i32, Fail> {
    let spec = args.spec(ExplainSpec::default())?;
    let method = args.method()?;
    let top = args.positive("--top")?.unwrap_or(8);
    let json_format = args.json_format()?;
    let problem = spec.build_problem().map_err(Fail::Usage)?;
    let (name, assignment) = spec
        .resolve_assignment(&problem, method, args.str("--assignment"))
        .map_err(Fail::Usage)?;
    let report = explain::analyze(&spec, &problem, name, assignment);
    let cmp = match args.str("--compare") {
        Some(operand) => {
            let (base_name, base) = explain::load_compare_assignment(operand, problem.n())?;
            Some(explain::compare(&problem, &report, base_name, base))
        }
        None => None,
    };
    if json_format {
        println!("{}", explain::render_json(&report, top, cmp.as_ref()));
    } else {
        print!("{}", explain::render_text(&report, top));
        if let Some(cmp) = &cmp {
            println!();
            print!("{}", explain::render_compare_text(&report, cmp, top));
        }
    }
    if let Some(svg_path) = args.path("--svg") {
        write(&svg_path, explain::render_heatmap(&report))?;
        if !json_format {
            println!("wrote heatmap SVG to {}", svg_path.display());
        }
    }
    Ok(0)
}

/// Runs `tsv3d history`.
fn run_history(args: &Args) -> Result<i32, Fail> {
    let detect_pct = args.pct("--detect-pct")?;
    let gate_detect = args.switch("--gate-detect");
    let detect = !gate_detect && (args.switch("--detect") || detect_pct.is_some());
    let detect_pct = detect_pct.unwrap_or(analytics::DEFAULT_DETECT_PCT);
    let json_format = args.json_format()?;
    let path = Path::new(args.positional().unwrap_or("results/history.jsonl"));
    let mut ledger = history::parse_ledger(&read(path)?);
    if let Some(filter) = args.str("--case") {
        ledger.records.retain(|r| r.case.contains(filter));
    }
    if ledger.skipped > 0 {
        eprintln!(
            "warning: {} of {} ledger line(s) skipped as malformed",
            ledger.skipped, ledger.lines
        );
    }
    if !json_format {
        println!(
            "ledger: {} ({} record(s))",
            path.display(),
            ledger.records.len()
        );
    }
    let reports = if detect {
        analytics::detect(&ledger, detect_pct)
    } else {
        match analytics::gate(&ledger, detect_pct) {
            Ok(reports) => reports,
            Err(bad) => {
                // A corrupt row silently disabling the gate is worse
                // than a failing gate: the gate treats it as a usage
                // error, the plain view as a warning.
                eprintln!(
                    "{}: BAD-BASELINE: non-positive median_ns among the gated records of {}; \
                     fix or drop those ledger lines",
                    if gate_detect { "error" } else { "warning" },
                    bad.join(", ")
                );
                if gate_detect {
                    return Ok(2);
                }
                analytics::judge_newest(&ledger, detect_pct)
            }
        }
    };
    if json_format {
        println!("{}", analytics::render_json(&reports, &ledger, detect_pct));
    } else {
        if !detect {
            println!(
                "gate: each series' newest record vs. up to {} records before it",
                analytics::WINDOW_CAP
            );
        }
        print!("{}", analytics::render_table(&reports, detect_pct));
    }
    let regressed: Vec<String> = reports
        .iter()
        .filter(|r| r.regressed())
        .map(analytics::CaseVerdicts::label)
        .collect();
    if gate_detect && !regressed.is_empty() {
        return Err(Fail::Runtime(format!(
            "{} series' newest record is a regression changepoint: {}",
            regressed.len(),
            regressed.join(", ")
        )));
    }
    Ok(0)
}

/// Runs `tsv3d dash`.
fn run_dash(args: &Args) -> Result<i32, Fail> {
    let detect_pct = args
        .pct("--detect-pct")?
        .unwrap_or(analytics::DEFAULT_DETECT_PCT);
    let json_format = args.json_format()?;
    let bench_dir = args.path_or("--bench-dir", "results/bench");
    let artifacts_dir = args.path_or("--artifacts", "results");
    let out = args.path_or("--out", "results/dashboard.html");

    let mut sources = dash::DashSources {
        bench_dir: bench_dir.display().to_string(),
        ..dash::DashSources::default()
    };
    // Missing *default* inputs degrade to empty sections; an
    // explicitly-named file that cannot be read is an error.
    let scan = |what: &str, dir: &Path, keep: fn(&str) -> bool| {
        dash::collect_files(dir, keep).unwrap_or_else(|e| {
            eprintln!(
                "warning: cannot read {what} dir `{}`: {e}; {what} section will be empty",
                dir.display()
            );
            Vec::new()
        })
    };
    sources.bench_files = scan("bench", &bench_dir, dash::is_bench_artifact);
    match args.path("--history") {
        Some(path) => sources.history = Some((path.display().to_string(), read(&path)?)),
        None => {
            let path = "results/history.jsonl";
            if let Ok(text) = std::fs::read_to_string(path) {
                sources.history = Some((path.to_string(), text));
            }
        }
    }
    if let Some(path) = args.path("--trace") {
        sources.trace = Some((path.display().to_string(), read(&path)?));
    }
    sources.artifacts = scan("artifacts", &artifacts_dir, |name| name.ends_with(".txt"));

    let data = dash::build(&sources, detect_pct);
    let html = dash::render_html(&data);
    create_dir(out.parent().unwrap_or(Path::new("")))?;
    write(&out, &html)?;
    if json_format {
        print!("{}", dash::render_json(&data));
    } else {
        println!("wrote {} ({} bytes)", out.display(), html.len());
        println!(
            "bench: {} artifact(s), {} skipped; ledger: {} record(s), {} line(s) skipped; regressed: {}",
            data.bench.len(),
            data.bench_skipped.len(),
            data.ledger.records.len(),
            data.ledger.skipped,
            data.verdicts.iter().filter(|v| v.regressed()).count()
        );
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `tsv3d <cmd> <tail…>` in-process and returns the exit code.
    fn run(cmd: &str, tail: &[&str]) -> i32 {
        let args: Vec<String> = std::iter::once(cmd)
            .chain(tail.iter().copied())
            .map(String::from)
            .collect();
        dispatch(&args, &[])
    }

    /// Parses `tail` against `cmd`'s flag table.
    fn parse(cmd: &str, tail: &[&str]) -> Result<Option<Args>, Fail> {
        let entry = SUBCOMMANDS
            .iter()
            .find(|entry| entry.name == cmd)
            .expect("a table entry");
        let tail: Vec<String> = tail.iter().map(|s| s.to_string()).collect();
        Args::parse(entry, &tail)
    }

    #[test]
    fn every_analysis_usage_advertises_the_format_flag() {
        // The --format json|text contract is part of every analysis
        // subcommand's surface; bench reports through its artifact
        // schema, so it is exempt.
        for cmd in SUBCOMMANDS.iter().filter(|c| c.name != "bench") {
            assert!(
                cmd.usage.contains("--format json|text"),
                "{} usage must advertise --format json|text",
                cmd.name
            );
            assert!(cmd.flags.contains(&("--format", One)), "{}", cmd.name);
        }
    }

    #[test]
    fn help_wins_and_positionals_are_bounded() {
        assert!(matches!(
            parse("explain", &["--top", "3", "--help"]),
            Ok(None)
        ));
        // A value that looks like help is still the flag's value.
        let parsed = parse("bench", &["--case", "-h"]).unwrap().unwrap();
        assert_eq!(parsed.str("--case"), Some("-h"));
        assert!(matches!(
            parse("explain", &["positional"]),
            Err(Fail::Usage(_))
        ));
        assert!(matches!(parse("trace", &["a", "b"]), Err(Fail::Usage(_))));
    }

    #[test]
    fn history_detect_flags_parse_and_gate() {
        let dir =
            std::env::temp_dir().join(format!("tsv3d_history_detect_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("ledger.jsonl");
        let mut lines = String::new();
        for (i, ns) in [500000u64, 505000, 495000, 502000, 1000000]
            .iter()
            .enumerate()
        {
            lines.push_str(&format!(
                "{{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
                 \"case\":\"jumpy\",\"git_rev\":\"rev{i}\",\"unix_time_s\":{},\
                 \"median_ns\":{ns},\"threads\":1}}\n",
                1000 + i
            ));
        }
        std::fs::write(&ledger, lines).unwrap();
        let path = ledger.to_str().unwrap();
        // Detect without the gate reports and exits 0 …
        assert_eq!(run("history", &[path, "--detect"]), 0);
        // … the gate turns the regression changepoint into exit 1 …
        assert_eq!(run("history", &[path, "--gate-detect"]), 1);
        // … and a sky-high threshold sees no changepoint at all.
        assert_eq!(
            run("history", &[path, "--gate-detect", "--detect-pct", "500"]),
            0
        );
        // Bad threshold values are usage errors.
        assert_eq!(run("history", &[path, "--detect-pct", "-3"]), 2);
        assert_eq!(run("history", &[path, "--detect-pct"]), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_arg_parsing_covers_the_surface() {
        let parsed = parse(
            "bench",
            &[
                "--quick",
                "--case",
                "gray",
                "--out-dir",
                "/tmp/x",
                "--threads",
                "2",
            ],
        )
        .unwrap()
        .unwrap();
        assert!(parsed.switch("--quick"));
        assert!(!parsed.switch("--list"));
        assert_eq!(parsed.str("--case"), Some("gray"));
        assert_eq!(parsed.path("--out-dir"), Some(PathBuf::from("/tmp/x")));
        assert_eq!(parsed.value::<usize>("--threads").unwrap(), Some(2));
    }

    #[test]
    fn bench_threads_defaults_and_accepts_auto() {
        let parsed = parse("bench", &[]).unwrap().unwrap();
        assert_eq!(parsed.value::<usize>("--threads").unwrap(), None);
        // `bench --threads 0` means one worker per CPU.
        assert_eq!(run("bench", &["--list", "--threads", "0"]), 0);
    }

    #[test]
    fn bench_rejects_bad_args() {
        for bad in [
            vec!["--iters"],
            vec!["--iters", "0"],
            // The baseline gate's options are gone: the ledger gates.
            vec!["--gate", "5"],
            vec!["--threads"],
            vec!["--threads", "two"],
            vec!["--frobnicate"],
        ] {
            assert_eq!(run("bench", &bad), 2, "{bad:?}");
        }
    }

    #[test]
    fn gated_run_against_a_zeroed_baseline_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("tsv3d_bench_cli_gate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("history.jsonl");
        let zeroed = "{\"schema\":\"tsv3d-history/v1\",\"kind\":\"bench\",\
                      \"case\":\"gray_encode_w16_4k\",\"git_rev\":\"r\",\
                      \"unix_time_s\":1,\"median_ns\":0,\"threads\":4}\n";
        std::fs::write(&ledger, zeroed.repeat(5)).unwrap();
        let out_dir = dir.join("out");
        let bench = [
            "--quick",
            "--warmup",
            "0",
            "--iters",
            "1",
            "--case",
            "gray_encode_w16_4k",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--history",
            ledger.to_str().unwrap(),
        ];
        assert_eq!(run("bench", &bench), 0);
        let path = ledger.to_str().unwrap();
        assert_eq!(
            run("history", &[path, "--gate-detect"]),
            2,
            "zeroed window must exit 2"
        );
        // Without the gate the same ledger is history only.
        assert_eq!(run("history", &[path, "--detect"]), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_history_flags_parse() {
        let dir =
            std::env::temp_dir().join(format!("tsv3d_bench_cli_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (out_dir, ledger, skipped) = (
            dir.join("out"),
            dir.join("h.jsonl"),
            dir.join("skipped.jsonl"),
        );
        let tiny = [
            "--warmup",
            "0",
            "--iters",
            "1",
            "--case",
            "gray_encode_w16_4k",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--history",
        ];
        let with = [&tiny[..], &[ledger.to_str().unwrap()]].concat();
        assert_eq!(run("bench", &with), 0);
        let text = std::fs::read_to_string(&ledger).expect("ledger appended");
        assert!(text.contains("\"case\":\"gray_encode_w16_4k\""), "{text}");
        // --no-history skips the append, wherever it sits.
        let without = [&tiny[..], &[skipped.to_str().unwrap(), "--no-history"]].concat();
        assert_eq!(run("bench", &without), 0);
        assert!(!skipped.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_usage_errors_return_2() {
        for bad in [
            vec!["--rows"],
            vec!["--rows", "0"],
            vec!["--cols", "three"],
            vec!["--geometry", "hex"],
            vec!["--stream", "noise"],
            vec!["--stream", "seq:2"],
            vec!["--method", "magic"],
            vec!["--format", "xml"],
            vec!["--assignment", "garbage"],
            vec!["--assignment", "0,1"],
            vec!["--frobnicate"],
            vec!["positional"],
        ] {
            assert_eq!(run("explain", &bad), 2, "{bad:?}");
        }
    }

    #[test]
    fn explain_quick_run_succeeds_and_svg_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("tsv3d_explain_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("heat.svg");
        let args = [
            "--rows",
            "3",
            "--cols",
            "3",
            "--cycles",
            "800",
            "--method",
            "greedy",
            "--compare",
            "identity",
            "--svg",
            svg.to_str().unwrap(),
        ];
        assert_eq!(run("explain", &args), 0);
        let first = std::fs::read(&svg).unwrap();
        assert_eq!(run("explain", &args), 0);
        assert_eq!(
            std::fs::read(&svg).unwrap(),
            first,
            "SVG must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_unreadable_compare_file_is_a_runtime_error() {
        let args = [
            "--rows",
            "2",
            "--cols",
            "2",
            "--cycles",
            "200",
            "--method",
            "identity",
            "--compare",
            "/nonexistent/tsv3d/assignment.json",
        ];
        assert_eq!(run("explain", &args), 1);
    }

    #[test]
    fn history_usage_errors_return_2() {
        for bad in [
            // The trend window is gone: even a valid count is refused.
            vec!["--window", "5"],
            vec!["--detect-pct"],
            vec!["--detect-pct", "-1"],
            vec!["--detect-pct", "inf"],
            vec!["--format", "xml"],
            vec!["--frobnicate"],
            vec!["a.jsonl", "b.jsonl"],
        ] {
            assert_eq!(run("history", &bad), 2, "{bad:?}");
        }
    }

    #[test]
    fn history_missing_file_returns_1() {
        assert_eq!(run("history", &["/nonexistent/never_history.jsonl"]), 1);
    }

    #[test]
    fn trace_usage_errors_return_2() {
        for bad in [
            vec![],
            vec!["--collapsed"],
            vec!["a.jsonl", "b.jsonl"],
            vec!["--format"],
            vec!["a.jsonl", "--format", "xml"],
        ] {
            assert_eq!(run("trace", &bad), 2, "{bad:?}");
        }
    }

    #[test]
    fn trace_missing_file_returns_1() {
        assert_eq!(run("trace", &["/nonexistent/definitely_missing.jsonl"]), 1);
    }

    #[test]
    fn bench_trace_flag_parses() {
        let parsed = parse("bench", &["--trace", "/tmp/t.jsonl"])
            .unwrap()
            .unwrap();
        assert_eq!(parsed.path("--trace"), Some(PathBuf::from("/tmp/t.jsonl")));
        let parsed = parse("bench", &[]).unwrap().unwrap();
        assert_eq!(parsed.path("--trace"), None);
        assert!(matches!(parse("bench", &["--trace"]), Err(Fail::Usage(_))));
    }

    #[test]
    fn converge_usage_errors_return_2() {
        // The convergence analysis lives in `trace`: the command, its
        // options and dash's flag are gone.
        assert_eq!(run("converge", &["a.jsonl"]), 2);
        assert_eq!(run("dash", &["--converge", "a.jsonl"]), 2);
        for bad in [
            vec!["a.jsonl", "--epsilon", "1"],
            vec!["a.jsonl", "--compare"],
            vec!["b.jsonl", "--compare", "a.jsonl", "--svg", "x.svg"],
            vec!["b.jsonl", "--compare", "a.jsonl", "--mem"],
        ] {
            assert_eq!(run("trace", &bad), 2, "{bad:?}");
        }
    }

    #[test]
    fn converge_missing_file_returns_1() {
        let missing = "/nonexistent/never_converge.jsonl";
        assert_eq!(run("trace", &[missing, "--compare", missing]), 1);
    }

    #[test]
    fn converge_trace_without_epochs_returns_1() {
        // Without epochs a trace is still a span trace, but two that
        // share no span name and no restart label compare nothing.
        let dir = std::env::temp_dir().join(format!("tsv3d_cli_spans_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (x, y) = (dir.join("x.jsonl"), dir.join("y.jsonl"));
        for (path, name) in [(&x, "x"), (&y, "y")] {
            let line = format!(
                "{{\"t\":1.0,\"event\":\"span\",\"name\":\"{name}\",\
                                \"seconds\":0.5}}"
            );
            std::fs::write(path, line).unwrap();
        }
        let (x, y) = (x.to_str().unwrap(), y.to_str().unwrap());
        assert_eq!(run("trace", &[x]), 0);
        assert_eq!(run("trace", &[x, "--compare", x]), 0);
        assert_eq!(run("trace", &[y, "--compare", x]), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn converge_analyzes_and_compares_a_real_epoch_trace() {
        let dir = std::env::temp_dir().join(format!("tsv3d_cli_epochs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epochs.jsonl");
        let mut text = String::new();
        for (iteration, best) in [(10u64, 100.0), (20, 60.0), (30, 59.9)] {
            text.push_str(&format!(
                "{{\"t\":0.1,\"event\":\"anneal.epoch\",\"restart\":0,\
                 \"iteration\":{iteration},\"best_power\":{best},\
                 \"accept_rate\":0.5,\"thread\":\"r0\"}}\n"
            ));
        }
        std::fs::write(&path, &text).unwrap();
        let file = path.to_str().unwrap();
        assert_eq!(run("trace", &[file]), 0);
        assert_eq!(
            run("trace", &[file, "--compare", file, "--format", "json"]),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
