//! The repository's benchmark: four seeded paper pipelines, timed end
//! to end with tracing off and per layer in a traced run.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/examples/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--format table|json]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is the result object. Without it, every
//! workload runs in a child process of its own, so that `peak_rss_mb`
//! is per workload. Exit code 0 means every job passed its checks, 1
//! that one failed, 2 a usage error. See `README.md` beside this file.

mod measure;
mod report;
mod workloads;

use measure::Options;
use report::Report;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload fig2_seq|fig3_gauss|exact_2x4|fig6_circuit] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--format table|json]";

/// The repository root, four directories above this package.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../..");

/// Command-line arguments.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    json: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        json: false,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--format" => {
                parsed.json = match value()?.as_str() {
                    "table" => false,
                    "json" => true,
                    other => return Err(format!("--format takes table or json, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let measurement = match measure::run(&options) {
        Ok(m) => m,
        Err(message) => {
            eprintln!("error: {}: {message}", workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some(trace) = &measurement.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace")
            .join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&path, &trace.text));
        match written {
            Ok(()) => eprintln!(
                "trace: {} ({} lines, {} skipped); roll it up with `tsv3d trace {}`",
                path.display(),
                trace.summary.lines,
                trace.summary.skipped,
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let report = Report::new(options, &measurement, git_rev());
    if args.json {
        println!("{}", report.json_document());
    } else {
        print!("{}", report.table());
        println!("{}", report.result_line());
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating the benchmark executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut common = vec![
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(args.trace).to_string(),
        "--format".to_string(),
        if args.json { "json" } else { "table" }.to_string(),
    ];
    if args.smoke {
        common.push("--smoke".to_string());
    }
    let mut all_ok = true;
    let mut documents = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name()]).args(&common);
        if !args.json {
            child.stdout(Stdio::inherit());
        }
        let ok = match child.stderr(Stdio::inherit()).output() {
            Ok(output) => {
                if args.json {
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    documents.push(stdout.lines().last().unwrap_or("null").to_string());
                }
                output.status.success()
            }
            Err(e) => {
                eprintln!("error: running {}: {e}", workload.name());
                false
            }
        };
        if !ok {
            eprintln!("{}: FAILED", workload.name());
        }
        all_ok &= ok;
    }
    if args.json {
        println!("{{\"runs\":[{}]}}", documents.join(","));
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `git rev-parse HEAD` of the checkout the benchmark was built in, or
/// `unknown` (for example in an export without `.git`). Git is kept from
/// searching above the checkout.
fn git_rev() -> String {
    let Ok(root) = Path::new(REPO_ROOT).canonicalize() else {
        return "unknown".to_string();
    };
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
