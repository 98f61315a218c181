//! Process-variation robustness of the fixed bit-to-TSV assignment:
//! Monte-Carlo perturbation of the capacitance model, comparing the
//! design-time assignment against per-instance re-optimisation.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};
use tsv3d_experiments::variation;

const USAGE: &str = "\
Usage: tab_variation [--quick] [--csv]

  --quick    6 instances and 8 000 cycles instead of 20 and 20 000, short anneal
  --csv      also write results/tab_variation.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_variation", about: "process-variation robustness", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_variation");
    let quick = args.switch("--quick");
    let instances = if quick { 6 } else { 20 };
    println!("Process-variation robustness — 4x4 r=1um d=4um, sequential stream");
    println!("({instances} Monte-Carlo instances per sigma, reductions vs mean random)\n");
    let mut t = TextTable::new(
        "cap jitter (1 sigma)",
        &["nominal assign. [%]", "re-optimized [%]", "worst nominal [%]"],
    );
    for sigma in [0.05, 0.10, 0.20] {
        let s = {
            let _span = tel.span("tab.variation");
            variation::study(sigma, instances, quick)
        };
        t.row(
            &format!("{:.0} %", sigma * 100.0),
            &[
                s.nominal_reduction,
                s.reoptimized_reduction,
                s.worst_nominal_reduction,
            ],
        );
    }
    println!("{}", t.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&t, "tab_variation")?.display());
    }
    println!("Reading: the design-time assignment is robust — it keeps nearly the whole");
    println!("gain under realistic capacitance jitter, so no per-die tuning is needed.");
    obs::finish(&tel);
    Ok(0)
}
