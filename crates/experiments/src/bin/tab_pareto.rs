//! Power vs. signal-integrity trade-off of the bit-to-TSV assignment:
//! sweeps the crosstalk weight in the combined objective and reports
//! both reductions vs. the random baseline.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::pareto;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: tab_pareto [--quick] [--csv]

  --quick    8 000 cycles instead of 20 000, short anneal
  --csv      also write results/tab_pareto.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_pareto", about: "power vs. signal-integrity trade-off", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_pareto");
    let quick = args.switch("--quick");
    let cycles = if quick { 8_000 } else { 20_000 };
    println!("Power/SI trade-off — Gaussian 16 b (rho = 0.4), 4x4 r=1um d=4um ({cycles} cycles)");
    println!("(objective: P + lambda * crosstalk_activity; reductions vs mean random)\n");
    let mut t = TextTable::new("lambda", &["P_red [%]", "X_red [%]"]);
    let sweep = {
        let _span = tel.span("tab.pareto");
        pareto::sweep(cycles, quick)
    };
    for p in sweep {
        t.row(
            &format!("{:4.1}", p.lambda),
            &[p.power_reduction, p.crosstalk_reduction],
        );
    }
    println!("{}", t.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&t, "tab_pareto")?.display());
    }
    println!("Reading: lambda = 0 is the paper's power-only optimum. The curve is nearly");
    println!("flat: for DSP-like data, power and crosstalk activity are *aligned*");
    println!("objectives (both penalise opposite transitions on strong couplings), so the");
    println!("power-optimal assignment is SI-friendly for free — no CAC overhead needed");
    println!("to avoid worsening crosstalk.");
    Ok(0)
}
