//! Crosstalk-avoidance coding vs. the bit-to-TSV assignment on 8-bit
//! random data (paper Sec. 1 context): the Fibonacci CAC improves
//! signal integrity at +50 % TSVs with no power win; the assignment
//! saves power at zero cost.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::crosstalk;
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: tab_crosstalk [--quick] [--csv]

  --quick    2 000 cycles instead of 20 000, short anneal
  --csv      also write results/tab_crosstalk.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_crosstalk", about: "crosstalk codes vs. the assignment", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_crosstalk");
    let quick = args.switch("--quick");
    let cycles = if quick { 2_000 } else { 20_000 };
    println!("Crosstalk study — uniform 8 b data, r=1um d=4um, 3 GHz ({cycles} cycles)\n");
    let mut table = TextTable::new(
        "variant",
        &["lines", "P [mW @8b/cyc]", "observed dV/Vdd", "worst-case dV/Vdd"],
    );
    let study = {
        let _span = tel.span("tab.crosstalk");
        crosstalk::study(cycles, quick)
    };
    for p in study {
        table.row(
            p.label,
            &[
                p.lines as f64,
                p.power_mw,
                p.observed_noise,
                p.worst_case_noise,
            ],
        );
    }
    println!("{}", table.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&table, "tab_crosstalk")?.display());
    }
    println!("Reading: the Fibonacci CAC's forbidden patterns protect 1-D wire adjacency,");
    println!("which does not map onto the 2-D TSV array — the observed victim noise stays");
    println!("in the same band while the 4 extra TSVs cost ~30 % power. The assignment");
    println!("reduces power on the original array with no SI penalty (paper Sec. 1).");
    Ok(0)
}
