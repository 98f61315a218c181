//! Geometry sensitivity of the assignment gain (paper Sec. 7 closing
//! claim): sweeps the via radius/pitch and reports the optimal and
//! Spiral reductions on a 4x4 array with a correlated sequential stream.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::geometry;
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: tab_geometry [--quick] [--csv]

  --quick    6 000 cycles instead of 30 000, short anneal
  --csv      also write results/tab_geometry.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_geometry", about: "geometry sensitivity of the reduction", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_geometry");
    let quick = args.switch("--quick");
    let cycles = if quick { 6_000 } else { 30_000 };
    println!("Geometry sweep — 4x4 array, sequential stream (branch p = 0.01), {cycles} cycles");
    println!("(reference: worst-case random assignment)\n");
    let mut table = TextTable::new("geometry", &["P_red optimal [%]", "P_red Spiral [%]"]);
    let sweep = {
        let _span = tel.span("tab.geometry");
        geometry::sweep(cycles, quick)
    };
    for p in sweep {
        table.row(
            &format!(
                "r = {:.1} um, d = {:4.1} um",
                p.geometry.radius * 1e6,
                p.geometry.pitch * 1e6
            ),
            &[p.reduction_optimal, p.reduction_spiral],
        );
    }
    println!("{}", table.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&table, "tab_geometry")?.display());
    }
    println!("Paper claim: thicker TSVs / wider pitches gain even more (up to 48 % quoted");
    println!("for r = 2 um, d = 8 um at circuit level).");
    obs::finish(&tel);
    Ok(0)
}
