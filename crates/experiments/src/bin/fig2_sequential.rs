//! Regenerates the paper's Fig. 2: power reduction of the optimal and
//! Spiral assignments for sequential streams vs. branch probability.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::fig2::{self, Fig2Array};
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: fig2_sequential [--quick] [--csv]

  --quick    8 000 cycles instead of 30 000, short anneal
  --csv      also write results/fig2_4x4.csv and results/fig2_5x5.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "fig2_sequential", about: "Fig. 2: sequential streams", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("fig2_sequential");
    let quick = args.switch("--quick");
    let cycles = if quick { 8_000 } else { 30_000 };
    println!("Fig. 2 — sequential data streams ({} cycles, reference: worst-case random assignment)\n", cycles);
    for array in Fig2Array::all() {
        let mut table = TextTable::new(
            array.label(),
            &[
                "P_red optimal [%]",
                "P_red Spiral [%]",
                "self [%]",
                "adj [%]",
                "diag [%]",
                "dist [%]",
            ],
        );
        let sweep = {
            let _span = tel.span("fig2.sweep");
            fig2::sweep(array, cycles, quick)
        };
        for p in sweep {
            table.row(
                &format!("branch p = {:>7.4}", p.branch_probability),
                &[
                    p.reduction_optimal,
                    p.reduction_spiral,
                    p.self_share,
                    p.adjacent_share,
                    p.diagonal_share,
                    p.distant_share,
                ],
            );
        }
        println!("{}", table.render_timed(&tel));
        let csv_name = format!("fig2_{}", array.label().split_whitespace().next().unwrap_or("array"));
        if args.switch("--csv") {
            println!("(csv written to {})", table::write_csv(&table, &csv_name)?.display());
        }
    }
    println!("Paper shape: optimal ≈ Spiral across the sweep; the reduction shrinks as the");
    println!("branch probability approaches 1 (uncorrelated data leaves nothing to exploit).");
    println!("The self/adj/diag/dist columns attribute the optimal assignment's power to");
    println!("the fixed self terms and the neighbor-class coupling pairs (`tsv3d explain`).");
    obs::finish(&tel);
    Ok(0)
}
