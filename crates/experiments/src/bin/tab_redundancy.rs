//! Redundant-via repair study: power of the healthy optimised link vs.
//! the naive repair (failed bit swapped onto the spare via) vs. a
//! repair-aware re-optimisation with the dead via pinned.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::redundancy;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: tab_redundancy [--quick] [--csv]

  --quick    short anneal
  --csv      also write results/tab_redundancy.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_redundancy", about: "redundant-via repair", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_redundancy");
    let quick = args.switch("--quick");
    println!("Redundant-via repair — RGB mux + spare on 3x3, r=1um d=4um\n");
    let mut t = TextTable::new(
        "failed via",
        &["healthy", "naive repair", "re-optimized", "naive +%", "reopt gain %"],
    );
    let sweep = {
        let _span = tel.span("tab.redundancy");
        redundancy::sweep(quick)
    };
    for s in sweep {
        t.row(
            &format!("via {} ({})", s.failed_via, match s.failed_via {
                0 | 2 | 6 | 8 => "corner",
                4 => "middle",
                _ => "edge",
            }),
            &[
                s.healthy_power * 1e15,
                s.naive_repair_power * 1e15,
                s.reoptimized_power * 1e15,
                s.naive_penalty(),
                s.reoptimization_gain(),
            ],
        );
    }
    println!("{}", t.render_timed(&tel));
    println!("(powers in fF of normalised switched capacitance)");
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&t, "tab_redundancy")?.display());
    }
    println!("\nReading: a via failure costs a few percent through the forced spare");
    println!("placement; re-optimising with the dead via pinned to the spare line");
    println!("recovers most of it — the repair should re-run the assignment, not");
    println!("just patch the routing.");
    obs::finish(&tel);
    Ok(0)
}
