//! Fixed assignment vs. per-phase reconfiguration on the nine-phase
//! sensor-sequential stream: quantifies what the paper's zero-overhead
//! (fixed-mapping) constraint costs.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::phases;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: tab_phases [--quick] [--csv]

  --quick    800 samples per phase instead of 3 900, short anneal
  --csv      also write results/tab_phases.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_phases", about: "fixed vs. per-phase assignment", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_phases");
    let quick = args.switch("--quick");
    let samples = if quick { 800 } else { 3_900 };
    println!("Phased workload study — Sensor Seq. (9 phases x {samples} cycles), 4x4 r=2um d=8um\n");
    let s = {
        let _span = tel.span("tab.phases");
        phases::study(samples, quick)
    };
    let mut t = TextTable::new("mapping", &["P_red vs random [%]"]);
    t.row("fixed (paper's setting)", &[s.fixed_reduction()]);
    t.row("re-optimized per phase", &[s.per_phase_reduction()]);
    println!("{}", t.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&t, "tab_phases")?.display());
    }
    println!(
        "reconfiguration headroom: {:.1} percentage points across {} phases",
        s.reconfiguration_headroom(),
        s.phases
    );
    println!("Reading: the fixed mapping keeps most of the reconfigurable upper bound,");
    println!("supporting the paper's zero-overhead design point.");
    Ok(0)
}
