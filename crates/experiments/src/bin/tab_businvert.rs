//! Studies a classical metal-wire low-power code (bus-invert) on TSVs:
//! the switching saving does not carry over one-to-one (the extra via
//! costs capacitance), and the bit-to-TSV assignment stacks additional
//! savings at zero cost (Secs. 1 and 6 context).

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::table::TextTable;
use tsv3d_experiments::tables;

const USAGE: &str = "\
Usage: tab_businvert [--quick]

  --quick    3 000 cycles instead of 20 000
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_businvert", about: "bus-invert on TSVs", usage: USAGE,
        flags: &[("--quick", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_businvert");
    let quick = args.switch("--quick");
    let cycles = if quick { 3_000 } else { 20_000 };
    println!("Bus-invert on TSVs — uniform 8 b data, r=1um d=4um, 3 GHz ({cycles} cycles)\n");
    let study = {
        let _span = tel.span("tab.businvert");
        tables::bus_invert_on_tsvs(cycles)
    };
    let mut table = TextTable::new("variant", &["power [mW @ 8b/cyc]", "Σ self-switching"]);
    table.row("plain 8b on 2x4", &[study.plain_mw, study.plain_switching]);
    table.row("bus-invert 9b on 3x3", &[study.coded_mw, study.coded_switching]);
    table.row(
        "bus-invert + opt. assignment",
        &[study.coded_assigned_mw, study.coded_switching],
    );
    println!("{}", table.render_timed(&tel));
    println!(
        "switching saved by the code: {:.1} %   TSV power saved by the code: {:.1} %",
        (1.0 - study.coded_switching / study.plain_switching) * 100.0,
        -study.coding_change_pct()
    );
    println!(
        "extra saving from the bit-to-TSV assignment (free): {:.1} %",
        study.assignment_gain_pct()
    );
    obs::finish(&tel);
    Ok(0)
}
