//! Reproduces the paper's Sec. 3 overhead analysis: the effect of the
//! local escape routing on the path parasitics, over *all* bit-to-TSV
//! assignments of a 3×3 array.

use tsv3d_bench::cli::{self, Args, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::table::TextTable;
use tsv3d_experiments::tables;

const USAGE: &str = "\
Usage: tab_overhead

Prints the Sec. 3 local-routing overhead table; takes no options.
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_overhead", about: "Sec. 3: routing overhead", usage: USAGE,
        flags: &[], positionals: 0, run,
    })
}

fn run(_: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_overhead");
    println!("Sec. 3 — local-routing overhead, 3x3 array, r=2um, minimum pitch 8um");
    println!("(all {} assignments, Manhattan escape-routing model)\n", 362_880);
    let stats = {
        let _span = tel.span("tab.overhead");
        tables::routing_overhead()
    };
    let mut table = TextTable::new("quantity", &["ours [%]", "paper [%]"]);
    table.row("worst-case parasitic increase", &[stats.max * 100.0, 0.4]);
    table.row("mean parasitic increase", &[stats.mean * 100.0, 0.2]);
    table.row("std of parasitic increase", &[stats.std * 100.0, 0.1]);
    println!("{}", table.render_timed(&tel));
    println!("Claim reproduced: the local bit-to-TSV reassignment is negligible against the");
    println!("TSV-dominated path parasitics (all numbers well below a few percent).");
    obs::finish(&tel);
    Ok(0)
}
