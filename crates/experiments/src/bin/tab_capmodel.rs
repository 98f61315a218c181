//! Validates the capacitance-model claims of the paper's Secs. 2–4:
//! linearity of C(p), the MOS-effect magnitude, and the structural
//! heterogeneity of the array capacitances.

use tsv3d_bench::cli::{self, Args, Fail, Subcommand};
use tsv3d_experiments::obs;
use tsv3d_experiments::table::TextTable;
use tsv3d_experiments::tables;
use tsv3d_model::TsvGeometry;

const USAGE: &str = "\
Usage: tab_capmodel

Prints the Secs. 2-4 capacitance-model checks; takes no options.
";

fn main() {
    cli::main(&Subcommand {
        name: "tab_capmodel", about: "Secs. 2-4: capacitance-model checks", usage: USAGE,
        flags: &[], positionals: 0, run,
    })
}

fn run(_: &Args) -> Result<i32, Fail> {
    let tel = obs::for_binary("tab_capmodel");
    println!("Secs. 2-4 — capacitance-model validation (4x4 arrays)\n");
    let mut table = TextTable::new(
        "quantity",
        &["r=1um d=4um", "r=2um d=8um", "paper/ref"],
    );
    let (a, b) = {
        let _span = tel.span("tab.capmodel");
        (
            tables::cap_model_checks(TsvGeometry::itrs_2018_min()),
            tables::cap_model_checks(TsvGeometry::wide_2018()),
        )
    };
    table.row(
        "linear C(p) fit NRMSE [%]",
        &[a.linear_nrmse * 100.0, b.linear_nrmse * 100.0, 2.0],
    );
    table.row(
        "MOS-effect cap reduction p:0->1 [%]",
        &[a.mos_reduction * 100.0, b.mos_reduction * 100.0, 40.0],
    );
    table.row(
        "corner/middle total capacitance",
        &[a.corner_to_middle_total, b.corner_to_middle_total, 1.0],
    );
    table.row(
        "direct/diagonal coupling",
        &[a.direct_to_diagonal, b.direct_to_diagonal, 1.0],
    );
    println!("{}", table.render_timed(&tel));
    println!("Expected structure: NRMSE small (near-linear C(p)); sizeable MOS reduction");
    println!("(up to ~40 % for the minimum geometry); corner totals below middle totals");
    println!("(< 1.0); direct couplings clearly above diagonal ones (> 1.0).");
    obs::finish(&tel);
    Ok(0)
}
