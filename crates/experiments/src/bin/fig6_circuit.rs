//! Regenerates the paper's Fig. 6: circuit-level TSV power (including
//! drivers and leakage, 3 GHz, r = 1 µm / d = 4 µm, scaled to an
//! effective 32 b per cycle) for six coded data streams, with and
//! without the optimal bit-to-TSV assignment.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::fig6;
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: fig6_circuit [--quick] [--csv]

  --quick    600 samples per axis instead of 3 900, short anneal
  --csv      also write results/fig6_circuit.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "fig6_circuit", about: "Fig. 6: circuit-level power with coding", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let quick = args.switch("--quick");
    let tel = obs::for_binary("fig6_circuit");
    let samples = if quick { 600 } else { 3_900 };
    println!(
        "Fig. 6 — circuit-level power, 3 GHz, r=1um d=4um, scaled to 32 b/cycle ({} samples/axis)\n",
        samples
    );
    let mut table = TextTable::new(
        "data stream",
        &["P plain [mW]", "P + opt. assignment [mW]", "reduction [%]"],
    );
    let points = {
        let _span = tel.span("fig6.sweep");
        fig6::sweep(samples, quick)
    };
    for p in &points {
        table.row(
            p.stream.label(),
            &[p.power_plain_mw, p.power_assigned_mw, p.reduction()],
        );
    }
    println!("{}", table.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&table, "fig6_circuit")?.display());
    }

    // The paper's cross-variant comparisons.
    let by = |k: fig6::Fig6Stream| {
        points
            .iter()
            .find(|p| p.stream == k)
            .expect("all variants computed")
    };
    let mux = by(fig6::Fig6Stream::SensorMux);
    let gray = by(fig6::Fig6Stream::SensorMuxGray);
    let rgb = by(fig6::Fig6Stream::RgbMuxRedundant);
    let corr = by(fig6::Fig6Stream::RgbMuxCorrelator);
    println!("Cross-variant comparisons (vs. the plain, unassigned stream of the group):");
    println!(
        "  sensor mux:  opt. assignment alone      {:6.1} %   (paper: 18.3 %)",
        mux.reduction()
    );
    println!(
        "  sensor mux:  plain Gray                 {:6.1} %   (paper:  8.6 %)",
        (1.0 - gray.power_plain_mw / mux.power_plain_mw) * 100.0
    );
    println!(
        "  sensor mux:  Gray + opt. assignment     {:6.1} %   (paper: 21.7 %)",
        (1.0 - gray.power_assigned_mw / mux.power_plain_mw) * 100.0
    );
    println!(
        "  RGB mux:     opt. assignment alone      {:6.1} %   (paper:  6.8 %)",
        rgb.reduction()
    );
    println!(
        "  RGB mux:     plain correlator           {:6.1} %   (paper: 25.2 %)",
        (1.0 - corr.power_plain_mw / rgb.power_plain_mw) * 100.0
    );
    println!(
        "  RGB mux:     correlator + opt. assign.  {:6.1} %   (paper: 41.0 %)",
        (1.0 - corr.power_assigned_mw / rgb.power_plain_mw) * 100.0
    );
    Ok(0)
}
