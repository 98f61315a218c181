//! Regenerates the paper's Fig. 4: power reduction for image-sensor
//! (3D vision-SoC) streams, with stable lines and geometry variants.

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::fig4;
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};
use tsv3d_stats::gen::ImageSensor;

const USAGE: &str = "\
Usage: fig4_image_sensor [--quick] [--csv]

  --quick    48x32 px frames instead of 96x64, short anneal
  --csv      also write results/fig4_image_sensor.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "fig4_image_sensor", about: "Fig. 4: image-sensor streams", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let quick = args.switch("--quick");
    let tel = obs::for_binary("fig4_image_sensor");
    let sensor = if quick {
        ImageSensor::new(48, 32)
    } else {
        ImageSensor::new(96, 64)
    };
    println!(
        "Fig. 4 — image sensor streams, {}x{} px, scenes: landscape/portrait/urban",
        sensor.width(),
        sensor.height()
    );
    println!("(reference: mean random assignment; \"+xS\" = x stable lines)\n");
    let mut table = TextTable::new(
        "scenario / geometry",
        &["P_red optimal [%]", "P_red Spiral [%]"],
    );
    let sweep = {
        let _span = tel.span("fig4.sweep");
        fig4::sweep(&sensor, quick)
    };
    for p in sweep {
        let geom = format!(
            "r={:.0}um d={:.0}um",
            p.geometry.radius * 1e6,
            p.geometry.pitch * 1e6
        );
        table.row(
            &format!("{:<16} {geom}", p.scenario.label()),
            &[p.reduction_optimal, p.reduction_spiral],
        );
    }
    println!("{}", table.render_timed(&tel));
    if args.switch("--csv") {
        println!("(csv written to {})", table::write_csv(&table, "fig4_image_sensor")?.display());
    }
    println!("Paper shape: Spiral nearly optimal without stable lines (11-13 % reduction, ~5 %");
    println!("for the multiplexed colours); with stable lines the optimal assignment gains a");
    println!("few extra percentage points by exploiting inversions and stable-line coupling.");
    Ok(0)
}
