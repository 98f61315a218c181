//! Regenerates the paper's Fig. 3: power reduction for Gaussian 16-bit
//! pattern sets over a 4×4 array, vs. standard deviation, for five
//! temporal-correlation settings (3.a: ρ = 0; 3.b–3.e: ρ ≠ 0).

use tsv3d_bench::cli::{self, Args, Arity::Switch, Fail, Subcommand};
use tsv3d_experiments::fig3::{self, RHOS};
use tsv3d_experiments::obs;
use tsv3d_experiments::table::{self, TextTable};

const USAGE: &str = "\
Usage: fig3_gaussian [--quick] [--csv]

  --quick    10 000 cycles instead of 30 000, short anneal
  --csv      also write results/fig3_3.a.csv to results/fig3_3.e.csv
";

fn main() {
    cli::main(&Subcommand {
        name: "fig3_gaussian", about: "Fig. 3: Gaussian streams", usage: USAGE,
        flags: &[("--quick", Switch), ("--csv", Switch)], positionals: 0, run,
    })
}

fn run(args: &Args) -> Result<i32, Fail> {
    let quick = args.switch("--quick");
    let tel = obs::for_binary("fig3_gaussian");
    let cycles = if quick { 10_000 } else { 30_000 };
    println!(
        "Fig. 3 — Gaussian 16 b patterns, 4x4 array r=2um d=8um ({} cycles, reference: mean random assignment)\n",
        cycles
    );
    for (k, &rho) in RHOS.iter().enumerate() {
        let panel = format!("3.{}", (b'a' + k as u8) as char);
        let mut table = TextTable::new(
            &format!("Fig. {panel}  (rho = {rho:+.1})"),
            &["P_red optimal [%]", "P_red Sawtooth [%]", "P_red Spiral [%]"],
        );
        for p in fig3::sweep(rho, cycles, quick, &tel) {
            table.row(
                &format!("sigma = {:>7.0}", p.sigma),
                &[p.reduction_optimal, p.reduction_sawtooth, p.reduction_spiral],
            );
        }
        println!("{}", table.render_timed(&tel));
        if args.switch("--csv") {
            let path = table::write_csv(&table, &format!("fig3_{panel}"))?;
            println!("(csv written to {})", path.display());
        }
    }
    println!("Paper shape: Sawtooth ≈ optimal for rho <= 0 (biggest gains for negative rho);");
    println!("for positive rho neither systematic mapping reaches the optimum, but both beat");
    println!("poor assignments; gains shrink as sigma approaches full scale.");
    obs::finish(&tel);
    Ok(0)
}
