//! Fig. 3 — power reduction for Gaussian-distributed 16-bit pattern
//! sets over a 4×4 array (`r = 2 µm, d = 8 µm`), plotted over the
//! standard deviation σ.
//!
//! Fig. 3.a uses temporally uncorrelated data (optimal vs. Sawtooth);
//! Figs. 3.b–3.e add temporal correlation ρ ∈ {−0.6, −0.3, +0.3, +0.6}
//! and additionally track the Spiral assignment. The reference is the
//! mean power over random assignments.

use crate::common;
use tsv3d_core::{optimize, systematic};
use tsv3d_model::TsvGeometry;
use tsv3d_stats::gen::GaussianSource;
use tsv3d_telemetry::{TelemetryHandle, Value};

/// One point of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Standard deviation of the patterns, LSBs.
    pub sigma: f64,
    /// Lag-1 temporal correlation of the patterns.
    pub rho: f64,
    /// Reduction of the optimal assignment vs. mean random, percent.
    pub reduction_optimal: f64,
    /// Reduction of the Sawtooth assignment, percent.
    pub reduction_sawtooth: f64,
    /// Reduction of the Spiral assignment, percent.
    pub reduction_spiral: f64,
}

/// The σ sweep of the figure (word width is 16 bit, full scale 32767).
pub const SIGMAS: [f64; 6] = [250.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0];

/// The temporal correlations of Fig. 3.a–3.e.
pub const RHOS: [f64; 5] = [0.0, -0.6, -0.3, 0.3, 0.6];

/// Computes one Fig. 3 point.
pub fn point(sigma: f64, rho: f64, cycles: usize, quick: bool) -> Fig3Point {
    point_with_telemetry(sigma, rho, cycles, quick, &TelemetryHandle::disabled())
}

/// [`point`] with instrumentation: the generation/optimisation/baseline
/// stages report spans on `tel` and the optimiser streams its per-epoch
/// telemetry. A traced point does the same work as an untraced one.
pub fn point_with_telemetry(
    sigma: f64,
    rho: f64,
    cycles: usize,
    quick: bool,
    tel: &TelemetryHandle,
) -> Fig3Point {
    let problem = {
        let _span = tel.span("flow.problem_build");
        let stream = GaussianSource::new(16, sigma)
            .with_correlation(rho)
            .generate(0xF1_63, cycles)
            .expect("generation succeeds");
        common::problem(&stream, common::cap_model(4, 4, TsvGeometry::wide_2018()))
    };
    let opts = if quick {
        common::anneal_options_quick()
    } else {
        common::anneal_options()
    };
    let optimal = {
        let _span = tel.span("flow.optimize");
        optimize::anneal_with_telemetry(&problem, &opts, tel)
            .expect("non-empty budget")
            .power
    };
    let (sawtooth, spiral) = {
        let _span = tel.span("flow.systematic");
        (
            problem.power(&systematic::sawtooth(&problem)),
            problem.power(&systematic::spiral(&problem)),
        )
    };
    let random = {
        let _span = tel.span("flow.random_baseline");
        optimize::random_mean(&problem, 300, 0xF1_63).expect("non-empty budget")
    };
    let p = Fig3Point {
        sigma,
        rho,
        reduction_optimal: common::reduction_pct(optimal, random),
        reduction_sawtooth: common::reduction_pct(sawtooth, random),
        reduction_spiral: common::reduction_pct(spiral, random),
    };
    if tel.is_enabled() {
        tel.event(
            "fig3.point",
            &[
                ("sigma", Value::from(sigma)),
                ("rho", Value::from(rho)),
                ("reduction_optimal_pct", Value::from(p.reduction_optimal)),
                ("reduction_sawtooth_pct", Value::from(p.reduction_sawtooth)),
                ("reduction_spiral_pct", Value::from(p.reduction_spiral)),
            ],
        );
    }
    p
}

/// The full σ sweep for one correlation setting.
pub fn sweep(rho: f64, cycles: usize, quick: bool) -> Vec<Fig3Point> {
    sweep_with_telemetry(rho, cycles, quick, &TelemetryHandle::disabled())
}

/// [`sweep`] with instrumentation (see [`point_with_telemetry`]).
pub fn sweep_with_telemetry(
    rho: f64,
    cycles: usize,
    quick: bool,
    tel: &TelemetryHandle,
) -> Vec<Fig3Point> {
    sweep_threaded(rho, cycles, quick, 1, tel)
}

/// [`sweep_with_telemetry`] with the σ points fanned over a scoped
/// work queue (`threads`: `0` = one worker per CPU, `1` = inline).
///
/// Every point is a pure function of its σ, so the results are
/// bit-identical for every thread count. When more than one worker
/// runs, each point's telemetry is stamped with a `fig3.s{index}`
/// thread label so `tsv3d trace` nests concurrent spans correctly;
/// a serial sweep emits exactly the unlabelled stream it always did.
pub fn sweep_threaded(
    rho: f64,
    cycles: usize,
    quick: bool,
    threads: usize,
    tel: &TelemetryHandle,
) -> Vec<Fig3Point> {
    let workers = crate::par::resolve_threads(threads).min(SIGMAS.len());
    crate::par::run_indexed(workers, SIGMAS.len(), |i| {
        if workers > 1 {
            let tel = tel.with_thread_label(&format!("fig3.s{i}"));
            point_with_telemetry(SIGMAS[i], rho, cycles, quick, &tel)
        } else {
            point_with_telemetry(SIGMAS[i], rho, cycles, quick, tel)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sawtooth_is_near_optimal_for_uncorrelated_data() {
        // Fig. 3.a headline: "the optimal nature of the Sawtooth
        // assignment for normally distributed, temporally uncorrelated
        // patterns".
        let p = point(1000.0, 0.0, 10_000, true);
        assert!(p.reduction_optimal > 0.0);
        assert!(
            p.reduction_optimal - p.reduction_sawtooth < 2.0,
            "{p:?}"
        );
    }

    #[test]
    fn negative_correlation_gives_the_biggest_gains() {
        // Figs. 3.b/3.c: "for negatively correlated … the Sawtooth
        // mapping leads to the lowest power consumption".
        let neg = point(1000.0, -0.6, 10_000, true);
        let pos = point(1000.0, 0.6, 10_000, true);
        assert!(neg.reduction_sawtooth > pos.reduction_sawtooth, "{neg:?} vs {pos:?}");
        assert!(neg.reduction_sawtooth > 0.0);
    }

    #[test]
    fn instrumented_point_is_identical() {
        let plain = point(1000.0, 0.0, 4_000, true);
        let tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
        let observed = point_with_telemetry(1000.0, 0.0, 4_000, true, &tel);
        assert_eq!(plain, observed);
        assert!(tel.counter_value("anneal.proposals").unwrap_or(0) > 0);
        for stage in [
            "flow.problem_build",
            "flow.optimize",
            "flow.systematic",
            "flow.random_baseline",
        ] {
            assert_eq!(tel.histogram(stage).map(|h| h.count()), Some(1), "{stage}");
        }
    }

    #[test]
    fn threaded_sweep_is_bit_identical_to_serial() {
        let serial = sweep(0.3, 1_500, true);
        for threads in [2, 0] {
            let par = sweep_threaded(
                0.3,
                1_500,
                true,
                threads,
                &TelemetryHandle::disabled(),
            );
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn sawtooth_beats_spiral_for_gaussian_data() {
        let p = point(1000.0, -0.3, 10_000, true);
        assert!(p.reduction_sawtooth > p.reduction_spiral, "{p:?}");
    }
}
