//! Fig. 4 — power reduction for image-sensor (VSoC) streams, Sec. 5.1.
//!
//! Four readout scenarios are analysed, exactly as in the paper:
//!
//! 1. all four Bayer colours in parallel over a 32-bit (4×8) array;
//! 2. the same with four additional *stable* lines (enable, redundant,
//!    V_dd, GND) on a 6×6 array — supply lines must not be inverted;
//! 3. the colours multiplexed over a 3×3 array with an enable line;
//! 4. a grayscale sensor over a 3×3 array with an enable line.
//!
//! The default geometry is the minimum ITRS-2018 one (`r = 1 µm,
//! d = 4 µm`); the 3×3 and 6×6 scenarios are additionally analysed for
//! `r = 2 µm, d = 8 µm`. References are mean random assignments; the
//! Spiral assignment is the systematic candidate (pixel correlation ⇒
//! temporal pattern correlation).

use crate::common;
use tsv3d_core::{optimize, systematic, AssignmentProblem};
use tsv3d_model::TsvGeometry;
use tsv3d_stats::gen::ImageSensor;
use tsv3d_stats::BitStream;

/// The four readout scenarios of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Scenario {
    /// 32-bit parallel RGB over 4×8.
    RgbParallel,
    /// 32-bit parallel RGB + 4 stable lines over 6×6.
    RgbParallelStable,
    /// 8-bit multiplexed RGB + enable over 3×3.
    RgbMux,
    /// 8-bit grayscale + enable over 3×3.
    Grayscale,
}

impl Fig4Scenario {
    /// All scenarios in paper order.
    pub fn all() -> [Fig4Scenario; 4] {
        [
            Fig4Scenario::RgbParallel,
            Fig4Scenario::RgbParallelStable,
            Fig4Scenario::RgbMux,
            Fig4Scenario::Grayscale,
        ]
    }

    /// Array rows/cols.
    pub fn dims(self) -> (usize, usize) {
        match self {
            Fig4Scenario::RgbParallel => (4, 8),
            Fig4Scenario::RgbParallelStable => (6, 6),
            Fig4Scenario::RgbMux | Fig4Scenario::Grayscale => (3, 3),
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Fig4Scenario::RgbParallel => "RGB 4x8",
            Fig4Scenario::RgbParallelStable => "RGB 6x6 +4S",
            Fig4Scenario::RgbMux => "RGB Mux 3x3 +1S",
            Fig4Scenario::Grayscale => "Gray 3x3 +1S",
        }
    }

    /// Builds the scenario's line stream and the per-bit inversion
    /// permissions.
    ///
    /// Stable lines follow Sec. 5.1: enable and redundant lines rest at
    /// logical 0 and *may* be inverted; V_dd (1) and GND (0) must not.
    pub fn stream(self, sensor: &ImageSensor, seed: u64) -> (BitStream, Vec<bool>) {
        match self {
            Fig4Scenario::RgbParallel => {
                let s = sensor.rgb_parallel_stream(seed).expect("generation succeeds");
                let flags = vec![true; 32];
                (s, flags)
            }
            Fig4Scenario::RgbParallelStable => {
                let s = sensor
                    .rgb_parallel_stream(seed)
                    .expect("generation succeeds")
                    // EN = 0, RED = 0, VDD = 1, GND = 0.
                    .with_stable_lines(&[false, false, true, false])
                    .expect("36 lines fit");
                let mut flags = vec![true; 36];
                flags[34] = false; // VDD
                flags[35] = false; // GND
                (s, flags)
            }
            Fig4Scenario::RgbMux => {
                let s = sensor
                    .rgb_mux_stream(seed)
                    .expect("generation succeeds")
                    .with_stable_lines(&[false])
                    .expect("9 lines fit");
                (s, vec![true; 9])
            }
            Fig4Scenario::Grayscale => {
                let s = sensor
                    .grayscale_stream(seed)
                    .expect("generation succeeds")
                    .with_stable_lines(&[false])
                    .expect("9 lines fit");
                (s, vec![true; 9])
            }
        }
    }
}

/// One bar group of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Point {
    /// The scenario.
    pub scenario: Fig4Scenario,
    /// The via geometry used.
    pub geometry: TsvGeometry,
    /// Reduction of the optimal assignment vs. mean random, percent.
    pub reduction_optimal: f64,
    /// Reduction of the Spiral assignment, percent.
    pub reduction_spiral: f64,
}

/// Builds the scenario's [`AssignmentProblem`].
pub fn build_problem(
    scenario: Fig4Scenario,
    geometry: TsvGeometry,
    sensor: &ImageSensor,
    seed: u64,
) -> AssignmentProblem {
    let (rows, cols) = scenario.dims();
    let (stream, flags) = scenario.stream(sensor, seed);
    common::problem(&stream, common::cap_model(rows, cols, geometry))
        .with_invertible(flags)
        .expect("flag count matches")
}

/// Computes one Fig. 4 bar group.
pub fn point(scenario: Fig4Scenario, geometry: TsvGeometry, sensor: &ImageSensor, quick: bool) -> Fig4Point {
    let problem = build_problem(scenario, geometry, sensor, 0xF164);
    let opts = if quick {
        common::anneal_options_quick()
    } else {
        common::anneal_options()
    };
    let optimal = optimize::anneal(&problem, &opts).expect("non-empty budget").power;
    let spiral = problem.power(&systematic::spiral(&problem));
    let random = optimize::random_mean(&problem, 300, 0xF164).expect("non-empty budget");
    Fig4Point {
        scenario,
        geometry,
        reduction_optimal: common::reduction_pct(optimal, random),
        reduction_spiral: common::reduction_pct(spiral, random),
    }
}

/// The seven `(scenario, geometry)` bar groups of the figure: all
/// scenarios at the minimum ITRS geometry plus the 3×3/6×6 scenarios at
/// the wide geometry.
pub fn bar_groups() -> Vec<(Fig4Scenario, TsvGeometry)> {
    let mut groups: Vec<(Fig4Scenario, TsvGeometry)> = Fig4Scenario::all()
        .into_iter()
        .map(|s| (s, TsvGeometry::itrs_2018_min()))
        .collect();
    groups.extend(
        [
            Fig4Scenario::RgbParallelStable,
            Fig4Scenario::RgbMux,
            Fig4Scenario::Grayscale,
        ]
        .into_iter()
        .map(|s| (s, TsvGeometry::wide_2018())),
    );
    groups
}

/// The full figure.
pub fn sweep(sensor: &ImageSensor, quick: bool) -> Vec<Fig4Point> {
    bar_groups()
        .into_iter()
        .map(|(scenario, geometry)| point(scenario, geometry, sensor, quick))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor() -> ImageSensor {
        ImageSensor::new(48, 32)
    }

    #[test]
    fn spiral_gains_are_positive_for_correlated_streams() {
        let p = point(
            Fig4Scenario::RgbParallel,
            TsvGeometry::itrs_2018_min(),
            &sensor(),
            true,
        );
        assert!(p.reduction_spiral > 1.5, "{p:?}");
        assert!(p.reduction_optimal >= p.reduction_spiral - 1.0, "{p:?}");
    }

    #[test]
    fn multiplexing_destroys_the_spiral_advantage() {
        // Sec. 5.1: multiplexing loses the pixel correlation, so the
        // part of the reduction the Spiral mapping captures (temporal
        // correlation × total-capacitance spread) collapses. Compare
        // like-for-like by dropping the stable enable line from the mux
        // scenario (which is the one lever multiplexing leaves intact).
        let s = sensor();
        let par = point(Fig4Scenario::RgbParallel, TsvGeometry::itrs_2018_min(), &s, true);
        let mux_stream = s.rgb_mux_stream(0xF164).unwrap();
        let mux_problem = common::problem(
            &mux_stream,
            common::cap_model(2, 4, TsvGeometry::itrs_2018_min()),
        );
        let spiral = mux_problem.power(&tsv3d_core::systematic::spiral(&mux_problem));
        let random = optimize::random_mean(&mux_problem, 300, 0xF164).unwrap();
        let mux_spiral_red = common::reduction_pct(spiral, random);
        assert!(
            mux_spiral_red < par.reduction_spiral,
            "mux spiral {mux_spiral_red:.2} vs par spiral {:.2}",
            par.reduction_spiral
        );
    }

    #[test]
    fn stable_lines_increase_the_optimal_advantage() {
        // Sec. 5.1: "with stable lines, the power reduction due to an
        // optimal assignment is up to 2.5 percentage point higher" than
        // the spiral one (inversions + coupling of stable lines).
        let s = sensor();
        let p = point(
            Fig4Scenario::RgbParallelStable,
            TsvGeometry::itrs_2018_min(),
            &s,
            true,
        );
        assert!(
            p.reduction_optimal > p.reduction_spiral,
            "optimal must beat spiral with stable lines: {p:?}"
        );
    }

    #[test]
    fn supply_lines_never_inverted() {
        let s = sensor();
        let problem = build_problem(
            Fig4Scenario::RgbParallelStable,
            TsvGeometry::itrs_2018_min(),
            &s,
            1,
        );
        let best = optimize::anneal(&problem, &common::anneal_options_quick()).unwrap();
        assert!(!best.assignment.is_inverted(34));
        assert!(!best.assignment.is_inverted(35));
    }
}
