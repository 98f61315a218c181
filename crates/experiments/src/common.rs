//! Shared plumbing for all experiments.

use tsv3d_core::{optimize, AssignmentProblem, SignedPerm};
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::{BitStream, SwitchingStats};

/// Assembles the linear capacitance model of a `rows × cols` array.
///
/// # Panics
///
/// Panics on invalid geometry (experiment configurations are static, so
/// a failure is a programming error).
pub fn cap_model(rows: usize, cols: usize, geometry: TsvGeometry) -> LinearCapModel {
    let array = TsvArray::new(rows, cols, geometry).expect("experiment geometry is valid");
    LinearCapModel::fit(&Extractor::new(array)).expect("extraction of a valid array succeeds")
}

/// Assembles an [`AssignmentProblem`] from a stream and a fitted model.
///
/// # Panics
///
/// Panics if the stream width differs from the model size.
pub fn problem(stream: &BitStream, cap: LinearCapModel) -> AssignmentProblem {
    AssignmentProblem::new(SwitchingStats::from_stream(stream), cap)
        .expect("stream width matches the experiment array")
}

/// Power reduction in percent of `candidate` versus `reference`.
///
/// # Examples
///
/// ```
/// let red = tsv3d_experiments::common::reduction_pct(0.9, 1.0);
/// assert!((red - 10.0).abs() < 1e-9);
/// ```
pub fn reduction_pct(candidate: f64, reference: f64) -> f64 {
    (1.0 - candidate / reference) * 100.0
}

/// Applies a bit-to-TSV assignment *physically* to a stream: the output
/// word's bit `j` (line `j`) carries the assigned data bit, inverted
/// where the assignment says so.
///
/// This is what the driver/coder hardware does; the circuit-level
/// experiments simulate the resulting line stream directly.
///
/// # Panics
///
/// Panics if the assignment size differs from the stream width.
///
/// # Examples
///
/// ```
/// use tsv3d_codec::apply_mask;
/// use tsv3d_core::SignedPerm;
/// use tsv3d_experiments::common::assign_stream;
/// use tsv3d_stats::BitStream;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s = BitStream::from_words(2, vec![0b01])?;
/// // Swap the two bits and invert bit 0 (now on line 1).
/// let a = SignedPerm::from_parts(vec![1, 0], vec![true, false])?;
/// let out = assign_stream(&s, &a);
/// // Line 0 = bit 1 = 0; line 1 = !bit 0 = 0.
/// assert_eq!(out.word(0), 0b00);
/// # Ok(())
/// # }
/// ```
pub fn assign_stream(stream: &BitStream, assignment: &SignedPerm) -> BitStream {
    assert_eq!(
        assignment.n(),
        stream.width(),
        "assignment size must match the stream width"
    );
    let n = stream.width();
    let mut words = Vec::with_capacity(stream.len());
    for w in stream.iter() {
        let mut out = 0u64;
        for line in 0..n {
            let bit = assignment.bit_of_line(line);
            let mut value = (w >> bit) & 1 == 1;
            if assignment.is_inverted(bit) {
                value = !value;
            }
            if value {
                out |= 1u64 << line;
            }
        }
        words.push(out);
    }
    BitStream::from_words(n, words).expect("assigned stream has the same width")
}

/// The default annealing budget used by every figure (more than enough
/// for bundles up to 6×6 and deterministic across runs).
pub fn anneal_options() -> optimize::AnnealOptions {
    optimize::AnnealOptions {
        iterations: 20_000,
        restarts: 3,
        seed: 0x7_5EED,
        threads: 1,
    }
}

/// A reduced annealing budget for quick runs and benches.
pub fn anneal_options_quick() -> optimize::AnnealOptions {
    optimize::AnnealOptions {
        iterations: 4_000,
        restarts: 2,
        seed: 0x7_5EED,
        threads: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_stream_round_trips_statistics() {
        // Assigning and evaluating the stream statistics directly must
        // agree with the problem's transformed power model.
        let stream = BitStream::from_words(
            4,
            vec![0b0001, 0b0110, 0b1011, 0b0010, 0b1111, 0b0100, 0b0011],
        )
        .unwrap();
        let cap = cap_model(2, 2, TsvGeometry::wide_2018());
        let p = problem(&stream, cap.clone());
        let a = SignedPerm::from_parts(vec![2, 0, 3, 1], vec![true, false, false, true]).unwrap();

        // Model-side power.
        let model_power = p.power(&a);

        // Physical-side power: identity assignment of the line stream.
        let line_stream = assign_stream(&stream, &a);
        let p_line = problem(&line_stream, cap);
        let physical_power = p_line.identity_power();

        assert!(
            (model_power - physical_power).abs() < 1e-9 * physical_power.abs().max(1e-30),
            "model {model_power:.6e} vs physical {physical_power:.6e}"
        );
    }

    #[test]
    fn anneal_options_reach_the_proven_optimum_on_3x3() {
        // The quality gate of the paper's optimiser: on 3x3 minimum-pitch
        // instances of the paper's stream kinds, the figures' anneal
        // budget ends at the branch-and-bound optimum. The gap is
        // checked both ways: B&B ranks leaves by their accumulated
        // prefix cost but reports `power`, so among exact ties the
        // annealer can end a few ulps lower.
        use tsv3d_bench::explain::{ExplainSpec, GeometryKind, StreamSpec};
        for stream in [
            StreamSpec::Sequential(0.01),
            StreamSpec::Gaussian(80.0, -0.3),
            StreamSpec::Gaussian(80.0, 0.5),
        ] {
            let spec = ExplainSpec {
                rows: 3,
                cols: 3,
                geometry: GeometryKind::Min,
                stream,
                cycles: 20_000,
                seed: 1,
            };
            let p = spec.build_problem().expect("3x3 problem builds");
            let exact = optimize::branch_and_bound(&p, &Default::default()).unwrap();
            assert!(exact.proven_optimal, "{stream:?}: {} nodes", exact.nodes);
            let annealed = optimize::anneal(&p, &anneal_options()).unwrap();
            let gap = annealed.power / exact.result.power - 1.0;
            assert!(
                gap.abs() <= 1e-9,
                "{stream:?}: anneal/optimum - 1 = {gap:e}"
            );
        }
    }

    #[test]
    fn reduction_pct_signs() {
        assert!(reduction_pct(1.1, 1.0) < 0.0);
        assert_eq!(reduction_pct(0.5, 1.0), 50.0);
    }
}
