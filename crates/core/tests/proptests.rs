//! Property-based tests of the power model's algebraic invariants.

use proptest::prelude::*;
use tsv3d_core::{attribution, AssignmentProblem, SignedPerm};
use tsv3d_matrix::Matrix;
use tsv3d_model::LinearCapModel;
use tsv3d_stats::SwitchingStats;

/// Strategy: a synthetic, internally consistent 4-bit assignment problem.
fn problem() -> impl Strategy<Value = AssignmentProblem> {
    (
        prop::collection::vec(0.0f64..=1.0, 4),       // ts
        prop::collection::vec(-1.0f64..=1.0, 6),      // raw couplings
        prop::collection::vec(0.0f64..=1.0, 4),       // probabilities
        prop::collection::vec(1.0f64..10.0, 10),      // C_R entries (upper tri + diag)
        prop::collection::vec(0.0f64..0.3, 10),       // |ΔC| entries
    )
        .prop_map(|(ts, raw_tc, probs, c_r_raw, dc_raw)| {
            // Couplings bounded by Cauchy–Schwarz to stay physical.
            let mut tc = Matrix::zeros(4);
            let mut k = 0;
            for i in 0..4 {
                tc[(i, i)] = ts[i];
                for j in (i + 1)..4 {
                    let bound = (ts[i] * ts[j]).sqrt();
                    tc[(i, j)] = raw_tc[k] * bound;
                    tc[(j, i)] = tc[(i, j)];
                    k += 1;
                }
            }
            let stats = SwitchingStats::from_parts(ts, tc, probs);
            // Symmetric positive C_R; ΔC negative (MOS effect) and small
            // enough that capacitances stay positive over ε ∈ [−1/2, 1/2].
            let mut c_r = Matrix::zeros(4);
            let mut delta_c = Matrix::zeros(4);
            let mut k = 0;
            for i in 0..4 {
                for j in i..4 {
                    c_r[(i, j)] = c_r_raw[k] + 1.0;
                    c_r[(j, i)] = c_r[(i, j)];
                    delta_c[(i, j)] = -dc_raw[k] * c_r[(i, j)];
                    delta_c[(j, i)] = delta_c[(i, j)];
                    k += 1;
                }
            }
            let cap = LinearCapModel::from_parts(c_r, delta_c);
            AssignmentProblem::new(stats, cap).expect("consistent sizes")
        })
}

/// Strategy: a 4-bit problem with random (valid) pins and inversion
/// permissions layered on top of [`problem`].
fn pinned_problem() -> impl Strategy<Value = AssignmentProblem> {
    (
        problem(),
        prop::collection::vec(any::<u32>(), 4), // line ranking → pin targets
        prop::collection::vec(any::<bool>(), 4), // which bits are pinned
        prop::collection::vec(any::<bool>(), 4), // inversion permissions
    )
        .prop_map(|(p, keys, pin_mask, invertible)| {
            let mut lines: Vec<usize> = (0..4).collect();
            lines.sort_by_key(|&i| keys[i]);
            let pins: Vec<Option<usize>> = (0..4)
                .map(|bit| pin_mask[bit].then_some(lines[bit]))
                .collect();
            p.with_pinned(pins)
                .expect("distinct in-range pins")
                .with_invertible(invertible)
                .expect("flag count matches")
        })
}

fn signed_perm(n: usize) -> impl Strategy<Value = SignedPerm> {
    (
        prop::collection::vec(any::<u32>(), n),
        prop::collection::vec(any::<bool>(), n),
    )
        .prop_map(move |(keys, inv)| {
            let mut lines: Vec<usize> = (0..n).collect();
            lines.sort_by_key(|&i| keys[i]);
            SignedPerm::from_parts(lines, inv).expect("valid permutation")
        })
}

proptest! {
    #[test]
    fn fast_power_always_matches_matrix_form(p in problem(), a in signed_perm(4)) {
        let fast = p.power(&a);
        let explicit = p.power_matrix_form(&a);
        prop_assert!(
            (fast - explicit).abs() < 1e-9 * explicit.abs().max(1e-12),
            "fast {fast:.6e} vs explicit {explicit:.6e}"
        );
    }

    #[test]
    fn power_is_never_negative_for_physical_problems(p in problem(), a in signed_perm(4)) {
        // Switching weights are Cauchy–Schwarz bounded and capacitances
        // positive, so ⟨T', C'⟩ ≥ 0 for every assignment.
        prop_assert!(p.power(&a) >= -1e-9, "negative power {}", p.power(&a));
    }

    #[test]
    fn double_inversion_is_identity(p in problem(), a in signed_perm(4), bit in 0usize..4) {
        let before = p.power(&a);
        let mut b = a.clone();
        b.flip_bit(bit);
        b.flip_bit(bit);
        prop_assert_eq!(p.power(&b), before);
    }

    #[test]
    fn swap_then_swap_back_is_identity(p in problem(), a in signed_perm(4), x in 0usize..4, y in 0usize..4) {
        let before = p.power(&a);
        let mut b = a.clone();
        b.swap_lines(x, y);
        b.swap_lines(x, y);
        prop_assert_eq!(p.power(&b), before);
    }

    #[test]
    fn optimum_lower_bounds_every_assignment(p in problem(), a in signed_perm(4)) {
        let exact = tsv3d_core::optimize::exhaustive(&p).expect("4-bit problem fits");
        prop_assert!(exact.power <= p.power(&a) + 1e-9 * p.power(&a).abs().max(1e-12));
    }

    #[test]
    fn branch_and_bound_agrees_with_exhaustive(p in problem()) {
        let exact = tsv3d_core::optimize::exhaustive(&p).expect("fits");
        let bnb = tsv3d_core::optimize::branch_and_bound(&p, &Default::default())
            .expect("budget ok");
        prop_assert!(bnb.proven_optimal);
        prop_assert!(
            (bnb.result.power - exact.power).abs() < 1e-9 * exact.power.abs().max(1e-12),
            "bnb {:.6e} vs exhaustive {:.6e}",
            bnb.result.power,
            exact.power
        );
    }

    #[test]
    fn branch_and_bound_agrees_with_exhaustive_on_pinned_problems(p in pinned_problem()) {
        // Pins enter the bound as fixed terms and forbidden entries;
        // inversion masks restrict its sign minima.
        let exact = tsv3d_core::optimize::exhaustive(&p).expect("fits");
        let bnb = tsv3d_core::optimize::branch_and_bound(&p, &Default::default())
            .expect("budget ok");
        prop_assert!(bnb.proven_optimal);
        prop_assert!(p.is_feasible(&bnb.result.assignment));
        prop_assert!(
            (bnb.result.power - exact.power).abs() < 1e-9 * exact.power.abs().max(1e-12),
            "bnb {:.6e} vs exhaustive {:.6e}",
            bnb.result.power,
            exact.power
        );
    }

    #[test]
    fn anneal_objective_only_returns_feasible_assignments(p in pinned_problem(), seed in any::<u64>()) {
        // Regression guard: `anneal_objective` used to swap over *all*
        // lines instead of the unpinned ones, so with pins it could
        // return assignments violating the constraints it was given.
        let options = tsv3d_core::optimize::AnnealOptions {
            iterations: 300,
            restarts: 1,
            seed,
            threads: 1,
        };
        let result = tsv3d_core::optimize::anneal_objective(&p, |a| p.power(a), &options)
            .expect("non-empty budget");
        prop_assert!(
            p.is_feasible(&result.assignment),
            "infeasible result {:?} for pins {:?} / invertible {:?}",
            result.assignment,
            p.pinned(),
            p.invertible()
        );
    }

    #[test]
    fn anneal_respects_pins_and_inversion_constraints(p in pinned_problem(), seed in any::<u64>()) {
        let options = tsv3d_core::optimize::AnnealOptions {
            iterations: 300,
            restarts: 1,
            seed,
            threads: 1,
        };
        let result = tsv3d_core::optimize::anneal(&p, &options).expect("non-empty budget");
        prop_assert!(p.is_feasible(&result.assignment));
    }

    #[test]
    fn inverting_a_balanced_uncoupled_bit_changes_nothing(
        mut p_parts in (
            prop::collection::vec(0.0f64..=1.0, 4),
            prop::collection::vec(1.0f64..10.0, 10),
        ),
    ) {
        // Build a problem where bit 0 has probability 1/2 and no
        // coupling to anything: its inversion must be a no-op.
        let (ts, c_r_raw) = &mut p_parts;
        let tc = Matrix::from_diag(ts);
        let probs = vec![0.5, 0.3, 0.7, 0.5];
        let stats = SwitchingStats::from_parts(ts.clone(), tc, probs);
        let mut c_r = Matrix::zeros(4);
        let mut k = 0;
        for i in 0..4 {
            for j in i..4 {
                c_r[(i, j)] = c_r_raw[k] + 1.0;
                c_r[(j, i)] = c_r[(i, j)];
                k += 1;
            }
        }
        let cap = LinearCapModel::from_parts(c_r.clone(), c_r.scale(-0.1));
        let p = AssignmentProblem::new(stats, cap).expect("sizes");
        let id = SignedPerm::identity(4);
        let mut inv = SignedPerm::identity(4);
        inv.flip_bit(0);
        prop_assert!((p.power(&id) - p.power(&inv)).abs() < 1e-9 * p.power(&id).abs().max(1e-12));
    }
}

proptest! {
    #[test]
    fn breakdown_sums_to_both_power_forms(p in problem(), a in signed_perm(4)) {
        // The attribution invariant: per-TSV terms (self + half-split
        // coupling) recombine to the exact power, in both the fast and
        // the explicit matrix evaluation, signed lines included.
        let b = attribution::PowerBreakdown::compute(&p, &a);
        let fast = p.power(&a);
        let explicit = p.power_matrix_form(&a);
        let tol = 1e-9 * fast.abs().max(1e-12);
        prop_assert!((b.total() - fast).abs() < tol, "total {:.6e} vs power {fast:.6e}", b.total());
        prop_assert!((b.total() - explicit).abs() < tol, "total {:.6e} vs matrix {explicit:.6e}", b.total());
        let tsv_sum: f64 = b.per_tsv().iter().map(|t| t.total()).sum();
        prop_assert!((tsv_sum - fast).abs() < tol, "per-TSV sum {tsv_sum:.6e} vs {fast:.6e}");
        let part_sum = b.self_total() + b.coupling_total();
        prop_assert!((part_sum - fast).abs() < tol, "self+coupling {part_sum:.6e} vs {fast:.6e}");
        // Per-class roll-up on the 2×2 grid covers the same charge.
        let classes = b.class_totals(2, 2);
        prop_assert!(
            (classes.total() - fast).abs() < tol,
            "class totals {:.6e} vs {fast:.6e}", classes.total()
        );
    }

    #[test]
    fn breakdown_is_exact_for_pinned_problems(p in pinned_problem(), seed in any::<u64>()) {
        // Pins restrict the feasible set and inversion permissions gate
        // `flip_effect`; neither may break the sum invariant.
        let options = tsv3d_core::optimize::AnnealOptions {
            iterations: 200,
            restarts: 1,
            seed,
            threads: 1,
        };
        let result = tsv3d_core::optimize::anneal(&p, &options).expect("non-empty budget");
        let b = attribution::PowerBreakdown::compute(&p, &result.assignment);
        let power = p.power(&result.assignment);
        let tol = 1e-9 * power.abs().max(1e-12);
        prop_assert!((b.total() - power).abs() < tol);
        let explicit = p.power_matrix_form(&result.assignment);
        prop_assert!((b.total() - explicit).abs() < tol);
        for term in b.per_tsv() {
            prop_assert_eq!(
                term.flip_effect.is_some(),
                p.is_invertible(term.bit),
                "flip_effect gating must follow inversion permissions"
            );
        }
    }

    #[test]
    fn optimizer_is_bit_identical_with_attribution_interleaved(p in problem(), seed in any::<u64>()) {
        // Attribution is strictly observational: computing a breakdown
        // between two identically seeded optimizer runs must not change
        // the second run's result in a single bit.
        let options = tsv3d_core::optimize::AnnealOptions {
            iterations: 300,
            restarts: 1,
            seed,
            threads: 1,
        };
        let first = tsv3d_core::optimize::anneal(&p, &options).expect("non-empty budget");
        let _breakdown = attribution::PowerBreakdown::compute(&p, &first.assignment);
        let second = tsv3d_core::optimize::anneal(&p, &options).expect("non-empty budget");
        prop_assert_eq!(&first.assignment, &second.assignment);
        prop_assert_eq!(first.power.to_bits(), second.power.to_bits());
    }

    #[test]
    fn swap_delta_matches_full_recompute(p in problem(), a in signed_perm(4), x in 0usize..4, y in 0usize..4) {
        let before = p.power(&a);
        let delta = p.swap_lines_delta(&a, x, y);
        let mut b = a.clone();
        b.swap_lines(x, y);
        let after = p.power(&b);
        prop_assert!(
            (before + delta - after).abs() < 1e-9 * after.abs().max(1e-12),
            "before {before:.6e} + delta {delta:.6e} != after {after:.6e}"
        );
    }

    #[test]
    fn flip_delta_matches_full_recompute(p in problem(), a in signed_perm(4), bit in 0usize..4) {
        let before = p.power(&a);
        let delta = p.flip_bit_delta(&a, bit);
        let mut b = a.clone();
        b.flip_bit(bit);
        let after = p.power(&b);
        prop_assert!(
            (before + delta - after).abs() < 1e-9 * after.abs().max(1e-12),
            "before {before:.6e} + delta {delta:.6e} != after {after:.6e}"
        );
    }

    #[test]
    fn crosstalk_swap_delta_matches_full_recompute(p in problem(), a in signed_perm(4), x in 0usize..4, y in 0usize..4) {
        let before = p.crosstalk_activity(&a);
        let delta = p.crosstalk_swap_delta(&a, x, y);
        let mut b = a.clone();
        b.swap_lines(x, y);
        let after = p.crosstalk_activity(&b);
        prop_assert!(
            (before + delta - after).abs() < 1e-9 * after.abs().max(1e-12),
            "before {before:.6e} + delta {delta:.6e} != after {after:.6e}"
        );
    }

    #[test]
    fn crosstalk_flip_delta_matches_full_recompute(p in problem(), a in signed_perm(4), bit in 0usize..4) {
        let before = p.crosstalk_activity(&a);
        let delta = p.crosstalk_flip_delta(&a, bit);
        let mut b = a.clone();
        b.flip_bit(bit);
        let after = p.crosstalk_activity(&b);
        prop_assert!(
            (before + delta - after).abs() < 1e-9 * after.abs().max(1e-12),
            "before {before:.6e} + delta {delta:.6e} != after {after:.6e}"
        );
    }
}

/// The pre-incremental `greedy_two_opt`: every candidate move priced by
/// mutate–`power()`–unmutate. Kept verbatim as the reference the
/// delta-priced rewrite must reproduce move for move.
fn greedy_two_opt_reference(problem: &AssignmentProblem) -> (SignedPerm, f64) {
    let n = problem.n();
    let mut current = problem.base_assignment();
    let mut current_power = problem.power(&current);
    let free_lines = problem.free_lines();
    loop {
        let mut best_move: Option<(f64, Option<usize>, (usize, usize))> = None;
        for (ai, &a) in free_lines.iter().enumerate() {
            for &b in &free_lines[ai + 1..] {
                current.swap_lines(a, b);
                let p = problem.power(&current);
                current.swap_lines(a, b);
                if p < current_power && best_move.as_ref().is_none_or(|m| p < m.0) {
                    best_move = Some((p, None, (a, b)));
                }
            }
        }
        for bit in (0..n).filter(|&i| problem.is_invertible(i)) {
            current.flip_bit(bit);
            let p = problem.power(&current);
            current.flip_bit(bit);
            if p < current_power && best_move.as_ref().is_none_or(|m| p < m.0) {
                best_move = Some((p, Some(bit), (0, 0)));
            }
        }
        match best_move {
            Some((p, Some(bit), _)) => {
                current.flip_bit(bit);
                current_power = p;
            }
            Some((p, None, (a, b))) => {
                current.swap_lines(a, b);
                current_power = p;
            }
            None => break,
        }
    }
    (current, current_power)
}

proptest! {
    #[test]
    fn greedy_two_opt_matches_full_recompute_reference(p in problem()) {
        let (ref_assignment, ref_power) = greedy_two_opt_reference(&p);
        let fast = tsv3d_core::optimize::greedy_two_opt(&p);
        prop_assert_eq!(&fast.assignment, &ref_assignment);
        prop_assert_eq!(
            fast.power.to_bits(), ref_power.to_bits(),
            "delta-priced {:.6e} vs reference {:.6e}", fast.power, ref_power
        );
    }

    #[test]
    fn greedy_two_opt_matches_reference_on_pinned_problems(p in pinned_problem()) {
        // Pins shrink the swap neighbourhood and inversion permissions
        // gate the flips; the rewrite must walk the identical move
        // sequence there too.
        let (ref_assignment, ref_power) = greedy_two_opt_reference(&p);
        let fast = tsv3d_core::optimize::greedy_two_opt(&p);
        prop_assert_eq!(&fast.assignment, &ref_assignment);
        prop_assert_eq!(fast.power.to_bits(), ref_power.to_bits());
    }
}
