//! The searcher before the Gilmore–Lawler bound, kept as the test
//! reference of the exactness contract: the same DFS and move order,
//! with each move priced by a fresh sum over the placed prefix and the
//! remainder bounded by independent per-term minima. Instrumentation is
//! left out; it never steered the search.

use crate::AssignmentProblem;
use tsv3d_matrix::SignedPerm;

/// What the reference search returns: the best assignment, its
/// `problem.power` and the nodes expanded.
pub(super) struct Outcome {
    pub(super) assignment: SignedPerm,
    pub(super) power: f64,
    pub(super) nodes: u64,
}

/// Runs the reference search to proof.
pub(super) fn branch_and_bound(problem: &AssignmentProblem) -> Outcome {
    let mut searcher = Searcher::new(problem);
    let base = problem.base_assignment();
    searcher.best_power = problem.power(&base);
    searcher.best = base;
    let mut placed = Vec::with_capacity(problem.n());
    let mut free_bits: Vec<usize> = (0..problem.n()).collect();
    searcher.search(&mut placed, &mut free_bits, 0.0);
    let power = problem.power(&searcher.best);
    Outcome {
        assignment: searcher.best,
        power,
        nodes: searcher.nodes,
    }
}

struct Searcher<'a> {
    problem: &'a AssignmentProblem,
    line_order: Vec<usize>,
    ts: Vec<f64>,
    eps: Vec<f64>,
    w_min: Vec<Vec<f64>>,
    best_power: f64,
    best: SignedPerm,
    nodes: u64,
}

impl<'a> Searcher<'a> {
    fn new(problem: &'a AssignmentProblem) -> Self {
        let n = problem.n();
        let stats = problem.stats();
        let ts: Vec<f64> = (0..n).map(|i| stats.self_switching(i)).collect();
        let eps: Vec<f64> = stats.epsilons();
        let mut w_min = vec![vec![0.0; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let tc = stats.coupling_switching(a, b);
                let best_tc = if problem.is_invertible(a) || problem.is_invertible(b) {
                    tc.abs()
                } else {
                    tc
                };
                w_min[a][b] = (ts[a] + ts[b] - 2.0 * best_tc).max(0.0);
            }
        }
        let totals = problem.cap_model().c_r().row_sums();
        let mut line_order: Vec<usize> = (0..n).collect();
        line_order.sort_by(|&a, &b| totals[b].total_cmp(&totals[a]));
        Self {
            problem,
            line_order,
            ts,
            eps,
            w_min,
            best_power: f64::INFINITY,
            best: SignedPerm::identity(n),
            nodes: 0,
        }
    }

    fn placement_cost(
        &self,
        line: usize,
        bit: usize,
        sign: f64,
        placed: &[(usize, usize, f64)],
    ) -> f64 {
        let c_r = self.problem.cap_model().c_r();
        let delta_c = self.problem.cap_model().delta_c();
        let stats = self.problem.stats();
        let eps_here = sign * self.eps[bit];
        let mut cost = self.ts[bit] * (c_r[(line, line)] + 2.0 * delta_c[(line, line)] * eps_here);
        for &(other_line, other_bit, other_sign) in placed {
            let c = c_r[(line, other_line)]
                + delta_c[(line, other_line)] * (eps_here + other_sign * self.eps[other_bit]);
            let w = self.ts[bit] + self.ts[other_bit]
                - 2.0 * sign * other_sign * stats.coupling_switching(bit, other_bit);
            cost += w * c;
        }
        cost
    }

    fn signs(&self, bit: usize) -> &'static [f64] {
        if self.problem.is_invertible(bit) {
            &[1.0, -1.0]
        } else {
            &[1.0]
        }
    }

    fn remainder_bound(&self, placed: &[(usize, usize, f64)], free_bits: &[usize]) -> f64 {
        if free_bits.is_empty() {
            return 0.0;
        }
        let c_r = self.problem.cap_model().c_r();
        let delta_c = self.problem.cap_model().delta_c();
        let free_lines: Vec<usize> = self.line_order[placed.len()..].to_vec();
        let mut eps_max = f64::NEG_INFINITY;
        let mut eps_min = f64::INFINITY;
        for &b in free_bits {
            let (lo, hi) = if self.problem.is_invertible(b) {
                (-self.eps[b].abs(), self.eps[b].abs())
            } else {
                (self.eps[b], self.eps[b])
            };
            eps_min = eps_min.min(lo);
            eps_max = eps_max.max(hi);
        }
        let mut w_pair_min = f64::INFINITY;
        if free_bits.len() >= 2 {
            for (idx, &a) in free_bits.iter().enumerate() {
                for &b in &free_bits[idx + 1..] {
                    w_pair_min = w_pair_min.min(self.w_min[a][b]);
                }
            }
        }
        let mut bound = 0.0;
        for &line in &free_lines {
            let mut line_min = f64::INFINITY;
            for &b in free_bits {
                for &sg in self.signs(b) {
                    let c = c_r[(line, line)] + 2.0 * delta_c[(line, line)] * sg * self.eps[b];
                    line_min = line_min.min(self.ts[b] * c.max(0.0));
                }
            }
            bound += line_min;
        }
        let stats = self.problem.stats();
        for &(p_line, p_bit, p_sign) in placed {
            for &line in &free_lines {
                let mut pair_min = f64::INFINITY;
                for &b in free_bits {
                    for &s in self.signs(b) {
                        let c = c_r[(line, p_line)]
                            + delta_c[(line, p_line)]
                                * (s * self.eps[b] + p_sign * self.eps[p_bit]);
                        let w = self.ts[b] + self.ts[p_bit]
                            - 2.0 * s * p_sign * stats.coupling_switching(b, p_bit);
                        pair_min = pair_min.min((w * c).max(0.0));
                    }
                }
                bound += pair_min;
            }
        }
        if free_bits.len() >= 2 {
            for (idx, &la) in free_lines.iter().enumerate() {
                for &lb in &free_lines[idx + 1..] {
                    let dc = delta_c[(la, lb)];
                    let c_min =
                        (c_r[(la, lb)] + (dc * 2.0 * eps_max).min(dc * 2.0 * eps_min)).max(0.0);
                    bound += w_pair_min * c_min;
                }
            }
        }
        bound
    }

    fn search(
        &mut self,
        placed: &mut Vec<(usize, usize, f64)>,
        free_bits: &mut Vec<usize>,
        prefix_cost: f64,
    ) {
        self.nodes += 1;
        if free_bits.is_empty() {
            if prefix_cost < self.best_power {
                self.best_power = prefix_cost;
                let n = self.problem.n();
                let mut line_of_bit = vec![0usize; n];
                let mut inverted = vec![false; n];
                for &(line, bit, sign) in placed.iter() {
                    line_of_bit[bit] = line;
                    inverted[bit] = sign < 0.0;
                }
                self.best = SignedPerm::from_parts(line_of_bit, inverted)
                    .expect("search constructs valid permutations");
            }
            return;
        }
        let line = self.line_order[placed.len()];
        let pinned_bit_for_line =
            (0..self.problem.n()).find(|&b| self.problem.pin_of(b) == Some(line));
        let mut moves: Vec<(f64, usize, f64)> = Vec::new();
        for &bit in free_bits.iter() {
            match pinned_bit_for_line {
                Some(p) if p != bit => continue,
                None if self.problem.pin_of(bit).is_some() => continue,
                _ => {}
            }
            for &sign in self.signs(bit) {
                moves.push((self.placement_cost(line, bit, sign, placed), bit, sign));
            }
        }
        moves.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (cost, bit, sign) in moves {
            let new_cost = prefix_cost + cost;
            if new_cost >= self.best_power {
                continue;
            }
            let pos = free_bits
                .iter()
                .position(|&b| b == bit)
                .expect("candidate bit is free");
            free_bits.swap_remove(pos);
            placed.push((line, bit, sign));
            let bound = self.remainder_bound(placed, free_bits);
            if new_cost + bound < self.best_power {
                self.search(placed, free_bits, new_cost);
            }
            placed.pop();
            free_bits.push(bit);
        }
    }
}
