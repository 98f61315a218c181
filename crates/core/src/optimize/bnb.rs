//! Exact branch-and-bound optimiser for the signed assignment problem.
//!
//! Lines are fixed in order of descending total capacitance (most
//! constrained first) and each tree level chooses the (bit, sign) pair
//! for one line, cheapest first. Partial costs are exact. The cost of
//! the lines not yet placed has a *linear* part, each free line's
//! diagonal plus its pairs with placed lines, which depends only on the
//! (bit, sign) that line receives, and a *quadratic* part, the pairs
//! among free lines. Both are bounded from below:
//!
//! * The linear part is priced as one assignment of free bits to free
//!   lines. Entry (line, bit) is the cheapest allowed sign's exact
//!   linear cost, and the Hungarian method (O(k³) for k free lines)
//!   finds the minimum, so no two lines can claim the same cheapest
//!   bit. This is the Gilmore–Lawler bound of quadratic assignment
//!   (Gilmore 1962; Lawler 1963). A pinned line carries its pinned bit
//!   as a fixed term.
//! * The quadratic part uses two structural facts of the objective: the
//!   *switching weight* of a line pair,
//!   `w = Ts_a + Ts_b − 2·s_a·s_b·Tc_ab`, is non-negative (because
//!   `|Tc_ab| ≤ √(Ts_a·Ts_b)`), and every capacitance entry stays
//!   positive over the feasible ε range. So each free–free pair
//!   contributes at least `min_w(free bits) · min_c(pair)`.
//!
//! The linear costs live in one table per depth: `lin[d]` holds the
//! exact cost of every remaining (line, bit, sign) placement given the
//! first `d` placements, and placing a line fills `lin[d + 1]` from
//! `lin[d]` in O(k²). Move costs are read from the same tables, summed
//! in the order a fresh sum over the placed prefix would use, so every
//! candidate cost is exact to the bit. A node allocates nothing. The
//! bound is admissible, hence the search is exact; a node budget turns
//! it into an anytime algorithm that reports whether optimality was
//! proven.

use crate::optimize::OptimizeResult;
use crate::{AssignmentProblem, CoreError};
use tsv3d_matrix::SignedPerm;
use tsv3d_telemetry::{TelemetryHandle, Value};

#[cfg(test)]
mod reference;

/// Options for [`branch_and_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbOptions {
    /// Maximum number of search-tree nodes to expand before giving up
    /// on the optimality proof (the best incumbent is still returned).
    pub node_limit: u64,
}

impl Default for BnbOptions {
    fn default() -> Self {
        Self {
            node_limit: 20_000_000,
        }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// The best assignment found.
    pub result: OptimizeResult,
    /// `true` if the search completed, i.e. the result is proven
    /// optimal; `false` if the node budget was exhausted first.
    pub proven_optimal: bool,
    /// Search-tree nodes expanded.
    pub nodes: u64,
}

/// Marks a line that carries no pinned bit in [`Searcher::pinned_bit`].
const UNPINNED: usize = usize::MAX;

/// The `±1.0` signs a bit may take, indexed like the `lin` tables'
/// sign slot.
const SIGNS: [f64; 2] = [1.0, -1.0];

struct Searcher<'a> {
    problem: &'a AssignmentProblem,
    /// Bundle size.
    n: usize,
    /// Lines in branching order.
    line_order: Vec<usize>,
    /// `pinned_bit[line]`: the bit pinned to `line`, or [`UNPINNED`].
    pinned_bit: Vec<usize>,
    /// Pairwise switching-weight minima over sign choices, row-major
    /// `n×n`: `Ts_a + Ts_b − 2·|Tc_ab|` (sign-restricted when neither
    /// bit may be inverted), clamped at 0.
    w_min: Vec<f64>,
    /// Linear-cost tables, one `n×n×2` layer per depth:
    /// `lin[d][line][bit][sign]` is the exact cost of placing `(bit,
    /// sign)` on a line not yet placed, given the first `d` placements
    /// (the diagonal plus the pairs with placed lines, summed in
    /// placement order). Only the entries a pin allows are kept.
    lin: Vec<f64>,
    /// Candidate moves `(cost, bit, sign)`, `2n` slots per depth.
    moves: Vec<(f64, usize, f64)>,
    /// Placements `(line, bit, sign)` of the current path, in order.
    placed: Vec<(usize, usize, f64)>,
    /// Bits not yet placed. `swap_remove` and `push` keep it a set;
    /// its order is the candidate order of equal-cost moves.
    free_bits: Vec<usize>,
    hungarian: Hungarian,
    /// Incumbent.
    best_power: f64,
    best_line_of_bit: Vec<usize>,
    best_inverted: Vec<bool>,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
    /// Instrumentation (cheap local tallies, flushed to the handle by
    /// the caller; the search itself is telemetry-free when disabled).
    tel: &'a TelemetryHandle,
    observe: bool,
    pruned_by_cost: u64,
    pruned_by_bound: u64,
    leaves: u64,
    incumbents: u64,
}

impl<'a> Searcher<'a> {
    fn new(problem: &'a AssignmentProblem, node_limit: u64, tel: &'a TelemetryHandle) -> Self {
        let n = problem.n();
        let flat = problem.flat();
        let mut pinned_bit = vec![UNPINNED; n];
        for (bit, pin) in problem.pinned().iter().enumerate() {
            if let &Some(line) = pin {
                pinned_bit[line] = bit;
            }
        }
        // Sign-aware pairwise minimum switching weight.
        let mut w_min = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let tc = flat.tc[a * n + b];
                // If at least one of the bits may be inverted, the sign
                // product can be chosen to make the coupling term
                // +|tc|; otherwise it is fixed at +tc.
                let best_tc = if problem.is_invertible(a) || problem.is_invertible(b) {
                    tc.abs()
                } else {
                    tc
                };
                w_min[a * n + b] = (flat.ts[a] + flat.ts[b] - 2.0 * best_tc).max(0.0);
            }
        }
        // Branch on high-capacitance lines first; pinned lines may only
        // receive their pinned bit, which the candidate generation in
        // `search` enforces.
        let totals = problem.cap_model().c_r().row_sums();
        let mut line_order: Vec<usize> = (0..n).collect();
        line_order.sort_by(|&a, &b| totals[b].total_cmp(&totals[a]));
        let base = problem.base_assignment();
        let mut searcher = Self {
            problem,
            n,
            line_order,
            pinned_bit,
            w_min,
            lin: vec![0.0; n * n * n * 2],
            moves: vec![(0.0, 0, 0.0); n * 2 * n],
            placed: Vec::with_capacity(n),
            free_bits: (0..n).collect(),
            hungarian: Hungarian::new(n),
            // Seed the incumbent with the (pin-respecting) base
            // assignment so pruning can start immediately.
            best_power: problem.power(&base),
            best_line_of_bit: (0..n).map(|b| base.line_of_bit(b)).collect(),
            best_inverted: base.inversions().to_vec(),
            nodes: 0,
            node_limit,
            exhausted: false,
            tel,
            observe: tel.is_enabled(),
            pruned_by_cost: 0,
            pruned_by_bound: 0,
            leaves: 0,
            incumbents: 0,
        };
        searcher.fill_diagonals();
        searcher
    }

    /// Whether a pin allows `bit` on `line`: a pinned line takes only
    /// its pinned bit, and a pinned bit no other line.
    fn allowed(&self, line: usize, bit: usize) -> bool {
        match self.pinned_bit[line] {
            UNPINNED => self.problem.pin_of(bit).is_none(),
            pinned => pinned == bit,
        }
    }

    /// The signs `bit` may take, in the `lin` tables' sign-slot order.
    fn signs(&self, bit: usize) -> &'static [f64] {
        if self.problem.is_invertible(bit) {
            &SIGNS
        } else {
            &SIGNS[..1]
        }
    }

    /// Index of `lin[depth][line][bit][sign]`.
    fn lin_at(&self, depth: usize, line: usize, bit: usize) -> usize {
        ((depth * self.n + line) * self.n + bit) * 2
    }

    /// Fills `lin[0]` with each placement's diagonal cost.
    fn fill_diagonals(&mut self) {
        let problem = self.problem;
        let (flat, eps, n) = (problem.flat(), problem.eps(), self.n);
        for line in 0..n {
            let diag = line * n + line;
            for (bit, &eps_bit) in eps.iter().enumerate() {
                if !self.allowed(line, bit) {
                    continue;
                }
                let at = self.lin_at(0, line, bit);
                for (s, &sign) in self.signs(bit).iter().enumerate() {
                    let eps_here = sign * eps_bit;
                    self.lin[at + s] =
                        flat.ts[bit] * (flat.c_r[diag] + 2.0 * flat.delta_c[diag] * eps_here);
                }
            }
        }
    }

    /// Fills `lin[depth + 1]` from `lin[depth]` after `(bit, sign)` went
    /// on `line` at `depth`: each remaining placement gains its pair with
    /// the new line.
    fn place(&mut self, depth: usize, line: usize, bit: usize, sign: f64) {
        let problem = self.problem;
        let (flat, eps, n) = (problem.flat(), problem.eps(), self.n);
        let eps_placed = sign * eps[bit];
        for pos in depth + 1..n {
            let free_line = self.line_order[pos];
            let row = free_line * n;
            for &free_bit in &self.free_bits {
                if !self.allowed(free_line, free_bit) {
                    continue;
                }
                let from = self.lin_at(depth, free_line, free_bit);
                let to = self.lin_at(depth + 1, free_line, free_bit);
                for (s, &free_sign) in self.signs(free_bit).iter().enumerate() {
                    let eps_here = free_sign * eps[free_bit];
                    let c =
                        flat.c_r[row + line] + flat.delta_c[row + line] * (eps_here + eps_placed);
                    let w = flat.ts[free_bit] + flat.ts[bit]
                        - 2.0 * free_sign * sign * flat.tc[free_bit * n + bit];
                    self.lin[to + s] = self.lin[from + s] + w * c;
                }
            }
        }
    }

    /// The cheapest sign's entry of `lin[depth][line][bit]`.
    fn cheapest(&self, depth: usize, line: usize, bit: usize) -> f64 {
        let at = self.lin_at(depth, line, bit);
        if self.problem.is_invertible(bit) {
            self.lin[at].min(self.lin[at + 1])
        } else {
            self.lin[at]
        }
    }

    /// Admissible lower bound for the lines not yet placed at `depth`
    /// (whose `lin[depth]` layer is filled).
    fn remainder_bound(&mut self, depth: usize) -> f64 {
        let problem = self.problem;
        let (flat, eps, n) = (problem.flat(), problem.eps(), self.n);
        let free_lines = &self.line_order[depth..];
        // Linear part: pinned lines carry their pinned bit; the others
        // share the unpinned free bits through one assignment problem.
        let mut fixed = 0.0;
        let mut k = 0;
        for &line in free_lines {
            if self.pinned_bit[line] != UNPINNED {
                fixed += self.cheapest(depth, line, self.pinned_bit[line]);
                continue;
            }
            for &bit in &self.free_bits {
                if problem.pin_of(bit).is_none() {
                    let entry = self.cheapest(depth, line, bit);
                    self.hungarian.cost.push(entry);
                }
            }
            k += 1;
        }
        let mut bound = fixed + self.hungarian.solve(k);
        // Free-free pairs: minimum weight × minimum capacitance; the ε
        // sum of a pair lies in [2·eps_min, 2·eps_max], and the linear
        // capacitance attains its minimum at one of the endpoints
        // regardless of ΔC's sign.
        if self.free_bits.len() >= 2 {
            let mut eps_max = f64::NEG_INFINITY;
            let mut eps_min = f64::INFINITY;
            let mut w_pair_min = f64::INFINITY;
            for (idx, &a) in self.free_bits.iter().enumerate() {
                let (lo, hi) = if problem.is_invertible(a) {
                    (-eps[a].abs(), eps[a].abs())
                } else {
                    (eps[a], eps[a])
                };
                eps_min = eps_min.min(lo);
                eps_max = eps_max.max(hi);
                for &b in &self.free_bits[idx + 1..] {
                    w_pair_min = w_pair_min.min(self.w_min[a * n + b]);
                }
            }
            for (idx, &la) in free_lines.iter().enumerate() {
                for &lb in &free_lines[idx + 1..] {
                    let dc = flat.delta_c[la * n + lb];
                    let c_min = (flat.c_r[la * n + lb]
                        + (dc * 2.0 * eps_max).min(dc * 2.0 * eps_min))
                    .max(0.0);
                    bound += w_pair_min * c_min;
                }
            }
        }
        bound
    }

    fn search(&mut self, depth: usize, prefix_cost: f64) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.exhausted = true;
            return;
        }
        if self.free_bits.is_empty() {
            self.leaves += 1;
            if prefix_cost < self.best_power {
                self.incumbents += 1;
                if self.observe {
                    self.tel.event(
                        "bnb.incumbent",
                        &[
                            ("power", Value::from(prefix_cost)),
                            ("nodes", Value::from(self.nodes)),
                        ],
                    );
                }
                self.best_power = prefix_cost;
                for &(line, bit, sign) in &self.placed {
                    self.best_line_of_bit[bit] = line;
                    self.best_inverted[bit] = sign < 0.0;
                }
            }
            return;
        }

        // Candidate moves ordered by their exact placement cost (best
        // first finds a strong incumbent early); a stable sort keeps
        // equal costs in `free_bits` order.
        let line = self.line_order[depth];
        let first = depth * 2 * self.n;
        let mut count = 0;
        for &bit in &self.free_bits {
            if !self.allowed(line, bit) {
                continue;
            }
            let at = self.lin_at(depth, line, bit);
            for (s, &sign) in self.signs(bit).iter().enumerate() {
                self.moves[first + count] = (self.lin[at + s], bit, sign);
                count += 1;
            }
        }
        sort_by_cost(&mut self.moves[first..first + count]);

        for i in first..first + count {
            if self.exhausted {
                return;
            }
            let (cost, bit, sign) = self.moves[i];
            let new_cost = prefix_cost + cost;
            if new_cost >= self.best_power {
                self.pruned_by_cost += 1;
                continue;
            }
            let pos = self
                .free_bits
                .iter()
                .position(|&b| b == bit)
                .expect("candidate bit is free");
            self.free_bits.swap_remove(pos);
            self.placed.push((line, bit, sign));
            let bound = if self.free_bits.is_empty() {
                0.0
            } else {
                self.place(depth, line, bit, sign);
                self.remainder_bound(depth + 1)
            };
            if self.observe && self.best_power.is_finite() && self.best_power != 0.0 {
                // Bound quality: (prefix + bound) / incumbent — values
                // ≥ 1 prune, values near 1 are tight.
                self.tel
                    .record("bnb.bound_ratio", (new_cost + bound) / self.best_power);
            }
            if new_cost + bound < self.best_power {
                self.search(depth + 1, new_cost);
            } else {
                self.pruned_by_bound += 1;
            }
            self.placed.pop();
            self.free_bits.push(bit);
        }
    }
}

/// Stable insertion sort of moves by cost: the order `sort_by` gives,
/// without the scratch buffer it allocates above 20 elements.
fn sort_by_cost(moves: &mut [(f64, usize, f64)]) {
    for i in 1..moves.len() {
        let mut j = i;
        while j > 0 && moves[j - 1].0.total_cmp(&moves[j].0).is_gt() {
            moves.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// The Hungarian method for square minimum-cost assignment (shortest
/// augmenting paths with row and column potentials, O(k³)), with its
/// scratch sized once for the bundle.
struct Hungarian {
    /// The `k×k` cost matrix, row-major; [`solve`](Self::solve) empties it.
    cost: Vec<f64>,
    /// Row potentials, 1-based.
    u: Vec<f64>,
    /// Column potentials, 1-based; slot 0 is the virtual column.
    v: Vec<f64>,
    /// `row_of[j]`: the row matched to column `j` (0 = none).
    row_of: Vec<usize>,
    /// The previous column on the shortest path to column `j`.
    way: Vec<usize>,
    /// Shortest reduced path cost to column `j` in this augmentation.
    min_to: Vec<f64>,
    /// Columns on the alternating tree.
    used: Vec<bool>,
}

impl Hungarian {
    fn new(n: usize) -> Self {
        Self {
            cost: Vec::with_capacity(n * n),
            u: vec![0.0; n + 1],
            v: vec![0.0; n + 1],
            row_of: vec![0; n + 1],
            way: vec![0; n + 1],
            min_to: vec![0.0; n + 1],
            used: vec![false; n + 1],
        }
    }

    /// The cost of a minimum-cost perfect matching of the `k×k` matrix
    /// in `cost`, summed over its entries. Leaves `cost` empty. Only
    /// non-finite costs can leave no column to augment to; the bound
    /// then falls back to `−∞`, which prunes nothing.
    fn solve(&mut self, k: usize) -> f64 {
        debug_assert_eq!(self.cost.len(), k * k, "free lines and free bits pair up");
        self.u[..=k].fill(0.0);
        self.v[..=k].fill(0.0);
        self.row_of[..=k].fill(0);
        for row in 1..=k {
            self.row_of[0] = row;
            let mut col = 0;
            self.min_to[..=k].fill(f64::INFINITY);
            self.used[..=k].fill(false);
            loop {
                self.used[col] = true;
                let r = self.row_of[col];
                let costs = &self.cost[(r - 1) * k..r * k];
                let mut delta = f64::INFINITY;
                let mut next = 0;
                for j in 1..=k {
                    if self.used[j] {
                        continue;
                    }
                    let reduced = costs[j - 1] - self.u[r] - self.v[j];
                    if reduced < self.min_to[j] {
                        self.min_to[j] = reduced;
                        self.way[j] = col;
                    }
                    if self.min_to[j] < delta {
                        delta = self.min_to[j];
                        next = j;
                    }
                }
                if next == 0 {
                    self.cost.clear();
                    return f64::NEG_INFINITY;
                }
                for j in 0..=k {
                    if self.used[j] {
                        self.u[self.row_of[j]] += delta;
                        self.v[j] -= delta;
                    } else {
                        self.min_to[j] -= delta;
                    }
                }
                col = next;
                if self.row_of[col] == 0 {
                    break;
                }
            }
            // Flip the augmenting path back to the virtual column.
            while col != 0 {
                let prev = self.way[col];
                self.row_of[col] = self.row_of[prev];
                col = prev;
            }
        }
        let total = (1..=k)
            .map(|j| self.cost[(self.row_of[j] - 1) * k + j - 1])
            .sum();
        self.cost.clear();
        total
    }
}

/// Exact branch-and-bound solution of the assignment problem
/// (Eq. 10), with an anytime node budget.
///
/// Unlike [`exhaustive`](crate::optimize::exhaustive) this prunes with
/// admissible lower bounds. In a release build on a 2-vCPU VM, a 2×4
/// proof on the `exact_2x4` benchmark streams averages 0.13 s and a 3×3
/// minimum-pitch proof on sequential and Gaussian streams with
/// inversions takes 0.3–1.2 s (50 k–610 k nodes).
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if the node limit is zero.
///
/// # Examples
///
/// ```
/// use tsv3d_core::{optimize, AssignmentProblem};
/// use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = LinearCapModel::fit(&Extractor::new(
///     TsvArray::new(2, 2, TsvGeometry::wide_2018())?,
/// ))?;
/// let s = BitStream::from_words(4, vec![0b0001, 0b1110, 0b0011, 0b1100])?;
/// let problem = AssignmentProblem::new(SwitchingStats::from_stream(&s), cap)?;
/// let outcome = optimize::branch_and_bound(&problem, &Default::default())?;
/// assert!(outcome.proven_optimal);
/// # Ok(())
/// # }
/// ```
pub fn branch_and_bound(
    problem: &AssignmentProblem,
    options: &BnbOptions,
) -> Result<BnbOutcome, CoreError> {
    branch_and_bound_with_telemetry(problem, options, &TelemetryHandle::disabled())
}

/// [`branch_and_bound`] with search instrumentation.
///
/// Accumulates `bnb.*` counters (nodes, cost/bound prunes, leaves,
/// incumbents), records the `bnb.bound_ratio` quality histogram, and
/// emits `bnb.incumbent` events plus a final `bnb.done` event.
/// Telemetry never influences the search order or pruning, so the
/// returned [`BnbOutcome`] is identical to [`branch_and_bound`]'s.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if the node limit is zero.
pub fn branch_and_bound_with_telemetry(
    problem: &AssignmentProblem,
    options: &BnbOptions,
    tel: &TelemetryHandle,
) -> Result<BnbOutcome, CoreError> {
    if options.node_limit == 0 {
        return Err(CoreError::EmptyBudget);
    }
    let _span = tel.span("core.bnb");
    let mut searcher = Searcher::new(problem, options.node_limit, tel);
    searcher.search(0, 0.0);

    let assignment = SignedPerm::from_parts(searcher.best_line_of_bit, searcher.best_inverted)
        .expect("search constructs valid permutations");
    let power = problem.power(&assignment);
    let outcome = BnbOutcome {
        result: OptimizeResult { assignment, power },
        proven_optimal: !searcher.exhausted,
        nodes: searcher.nodes,
    };
    if searcher.observe {
        tel.add("bnb.nodes", searcher.nodes);
        tel.add("bnb.pruned_by_cost", searcher.pruned_by_cost);
        tel.add("bnb.pruned_by_bound", searcher.pruned_by_bound);
        tel.add("bnb.leaves", searcher.leaves);
        tel.add("bnb.incumbents", searcher.incumbents);
        tel.event(
            "bnb.done",
            &[
                ("nodes", Value::from(searcher.nodes)),
                ("pruned_by_cost", Value::from(searcher.pruned_by_cost)),
                ("pruned_by_bound", Value::from(searcher.pruned_by_bound)),
                ("leaves", Value::from(searcher.leaves)),
                ("incumbents", Value::from(searcher.incumbents)),
                ("proven_optimal", Value::from(outcome.proven_optimal)),
                ("best_power", Value::from(power)),
            ],
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
    use tsv3d_stats::gen::GaussianSource;
    use tsv3d_stats::SwitchingStats;

    fn problem(rows: usize, cols: usize, seed: u64) -> AssignmentProblem {
        let n = rows * cols;
        let cap = LinearCapModel::fit(&Extractor::new(
            TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
        ))
        .expect("fit");
        let stream = GaussianSource::new(n, (1u64 << (n - 2)) as f64)
            .with_correlation(0.3)
            .generate(seed, 5_000)
            .expect("stream");
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("problem")
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        for seed in [1, 2, 3] {
            let p = problem(2, 2, seed);
            let exact = optimize::exhaustive(&p).unwrap();
            let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
            assert!(bnb.proven_optimal);
            assert!(
                (bnb.result.power - exact.power).abs() < 1e-12 * exact.power.abs(),
                "seed {seed}: bnb {:.6e} vs exhaustive {:.6e}",
                bnb.result.power,
                exact.power
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_2x3_with_constraints() {
        let p = problem(2, 3, 7)
            .with_invertible(vec![true, false, true, false, true, false])
            .unwrap();
        let exact = optimize::exhaustive(&p).unwrap();
        let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
        assert!(bnb.proven_optimal);
        assert!((bnb.result.power - exact.power).abs() < 1e-12 * exact.power.abs());
        assert!(p.is_feasible(&bnb.result.assignment));
    }

    #[test]
    fn proves_optimality_on_3x3_within_budget() {
        // 9-bit signed search space is 9!·2⁹ ≈ 1.9e8; the bound must
        // prune it to well under the default node budget.
        let p = problem(3, 3, 11);
        let bnb = branch_and_bound(&p, &BnbOptions::default()).unwrap();
        assert!(bnb.proven_optimal, "expanded {} nodes", bnb.nodes);
        // The annealer should agree (it usually finds the optimum here).
        let annealed = optimize::anneal(
            &p,
            &optimize::AnnealOptions {
                iterations: 40_000,
                restarts: 4,
                seed: 5,
                threads: 1,
            },
        )
        .unwrap();
        assert!(bnb.result.power <= annealed.power * (1.0 + 1e-9));
    }

    /// The exactness contract: on fixed instances with pins and
    /// inversion masks, the table-driven search proves the reference
    /// search's power bit for bit, returns its assignment and expands
    /// no more nodes.
    #[test]
    fn matches_the_reference_search_with_no_more_nodes() {
        let masked = |p: AssignmentProblem, invertible: &[bool]| {
            p.with_invertible(invertible.to_vec()).expect("flag count")
        };
        let pinned = |p: AssignmentProblem, pins: &[Option<usize>]| {
            p.with_pinned(pins.to_vec()).expect("valid pins")
        };
        let cases = [
            problem(2, 3, 7),
            masked(problem(2, 3, 8), &[true, false, true, false, true, false]),
            masked(
                pinned(
                    problem(2, 3, 9),
                    &[None, Some(4), None, None, Some(0), None],
                ),
                &[false, true, true, false, true, true],
            ),
            problem(2, 4, 5),
            masked(
                problem(2, 4, 6),
                &[false, true, true, true, false, true, true, false],
            ),
            pinned(
                problem(2, 4, 7),
                &[None, None, Some(2), None, None, None, Some(5), None],
            ),
            masked(
                pinned(
                    problem(2, 4, 8),
                    &[Some(7), None, None, None, None, None, None, Some(0)],
                ),
                &[true, true, false, true, true, false, true, true],
            ),
        ];
        for (i, p) in cases.iter().enumerate() {
            let old = reference::branch_and_bound(p);
            let new = branch_and_bound(p, &BnbOptions::default()).unwrap();
            assert!(new.proven_optimal, "case {i}");
            assert_eq!(new.result.power.to_bits(), old.power.to_bits(), "case {i}");
            assert_eq!(new.result.assignment, old.assignment, "case {i}");
            assert!(
                new.nodes <= old.nodes,
                "case {i}: {} > {} nodes",
                new.nodes,
                old.nodes
            );
        }
    }

    #[test]
    fn hungarian_finds_the_minimum_matching() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        /// Minimum over every matching of rows `row..k` to unused columns.
        fn brute(m: &[f64], k: usize, row: usize, used: u32) -> f64 {
            if row == k {
                return 0.0;
            }
            (0..k)
                .filter(|&c| used & (1 << c) == 0)
                .map(|c| m[row * k + c] + brute(m, k, row + 1, used | 1 << c))
                .fold(f64::INFINITY, f64::min)
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut hungarian = Hungarian::new(6);
        for k in 0..=6 {
            for _ in 0..50 {
                let m: Vec<f64> = (0..k * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
                hungarian.cost.extend_from_slice(&m);
                let got = hungarian.solve(k);
                let want = brute(&m, k, 0, 0);
                assert!((got - want).abs() <= 1e-12, "k = {k}: {got} vs {want}");
                assert!(hungarian.cost.is_empty());
            }
        }
    }

    #[test]
    fn anytime_mode_returns_an_incumbent() {
        let p = problem(3, 3, 13);
        let bnb = branch_and_bound(&p, &BnbOptions { node_limit: 50 }).unwrap();
        assert!(!bnb.proven_optimal);
        // Still no worse than the identity seed.
        assert!(bnb.result.power <= p.identity_power());
    }

    #[test]
    fn zero_budget_rejected() {
        let p = problem(2, 2, 1);
        assert!(matches!(
            branch_and_bound(&p, &BnbOptions { node_limit: 0 }),
            Err(CoreError::EmptyBudget)
        ));
    }
}
