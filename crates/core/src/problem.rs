//! The assignment problem: data statistics + capacitance model + the
//! power objective `⟨T', C'⟩`.

use crate::CoreError;
use tsv3d_matrix::{Matrix, SignedPerm};
use tsv3d_model::LinearCapModel;
use tsv3d_stats::SwitchingStats;

/// A bit-to-TSV assignment problem (paper Eq. 10).
///
/// Combines the *bit-indexed* switching statistics of the data stream
/// with the *line-indexed* linear capacitance model of the target TSV
/// array, plus the per-bit inversion constraints (a V_dd or GND supply
/// line cannot be inverted; Sec. 5.1).
///
/// The objective evaluated by [`power`](AssignmentProblem::power) is the
/// normalised dynamic power
///
/// ```text
/// P'_n(Aπ) = ⟨T'(Aπ), C'(Aπ)⟩
///          = Σ_j Ts'_jj · C_T,j  −  Σ_{j≠k} Tc'_jk · C'_jk
/// ```
///
/// with `T'` from Eq. 4 and `C'` from Eq. 9. Multiplying by
/// `V_dd² · f / 2` recovers watts (Eq. 1).
///
/// # Examples
///
/// ```
/// use tsv3d_core::AssignmentProblem;
/// use tsv3d_matrix::SignedPerm;
/// use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = LinearCapModel::fit(&Extractor::new(
///     TsvArray::new(2, 2, TsvGeometry::wide_2018())?,
/// ))?;
/// let stream = BitStream::from_words(4, vec![0b0000, 0b0110, 0b0000, 0b0101])?;
/// let problem = AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap)?;
/// let p = problem.power(&SignedPerm::identity(4));
/// assert!(p > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AssignmentProblem {
    stats: SwitchingStats,
    cap_model: LinearCapModel,
    invertible: Vec<bool>,
    /// `pinned[bit] = Some(line)` fixes the bit to that via (e.g. a
    /// supply line at a floorplan-mandated position, or a repaired bit
    /// on the redundant via).
    pinned: Vec<Option<usize>>,
    /// Cached bit-indexed epsilon vector.
    eps: Vec<f64>,
    /// Flattened coefficient tables for the hot evaluation paths.
    flat: FlatTables,
    /// Cached movable line set (lines not claimed by a pin).
    free_lines: Vec<usize>,
    /// Cached invertible bit set.
    invertible_bits: Vec<usize>,
}

/// Row-major copies of the model/statistics matrices the move-pricing
/// loops read.
///
/// [`power`], the `*_delta` methods, [`crosstalk_activity`] and the
/// branch-and-bound searcher read up to four coefficients per line pair;
/// going through `Matrix` indexing and the stats accessors costs a
/// cross-crate call per read (no LTO in this workspace), so the
/// constructor copies them once into contiguous `Vec<f64>` tables.
/// Values are byte-for-byte the matrix entries, so switching the readers
/// over changes no arithmetic.
///
/// [`power`]: AssignmentProblem::power
/// [`crosstalk_activity`]: AssignmentProblem::crosstalk_activity
#[derive(Debug, Clone)]
pub(crate) struct FlatTables {
    /// Bundle size (rows/cols of the square tables).
    pub(crate) n: usize,
    /// Line-indexed rest capacitance `C_R`, row-major `n×n`.
    pub(crate) c_r: Vec<f64>,
    /// Line-indexed capacitance slope `ΔC`, row-major `n×n`.
    pub(crate) delta_c: Vec<f64>,
    /// Bit-indexed coupling switching `Tc`, row-major `n×n`.
    pub(crate) tc: Vec<f64>,
    /// Bit-indexed joint toggle probability, row-major `n×n`.
    joint: Vec<f64>,
    /// Bit-indexed self switching `Ts` diagonal.
    pub(crate) ts: Vec<f64>,
}

impl FlatTables {
    fn build(stats: &SwitchingStats, cap_model: &LinearCapModel) -> Self {
        let n = stats.n();
        let c_r_m = cap_model.c_r();
        let delta_c_m = cap_model.delta_c();
        let mut c_r = Vec::with_capacity(n * n);
        let mut delta_c = Vec::with_capacity(n * n);
        let mut tc = Vec::with_capacity(n * n);
        let mut joint = Vec::with_capacity(n * n);
        for j in 0..n {
            for k in 0..n {
                c_r.push(c_r_m[(j, k)]);
                delta_c.push(delta_c_m[(j, k)]);
                tc.push(stats.coupling_switching(j, k));
                joint.push(stats.joint_switching(j, k));
            }
        }
        let ts = (0..n).map(|b| stats.self_switching(b)).collect();
        Self {
            n,
            c_r,
            delta_c,
            tc,
            joint,
            ts,
        }
    }
}

/// The `±1.0` sign encoded by an inversion flag.
#[inline]
fn sign_of(inverted: bool) -> f64 {
    if inverted {
        -1.0
    } else {
        1.0
    }
}

/// Line-indexed state of a signed assignment's occupants: what the
/// annealing engine prices its moves from.
///
/// For the bit `b(j)` on line `j` with sign `s_j` it holds `s_j·ε_b(j)`,
/// `Ts_b(j)` and row `j` of the signed coupling `s_j·s_k·Tc[b(j), b(k)]`.
/// [`load`](Occupants::load) fills it in O(n²); [`swap`](Occupants::swap)
/// and [`flip`](Occupants::flip) keep it equal to a fresh load, bit for
/// bit, after each accepted move in O(n). Signs are ±1, so every product
/// the kernels form from it is exactly the one
/// [`AssignmentProblem::swap_lines_delta`] and
/// [`AssignmentProblem::flip_bit_delta`] form through `bits[k]`, and the
/// kernels return their deltas bit for bit.
#[derive(Debug, Default)]
pub(crate) struct Occupants {
    n: usize,
    /// `s_j·ε_b(j)` per line.
    eps: Vec<f64>,
    /// `Ts_b(j)` per line.
    ts: Vec<f64>,
    /// `s_j·s_k·Tc[b(j), b(k)]`, row-major `n×n` in line order.
    tc: Vec<f64>,
}

/// `Ts · C_jj` of a line whose occupant has self switching `ts` and
/// signed `ε` `e` (the occupant form of `diag_cost`).
#[inline]
fn diag_term(flat: &FlatTables, line: usize, ts: f64, e: f64) -> f64 {
    let diag = line * flat.n + line;
    ts * (flat.c_r[diag] + 2.0 * flat.delta_c[diag] * e)
}

impl Occupants {
    /// Loads the occupants of `a`, reusing the buffers.
    pub(crate) fn load(&mut self, problem: &AssignmentProblem, a: &SignedPerm) {
        let flat = &problem.flat;
        let n = flat.n;
        let bits = a.bits_of_lines();
        let inverted = a.inversions();
        self.n = n;
        self.eps.clear();
        self.ts.clear();
        self.tc.clear();
        self.tc.reserve(n * n);
        self.eps
            .extend(bits.iter().map(|&b| sign_of(inverted[b]) * problem.eps[b]));
        self.ts.extend(bits.iter().map(|&b| flat.ts[b]));
        for &bj in bits {
            let s_j = sign_of(inverted[bj]);
            let row = &flat.tc[bj * n..bj * n + n];
            self.tc
                .extend(bits.iter().map(|&bk| s_j * sign_of(inverted[bk]) * row[bk]));
        }
    }

    /// Applies a swap of the occupants of lines `x` and `y`.
    pub(crate) fn swap(&mut self, x: usize, y: usize) {
        if x == y {
            return;
        }
        let n = self.n;
        let (lo, hi) = (x.min(y), x.max(y));
        self.eps.swap(x, y);
        self.ts.swap(x, y);
        let (head, tail) = self.tc.split_at_mut(hi * n);
        head[lo * n..lo * n + n].swap_with_slice(&mut tail[..n]);
        for row in self.tc.chunks_exact_mut(n) {
            row.swap(x, y);
        }
    }

    /// Applies a flip of the inversion of `line`'s occupant.
    pub(crate) fn flip(&mut self, line: usize) {
        let n = self.n;
        self.eps[line] = -self.eps[line];
        for k in (0..n).filter(|&k| k != line) {
            self.tc[line * n + k] = -self.tc[line * n + k];
            self.tc[k * n + line] = -self.tc[k * n + line];
        }
    }

    /// [`AssignmentProblem::swap_lines_delta`] of the loaded assignment,
    /// bit for bit: the same terms in the same order, read from
    /// contiguous line-indexed rows with no per-line skip test.
    pub(crate) fn swap_delta(&self, problem: &AssignmentProblem, x: usize, y: usize) -> f64 {
        if x == y {
            return 0.0;
        }
        let flat = &problem.flat;
        let n = self.n;
        let (e_x, e_y) = (self.eps[x], self.eps[y]);
        let (ts_x, ts_y) = (self.ts[x], self.ts[y]);
        let mut delta = 0.0;
        delta += diag_term(flat, x, ts_y, e_y) - diag_term(flat, x, ts_x, e_x);
        delta += diag_term(flat, y, ts_x, e_x) - diag_term(flat, y, ts_y, e_y);
        let (crx, dcx) = (&flat.c_r[x * n..x * n + n], &flat.delta_c[x * n..x * n + n]);
        let (cry, dcy) = (&flat.c_r[y * n..y * n + n], &flat.delta_c[y * n..y * n + n]);
        let (tcx, tcy) = (&self.tc[x * n..x * n + n], &self.tc[y * n..y * n + n]);
        let (lo, hi) = (x.min(y), x.max(y));
        // The third lines, in order, as sub-slices of equal length.
        for (start, end) in [(0, lo), (lo + 1, hi), (hi + 1, n)] {
            let (eps, ts) = (&self.eps[start..end], &self.ts[start..end]);
            let (crx, dcx, tcx) = (&crx[start..end], &dcx[start..end], &tcx[start..end]);
            let (cry, dcy, tcy) = (&cry[start..end], &dcy[start..end], &tcy[start..end]);
            for k in 0..eps.len() {
                let (e_k, ts_k) = (eps[k], ts[k]);
                // Switching weights of each occupant against line k's.
                let w_y = ts_y + ts_k - 2.0 * tcy[k];
                let w_x = ts_x + ts_k - 2.0 * tcx[k];
                delta += w_y * (crx[k] + dcx[k] * (e_y + e_k))
                    - w_x * (crx[k] + dcx[k] * (e_x + e_k));
                delta += w_x * (cry[k] + dcy[k] * (e_x + e_k))
                    - w_y * (cry[k] + dcy[k] * (e_y + e_k));
            }
        }
        delta
    }

    /// [`AssignmentProblem::flip_bit_delta`] of the occupant of `line`,
    /// bit for bit (see [`swap_delta`](Occupants::swap_delta)).
    pub(crate) fn flip_delta(&self, problem: &AssignmentProblem, line: usize) -> f64 {
        let flat = &problem.flat;
        let n = self.n;
        let e_old = self.eps[line];
        let e_new = -e_old;
        let ts_l = self.ts[line];
        let mut delta = diag_term(flat, line, ts_l, e_new) - diag_term(flat, line, ts_l, e_old);
        let crl = &flat.c_r[line * n..line * n + n];
        let dcl = &flat.delta_c[line * n..line * n + n];
        let tcl = &self.tc[line * n..line * n + n];
        for (start, end) in [(0, line), (line + 1, n)] {
            let (eps, ts) = (&self.eps[start..end], &self.ts[start..end]);
            let (crl, dcl, tcl) = (&crl[start..end], &dcl[start..end], &tcl[start..end]);
            for k in 0..eps.len() {
                let (e_k, ts_k) = (eps[k], ts[k]);
                // The flip negates the signed coupling.
                let t = 2.0 * tcl[k];
                let w_new = ts_l + ts_k + t;
                let w_old = ts_l + ts_k - t;
                delta += w_new * (crl[k] + dcl[k] * (e_new + e_k))
                    - w_old * (crl[k] + dcl[k] * (e_old + e_k));
            }
        }
        delta
    }
}

impl AssignmentProblem {
    /// Creates a problem in which every bit may be inverted.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if the statistics and the
    /// capacitance model disagree on the bundle size.
    pub fn new(stats: SwitchingStats, cap_model: LinearCapModel) -> Result<Self, CoreError> {
        if stats.n() != cap_model.n() {
            return Err(CoreError::DimensionMismatch {
                bits: stats.n(),
                lines: cap_model.n(),
            });
        }
        let eps = stats.epsilons();
        let n = stats.n();
        let flat = FlatTables::build(&stats, &cap_model);
        let mut problem = Self {
            stats,
            cap_model,
            invertible: vec![true; n],
            pinned: vec![None; n],
            eps,
            flat,
            free_lines: Vec::new(),
            invertible_bits: Vec::new(),
        };
        problem.recompute_move_sets();
        Ok(problem)
    }

    /// Refreshes the cached free-line and invertible-bit sets after a
    /// constraint change.
    fn recompute_move_sets(&mut self) {
        let n = self.n();
        let mut taken = vec![false; n];
        for &pin in self.pinned.iter().flatten() {
            taken[pin] = true;
        }
        self.free_lines = (0..n).filter(|&l| !taken[l]).collect();
        self.invertible_bits = (0..n).filter(|&i| self.invertible[i]).collect();
    }

    /// Restricts which bits may be inverted (`false` = inversion
    /// forbidden, e.g. for V_dd/GND supply lines).
    ///
    /// # Errors
    ///
    /// [`CoreError::FlagCountMismatch`] if the flag count differs from
    /// the bit count.
    pub fn with_invertible(mut self, flags: Vec<bool>) -> Result<Self, CoreError> {
        if flags.len() != self.n() {
            return Err(CoreError::FlagCountMismatch {
                got: flags.len(),
                expected: self.n(),
            });
        }
        self.invertible = flags;
        self.recompute_move_sets();
        Ok(self)
    }

    /// Pins bits to fixed lines: `pins[bit] = Some(line)` forces the
    /// optimisers to keep that bit on that via (floorplan-mandated
    /// supply positions, repaired bits on a redundant via, …).
    ///
    /// # Errors
    ///
    /// [`CoreError::FlagCountMismatch`] for a wrong-length vector and
    /// [`CoreError::DimensionMismatch`] if a pinned line is out of range
    /// or two bits are pinned to the same line.
    pub fn with_pinned(mut self, pins: Vec<Option<usize>>) -> Result<Self, CoreError> {
        if pins.len() != self.n() {
            return Err(CoreError::FlagCountMismatch {
                got: pins.len(),
                expected: self.n(),
            });
        }
        let mut used = vec![false; self.n()];
        for &pin in pins.iter().flatten() {
            if pin >= self.n() || used[pin] {
                return Err(CoreError::DimensionMismatch {
                    bits: pin,
                    lines: self.n(),
                });
            }
            used[pin] = true;
        }
        self.pinned = pins;
        self.recompute_move_sets();
        Ok(self)
    }

    /// The pin of bit `i`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn pin_of(&self, i: usize) -> Option<usize> {
        self.pinned[i]
    }

    /// The full pin vector.
    pub fn pinned(&self) -> &[Option<usize>] {
        &self.pinned
    }

    /// Lines not claimed by any pin (the optimisers' movable set).
    /// Cached at construction, so calling this in a loop is free.
    pub fn free_lines(&self) -> &[usize] {
        &self.free_lines
    }

    /// Bits whose inversion flag the optimisers may toggle. Cached at
    /// construction, so calling this in a loop is free.
    pub fn invertible_bits(&self) -> &[usize] {
        &self.invertible_bits
    }

    /// A feasible starting assignment: pinned bits on their lines, the
    /// remaining bits filling the free lines in order, no inversions.
    pub fn base_assignment(&self) -> SignedPerm {
        let n = self.n();
        let mut line_of_bit = vec![usize::MAX; n];
        for (bit, &pin) in self.pinned.iter().enumerate() {
            if let Some(line) = pin {
                line_of_bit[bit] = line;
            }
        }
        let mut free_lines = self.free_lines().iter().copied();
        for slot in line_of_bit.iter_mut() {
            if *slot == usize::MAX {
                *slot = free_lines.next().expect("free lines match free bits");
            }
        }
        SignedPerm::from_parts(line_of_bit, vec![false; n])
            .expect("pin validation guarantees a valid permutation")
    }

    /// Number of bits = number of TSVs in the bundle.
    pub fn n(&self) -> usize {
        self.stats.n()
    }

    /// The row-major coefficient tables.
    pub(crate) fn flat(&self) -> &FlatTables {
        &self.flat
    }

    /// The bit-indexed `ε` vector of the statistics.
    pub(crate) fn eps(&self) -> &[f64] {
        &self.eps
    }

    /// The data stream's switching statistics (bit-indexed).
    pub fn stats(&self) -> &SwitchingStats {
        &self.stats
    }

    /// The array's linear capacitance model (line-indexed).
    pub fn cap_model(&self) -> &LinearCapModel {
        &self.cap_model
    }

    /// Whether bit `i` may be transmitted inverted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn is_invertible(&self, i: usize) -> bool {
        self.invertible[i]
    }

    /// The per-bit inversion permissions.
    pub fn invertible(&self) -> &[bool] {
        &self.invertible
    }

    /// `true` if the assignment respects every inversion constraint and
    /// every pin.
    pub fn is_feasible(&self, assignment: &SignedPerm) -> bool {
        assignment.n() == self.n()
            && (0..self.n()).all(|bit| self.invertible[bit] || !assignment.is_inverted(bit))
            && (0..self.n()).all(|bit| {
                self.pinned[bit].is_none_or(|line| assignment.line_of_bit(bit) == line)
            })
    }

    /// The normalised power `⟨T'(Aπ), C'(Aπ)⟩` of an assignment
    /// (Eqs. 2, 4, 9, 10). Multiply by `V_dd² f / 2` for watts.
    ///
    /// # Panics
    ///
    /// Panics if the assignment size differs from the problem size.
    pub fn power(&self, assignment: &SignedPerm) -> f64 {
        assert_eq!(assignment.n(), self.n(), "assignment size mismatch");
        let n = self.flat.n;
        let bits = assignment.bits_of_lines();
        let inverted = assignment.inversions();
        let mut p = 0.0;
        for j in 0..n {
            let bit_j = bits[j];
            let s_j = sign_of(inverted[bit_j]);
            let eps_j = s_j * self.eps[bit_j];
            let ts_j = self.flat.ts[bit_j];
            let line_row = j * n;
            let bit_row = bit_j * n;
            for (k, &bit_k) in bits.iter().enumerate() {
                let s_k = sign_of(inverted[bit_k]);
                let eps_k = s_k * self.eps[bit_k];
                // Eq. 9: C'_jk = C_R,jk + ΔC_jk (ε'_j + ε'_k).
                let c = self.flat.c_r[line_row + k] + self.flat.delta_c[line_row + k] * (eps_j + eps_k);
                if j == k {
                    // Diagonal of T' carries only the self switching.
                    p += ts_j * c;
                } else {
                    // Off-diagonal of T' is Ts'_jj − Tc'_jk (Eq. 3/4).
                    let tc = s_j * s_k * self.flat.tc[bit_row + bit_k];
                    p += (ts_j - tc) * c;
                }
            }
        }
        p
    }

    /// The power of the *identity* assignment (bit `i` on line `i`, no
    /// inversions) — a common reference point.
    pub fn identity_power(&self) -> f64 {
        self.power(&SignedPerm::identity(self.n()))
    }

    /// Cost of the diagonal entry of `line` when it carries `bit` with
    /// sign `s`.
    #[inline]
    fn diag_cost(&self, line: usize, bit: usize, s: f64) -> f64 {
        let diag = line * self.flat.n + line;
        self.flat.ts[bit] * (self.flat.c_r[diag] + 2.0 * self.flat.delta_c[diag] * s * self.eps[bit])
    }

    /// Combined cost of the `(j,k)` and `(k,j)` entries for the given
    /// occupants. Reference form of the unrolled expressions inside
    /// [`swap_lines_delta`] and [`flip_bit_delta`] (and so of the
    /// engine's occupant kernels); tests pin them all to it bit for bit.
    ///
    /// [`swap_lines_delta`]: AssignmentProblem::swap_lines_delta
    /// [`flip_bit_delta`]: AssignmentProblem::flip_bit_delta
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    fn pair_cost(
        &self,
        line_j: usize,
        line_k: usize,
        bit_j: usize,
        s_j: f64,
        bit_k: usize,
        s_k: f64,
    ) -> f64 {
        let n = self.flat.n;
        let line_jk = line_j * n + line_k;
        let c = self.flat.c_r[line_jk]
            + self.flat.delta_c[line_jk] * (s_j * self.eps[bit_j] + s_k * self.eps[bit_k]);
        let w = self.flat.ts[bit_j] + self.flat.ts[bit_k]
            - 2.0 * s_j * s_k * self.flat.tc[bit_j * n + bit_k];
        w * c
    }

    /// The `(j,k)` crosstalk-activity term for explicit occupants:
    /// positive coupling capacitance times the opposite-transition
    /// probability (see [`crosstalk_activity`]).
    ///
    /// [`crosstalk_activity`]: AssignmentProblem::crosstalk_activity
    #[inline]
    fn xtalk_term(
        &self,
        line_j: usize,
        line_k: usize,
        bit_j: usize,
        s_j: f64,
        bit_k: usize,
        s_k: f64,
    ) -> f64 {
        let n = self.flat.n;
        let line_jk = line_j * n + line_k;
        let bit_jk = bit_j * n + bit_k;
        let c = self.flat.c_r[line_jk]
            + self.flat.delta_c[line_jk] * (s_j * self.eps[bit_j] + s_k * self.eps[bit_k]);
        let joint = self.flat.joint[bit_jk];
        let tc = s_j * s_k * self.flat.tc[bit_jk];
        let p_opposite = ((joint - tc) / 2.0).max(0.0);
        c.max(0.0) * p_opposite
    }

    /// Power change of swapping the occupants of lines `x` and `y` —
    /// an `O(n)` alternative to recomputing [`power`] after
    /// [`SignedPerm::swap_lines`].
    ///
    /// Returns `power(after swap) − power(before)` for the *current*
    /// assignment `a` (which is not modified).
    ///
    /// This is the public reference form of the pricing: the annealing
    /// engine prices swaps from line-indexed occupant state kept across
    /// moves, and tests pin that kernel to this method bit for bit.
    /// [`greedy_two_opt`], [`PowerObjective`] and
    /// [`PowerCrosstalkObjective`] price through it.
    ///
    /// [`power`]: AssignmentProblem::power
    /// [`greedy_two_opt`]: crate::optimize::greedy_two_opt
    /// [`PowerObjective`]: crate::optimize::PowerObjective
    /// [`PowerCrosstalkObjective`]: crate::optimize::PowerCrosstalkObjective
    ///
    /// # Panics
    ///
    /// Panics if the assignment size differs from the problem size or
    /// an index is out of range.
    pub fn swap_lines_delta(&self, a: &SignedPerm, x: usize, y: usize) -> f64 {
        assert_eq!(a.n(), self.n(), "assignment size mismatch");
        if x == y {
            return 0.0;
        }
        let n = self.flat.n;
        let bits = a.bits_of_lines();
        let inverted = a.inversions();
        let (bx, by) = (bits[x], bits[y]);
        let (sx, sy) = (sign_of(inverted[bx]), sign_of(inverted[by]));
        let mut delta = 0.0;
        // Diagonals.
        delta += self.diag_cost(x, by, sy) - self.diag_cost(x, bx, sx);
        delta += self.diag_cost(y, bx, sx) - self.diag_cost(y, by, sy);
        // Pairs with every third line: the four `pair_cost`
        // evaluations per third line are unrolled with the
        // occupant-invariant factors hoisted out of the loop. Every
        // arithmetic expression keeps `pair_cost`'s
        // exact shape and order, so the result is bit-identical to the
        // four-call form (the switching weight `w` depends only on the
        // occupant pair, never on the lines, so each occupant's `w` is
        // shared between its old and new line).
        let e_by = sy * self.eps[by];
        let e_bx = sx * self.eps[bx];
        let ts_by = self.flat.ts[by];
        let ts_bx = self.flat.ts[bx];
        let two_sy = 2.0 * sy;
        let two_sx = 2.0 * sx;
        let crx = &self.flat.c_r[x * n..x * n + n];
        let dcx = &self.flat.delta_c[x * n..x * n + n];
        let cry = &self.flat.c_r[y * n..y * n + n];
        let dcy = &self.flat.delta_c[y * n..y * n + n];
        let tc_by = &self.flat.tc[by * n..by * n + n];
        let tc_bx = &self.flat.tc[bx * n..bx * n + n];
        for (k, &bk) in bits.iter().enumerate() {
            if k == x || k == y {
                continue;
            }
            let sk = sign_of(inverted[bk]);
            let e_k = sk * self.eps[bk];
            let ts_k = self.flat.ts[bk];
            let w_by = ts_by + ts_k - two_sy * sk * tc_by[bk];
            let w_bx = ts_bx + ts_k - two_sx * sk * tc_bx[bk];
            delta += w_by * (crx[k] + dcx[k] * (e_by + e_k))
                - w_bx * (crx[k] + dcx[k] * (e_bx + e_k));
            delta += w_bx * (cry[k] + dcy[k] * (e_bx + e_k))
                - w_by * (cry[k] + dcy[k] * (e_by + e_k));
        }
        // The (x, y) pair itself: the capacitance stays, the occupants
        // swap — the switching weight is symmetric in the occupants, so
        // only the ε term changes… both occupants sit on the same pair
        // of lines before and after, with the same signs, so the pair
        // cost is actually unchanged. (C depends on the *sum* of the
        // two ε values and w on the occupant pair — both invariant
        // under the swap.)
        delta
    }

    /// Power change of flipping the inversion of `bit` — an `O(n)`
    /// alternative to recomputing [`power`] after
    /// [`SignedPerm::flip_bit`].
    ///
    /// Like [`swap_lines_delta`], this is the public reference form the
    /// annealing engine's flip kernel is pinned to bit for bit.
    ///
    /// [`power`]: AssignmentProblem::power
    /// [`swap_lines_delta`]: AssignmentProblem::swap_lines_delta
    ///
    /// # Panics
    ///
    /// Panics if the assignment size differs from the problem size or
    /// `bit` is out of range.
    pub fn flip_bit_delta(&self, a: &SignedPerm, bit: usize) -> f64 {
        assert_eq!(a.n(), self.n(), "assignment size mismatch");
        let n = self.flat.n;
        let bits = a.bits_of_lines();
        let inverted = a.inversions();
        let line = a.line_of_bit(bit);
        let s_old = sign_of(inverted[bit]);
        let s_new = -s_old;
        let mut delta = self.diag_cost(line, bit, s_new) - self.diag_cost(line, bit, s_old);
        // Unrolled `pair_cost(new) − pair_cost(old)` with the
        // bit-invariant factors hoisted; expression shapes match
        // `pair_cost` exactly, so the value is bit-identical to the
        // two-call form (see `swap_lines_delta`).
        let e_new = s_new * self.eps[bit];
        let e_old = s_old * self.eps[bit];
        let ts_bit = self.flat.ts[bit];
        let two_new = 2.0 * s_new;
        let two_old = 2.0 * s_old;
        let crl = &self.flat.c_r[line * n..line * n + n];
        let dcl = &self.flat.delta_c[line * n..line * n + n];
        let tcb = &self.flat.tc[bit * n..bit * n + n];
        for (k, &bk) in bits.iter().enumerate() {
            if k == line {
                continue;
            }
            let sk = sign_of(inverted[bk]);
            let e_k = sk * self.eps[bk];
            let ts_k = self.flat.ts[bk];
            let w_new = ts_bit + ts_k - two_new * sk * tcb[bk];
            let w_old = ts_bit + ts_k - two_old * sk * tcb[bk];
            delta += w_new * (crl[k] + dcl[k] * (e_new + e_k))
                - w_old * (crl[k] + dcl[k] * (e_old + e_k));
        }
        delta
    }

    /// The *crosstalk activity* of an assignment: the expected
    /// opposite-transition coupling charge per cycle,
    ///
    /// ```text
    /// X(Aπ) = Σ_{j<k} C'_jk · P(Δb'_j · Δb'_k = −1)
    /// ```
    ///
    /// Opposite transitions on coupled vias are both the costliest
    /// power class (Sec. 2) and the worst signal-integrity class; this
    /// metric isolates the latter so power/SI trade-offs can be
    /// explored (see [`optimize::anneal_objective`]).
    ///
    /// [`optimize::anneal_objective`]: crate::optimize::anneal_objective
    ///
    /// # Panics
    ///
    /// Panics if the assignment size differs from the problem size.
    pub fn crosstalk_activity(&self, assignment: &SignedPerm) -> f64 {
        assert_eq!(assignment.n(), self.n(), "assignment size mismatch");
        let n = self.flat.n;
        let bits = assignment.bits_of_lines();
        let inverted = assignment.inversions();
        let mut x = 0.0;
        for j in 0..n {
            let bit_j = bits[j];
            let s_j = sign_of(inverted[bit_j]);
            for (k, &bit_k) in bits.iter().enumerate().skip(j + 1) {
                let s_k = sign_of(inverted[bit_k]);
                // With signs applied, Tc' = s_j·s_k·Tc while the joint
                // toggle probability is sign-invariant.
                x += self.xtalk_term(j, k, bit_j, s_j, bit_k, s_k);
            }
        }
        x
    }

    /// Crosstalk-activity change of swapping the occupants of lines `x`
    /// and `y` — the `O(n)` counterpart of [`swap_lines_delta`] for
    /// [`crosstalk_activity`], used by the incremental power+crosstalk
    /// annealing objective.
    ///
    /// Returns `crosstalk_activity(after swap) − crosstalk_activity(before)`
    /// for the *current* assignment `a` (which is not modified).
    ///
    /// [`swap_lines_delta`]: AssignmentProblem::swap_lines_delta
    /// [`crosstalk_activity`]: AssignmentProblem::crosstalk_activity
    ///
    /// # Panics
    ///
    /// Panics if the assignment size differs from the problem size or
    /// an index is out of range.
    pub fn crosstalk_swap_delta(&self, a: &SignedPerm, x: usize, y: usize) -> f64 {
        assert_eq!(a.n(), self.n(), "assignment size mismatch");
        if x == y {
            return 0.0;
        }
        let bits = a.bits_of_lines();
        let inverted = a.inversions();
        let (bx, by) = (bits[x], bits[y]);
        let (sx, sy) = (sign_of(inverted[bx]), sign_of(inverted[by]));
        let mut delta = 0.0;
        for (k, &bk) in bits.iter().enumerate() {
            if k == x || k == y {
                continue;
            }
            let sk = sign_of(inverted[bk]);
            delta += self.xtalk_term(x, k, by, sy, bk, sk) - self.xtalk_term(x, k, bx, sx, bk, sk);
            delta += self.xtalk_term(y, k, bx, sx, bk, sk) - self.xtalk_term(y, k, by, sy, bk, sk);
        }
        // The (x, y) pair itself is invariant: the same occupant pair
        // sits on the same line pair with the same signs before and
        // after the swap, so its term cancels exactly.
        delta
    }

    /// Crosstalk-activity change of flipping the inversion of `bit` —
    /// the `O(n)` counterpart of [`flip_bit_delta`] for
    /// [`crosstalk_activity`].
    ///
    /// [`flip_bit_delta`]: AssignmentProblem::flip_bit_delta
    /// [`crosstalk_activity`]: AssignmentProblem::crosstalk_activity
    ///
    /// # Panics
    ///
    /// Panics if the assignment size differs from the problem size or
    /// `bit` is out of range.
    pub fn crosstalk_flip_delta(&self, a: &SignedPerm, bit: usize) -> f64 {
        assert_eq!(a.n(), self.n(), "assignment size mismatch");
        let bits = a.bits_of_lines();
        let inverted = a.inversions();
        let line = a.line_of_bit(bit);
        let s_old = sign_of(inverted[bit]);
        let s_new = -s_old;
        let mut delta = 0.0;
        for (k, &bk) in bits.iter().enumerate() {
            if k == line {
                continue;
            }
            let sk = sign_of(inverted[bk]);
            delta += self.xtalk_term(line, k, bit, s_new, bk, sk)
                - self.xtalk_term(line, k, bit, s_old, bk, sk);
        }
        delta
    }

    /// Explicit matrix-form cross-check of [`power`]: materialises
    /// `T' = Aπ Ts Aπᵀ·1 − Aπ Tc Aπᵀ` and `C'` and returns `⟨T', C'⟩`.
    /// Slower but directly mirrors Eqs. 2–4 and 9; used by the test
    /// suite to validate the fast path.
    ///
    /// [`power`]: AssignmentProblem::power
    pub fn power_matrix_form(&self, assignment: &SignedPerm) -> f64 {
        let n = self.n();
        // Ts' (diagonal, signs cancel).
        let ts_line = assignment.apply_unsigned_vec(self.stats.self_switchings());
        // Tc' with zero diagonal, signs applied.
        let tc_line = assignment.conjugate(&self.stats.tc_matrix());
        let t_prime = Matrix::from_fn(n, |j, k| {
            if j == k {
                ts_line[j]
            } else {
                ts_line[j] - tc_line[(j, k)]
            }
        });
        let eps_line = assignment.apply_signed_vec(&self.eps);
        let c_prime = self.cap_model.capacitance(&eps_line);
        t_prime.frobenius(&c_prime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tsv3d_model::{Extractor, TsvArray, TsvGeometry};
    use tsv3d_stats::BitStream;

    fn cap_model(rows: usize, cols: usize) -> LinearCapModel {
        LinearCapModel::fit(&Extractor::new(
            TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
        ))
        .expect("fit")
    }

    fn problem_from_words(rows: usize, cols: usize, words: Vec<u64>) -> AssignmentProblem {
        let stream = BitStream::from_words(rows * cols, words).expect("stream");
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap_model(rows, cols))
            .expect("problem")
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let stream = BitStream::from_words(5, vec![1, 2, 3]).unwrap();
        let err =
            AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap_model(2, 2))
                .unwrap_err();
        assert_eq!(err, CoreError::DimensionMismatch { bits: 5, lines: 4 });
    }

    #[test]
    fn flag_count_checked() {
        let p = problem_from_words(2, 2, vec![0, 15, 0]);
        assert!(matches!(
            p.with_invertible(vec![true; 3]),
            Err(CoreError::FlagCountMismatch { got: 3, expected: 4 })
        ));
    }

    /// The sign of an inversion flag, spelled out rather than taken from
    /// the `sign_of` the kernels use.
    fn literal_sign(inverted: bool) -> f64 {
        if inverted {
            -1.0
        } else {
            1.0
        }
    }

    /// `swap_lines_delta` as two `diag_cost` and four `pair_cost` calls
    /// per third line: the readable form the kernels unroll.
    fn reference_swap_delta(p: &AssignmentProblem, a: &SignedPerm, x: usize, y: usize) -> f64 {
        if x == y {
            return 0.0;
        }
        let bits = a.bits_of_lines();
        let sign = |bit: usize| literal_sign(a.is_inverted(bit));
        let (bx, by) = (bits[x], bits[y]);
        let (sx, sy) = (sign(bx), sign(by));
        let mut reference = 0.0;
        reference += p.diag_cost(x, by, sy) - p.diag_cost(x, bx, sx);
        reference += p.diag_cost(y, bx, sx) - p.diag_cost(y, by, sy);
        for (k, &bk) in bits.iter().enumerate() {
            if k == x || k == y {
                continue;
            }
            let sk = sign(bk);
            reference += p.pair_cost(x, k, by, sy, bk, sk) - p.pair_cost(x, k, bx, sx, bk, sk);
            reference += p.pair_cost(y, k, bx, sx, bk, sk) - p.pair_cost(y, k, by, sy, bk, sk);
        }
        reference
    }

    /// `flip_bit_delta` as `diag_cost` and `pair_cost` calls.
    fn reference_flip_delta(p: &AssignmentProblem, a: &SignedPerm, bit: usize) -> f64 {
        let bits = a.bits_of_lines();
        let line = a.line_of_bit(bit);
        let s_old = literal_sign(a.is_inverted(bit));
        let s_new = -s_old;
        let mut reference = p.diag_cost(line, bit, s_new) - p.diag_cost(line, bit, s_old);
        for (k, &bk) in bits.iter().enumerate() {
            if k == line {
                continue;
            }
            let sk = literal_sign(a.is_inverted(bk));
            reference += p.pair_cost(line, k, bit, s_new, bk, sk)
                - p.pair_cost(line, k, bit, s_old, bk, sk);
        }
        reference
    }

    /// Checks, for every ordered line pair and every bit of `a`, that the
    /// occupant kernels, the public reference pricing and the `pair_cost`
    /// reference agree bit for bit.
    fn check_kernels(p: &AssignmentProblem, a: &SignedPerm) -> Result<(), String> {
        let mut occupants = Occupants::default();
        occupants.load(p, a);
        for x in 0..p.n() {
            for y in 0..p.n() {
                let got = [
                    reference_swap_delta(p, a, x, y),
                    p.swap_lines_delta(a, x, y),
                    occupants.swap_delta(p, x, y),
                ]
                .map(f64::to_bits);
                if got[1] != got[0] || got[2] != got[0] {
                    return Err(format!("swap ({x},{y}) of {a}: reference/public/kernel {got:x?}"));
                }
            }
        }
        for bit in 0..p.n() {
            let got = [
                reference_flip_delta(p, a, bit),
                p.flip_bit_delta(a, bit),
                occupants.flip_delta(p, a.line_of_bit(bit)),
            ]
            .map(f64::to_bits);
            if got[1] != got[0] || got[2] != got[0] {
                return Err(format!("flip {bit} of {a}: reference/public/kernel {got:x?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn unrolled_swap_and_flip_deltas_are_bit_identical_to_pair_cost() {
        // `swap_lines_delta` / `flip_bit_delta` and the occupant kernels
        // unroll `pair_cost` with hoisted occupant-invariant factors; this
        // pins them to the readable reference on a real 3×3 problem.
        let p = problem_from_words(3, 3, vec![0x1AB, 0x0F3, 0x1C2, 0x02A, 0x155, 0x1FF, 0x080]);
        let a = SignedPerm::from_parts(
            vec![3, 1, 4, 0, 8, 2, 7, 5, 6],
            vec![true, false, false, true, false, true, false, false, true],
        )
        .unwrap();
        check_kernels(&p, &a).unwrap();
    }

    /// A random `n`-bit problem with consistent synthetic statistics and
    /// capacitances, random pins and a random inversion mask, plus a
    /// random feasible signed state of it.
    fn random_state(n: usize, rng: &mut StdRng) -> (AssignmentProblem, SignedPerm) {
        let ts: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..0.5)).collect();
        let mut tc = Matrix::zeros(n);
        let mut c_r = Matrix::zeros(n);
        let mut delta_c = Matrix::zeros(n);
        for i in 0..n {
            tc[(i, i)] = ts[i];
            for j in i..n {
                if j > i {
                    tc[(i, j)] = rng.gen_range(-1.0..1.0) * (ts[i] * ts[j]).sqrt();
                    tc[(j, i)] = tc[(i, j)];
                }
                c_r[(i, j)] = rng.gen_range(1.0..10.0);
                c_r[(j, i)] = c_r[(i, j)];
                delta_c[(i, j)] = -rng.gen_range(0.0..0.3) * c_r[(i, j)];
                delta_c[(j, i)] = delta_c[(i, j)];
            }
        }
        let probs = (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect();
        let stats = SwitchingStats::from_parts(ts, tc, probs);
        let mut lines: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            lines.swap(i, rng.gen_range(0..=i));
        }
        let pins = (0..n)
            .map(|bit| rng.gen_bool(0.25).then_some(lines[bit]))
            .collect();
        let invertible = (0..n).map(|_| rng.gen_bool(0.75)).collect();
        let p = AssignmentProblem::new(stats, LinearCapModel::from_parts(c_r, delta_c))
            .unwrap()
            .with_pinned(pins)
            .unwrap()
            .with_invertible(invertible)
            .unwrap();
        let mut free = p.free_lines().to_vec();
        for i in (1..free.len()).rev() {
            free.swap(i, rng.gen_range(0..=i));
        }
        let mut free = free.into_iter();
        let line_of_bit = (0..n)
            .map(|bit| p.pin_of(bit).unwrap_or_else(|| free.next().unwrap()))
            .collect();
        let inverted = (0..n)
            .map(|bit| p.is_invertible(bit) && rng.gen_bool(0.5))
            .collect();
        let a = SignedPerm::from_parts(line_of_bit, inverted).unwrap();
        assert!(p.is_feasible(&a));
        (p, a)
    }

    /// The occupant state's values as bits, so `-0.0` differs from `0.0`.
    fn occupant_bits(o: &Occupants) -> [Vec<u64>; 3] {
        [&o.eps, &o.ts, &o.tc].map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn occupant_kernels_equal_the_reference_pricing_on_random_states(
            rows in 2usize..=8,
            cols in 2usize..=8,
            seed in any::<u64>(),
        ) {
            let (p, a) = random_state(rows * cols, &mut StdRng::seed_from_u64(seed));
            check_kernels(&p, &a)?;
        }

        #[test]
        fn applied_moves_keep_the_occupants_equal_to_a_fresh_load(
            rows in 2usize..=8,
            cols in 2usize..=8,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (p, mut a) = random_state(rows * cols, &mut rng);
            let mut occupants = Occupants::default();
            occupants.load(&p, &a);
            let mut fresh = Occupants::default();
            let (flips, free) = (p.invertible_bits(), p.free_lines());
            for step in 0..64 {
                let applied = if !flips.is_empty() && (free.len() < 2 || rng.gen_bool(0.4)) {
                    let bit = flips[rng.gen_range(0..flips.len())];
                    occupants.flip(a.line_of_bit(bit));
                    a.flip_bit(bit);
                    format!("flip {bit}")
                } else if free.len() >= 2 {
                    let x = free[rng.gen_range(0..free.len())];
                    let y = free[rng.gen_range(0..free.len())];
                    occupants.swap(x, y);
                    a.swap_lines(x, y);
                    format!("swap ({x},{y})")
                } else {
                    break;
                };
                fresh.load(&p, &a);
                prop_assert_eq!(
                    occupant_bits(&occupants),
                    occupant_bits(&fresh),
                    "step {step}: {applied} left the occupants of {a} unequal to a fresh load"
                );
            }
        }
    }

    #[test]
    fn fast_power_matches_matrix_form() {
        let p = problem_from_words(3, 3, vec![0x1AB, 0x0F3, 0x1C2, 0x02A, 0x155, 0x1FF, 0x080]);
        let assignments = [
            SignedPerm::identity(9),
            SignedPerm::from_parts(
                vec![3, 1, 4, 0, 8, 2, 7, 5, 6],
                vec![true, false, false, true, false, true, false, false, true],
            )
            .unwrap(),
        ];
        for a in &assignments {
            let fast = p.power(a);
            let explicit = p.power_matrix_form(a);
            assert!(
                (fast - explicit).abs() < 1e-9 * explicit.abs().max(1e-30),
                "fast {fast:.6e} vs explicit {explicit:.6e}"
            );
        }
    }

    #[test]
    fn power_is_positive_for_real_streams() {
        let p = problem_from_words(2, 2, vec![0b0000, 0b1111, 0b0000, 0b1111]);
        assert!(p.identity_power() > 0.0);
    }

    #[test]
    fn constant_stream_consumes_nothing() {
        let p = problem_from_words(2, 2, vec![0b1010, 0b1010, 0b1010]);
        assert_eq!(p.identity_power(), 0.0);
    }

    #[test]
    fn inverting_an_anticorrelated_bit_reduces_power() {
        // Bits 0 and 1 toggle in opposite directions every cycle; making
        // the correlation positive by inverting one of them must help.
        let p = problem_from_words(2, 2, vec![0b01, 0b10, 0b01, 0b10, 0b01, 0b10]);
        let plain = p.identity_power();
        let inverted = p.power(
            &SignedPerm::from_parts(vec![0, 1, 2, 3], vec![true, false, false, false]).unwrap(),
        );
        assert!(
            inverted < plain,
            "inverted {inverted:.4e} !< plain {plain:.4e}"
        );
    }

    #[test]
    fn feasibility_respects_inversion_constraints() {
        let p = problem_from_words(2, 2, vec![1, 2, 3])
            .with_invertible(vec![true, false, true, true])
            .unwrap();
        let ok = SignedPerm::from_parts(vec![0, 1, 2, 3], vec![true, false, false, false]).unwrap();
        let bad = SignedPerm::from_parts(vec![0, 1, 2, 3], vec![false, true, false, false]).unwrap();
        assert!(p.is_feasible(&ok));
        assert!(!p.is_feasible(&bad));
        assert!(!p.is_feasible(&SignedPerm::identity(3)));
    }

    #[test]
    fn moving_a_hot_bit_to_a_corner_helps() {
        // Stream where bit 5 (a middle line under identity on 3×3)
        // toggles every cycle and everything else is stable.
        let words: Vec<u64> = (0..64).map(|t| if t % 2 == 0 { 0 } else { 1 << 5 }).collect();
        let p = problem_from_words(3, 3, words);
        let identity = p.identity_power();
        // Swap bit 5 onto line 0 (a corner).
        let mut a = SignedPerm::identity(9);
        a.swap_lines(0, 5);
        assert!(p.power(&a) < identity);
    }

    #[test]
    fn power_invariant_under_inversion_of_balanced_uncorrelated_bit() {
        // For a bit with probability 1/2 and no spatial correlation,
        // inversion changes nothing (ε = 0 and Tc row ≈ 0).
        let words = vec![0b00, 0b01, 0b11, 0b10, 0b00, 0b01, 0b11, 0b10, 0b00];
        let p = problem_from_words(2, 2, words);
        let base = p.identity_power();
        let mut a = SignedPerm::identity(4);
        a.flip_bit(2); // bit 2 is constant zero here… use bit 0 instead
        let _ = a;
        // Construct explicitly: invert bit 0 (probability 1/2 by design).
        let inv =
            SignedPerm::from_parts(vec![0, 1, 2, 3], vec![true, false, false, false]).unwrap();
        let flipped = p.power(&inv);
        // Gray-cycle bits 0/1 have zero net coupling and balanced
        // probability, so the difference must be small.
        assert!((flipped - base).abs() < 0.05 * base.abs().max(1e-30));
    }
}
