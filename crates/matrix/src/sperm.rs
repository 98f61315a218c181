//! Signed permutations — the paper's generalised permutation matrix `Aπ`.

use crate::{Matrix, PermError};

/// A permutation whose elements carry signs: the paper's `Aπ` (Eq. 5).
///
/// Bit `i` of the data word is assigned to line (TSV) `line_of_bit[i]`;
/// if `inverted[i]` is `true`, the *negated* bit is transmitted (the matrix
/// entry is `-1` instead of `+1`). A valid `Aπ` has exactly one non-zero
/// per row and per column, which this type enforces at construction.
///
/// # Examples
///
/// The paper's example (Eq. 5): bit 3 negated to line 1, bit 1 to line 2,
/// bit 2 to line 3 (1-based in the paper; 0-based here):
///
/// ```
/// use tsv3d_matrix::SignedPerm;
///
/// # fn main() -> Result<(), tsv3d_matrix::PermError> {
/// let a = SignedPerm::from_parts(vec![1, 2, 0], vec![false, false, true])?;
/// assert_eq!(a.line_of_bit(2), 0);
/// assert!(a.is_inverted(2));
/// assert_eq!(a.bit_of_line(0), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SignedPerm {
    /// `line_of_bit[i]` = line carrying bit `i`.
    line_of_bit: Vec<usize>,
    /// `inverted[i]` = whether bit `i` is transmitted negated.
    inverted: Vec<bool>,
    /// Cached inverse mapping: `bit_of_line[j]` = bit on line `j`.
    bit_of_line: Vec<usize>,
}

impl Clone for SignedPerm {
    fn clone(&self) -> Self {
        Self {
            line_of_bit: self.line_of_bit.clone(),
            inverted: self.inverted.clone(),
            bit_of_line: self.bit_of_line.clone(),
        }
    }

    /// Copies `source` into `self` reusing the existing buffers, so a
    /// same-size `clone_from` never allocates — the optimisers' inner
    /// loops depend on this to keep their steady state allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.line_of_bit.clone_from(&source.line_of_bit);
        self.inverted.clone_from(&source.inverted);
        self.bit_of_line.clone_from(&source.bit_of_line);
    }
}

impl SignedPerm {
    /// The identity assignment of size `n`: bit `i` on line `i`, no inversion.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsv3d_matrix::SignedPerm;
    /// let id = SignedPerm::identity(4);
    /// assert_eq!(id.line_of_bit(2), 2);
    /// assert!(!id.is_inverted(2));
    /// ```
    pub fn identity(n: usize) -> Self {
        Self {
            line_of_bit: (0..n).collect(),
            inverted: vec![false; n],
            bit_of_line: (0..n).collect(),
        }
    }

    /// Builds a signed permutation from a line mapping and inversion flags.
    ///
    /// # Errors
    ///
    /// Returns [`PermError`] if the vectors have different lengths, a line
    /// index is out of range, or two bits target the same line.
    pub fn from_parts(line_of_bit: Vec<usize>, inverted: Vec<bool>) -> Result<Self, PermError> {
        let n = line_of_bit.len();
        if inverted.len() != n {
            return Err(PermError::LengthMismatch {
                lines: n,
                signs: inverted.len(),
            });
        }
        let mut bit_of_line = vec![usize::MAX; n];
        for (bit, &line) in line_of_bit.iter().enumerate() {
            if line >= n {
                return Err(PermError::LineOutOfRange { bit, line, n });
            }
            if bit_of_line[line] != usize::MAX {
                return Err(PermError::DuplicateLine { line });
            }
            bit_of_line[line] = bit;
        }
        Ok(Self {
            line_of_bit,
            inverted,
            bit_of_line,
        })
    }

    /// Rebuilds this permutation in place from a line mapping and
    /// inversion flags, reusing the existing buffers (no allocation when
    /// the size is unchanged). Validates exactly like
    /// [`from_parts`](Self::from_parts).
    ///
    /// # Errors
    ///
    /// Returns [`PermError`] if the slices have different lengths, a
    /// line index is out of range, or two bits target the same line; on
    /// error `self` is left in an unspecified (but memory-safe) state.
    pub fn set_from_parts(
        &mut self,
        line_of_bit: &[usize],
        inverted: &[bool],
    ) -> Result<(), PermError> {
        let n = line_of_bit.len();
        if inverted.len() != n {
            return Err(PermError::LengthMismatch {
                lines: n,
                signs: inverted.len(),
            });
        }
        self.bit_of_line.clear();
        self.bit_of_line.resize(n, usize::MAX);
        for (bit, &line) in line_of_bit.iter().enumerate() {
            if line >= n {
                return Err(PermError::LineOutOfRange { bit, line, n });
            }
            if self.bit_of_line[line] != usize::MAX {
                return Err(PermError::DuplicateLine { line });
            }
            self.bit_of_line[line] = bit;
        }
        self.line_of_bit.clear();
        self.line_of_bit.extend_from_slice(line_of_bit);
        self.inverted.clear();
        self.inverted.extend_from_slice(inverted);
        Ok(())
    }

    /// Number of bits/lines.
    pub fn n(&self) -> usize {
        self.line_of_bit.len()
    }

    /// The line to which bit `i` is assigned.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn line_of_bit(&self, i: usize) -> usize {
        self.line_of_bit[i]
    }

    /// The bit assigned to line `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    pub fn bit_of_line(&self, j: usize) -> usize {
        self.bit_of_line[j]
    }

    /// Whether bit `i` is transmitted inverted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn is_inverted(&self, i: usize) -> bool {
        self.inverted[i]
    }

    /// The sign (`+1.0` or `-1.0`) attached to bit `i`.
    pub fn sign_of_bit(&self, i: usize) -> f64 {
        if self.inverted[i] {
            -1.0
        } else {
            1.0
        }
    }

    /// The full line mapping, `line_of_bit[i]` = line of bit `i`.
    pub fn lines(&self) -> &[usize] {
        &self.line_of_bit
    }

    /// The full inversion-flag vector.
    pub fn inversions(&self) -> &[bool] {
        &self.inverted
    }

    /// The full inverse mapping, `bits_of_lines()[j]` = bit on line `j`.
    pub fn bits_of_lines(&self) -> &[usize] {
        &self.bit_of_line
    }

    /// Swaps the lines of the bits currently on lines `a` and `b`.
    ///
    /// This is the elementary "swap" move of the simulated-annealing
    /// optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn swap_lines(&mut self, a: usize, b: usize) {
        let bit_a = self.bit_of_line[a];
        let bit_b = self.bit_of_line[b];
        self.line_of_bit[bit_a] = b;
        self.line_of_bit[bit_b] = a;
        self.bit_of_line.swap(a, b);
    }

    /// Toggles the inversion flag of bit `i` (the "flip" move).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn flip_bit(&mut self, i: usize) {
        self.inverted[i] = !self.inverted[i];
    }

    /// Materialises the `Aπ` matrix with entries in `{-1, 0, +1}`.
    ///
    /// Row `j`, column `i` is `±1` iff bit `i` is assigned to line `j`
    /// (matching the paper's convention, Eq. 5). Mostly useful for tests
    /// and debugging; the power model uses the index-wise operations.
    pub fn to_matrix(&self) -> Matrix {
        let n = self.n();
        let mut m = Matrix::zeros(n);
        for bit in 0..n {
            m[(self.line_of_bit[bit], bit)] = self.sign_of_bit(bit);
        }
        m
    }

    /// Conjugates a bit-indexed matrix into a line-indexed matrix:
    /// `M' = Aπ M Aπᵀ`, i.e. `M'_{jk} = s_{b(j)} s_{b(k)} M_{b(j), b(k)}`
    /// where `b(j)` is the bit on line `j` and `s` its sign.
    ///
    /// Applied to the coupling-switching matrix `Tc` this realises Eq. 4;
    /// for the diagonal self-switching matrix `Ts` the signs cancel and it
    /// reduces to a plain symmetric permutation.
    ///
    /// # Panics
    ///
    /// Panics if `m.n() != self.n()`.
    pub fn conjugate(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.n(), self.n(), "dimension mismatch in conjugation");
        Matrix::from_fn(self.n(), |j, k| {
            let bj = self.bit_of_line[j];
            let bk = self.bit_of_line[k];
            self.sign_of_bit(bj) * self.sign_of_bit(bk) * m[(bj, bk)]
        })
    }

    /// Permutes a bit-indexed matrix into line indexing *without* applying
    /// signs: `M'_{jk} = M_{b(j), b(k)}`.
    ///
    /// This is the correct transform for quantities where the inversion has
    /// no effect (e.g. the self-switching probabilities `E{Δb²}`).
    ///
    /// # Panics
    ///
    /// Panics if `m.n() != self.n()`.
    pub fn permute_unsigned(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.n(), self.n(), "dimension mismatch in permutation");
        Matrix::from_fn(self.n(), |j, k| {
            m[(self.bit_of_line[j], self.bit_of_line[k])]
        })
    }

    /// Applies the signed permutation to a bit-indexed vector, producing a
    /// line-indexed vector: `v'_j = s_{b(j)} v_{b(j)}` (the paper's `Aπ ε`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.n()`.
    pub fn apply_signed_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n(), "dimension mismatch in vector transform");
        (0..self.n())
            .map(|j| {
                let b = self.bit_of_line[j];
                self.sign_of_bit(b) * v[b]
            })
            .collect()
    }

    /// Applies the permutation to a bit-indexed vector without signs:
    /// `v'_j = v_{b(j)}`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.n()`.
    pub fn apply_unsigned_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n(), "dimension mismatch in vector transform");
        (0..self.n()).map(|j| v[self.bit_of_line[j]]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SignedPerm {
        // Bit 2 negated onto line 0, bit 0 -> line 1, bit 1 -> line 2.
        SignedPerm::from_parts(vec![1, 2, 0], vec![false, false, true]).expect("valid")
    }

    #[test]
    fn identity_maps_bits_to_same_lines() {
        let id = SignedPerm::identity(5);
        for i in 0..5 {
            assert_eq!(id.line_of_bit(i), i);
            assert_eq!(id.bit_of_line(i), i);
            assert!(!id.is_inverted(i));
        }
    }

    #[test]
    fn from_parts_validates_duplicates() {
        let err = SignedPerm::from_parts(vec![0, 0], vec![false, false]).unwrap_err();
        assert_eq!(err, PermError::DuplicateLine { line: 0 });
    }

    #[test]
    fn from_parts_validates_range() {
        let err = SignedPerm::from_parts(vec![0, 5], vec![false, false]).unwrap_err();
        assert_eq!(err, PermError::LineOutOfRange { bit: 1, line: 5, n: 2 });
    }

    #[test]
    fn from_parts_validates_lengths() {
        let err = SignedPerm::from_parts(vec![0, 1], vec![false]).unwrap_err();
        assert_eq!(err, PermError::LengthMismatch { lines: 2, signs: 1 });
    }

    #[test]
    fn to_matrix_matches_paper_eq5() {
        // Paper Eq. 5 (converted to 0-based): A[0][2] = -1, A[1][0] = 1,
        // A[2][1] = 1.
        let a = example().to_matrix();
        assert_eq!(a[(0, 2)], -1.0);
        assert_eq!(a[(1, 0)], 1.0);
        assert_eq!(a[(2, 1)], 1.0);
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn conjugate_agrees_with_explicit_matrix_form() {
        let p = example();
        let m = Matrix::from_rows(&[
            &[0.50, 0.10, -0.20],
            &[0.10, 0.40, 0.05],
            &[-0.20, 0.05, 0.30],
        ]);
        let via_index = p.conjugate(&m);
        let a = p.to_matrix();
        let via_matmul = &(&a * &m) * &a.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (via_index[(i, j)] - via_matmul[(i, j)]).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn conjugate_preserves_diagonal_magnitudes() {
        // Signs square away on the diagonal, so the diagonal is permuted
        // but never negated.
        let p = example();
        let m = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        let c = p.conjugate(&m);
        let mut diag = c.diag();
        diag.sort_by(f64::total_cmp);
        assert_eq!(diag, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn signed_vector_transform_negates_inverted_bits() {
        let p = example();
        let eps = vec![0.1, 0.2, 0.3];
        let out = p.apply_signed_vec(&eps);
        // Line 0 carries bit 2 inverted; line 1 carries bit 0; line 2 bit 1.
        assert_eq!(out, vec![-0.3, 0.1, 0.2]);
    }

    #[test]
    fn unsigned_vector_transform_only_permutes() {
        let p = example();
        let v = vec![0.1, 0.2, 0.3];
        assert_eq!(p.apply_unsigned_vec(&v), vec![0.3, 0.1, 0.2]);
    }

    #[test]
    fn swap_lines_keeps_inverse_consistent() {
        let mut p = example();
        p.swap_lines(0, 2);
        for j in 0..3 {
            assert_eq!(p.line_of_bit(p.bit_of_line(j)), j);
        }
    }

    #[test]
    fn set_from_parts_matches_from_parts_and_reuses_buffers() {
        let mut p = SignedPerm::identity(3);
        p.set_from_parts(&[1, 2, 0], &[false, false, true]).unwrap();
        assert_eq!(p, example());
        assert_eq!(p.bits_of_lines(), &[2, 0, 1]);
        // The same validation failures as `from_parts`.
        assert!(p.set_from_parts(&[0, 0, 1], &[false; 3]).is_err());
        assert!(p.set_from_parts(&[0, 1, 9], &[false; 3]).is_err());
        assert!(p.set_from_parts(&[0, 1], &[false; 3]).is_err());
    }

    #[test]
    fn clone_from_copies_without_changing_equality() {
        let src = example();
        let mut dst = SignedPerm::identity(3);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.bits_of_lines(), src.bits_of_lines());
    }

    #[test]
    fn flip_bit_toggles() {
        let mut p = SignedPerm::identity(3);
        p.flip_bit(1);
        assert!(p.is_inverted(1));
        p.flip_bit(1);
        assert!(!p.is_inverted(1));
    }

    #[test]
    fn permute_unsigned_ignores_signs() {
        let p = example();
        let m = Matrix::ones(3);
        let out = p.permute_unsigned(&m);
        assert_eq!(out, Matrix::ones(3));
    }
}

/// Compact text form: comma-separated `line` or `line-` per bit, e.g.
/// `"1,2,0-"` = bit 0 → line 1, bit 1 → line 2, bit 2 → line 0
/// inverted.
impl std::fmt::Display for SignedPerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for bit in 0..self.n() {
            if bit > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.line_of_bit[bit])?;
            if self.inverted[bit] {
                write!(f, "-")?;
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for SignedPerm {
    type Err = PermError;

    /// Parses the [`Display`](SignedPerm#impl-Display-for-SignedPerm)
    /// form.
    fn from_str(s: &str) -> Result<Self, PermError> {
        let mut line_of_bit = Vec::new();
        let mut inverted = Vec::new();
        for (bit, token) in s.split(',').enumerate() {
            let token = token.trim();
            let (digits, inv) = match token.strip_suffix('-') {
                Some(rest) => (rest.trim(), true),
                None => (token, false),
            };
            let line = digits.parse::<usize>().map_err(|_| PermError::MalformedEntry {
                bit,
                token: token.to_string(),
            })?;
            line_of_bit.push(line);
            inverted.push(inv);
        }
        Self::from_parts(line_of_bit, inverted)
    }
}

#[cfg(test)]
mod text_tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        let p = SignedPerm::from_parts(vec![1, 2, 0], vec![false, false, true]).unwrap();
        let text = p.to_string();
        assert_eq!(text, "1,2,0-");
        assert_eq!(text.parse::<SignedPerm>().unwrap(), p);
    }

    #[test]
    fn parse_accepts_whitespace() {
        let p: SignedPerm = " 2 , 0 - , 1 ".parse().unwrap();
        assert_eq!(p.line_of_bit(0), 2);
        assert!(p.is_inverted(1));
    }

    #[test]
    fn parse_rejects_garbage_and_invalid_permutations() {
        let malformed = |bit, token: &str| {
            Err(PermError::MalformedEntry { bit, token: token.to_string() })
        };
        assert_eq!("a,b".parse::<SignedPerm>(), malformed(0, "a"));
        assert_eq!("0,x".parse::<SignedPerm>(), malformed(1, "x"));
        assert!("0,0".parse::<SignedPerm>().is_err()); // duplicate line
        assert!("0,5".parse::<SignedPerm>().is_err()); // out of range
        assert!("".parse::<SignedPerm>().is_err());
    }

    #[test]
    fn identity_text_form() {
        let id = SignedPerm::identity(4);
        assert_eq!(id.to_string(), "0,1,2,3");
    }
}
