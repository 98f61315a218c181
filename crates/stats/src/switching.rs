//! Switching statistics of a bit stream — the `T`-matrix ingredients of
//! the power model (paper Eqs. 1–3).

use crate::BitStream;
use tsv3d_matrix::Matrix;

/// Bit-level switching statistics of a data stream.
///
/// For each bit `i` of the word the paper's model needs:
///
/// * `E{Δb_i²}` — the **self-switching** probability (diagonal of `Ts`);
/// * `E{Δb_i Δb_j}` — the **coupling switching** expectation (`Tc`),
///   positive when bits tend to toggle in the same direction, negative
///   when they toggle oppositely;
/// * `E{b_i}` — the **1-bit probability**, which steers the MOS-effect
///   capacitance model through `ε_i = E{b_i} − 1/2`.
///
/// # Examples
///
/// Two perfectly correlated bits:
///
/// ```
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), tsv3d_stats::StatsError> {
/// let s = BitStream::from_words(2, vec![0b00, 0b11, 0b00, 0b11])?;
/// let st = SwitchingStats::from_stream(&s);
/// assert_eq!(st.coupling_switching(0, 1), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingStats {
    /// `E{Δb_i²}` per bit.
    ts: Vec<f64>,
    /// `E{Δb_i Δb_j}`; diagonal entries equal `ts`.
    tc: Matrix,
    /// `E{b_i}` per bit.
    probs: Vec<f64>,
    /// `E{|Δb_i Δb_j|}` — the probability that both bits toggle in the
    /// same cycle. `None` for analytically constructed statistics,
    /// where the independence approximation `Ts_i · Ts_j` is used.
    joint: Option<Matrix>,
}

impl SwitchingStats {
    /// Estimates the statistics from a stream.
    ///
    /// Streams with fewer than two words have no transitions; all
    /// switching quantities are zero then.
    ///
    /// # Cost
    ///
    /// One pass over the words that visits only the set bits of each
    /// rising (`!prev & cur`) and falling (`prev & !cur`) transition
    /// word, plus, per 64 transitions, `n` popcounts for the 1-bit
    /// counts and at most `n(n+1)/2` popcount pairs: every toggle sets
    /// one bit of its bit's rising or falling `u64`, and each pair of
    /// bits that toggled in those 64 transitions counts its same- and
    /// opposite-direction coincidences. Scratch is `O(n²)`, whatever
    /// the stream length.
    ///
    /// # Exactness
    ///
    /// `Δb_i Δb_j` is `+1` for a same-direction coincidence and `−1`
    /// for an opposite one, so `Tc = (same − opp)/T`,
    /// `E{|Δb_i Δb_j|} = (same + opp)/T` and `Ts` is their diagonal,
    /// over the `T = len − 1` transitions. Every count is an integer
    /// below 2⁵³ and is scaled exactly as a running `f64` sum of the
    /// per-transition terms would be, so the result is bit-identical to
    /// accumulating `Δb_i Δb_j` transition by transition.
    pub fn from_stream(stream: &BitStream) -> Self {
        Self::from_words(stream.width(), stream.words())
    }

    /// [`from_stream`](Self::from_stream) of `n`-bit words, none with a
    /// bit set at or above `n`.
    fn from_words(n: usize, words: &[u64]) -> Self {
        let counts = Counts::of(n, words);
        let len = words.len();
        let probs = if len > 0 {
            counts.ones.iter().map(|&c| c as f64 / len as f64).collect()
        } else {
            vec![0.0; n]
        };
        if len < 2 {
            return Self {
                ts: vec![0.0; n],
                tc: Matrix::zeros(n),
                probs,
                joint: Some(Matrix::zeros(n)),
            };
        }
        let transitions = (len - 1) as f64;
        // The matrices multiply by the reciprocal, as `Matrix::scale`
        // does; `Ts` divides.
        let scale = 1.0 / transitions;
        Self {
            ts: (0..n).map(|i| counts.joint(i, i) / transitions).collect(),
            tc: Matrix::from_fn(n, |i, j| counts.coupling(i, j) * scale),
            probs,
            joint: Some(Matrix::from_fn(n, |i, j| counts.joint(i, j) * scale)),
        }
    }

    /// Estimates per-window statistics: the stream is cut into
    /// consecutive windows of `window` cycles (the tail shorter than
    /// two cycles is dropped) and each window is analysed separately.
    ///
    /// Useful for *phased* workloads — e.g. the paper's "Sensor Seq."
    /// stream transmits one sensor axis after another, and each phase
    /// has its own exploitable structure.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_stream_windowed(stream: &BitStream, window: usize) -> Vec<Self> {
        assert!(window > 0, "window must be at least one cycle");
        let words = stream.words();
        let mut out = Vec::new();
        let mut start = 0;
        while start + 1 < words.len() {
            let end = (start + window).min(words.len());
            out.push(Self::from_words(stream.width(), &words[start..end]));
            start = end;
        }
        out
    }

    /// Builds statistics from explicit quantities (e.g. closed-form DSP
    /// models or unit tests).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn from_parts(ts: Vec<f64>, tc: Matrix, probs: Vec<f64>) -> Self {
        assert_eq!(ts.len(), tc.n(), "ts and tc dimension mismatch");
        assert_eq!(probs.len(), tc.n(), "probs and tc dimension mismatch");
        Self {
            ts,
            tc,
            probs,
            joint: None,
        }
    }

    /// Number of bits.
    pub fn n(&self) -> usize {
        self.ts.len()
    }

    /// Self-switching probability `E{Δb_i²}` of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn self_switching(&self, i: usize) -> f64 {
        self.ts[i]
    }

    /// All self-switching probabilities.
    pub fn self_switchings(&self) -> &[f64] {
        &self.ts
    }

    /// Coupling switching `E{Δb_i Δb_j}`.
    ///
    /// For `i == j` this equals the self-switching probability.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn coupling_switching(&self, i: usize, j: usize) -> f64 {
        self.tc[(i, j)]
    }

    /// The full coupling matrix (diagonal = self switching).
    pub fn coupling_matrix(&self) -> &Matrix {
        &self.tc
    }

    /// 1-bit probability `E{b_i}` of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn bit_probability(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// All 1-bit probabilities.
    pub fn bit_probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Probability that bits `i` and `j` toggle in the *same* cycle,
    /// `E{|Δb_i Δb_j|}`.
    ///
    /// Measured exactly for stream-derived statistics; analytically
    /// constructed statistics (e.g. [`from_parts`]) fall back to the
    /// independence approximation `Ts_i · Ts_j` (with `i == j` giving
    /// `Ts_i`).
    ///
    /// [`from_parts`]: SwitchingStats::from_parts
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn joint_switching(&self, i: usize, j: usize) -> f64 {
        match &self.joint {
            Some(m) => m[(i, j)],
            None if i == j => self.ts[i],
            None => self.ts[i] * self.ts[j],
        }
    }

    /// Probability that bits `i ≠ j` toggle in *opposite* directions in
    /// the same cycle, `P(Δb_i Δb_j = −1) = (E{|ΔΔ|} − E{ΔΔ}) / 2` —
    /// the transition class with the highest coupling energy and the
    /// worst crosstalk.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn opposite_switching(&self, i: usize, j: usize) -> f64 {
        ((self.joint_switching(i, j) - self.tc[(i, j)]) / 2.0).max(0.0)
    }

    /// Centred probabilities `ε_i = E{b_i} − 1/2` (paper Eq. 8).
    pub fn epsilons(&self) -> Vec<f64> {
        self.probs.iter().map(|p| p - 0.5).collect()
    }

    /// The paper's switching matrix `T = Ts·1_{N×N} − Tc` (Eq. 3), in
    /// *bit* indexing, with the convention that `Tc`'s diagonal is zero
    /// inside `T` (the diagonal of `T` carries only the self switching).
    ///
    /// `⟨T, C⟩` is then the normalised power consumption (Eq. 2).
    pub fn t_matrix(&self) -> Matrix {
        let n = self.n();
        Matrix::from_fn(n, |i, j| {
            if i == j {
                self.ts[i]
            } else {
                self.ts[i] - self.tc[(i, j)]
            }
        })
    }

    /// The diagonal self-switching matrix `Ts` (Eq. 3).
    pub fn ts_matrix(&self) -> Matrix {
        Matrix::from_diag(&self.ts)
    }

    /// The off-diagonal coupling matrix `Tc` with a zero diagonal
    /// (Eq. 3).
    pub fn tc_matrix(&self) -> Matrix {
        let n = self.n();
        Matrix::from_fn(n, |i, j| if i == j { 0.0 } else { self.tc[(i, j)] })
    }
}

/// Integer counts behind [`SwitchingStats::from_stream`], with pair
/// `i ≤ j` stored at `i * n + j`.
struct Counts {
    n: usize,
    /// Words with bit `i` set.
    ones: Vec<u64>,
    /// Transitions in which bits `i` and `j` toggle in the same
    /// direction; the diagonal counts bit `i`'s toggles.
    same: Vec<u64>,
    /// Transitions in which bits `i` and `j` toggle in opposite
    /// directions.
    opp: Vec<u64>,
}

impl Counts {
    /// Counts `n`-bit `words`, 64 transitions (one tile of 65 words) at
    /// a time; the last tile is partial.
    fn of(n: usize, words: &[u64]) -> Self {
        let mut counts = Counts {
            n,
            ones: vec![0; n],
            same: vec![0; n * n],
            opp: vec![0; n * n],
        };
        let Some(&first) = words.first() else {
            return counts;
        };
        for_each_set_bit(first, |i| counts.ones[i] += 1);
        // Bit `k` of `rising[i]` (`falling[i]`) is set when bit `i`
        // rises (falls) on the tile's `k`-th transition, from its word
        // `k` to its word `k + 1`.
        let mut rising = [0u64; 64];
        let mut falling = [0u64; 64];
        for start in (0..words.len() - 1).step_by(64) {
            let tile = &words[start..words.len().min(start + 65)];
            let mut toggled = 0;
            for (k, pair) in tile.windows(2).enumerate() {
                let (prev, cur) = (pair[0], pair[1]);
                for_each_set_bit(!prev & cur, |i| rising[i] |= 1 << k);
                for_each_set_bit(prev & !cur, |i| falling[i] |= 1 << k);
                toggled |= prev ^ cur;
            }
            counts.add_ones(tile, &rising, &falling);
            counts.add_tile(toggled, &mut rising, &mut falling);
        }
        counts
    }

    /// Adds the ones of every word of `tile` after its first. Bit `i`
    /// of word `k + 1` is bit `i` of the first word flipped by the
    /// parity of its toggles on transitions `0..=k`: a running XOR of
    /// its toggle plane.
    fn add_ones(&mut self, tile: &[u64], rising: &[u64; 64], falling: &[u64; 64]) {
        let later_words = u64::MAX >> (65 - tile.len());
        for (i, ones) in self.ones.iter_mut().enumerate() {
            let mut value = rising[i] | falling[i];
            for shift in [1, 2, 4, 8, 16, 32] {
                value ^= value << shift;
            }
            if (tile[0] >> i) & 1 == 1 {
                value = !value;
            }
            *ones += u64::from((value & later_words).count_ones());
        }
    }

    /// Adds one tile's coincidences of every pair `i ≤ j` of `toggled`
    /// bits and clears their planes. A bit never rises and falls on one
    /// transition, so the two same-direction terms (and the two
    /// opposite ones) are disjoint and one popcount counts both.
    fn add_tile(&mut self, toggled: u64, rising: &mut [u64; 64], falling: &mut [u64; 64]) {
        let mut rows = toggled;
        while rows != 0 {
            let i = rows.trailing_zeros() as usize;
            let (ri, fi) = (rising[i], falling[i]);
            let row = i * self.n;
            for_each_set_bit(rows, |j| {
                let (rj, fj) = (rising[j], falling[j]);
                self.same[row + j] += u64::from(((ri & rj) | (fi & fj)).count_ones());
                self.opp[row + j] += u64::from(((ri & fj) | (fi & rj)).count_ones());
            });
            rising[i] = 0;
            falling[i] = 0;
            rows &= rows - 1;
        }
    }

    /// `Σ Δb_i Δb_j` over the transitions.
    fn coupling(&self, i: usize, j: usize) -> f64 {
        let k = i.min(j) * self.n + i.max(j);
        (self.same[k] as i64 - self.opp[k] as i64) as f64
    }

    /// `Σ |Δb_i Δb_j|` over the transitions; bit `i`'s toggles for
    /// `i == j`.
    fn joint(&self, i: usize, j: usize) -> f64 {
        let k = i.min(j) * self.n + i.max(j);
        (self.same[k] + self.opp[k]) as f64
    }
}

/// Calls `f` with the index of every set bit of `word`, lowest first.
fn for_each_set_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(width: usize, words: &[u64]) -> BitStream {
        BitStream::from_words(width, words.to_vec()).expect("valid stream")
    }

    #[test]
    fn toggling_bit_switches_every_cycle() {
        let st = SwitchingStats::from_stream(&stream(1, &[0, 1, 0, 1, 0]));
        assert_eq!(st.self_switching(0), 1.0);
        assert_eq!(st.bit_probability(0), 0.4);
    }

    #[test]
    fn constant_bit_never_switches() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b10, 0b10, 0b10]));
        assert_eq!(st.self_switching(0), 0.0);
        assert_eq!(st.self_switching(1), 0.0);
        assert_eq!(st.bit_probability(1), 1.0);
    }

    #[test]
    fn anticorrelated_bits_have_negative_coupling() {
        // Bits always toggle in opposite directions.
        let st = SwitchingStats::from_stream(&stream(2, &[0b01, 0b10, 0b01, 0b10]));
        assert_eq!(st.coupling_switching(0, 1), -1.0);
        assert_eq!(st.coupling_switching(1, 0), -1.0);
    }

    #[test]
    fn correlated_bits_have_positive_coupling() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b11, 0b00, 0b11]));
        assert_eq!(st.coupling_switching(0, 1), 1.0);
    }

    #[test]
    fn independent_bits_have_small_coupling() {
        // Bit 0 toggles every cycle, bit 1 every other cycle: the products
        // cancel over a full period.
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b01, 0b10, 0b11, 0b00]));
        assert!(st.coupling_switching(0, 1).abs() < 0.6);
    }

    #[test]
    fn diagonal_of_coupling_equals_self_switching() {
        let st = SwitchingStats::from_stream(&stream(3, &[1, 4, 2, 7, 0, 5]));
        for i in 0..3 {
            assert!((st.coupling_switching(i, i) - st.self_switching(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn t_matrix_combines_ts_and_tc() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b11, 0b00]));
        let t = st.t_matrix();
        // Fully correlated: Ts = 1, Tc(0,1) = 1 ⇒ off-diagonal of T is 0.
        assert_eq!(t[(0, 0)], 1.0);
        assert_eq!(t[(0, 1)], 0.0);
    }

    #[test]
    fn t_matrix_equals_explicit_eq3() {
        // T = Ts·1 − Tc with zero-diagonal Tc.
        let st = SwitchingStats::from_stream(&stream(3, &[1, 4, 2, 7, 0, 5, 3]));
        let explicit = &(&st.ts_matrix() * &Matrix::ones(3)) - &st.tc_matrix();
        let t = st.t_matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert!((t[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn short_streams_have_zero_switching() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b11]));
        assert_eq!(st.self_switching(0), 0.0);
        assert_eq!(st.bit_probability(0), 1.0);
        let st = SwitchingStats::from_stream(&BitStream::new(2).unwrap());
        assert_eq!(st.bit_probability(0), 0.0);
    }

    #[test]
    fn epsilons_centre_probabilities() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b01, 0b01, 0b01, 0b00]));
        let eps = st.epsilons();
        assert!((eps[0] - 0.25).abs() < 1e-12);
        assert!((eps[1] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_parts_round_trips() {
        let st = SwitchingStats::from_parts(
            vec![0.5, 0.25],
            Matrix::from_rows(&[&[0.5, 0.1], &[0.1, 0.25]]),
            vec![0.5, 0.5],
        );
        assert_eq!(st.self_switching(1), 0.25);
        assert_eq!(st.coupling_switching(0, 1), 0.1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn from_parts_validates_dims() {
        let _ = SwitchingStats::from_parts(vec![0.5], Matrix::zeros(2), vec![0.5, 0.5]);
    }
}

#[cfg(test)]
mod joint_tests {
    use super::*;

    fn stream(width: usize, words: &[u64]) -> BitStream {
        BitStream::from_words(width, words.to_vec()).expect("valid stream")
    }

    #[test]
    fn joint_switching_counts_simultaneous_toggles() {
        // Bits toggle together every cycle.
        let st = SwitchingStats::from_stream(&stream(2, &[0b00, 0b11, 0b00, 0b11]));
        assert_eq!(st.joint_switching(0, 1), 1.0);
        // Aligned ⇒ never opposite.
        assert_eq!(st.opposite_switching(0, 1), 0.0);
    }

    #[test]
    fn opposite_switching_detects_anticorrelation() {
        let st = SwitchingStats::from_stream(&stream(2, &[0b01, 0b10, 0b01, 0b10]));
        assert_eq!(st.joint_switching(0, 1), 1.0);
        assert_eq!(st.opposite_switching(0, 1), 1.0);
    }

    #[test]
    fn joint_diagonal_equals_self_switching() {
        let st = SwitchingStats::from_stream(&stream(3, &[1, 4, 2, 7, 0, 5]));
        for i in 0..3 {
            assert!((st.joint_switching(i, i) - st.self_switching(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn from_parts_falls_back_to_independence() {
        let st = SwitchingStats::from_parts(
            vec![0.5, 0.4],
            Matrix::from_rows(&[&[0.5, 0.1], &[0.1, 0.4]]),
            vec![0.5, 0.5],
        );
        assert!((st.joint_switching(0, 1) - 0.2).abs() < 1e-12);
        assert!((st.opposite_switching(0, 1) - 0.05).abs() < 1e-12);
        assert_eq!(st.joint_switching(1, 1), 0.4);
    }

    #[test]
    fn identities_hold_on_random_streams() {
        // P(same) + P(opposite) = P(both toggle); Tc = P(same) − P(opp).
        let words: Vec<u64> = (0..500u64).map(|t| (t * 193 + t * t * 7) & 0xF).collect();
        let st = SwitchingStats::from_stream(&stream(4, &words));
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let joint = st.joint_switching(i, j);
                let opp = st.opposite_switching(i, j);
                let same = joint - opp;
                assert!(
                    (st.coupling_switching(i, j) - (same - opp)).abs() < 1e-9,
                    "({i},{j})"
                );
                assert!(joint <= st.self_switching(i).min(st.self_switching(j)) + 1e-12);
            }
        }
    }
}

#[cfg(test)]
mod windowed_tests {
    use super::*;

    #[test]
    fn windows_cover_the_stream() {
        let words: Vec<u64> = (0..100u64).map(|t| t & 0xF).collect();
        let s = BitStream::from_words(4, words).unwrap();
        let windows = SwitchingStats::from_stream_windowed(&s, 30);
        assert_eq!(windows.len(), 4); // 30+30+30+10
        for w in &windows {
            assert_eq!(w.n(), 4);
        }
    }

    #[test]
    fn phased_stream_has_distinct_window_statistics() {
        // First half toggles bit 0, second half toggles bit 3.
        let mut words = Vec::new();
        for t in 0..100u64 {
            words.push(t & 1);
        }
        for t in 0..100u64 {
            words.push((t & 1) << 3);
        }
        let s = BitStream::from_words(4, words).unwrap();
        let w = SwitchingStats::from_stream_windowed(&s, 100);
        assert_eq!(w.len(), 2);
        assert!(w[0].self_switching(0) > 0.9 && w[0].self_switching(3) < 0.1);
        assert!(w[1].self_switching(3) > 0.9 && w[1].self_switching(0) < 0.1);
    }

    #[test]
    fn single_window_matches_whole_stream() {
        let words: Vec<u64> = (0..50u64).map(|t| (t * 13) & 0xFF).collect();
        let s = BitStream::from_words(8, words).unwrap();
        let whole = SwitchingStats::from_stream(&s);
        let windows = SwitchingStats::from_stream_windowed(&s, 1000);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0], whole);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        let s = BitStream::from_words(4, vec![0, 1]).unwrap();
        let _ = SwitchingStats::from_stream_windowed(&s, 0);
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The estimator the popcount kernel replaced: a ±1 delta per bit
    /// and transition, summed in `f64`, and one more pass over the
    /// stream per bit for the probabilities. The kernel must match it
    /// bit for bit.
    fn reference(stream: &BitStream) -> SwitchingStats {
        let n = stream.width();
        let mut ts = vec![0.0; n];
        let mut tc = Matrix::zeros(n);
        let mut probs = vec![0.0; n];

        let len = stream.len();
        if len > 0 {
            for (i, p) in probs.iter_mut().enumerate() {
                *p = stream.bit_probability(i);
            }
        }
        let mut joint = Matrix::zeros(n);
        if len >= 2 {
            let transitions = (len - 1) as f64;
            // Δb_t per bit: +1, 0 or −1.
            let mut delta = vec![0i32; n];
            for t in 1..len {
                let prev = stream.word(t - 1);
                let cur = stream.word(t);
                for (i, d) in delta.iter_mut().enumerate() {
                    let pb = (prev >> i) & 1;
                    let cb = (cur >> i) & 1;
                    *d = cb as i32 - pb as i32;
                }
                for i in 0..n {
                    if delta[i] != 0 {
                        ts[i] += 1.0;
                        for j in 0..n {
                            if delta[j] != 0 {
                                tc[(i, j)] += (delta[i] * delta[j]) as f64;
                                joint[(i, j)] += 1.0;
                            }
                        }
                    }
                }
            }
            for v in ts.iter_mut() {
                *v /= transitions;
            }
            tc = tc.scale(1.0 / transitions);
            joint = joint.scale(1.0 / transitions);
        }
        SwitchingStats {
            ts,
            tc,
            probs,
            joint: Some(joint),
        }
    }

    /// Every `Ts`, probability, `Tc` and joint entry, named and
    /// indexed, as raw bits.
    fn entries(st: &SwitchingStats) -> Vec<(&'static str, usize, usize, u64)> {
        let mut out = Vec::new();
        for i in 0..st.n() {
            out.push(("Ts", i, i, st.self_switching(i).to_bits()));
            out.push(("p", i, i, st.bit_probability(i).to_bits()));
            for j in 0..st.n() {
                out.push(("Tc", i, j, st.coupling_switching(i, j).to_bits()));
                out.push(("joint", i, j, st.joint_switching(i, j).to_bits()));
            }
        }
        out
    }

    /// `Err` naming the first entry of `got` whose bits differ from
    /// `want`'s.
    fn bit_identical(got: &SwitchingStats, want: &SwitchingStats) -> Result<(), String> {
        if got.n() != want.n() || got.joint.is_some() != want.joint.is_some() {
            return Err(format!("shape differs: {got:?} vs {want:?}"));
        }
        let (got, want) = (entries(got), entries(want));
        match got.iter().zip(&want).find(|(g, w)| g != w) {
            Some((g, w)) => Err(format!("{g:?} differs from {w:?}")),
            None => Ok(()),
        }
    }

    /// A `width`-bit stream of `len` seeded words. `kind` 0 is sparse
    /// (the AND of three random words), 1 uniform, and 2 dense: sparse
    /// words with every other one inverted, so most bits toggle on
    /// most transitions.
    fn random_stream(width: usize, len: usize, kind: usize, seed: u64) -> BitStream {
        let mask = u64::MAX >> (64 - width);
        let mut rng = StdRng::seed_from_u64(seed);
        let words = (0..len)
            .map(|t| {
                let (a, b, c): (u64, u64, u64) = (rng.gen(), rng.gen(), rng.gen());
                let word = match kind {
                    0 => a & b & c,
                    1 => a,
                    _ if t % 2 == 1 => !(a & b & c),
                    _ => a & b & c,
                };
                word & mask
            })
            .collect();
        BitStream::from_words(width, words).expect("masked words fit")
    }

    /// Stream lengths in words: empty, one word, one transition, the
    /// lengths around one and two full tiles (65 and 129 words), and
    /// the longest.
    const TILE_EDGES: [usize; 10] = [0, 1, 2, 63, 64, 65, 127, 128, 129, 300];

    #[test]
    fn kernel_matches_the_reference_on_every_width_at_tile_edges() {
        for width in 1..=64 {
            for kind in 0..3 {
                for len in TILE_EDGES {
                    let s = random_stream(width, len, kind, (width * 1000 + len) as u64);
                    let got = SwitchingStats::from_stream(&s);
                    if let Err(e) = bit_identical(&got, &reference(&s)) {
                        panic!("width {width}, len {len}, kind {kind}: {e}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn kernel_matches_the_reference_bit_for_bit(
            width in 1usize..=64,
            len in 0usize..=300,
            kind in 0usize..3,
            seed in any::<u64>(),
        ) {
            for len in std::iter::once(len).chain([63, 64, 65, 127, 128, 129]) {
                let s = random_stream(width, len, kind, seed);
                let got = SwitchingStats::from_stream(&s);
                bit_identical(&got, &reference(&s))
                    .map_err(|e| format!("width {width}, len {len}, kind {kind}: {e}"))?;
            }
        }

        #[test]
        fn windows_equal_the_estimate_of_each_copied_window(
            width in 1usize..=64,
            len in 0usize..=300,
            window in 1usize..=100,
            kind in 0usize..3,
            seed in any::<u64>(),
        ) {
            let s = random_stream(width, len, kind, seed);
            let windows = SwitchingStats::from_stream_windowed(&s, window);
            let mut start = 0;
            for got in &windows {
                let end = (start + window).min(len);
                let copy = BitStream::from_words(width, s.words()[start..end].to_vec())
                    .expect("a window of a valid stream is valid");
                bit_identical(got, &SwitchingStats::from_stream(&copy))
                    .map_err(|e| format!("window {start}..{end}: {e}"))?;
                start = end;
            }
            // Only a tail shorter than two words is left over.
            prop_assert!(len - start < 2, "{} windows stop at {start} of {len}", windows.len());
        }
    }
}
