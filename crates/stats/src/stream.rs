//! Bit streams: sequences of up-to-64-bit words crossing a TSV bundle.

use crate::StatsError;

/// A stream of `width`-bit words, one word per clock cycle.
///
/// Bit `i` of a word is the `i`-th least significant bit; for signed DSP
/// data bit `width - 1` is the MSB (sign bit). Widths up to 64 bits cover
/// every TSV bundle analysed in the paper (the largest is the 6×6 array,
/// 36 lines).
///
/// # Examples
///
/// ```
/// use tsv3d_stats::BitStream;
///
/// # fn main() -> Result<(), tsv3d_stats::StatsError> {
/// let mut s = BitStream::new(4)?;
/// s.push(0b1010)?;
/// s.push(0b0110)?;
/// assert_eq!(s.len(), 2);
/// assert!(s.bit(0, 1));
/// assert!(!s.bit(1, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitStream {
    width: usize,
    words: Vec<u64>,
}

impl BitStream {
    /// Creates an empty stream of the given word width.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidWidth`] unless `1 <= width <= 64`.
    pub fn new(width: usize) -> Result<Self, StatsError> {
        check_width(width)?;
        Ok(Self {
            width,
            words: Vec::new(),
        })
    }

    /// Creates a stream from existing words.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidWidth`] for an unsupported width and
    /// [`StatsError::WordTooWide`] if any word has bits above `width`.
    pub fn from_words(width: usize, words: Vec<u64>) -> Result<Self, StatsError> {
        let mut s = Self::new(width)?;
        for (index, &word) in words.iter().enumerate() {
            if word & !s.mask() != 0 {
                return Err(StatsError::WordTooWide { index, word, width });
            }
        }
        s.words = words;
        Ok(s)
    }

    /// Bit mask covering the stream width.
    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Appends a word to the stream.
    ///
    /// # Errors
    ///
    /// [`StatsError::WordTooWide`] if the word has bits above `width`.
    pub fn push(&mut self, word: u64) -> Result<(), StatsError> {
        if word & !self.mask() != 0 {
            return Err(StatsError::WordTooWide {
                index: self.words.len(),
                word,
                width: self.width,
            });
        }
        self.words.push(word);
        Ok(())
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of words (clock cycles).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if the stream has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The word at cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn word(&self, t: usize) -> u64 {
        self.words[t]
    }

    /// Bit `i` of the word at cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()` or `i >= width()`.
    pub fn bit(&self, t: usize, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of width {}", self.width);
        (self.words[t] >> i) & 1 == 1
    }

    /// Iterator over the words.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().copied()
    }

    /// The underlying word slice.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns a new stream with extra *stable* lines appended above the
    /// MSB, each holding the given constant value on every cycle.
    ///
    /// This models the enable / redundant / power / ground lines sharing
    /// a TSV array with the data bits (paper Sec. 5.1).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidWidth`] if the combined width exceeds 64.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsv3d_stats::BitStream;
    ///
    /// # fn main() -> Result<(), tsv3d_stats::StatsError> {
    /// let s = BitStream::from_words(2, vec![0b01, 0b10])?;
    /// // Append one always-0 and one always-1 line.
    /// let wide = s.with_stable_lines(&[false, true])?;
    /// assert_eq!(wide.width(), 4);
    /// assert_eq!(wide.word(0), 0b1001);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_stable_lines(&self, values: &[bool]) -> Result<Self, StatsError> {
        let new_width = self.width + values.len();
        check_width(new_width)?;
        let mut high = 0u64;
        for (k, &v) in values.iter().enumerate() {
            if v {
                high |= 1u64 << (self.width + k);
            }
        }
        let words = self.words.iter().map(|w| w | high).collect();
        Self::from_words(new_width, words)
    }

    /// Multiplexes several same-width streams word-by-word (round-robin):
    /// cycle `t` of the result is word `t / k` of stream `t % k`.
    ///
    /// This models transmitting, e.g., the R, G, G, B colour components
    /// one after another over a narrow TSV array ("RGB Mux.", Sec. 5.1)
    /// or interleaving the x/y/z axes of a MEMS sensor (Sec. 5.2).
    ///
    /// # Errors
    ///
    /// [`StatsError::NoStreams`] for an empty input and
    /// [`StatsError::WidthMismatch`] for differing widths. Streams are
    /// truncated to the shortest length.
    pub fn multiplex(streams: &[&BitStream]) -> Result<Self, StatsError> {
        let first = streams.first().ok_or(StatsError::NoStreams)?;
        for s in streams {
            if s.width != first.width {
                return Err(StatsError::WidthMismatch {
                    first: first.width,
                    other: s.width,
                });
            }
        }
        let min_len = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut words = Vec::with_capacity(min_len * streams.len());
        for t in 0..min_len {
            for s in streams {
                words.push(s.words[t]);
            }
        }
        Self::from_words(first.width, words)
    }

    /// Concatenates several same-width streams back-to-back in time:
    /// all words of the first stream, then all of the second, …
    ///
    /// This models the "Sensor Seq." data stream of Sec. 7, where each
    /// sensor's trace is transmitted *en bloc* before the next one.
    ///
    /// # Errors
    ///
    /// [`StatsError::NoStreams`] for an empty input and
    /// [`StatsError::WidthMismatch`] for differing widths.
    pub fn concat(streams: &[&BitStream]) -> Result<Self, StatsError> {
        let first = streams.first().ok_or(StatsError::NoStreams)?;
        let mut words = Vec::new();
        for s in streams {
            if s.width != first.width {
                return Err(StatsError::WidthMismatch {
                    first: first.width,
                    other: s.width,
                });
            }
            words.extend_from_slice(&s.words);
        }
        Self::from_words(first.width, words)
    }

    /// Packs several streams *side by side* into one wide stream: the
    /// first stream occupies the least significant bits.
    ///
    /// This models the parallel transmission of all four Bayer colour
    /// components over one 32-bit array (Sec. 5.1, first analysis).
    ///
    /// # Errors
    ///
    /// [`StatsError::NoStreams`] for an empty input and
    /// [`StatsError::InvalidWidth`] if the total width exceeds 64.
    /// Streams are truncated to the shortest length.
    pub fn pack(streams: &[&BitStream]) -> Result<Self, StatsError> {
        if streams.is_empty() {
            return Err(StatsError::NoStreams);
        }
        let total_width: usize = streams.iter().map(|s| s.width).sum();
        check_width(total_width)?;
        let min_len = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut words = Vec::with_capacity(min_len);
        for t in 0..min_len {
            let mut word = 0u64;
            let mut shift = 0usize;
            for s in streams {
                word |= s.words[t] << shift;
                shift += s.width;
            }
            words.push(word);
        }
        Self::from_words(total_width, words)
    }

    /// Empirical 1-bit probability of bit `i` over the whole stream.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`; returns 0 for an empty stream.
    pub fn bit_probability(&self, i: usize) -> f64 {
        assert!(i < self.width, "bit index {i} out of width {}", self.width);
        if self.words.is_empty() {
            return 0.0;
        }
        let ones = self.words.iter().filter(|w| (**w >> i) & 1 == 1).count();
        ones as f64 / self.words.len() as f64
    }
}

/// [`StatsError::InvalidWidth`] unless `1 <= width <= 64`. Combinators
/// call it before they shift a word into place.
fn check_width(width: usize) -> Result<(), StatsError> {
    if width == 0 || width > 64 {
        return Err(StatsError::InvalidWidth { width });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bounds_enforced() {
        assert!(BitStream::new(0).is_err());
        assert!(BitStream::new(65).is_err());
        assert!(BitStream::new(64).is_ok());
    }

    #[test]
    fn from_words_checks_fit() {
        assert!(BitStream::from_words(4, vec![0xF]).is_ok());
        assert!(matches!(
            BitStream::from_words(4, vec![0x10]),
            Err(StatsError::WordTooWide { index: 0, .. })
        ));
    }

    #[test]
    fn push_checks_fit() {
        let mut s = BitStream::new(3).unwrap();
        assert!(s.push(0b111).is_ok());
        assert!(s.push(0b1000).is_err());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn width_64_mask_does_not_overflow() {
        let s = BitStream::from_words(64, vec![u64::MAX]).unwrap();
        assert!(s.bit(0, 63));
    }

    #[test]
    fn stable_lines_append_above_msb() {
        let s = BitStream::from_words(2, vec![0b01, 0b11]).unwrap();
        let w = s.with_stable_lines(&[true, false, true]).unwrap();
        assert_eq!(w.width(), 5);
        assert_eq!(w.word(0), 0b10101);
        assert_eq!(w.word(1), 0b10111);
        assert_eq!(w.bit_probability(2), 1.0);
        assert_eq!(w.bit_probability(3), 0.0);
    }

    #[test]
    fn multiplex_round_robins() {
        let a = BitStream::from_words(4, vec![1, 2]).unwrap();
        let b = BitStream::from_words(4, vec![9, 10]).unwrap();
        let m = BitStream::multiplex(&[&a, &b]).unwrap();
        assert_eq!(m.words(), &[1, 9, 2, 10]);
    }

    #[test]
    fn multiplex_truncates_to_shortest() {
        let a = BitStream::from_words(4, vec![1, 2, 3]).unwrap();
        let b = BitStream::from_words(4, vec![9]).unwrap();
        let m = BitStream::multiplex(&[&a, &b]).unwrap();
        assert_eq!(m.words(), &[1, 9]);
    }

    #[test]
    fn multiplex_rejects_mixed_widths() {
        let a = BitStream::from_words(4, vec![1]).unwrap();
        let b = BitStream::from_words(5, vec![1]).unwrap();
        assert!(matches!(
            BitStream::multiplex(&[&a, &b]),
            Err(StatsError::WidthMismatch { first: 4, other: 5 })
        ));
        assert!(matches!(BitStream::multiplex(&[]), Err(StatsError::NoStreams)));
    }

    #[test]
    fn concat_appends_in_time() {
        let a = BitStream::from_words(4, vec![1, 2]).unwrap();
        let b = BitStream::from_words(4, vec![3]).unwrap();
        let c = BitStream::concat(&[&a, &b]).unwrap();
        assert_eq!(c.words(), &[1, 2, 3]);
    }

    #[test]
    fn pack_places_first_stream_in_lsbs() {
        let a = BitStream::from_words(4, vec![0xA, 0x1]).unwrap();
        let b = BitStream::from_words(4, vec![0xB, 0x2]).unwrap();
        let p = BitStream::pack(&[&a, &b]).unwrap();
        assert_eq!(p.width(), 8);
        assert_eq!(p.word(0), 0xBA);
        assert_eq!(p.word(1), 0x21);
    }

    #[test]
    fn pack_rejects_overflow_width() {
        let a = BitStream::from_words(40, vec![0]).unwrap();
        let b = BitStream::from_words(40, vec![0]).unwrap();
        assert!(matches!(
            BitStream::pack(&[&a, &b]),
            Err(StatsError::InvalidWidth { width: 80 })
        ));
    }

    #[test]
    fn pack_past_64_bits_is_an_invalid_width_not_a_shift_overflow() {
        let s64 = BitStream::from_words(64, vec![u64::MAX]).unwrap();
        let s1 = BitStream::from_words(1, vec![1]).unwrap();
        assert!(matches!(
            BitStream::pack(&[&s64, &s1]),
            Err(StatsError::InvalidWidth { width: 65 })
        ));
    }

    #[test]
    fn pack_of_three_40_bit_streams_is_an_invalid_width() {
        let s = BitStream::from_words(40, vec![1]).unwrap();
        assert!(matches!(
            BitStream::pack(&[&s, &s, &s]),
            Err(StatsError::InvalidWidth { width: 120 })
        ));
    }

    #[test]
    fn stable_line_above_a_64_bit_stream_is_an_invalid_width() {
        let s = BitStream::from_words(64, vec![0]).unwrap();
        assert!(matches!(
            s.with_stable_lines(&[true]),
            Err(StatsError::InvalidWidth { width: 65 })
        ));
    }

    #[test]
    fn six_stable_lines_above_a_60_bit_stream_are_an_invalid_width() {
        let s = BitStream::from_words(60, vec![0]).unwrap();
        assert!(matches!(
            s.with_stable_lines(&[false, false, false, false, false, true]),
            Err(StatsError::InvalidWidth { width: 66 })
        ));
    }

    #[test]
    fn bit_probability_counts_ones() {
        let s = BitStream::from_words(2, vec![0b01, 0b11, 0b00, 0b01]).unwrap();
        assert_eq!(s.bit_probability(0), 0.75);
        assert_eq!(s.bit_probability(1), 0.25);
    }

    #[test]
    fn empty_stream_probability_is_zero() {
        let s = BitStream::new(4).unwrap();
        assert_eq!(s.bit_probability(0), 0.0);
        assert!(s.is_empty());
    }
}
