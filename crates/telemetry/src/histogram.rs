//! Log-bucketed histogram for durations and other non-negative values.

use std::collections::BTreeMap;

/// A power-of-two log-bucketed histogram.
///
/// Finite positive samples land in bucket `floor(log2(v))`; the
/// pathological inputs an instrumentation layer must survive — zero,
/// subnormals, infinities, NaN — are tracked in dedicated side
/// counters instead of being silently dropped or crashing the run.
///
/// # Examples
///
/// ```
/// use tsv3d_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(3.0); // bucket 1: [2, 4)
/// h.record(3.5);
/// h.record(0.75); // bucket -1: [0.5, 1)
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(1), 2);
/// assert_eq!(h.bucket_count(-1), 1);
/// assert!((h.mean() - (3.0 + 3.5 + 0.75) / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// `floor(log2(v))` → sample count, for finite positive `v`.
    buckets: BTreeMap<i16, u64>,
    zero: u64,
    negative: u64,
    infinite: u64,
    nan: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Self::default()
        }
    }

    /// The bucket index of a finite positive value:
    /// `floor(log2(v))`, clamped to `i16` (subnormals reach −1074).
    fn bucket_of(v: f64) -> i16 {
        debug_assert!(v > 0.0 && v.is_finite());
        // `log2` of subnormals is exact enough for bucketing; clamp
        // defensively anyway.
        v.log2().floor().clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            self.nan += 1;
            return;
        }
        if v.is_infinite() {
            self.infinite += 1;
            return;
        }
        if v < 0.0 {
            self.negative += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zero += 1;
        } else {
            *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        }
    }

    /// Number of recorded finite, non-negative samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded finite, non-negative samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Rejected negative samples.
    pub fn negative_count(&self) -> u64 {
        self.negative
    }

    /// Rejected infinite samples.
    pub fn infinite_count(&self) -> u64 {
        self.infinite
    }

    /// Rejected NaN samples.
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// Count in log bucket `exp` (covering `[2^exp, 2^(exp+1))`).
    pub fn bucket_count(&self, exp: i16) -> u64 {
        self.buckets.get(&exp).copied().unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the log2
    /// buckets.
    ///
    /// The estimate walks the zero counter and the log buckets in
    /// ascending order until the cumulative count reaches
    /// `ceil(q · count)` and reports that bucket's upper edge
    /// `2^(exp+1)`, clamped into the observed `[min, max]` range so the
    /// estimate never leaves the data. Zero-valued samples report 0.
    /// The resolution is one octave — inherent to log2 bucketing — so
    /// the true quantile lies within a factor of 2 of the estimate.
    ///
    /// Returns `None` when the histogram is empty or `q` is NaN;
    /// `q ≤ 0` reports [`min`](Self::min) and `q ≥ 1` reports
    /// [`max`](Self::max).
    ///
    /// # Examples
    ///
    /// ```
    /// use tsv3d_telemetry::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// for v in [1.0, 1.2, 1.7, 3.0, 100.0] {
    ///     h.record(v);
    /// }
    /// // 3 of 5 samples sit in bucket 0 = [1, 2): the median reports
    /// // that bucket's upper edge.
    /// assert_eq!(h.percentile(0.5), Some(2.0));
    /// assert_eq!(h.percentile(1.0), Some(100.0));
    /// ```
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero;
        if seen >= rank {
            return Some(0.0);
        }
        for (&exp, &count) in &self.buckets {
            seen += count;
            if seen >= rank {
                let upper = (f64::from(exp) + 1.0).exp2();
                return Some(upper.clamp(self.min, self.max));
            }
        }
        // Unreachable while the side counters stay consistent; fall
        // back to the observed maximum rather than panicking.
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_floors() {
        let mut h = Histogram::new();
        for v in [1.0, 1.5, 1.99] {
            h.record(v);
        }
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.bucket_count(0), 3);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(-1), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn zero_is_counted_separately() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-0.0);
        assert_eq!(h.zero, 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
        assert!(h.buckets.is_empty(), "no log bucket for zero");
    }

    #[test]
    fn subnormals_land_in_deep_negative_buckets() {
        let mut h = Histogram::new();
        let sub = f64::MIN_POSITIVE / 4.0; // subnormal: 2^-1024
        assert!(sub > 0.0 && !sub.is_normal());
        h.record(sub);
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_count(-1024), 1);
    }

    #[test]
    fn smallest_subnormal_does_not_overflow_the_bucket_index() {
        let mut h = Histogram::new();
        h.record(5e-324); // 2^-1074, the smallest positive f64
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_count(-1074), 1);
    }

    #[test]
    fn non_finite_and_negative_samples_are_quarantined() {
        let mut h = Histogram::new();
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(2.0);
        assert_eq!(h.infinite_count(), 2);
        assert_eq!(h.nan_count(), 1);
        assert_eq!(h.negative_count(), 1);
        assert_eq!(h.count(), 1, "only the finite positive sample counts");
        assert_eq!(h.sum(), 2.0);
        assert!(h.mean() == 2.0 && h.min() == 2.0 && h.max() == 2.0);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.min().is_infinite() && h.min() > 0.0);
        assert!(h.max().is_infinite() && h.max() < 0.0);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn percentile_walks_buckets_in_order() {
        let mut h = Histogram::new();
        // 8 samples: 4 in bucket 0 = [1, 2), 3 in bucket 2 = [4, 8),
        // 1 in bucket 4 = [16, 32).
        for v in [1.0, 1.1, 1.5, 1.9, 4.0, 5.0, 7.9, 17.0] {
            h.record(v);
        }
        // rank(0.5) = 4 falls on the last sample of bucket 0, whose
        // upper edge is 2.
        assert_eq!(h.percentile(0.5), Some(2.0));
        // rank(0.75) = 6 lands in bucket 2, upper edge 8.
        assert_eq!(h.percentile(0.75), Some(8.0));
        // rank(1.0) snaps to the exact observed max.
        assert_eq!(h.percentile(1.0), Some(17.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
    }

    #[test]
    fn percentile_is_clamped_to_observed_range() {
        let mut h = Histogram::new();
        h.record(3.0); // bucket 1 = [2, 4), upper edge 4
        h.record(3.5);
        // The bucket's upper edge (4) exceeds the observed max (3.5):
        // the estimate must not exceed data actually seen.
        assert_eq!(h.percentile(0.5), Some(3.5));
    }

    #[test]
    fn percentile_reports_zero_for_the_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.0);
        h.record(0.0);
        h.record(8.0);
        assert_eq!(h.percentile(0.5), Some(0.0));
        assert_eq!(h.percentile(0.99), Some(8.0));
    }

    #[test]
    fn percentile_exact_boundary_between_buckets() {
        let mut h = Histogram::new();
        h.record(1.0); // bucket 0
        h.record(4.0); // bucket 2
        // rank(0.5) = 1: exactly exhausts bucket 0 → its upper edge 2.
        assert_eq!(h.percentile(0.5), Some(2.0));
        // Anything past the midpoint must move to the upper bucket.
        assert_eq!(h.percentile(0.51), Some(4.0));
    }

    #[test]
    fn percentile_rejects_nan_q() {
        let mut h = Histogram::new();
        h.record(1.0);
        assert_eq!(h.percentile(f64::NAN), None);
    }
}
