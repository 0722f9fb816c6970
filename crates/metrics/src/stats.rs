//! Latency statistics for the Figure 10 box plots.

/// Five-number summary (plus mean) of a latency sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoxStats {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample (outliers included, as in Figure 10).
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl BoxStats {
    /// Computes the summary. Returns the default (all zeros) for an empty
    /// input.
    pub fn from_samples(samples: &[f64]) -> BoxStats {
        if samples.is_empty() {
            return BoxStats::default();
        }
        let mut s = samples.to_vec();
        // lint: allow(unwrap) — latencies come from the simulator and are finite
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let q = |p: f64| -> f64 {
            let idx = p * (s.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let w = idx - lo as f64;
            s[lo] * (1.0 - w) + s[hi] * w
        };
        BoxStats {
            min: s[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            // lint: allow(unwrap) — guarded by the is_empty() early return above
            max: *s.last().expect("nonempty"),
            mean: s.iter().sum::<f64>() / s.len() as f64,
            count: s.len(),
        }
    }
}

/// A fixed-bucket latency histogram that supports merging and percentile
/// queries without retaining samples.
///
/// Buckets are uniform: bucket `i` covers `[i·width, (i+1)·width)`; values
/// at or above `buckets · width` land in the final *saturated* bucket (the
/// histogram never loses a count, it only loses resolution at the top).
/// Negative values clamp into bucket 0. Two histograms with the same
/// `(width, buckets)` shape can be added together, which is how the serving
/// layer aggregates per-session recordings into server-wide statistics.
///
/// Percentile queries return the *upper edge* of the bucket containing the
/// requested rank — a conservative (never underestimating) answer with
/// error bounded by one bucket width, except in the saturated bucket where
/// the largest recorded value is returned instead.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    total: u64,
    max_seen: f64,
}

impl Histogram {
    /// An empty histogram of `buckets` uniform buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics unless `width > 0` and `buckets >= 1`.
    pub fn new(width: f64, buckets: usize) -> Histogram {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(buckets >= 1, "need at least one bucket");
        Histogram {
            width,
            counts: vec![0; buckets],
            total: 0,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The raw bucket counts (index `i` covers `[i·width, (i+1)·width)`).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records one sample. Non-finite samples are clamped into the
    /// saturated bucket (NaN) or bucket 0 (−∞) rather than dropped.
    pub fn record(&mut self, value: f64) {
        let idx = if value.is_nan() {
            self.counts.len() - 1
        } else {
            let i = (value / self.width).floor();
            if i < 0.0 {
                0
            } else {
                (i as usize).min(self.counts.len() - 1)
            }
        };
        self.counts[idx] += 1;
        self.total += 1;
        if value > self.max_seen {
            self.max_seen = value;
        }
    }

    /// Adds every count of `other` into `self`. Returns `false` (and
    /// changes nothing) when the shapes differ.
    #[must_use]
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.width != other.width || self.counts.len() != other.counts.len() {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        if other.max_seen > self.max_seen {
            self.max_seen = other.max_seen;
        }
        true
    }

    /// The value at or below which a fraction `p ∈ [0, 1]` of samples lie
    /// (upper bucket edge; the recorded maximum for the saturated bucket).
    /// Returns 0.0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.total == 0 {
            return 0.0;
        }
        // Rank of the sample we are after, 1-based: ⌈p·n⌉ clamped to ≥ 1.
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i + 1 == self.counts.len() {
                    // Saturated bucket: the upper edge is unbounded; report
                    // the largest value actually recorded.
                    self.max_seen.max((i as f64) * self.width)
                } else {
                    (i + 1) as f64 * self.width
                };
            }
        }
        // Unreachable: seen == total >= rank by the loop's end.
        self.max_seen
    }

    /// The largest recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max_seen
        }
    }
}

/// Fraction of samples strictly exceeding `target` — the "target miss rate"
/// annotated above each box in Figure 10.
pub fn miss_rate(samples: &[f64], target: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s > target).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_set() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = BoxStats::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn empty_input_is_zeroed() {
        assert_eq!(BoxStats::from_samples(&[]), BoxStats::default());
        assert_eq!(miss_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn histogram_percentiles_of_empty_are_zero() {
        let h = Histogram::new(0.001, 64);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_single_sample_dominates_every_percentile() {
        let mut h = Histogram::new(0.01, 100);
        h.record(0.034);
        assert_eq!(h.count(), 1);
        // 0.034 lands in [0.03, 0.04); every percentile reports that
        // bucket's upper edge.
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0.04, "p={p}");
        }
        assert_eq!(h.max(), 0.034);
    }

    #[test]
    fn histogram_saturated_bucket_reports_recorded_max() {
        let mut h = Histogram::new(1.0, 4); // saturates at 4.0
        h.record(0.5);
        h.record(100.0);
        h.record(250.0);
        assert_eq!(h.bucket_counts(), &[1, 0, 0, 2]);
        assert_eq!(h.percentile(0.33), 1.0);
        // Percentiles in the saturated bucket: the recorded max, not the
        // (meaningless) bucket edge.
        assert_eq!(h.percentile(0.9), 250.0);
        assert_eq!(h.percentile(1.0), 250.0);
        assert_eq!(h.max(), 250.0);
    }

    #[test]
    fn histogram_percentiles_of_uniform_fill() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5); // one sample per bucket
        }
        assert_eq!(h.percentile(0.1), 1.0);
        assert_eq!(h.percentile(0.5), 5.0);
        // Rank 10 lands in the top bucket, which is saturated by
        // definition and therefore reports the recorded maximum.
        assert_eq!(h.percentile(0.95), 9.5);
        // p=0 clamps to the first sample's bucket.
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    fn histogram_negative_and_nan_clamp_instead_of_dropping() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts(), &[1, 0, 0, 1]);
    }

    #[test]
    fn histogram_merge_requires_identical_shape() {
        let mut a = Histogram::new(1.0, 4);
        let mut b = Histogram::new(1.0, 4);
        a.record(0.5);
        b.record(2.5);
        b.record(7.0);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts(), &[1, 0, 1, 1]);
        assert_eq!(a.max(), 7.0);
        // Mismatched shapes are rejected untouched.
        let other_width = Histogram::new(0.5, 4);
        let other_len = Histogram::new(1.0, 8);
        assert!(!a.merge(&other_width));
        assert!(!a.merge(&other_len));
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn histogram_percentile_out_of_range_panics() {
        Histogram::new(1.0, 2).percentile(1.5);
    }

    #[test]
    fn miss_rate_is_strict() {
        let samples = [1.0, 2.0, 3.0];
        assert_eq!(miss_rate(&samples, 2.0), 1.0 / 3.0);
        assert_eq!(miss_rate(&samples, 3.0), 0.0);
        assert_eq!(miss_rate(&samples, 0.5), 1.0);
    }
}
