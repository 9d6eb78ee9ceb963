//! Metric keys and fixed-bucket histograms.
//!
//! The stack keeps its metrics in [`wsn_sim::Stats`] stores; a
//! [`TraceDocument`](crate::TraceDocument) absorbs them
//! ([`TraceDocument::absorb_stats`](crate::TraceDocument::absorb_stats)),
//! with each exact histogram re-binned into a [`FixedHistogram`] over
//! [`TICK_BUCKETS`]. Fixed histograms count observations into a fixed set
//! of upper-bound buckets (`le` semantics: bucket `i` counts values
//! `<= uppers[i]`, with an implicit `+Inf` bucket at the end).
//!
//! ## Label dimensions
//!
//! Metric keys may carry label pairs after `|` separators:
//! `shard.events|shard=3` is the metric `shard.events` with label
//! `shard="3"` (build keys with [`labeled`], split them with
//! [`split_labels`]). Storage and JSONL traces keep the raw key.

/// Builds a metric key carrying label dimensions: `name|k=v|k2=v2`.
/// Keys compare textually, so series of one metric sort together.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut key = String::from(name);
    for (k, v) in labels {
        key.push('|');
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key
}

/// Splits a metric key into its metric name and label pairs.
pub fn split_labels(key: &str) -> (&str, Vec<(&str, &str)>) {
    let mut parts = key.split('|');
    let base = parts.next().unwrap_or(key);
    let labels = parts
        .map(|p| p.split_once('=').unwrap_or((p, "")))
        .collect();
    (base, labels)
}

/// Default histogram buckets for tick-valued observations: powers of two
/// up to 4096 ticks.
pub const TICK_BUCKETS: [f64; 13] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// A histogram with fixed upper-bound buckets plus count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    uppers: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl FixedHistogram {
    /// Creates an empty histogram with the given strictly increasing
    /// upper bounds (an `+Inf` bucket is added implicitly).
    pub fn new(uppers: &[f64]) -> Self {
        debug_assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        FixedHistogram {
            uppers: uppers.to_vec(),
            counts: vec![0; uppers.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Creates a histogram with [`TICK_BUCKETS`].
    pub fn ticks() -> Self {
        FixedHistogram::new(&TICK_BUCKETS)
    }

    /// Rebuilds a histogram from exported parts (used by the JSONL parser).
    pub fn from_parts(
        uppers: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Self {
        debug_assert_eq!(counts.len(), uppers.len() + 1);
        FixedHistogram {
            uppers,
            counts,
            count,
            sum,
            min,
            max,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .uppers
            .iter()
            .position(|&u| value <= u)
            .unwrap_or(self.uppers.len());
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket upper bounds (excluding the implicit `+Inf`).
    pub fn uppers(&self) -> &[f64] {
        &self.uppers
    }

    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile by linear interpolation inside the bucket
    /// that crosses rank `q * count` (`q` in `[0, 1]`, clamped; a NaN `q`
    /// reads as 0). An empty histogram reports every quantile as 0 —
    /// finite, like [`mean`](Self::mean)/[`min`](Self::min)/
    /// [`max`](Self::max) — so report renderers never print NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q };
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank && c > 0 {
                let lower = if i == 0 { self.min } else { self.uppers[i - 1] };
                let upper = if i < self.uppers.len() {
                    self.uppers[i]
                } else {
                    self.max
                };
                let frac = (rank - seen) as f64 / c as f64;
                return (lower + (upper - lower) * frac).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceDocument;
    use wsn_sim::Stats;

    #[test]
    fn histogram_bucket_semantics() {
        let mut h = FixedHistogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 10.0, 11.0] {
            h.record(v);
        }
        // le=1: {0.5, 1.0}; le=10: {3, 10}; +Inf: {11}.
        assert_eq!(h.bucket_counts(), &[2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 25.5);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 11.0);
        assert!((h.mean() - 5.1).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = FixedHistogram::ticks();
        for v in 0..1000 {
            h.record(f64::from(v % 97));
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!(q50 >= h.min() && q99 <= h.max());
    }

    #[test]
    fn empty_histogram_percentiles_are_finite_zeros() {
        let h = FixedHistogram::ticks();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        // The whole summary row a report renderer would print is finite.
        assert!(h.quantile(0.5).is_finite());
    }

    #[test]
    fn quantile_tolerates_out_of_range_and_nan_q() {
        let mut h = FixedHistogram::new(&[10.0]);
        h.record(4.0);
        h.record(6.0);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        let q = h.quantile(f64::NAN);
        assert!(q.is_finite());
        assert_eq!(q, h.quantile(0.0));
    }

    #[test]
    fn empty_registry_reads_report_zeros_not_panics() {
        let mut doc = TraceDocument::new();
        doc.absorb_stats(&Stats::new());
        assert_eq!(doc.counter("never.touched"), 0);
        assert!(doc.counters.is_empty());
        assert!(doc.gauges.is_empty());
        assert!(doc.histograms.is_empty());
    }

    #[test]
    fn labeled_round_trips_through_split_labels() {
        let key = labeled("shard.events", &[("shard", "3"), ("lane", "a")]);
        assert_eq!(key, "shard.events|shard=3|lane=a");
        let (base, labels) = split_labels(&key);
        assert_eq!(base, "shard.events");
        assert_eq!(labels, vec![("shard", "3"), ("lane", "a")]);
        let (bare, none) = split_labels("plain.metric");
        assert_eq!(bare, "plain.metric");
        assert!(none.is_empty());
    }
}
