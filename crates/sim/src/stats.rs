//! Statistics collection for experiment harnesses.
//!
//! The benchmark harness prints paper-style tables from these accumulators:
//! command counts (for the power model of Fig. 12), latency histograms, and
//! running means for throughput series.

use std::collections::BTreeMap;
use std::fmt;

/// A named set of monotonically increasing event counters.
///
/// Keys are static strings (command names, event kinds); iteration order is
/// deterministic (BTreeMap) so printed reports are stable.
///
/// ```
/// use shadow_sim::stats::Counter;
/// let mut c = Counter::new();
/// c.add("act", 3);
/// c.inc("act");
/// assert_eq!(c.get("act"), 4);
/// assert_eq!(c.get("missing"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    counts: BTreeMap<&'static str, u64>,
}

impl Counter {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Increments counter `key` by one.
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Returns the value of counter `key` (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(name, count)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counter) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Adds `n` to the counter named by a runtime string, interning the
    /// name.
    ///
    /// Checkpoint/resume deserialization reconstructs counters from JSON
    /// keys that are not `'static`. Names matching a known command/event
    /// counter reuse its static string; novel names are leaked once per
    /// process — acceptable for the small, closed set of counter names a
    /// manifest can contain.
    pub fn add_interned(&mut self, key: &str, n: u64) {
        const KNOWN: &[&str] = &[
            "ACT", "PRE", "RD", "WR", "REF", "RFM", "act", "pre", "rd", "wr", "ref", "rfm",
        ];
        let key: &'static str = match KNOWN.iter().find(|k| **k == key) {
            Some(k) => k,
            None => Box::leak(key.to_string().into_boxed_str()),
        };
        self.add(key, n);
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:>24}: {v}")?;
        }
        Ok(())
    }
}

/// A fixed-width linear histogram with overflow bucket.
///
/// ```
/// use shadow_sim::stats::Histogram;
/// let mut h = Histogram::new(10, 8); // 8 buckets of width 10
/// h.record(5);
/// h.record(25);
/// h.record(1_000); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket(0), 1);
/// assert_eq!(h.bucket(2), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `n` buckets of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `n == 0`.
    pub fn new(width: u64, n: usize) -> Self {
        assert!(
            width > 0 && n > 0,
            "histogram needs positive width and bucket count"
        );
        Histogram {
            width,
            buckets: vec![0; n],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Count of samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of all samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merges another histogram into this one, bucket by bucket.
    ///
    /// The result is exactly the histogram a single accumulator would have
    /// produced from the union of both sample sets — the property the
    /// engine's per-channel latency histograms rely on to merge into one
    /// exact report.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different widths or bucket counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket-count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Decomposes the histogram into its raw parts for serialization:
    /// `(width, buckets, overflow, count, sum, max)`.
    ///
    /// The checkpoint manifest persists these and rebuilds the histogram
    /// with [`from_parts`](Histogram::from_parts); round-tripping is exact
    /// (the pair is pinned by a test), which the resume path's bit-identity
    /// guarantee depends on.
    pub fn to_parts(&self) -> (u64, &[u64], u64, u64, u128, u64) {
        (
            self.width,
            &self.buckets,
            self.overflow,
            self.count,
            self.sum,
            self.max,
        )
    }

    /// Rebuilds a histogram from [`to_parts`](Histogram::to_parts) output.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `buckets` is empty, same as
    /// [`new`](Histogram::new).
    pub fn from_parts(
        width: u64,
        buckets: Vec<u64>,
        overflow: u64,
        count: u64,
        sum: u128,
        max: u64,
    ) -> Self {
        assert!(
            width > 0 && !buckets.is_empty(),
            "histogram needs positive width and bucket count"
        );
        Histogram {
            width,
            buckets,
            overflow,
            count,
            sum,
            max,
        }
    }

    /// Approximate p-th percentile (0..=100) from bucket midpoints.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return i as u64 * self.width + self.width / 2;
            }
        }
        self.max
    }
}

/// Online mean / variance / extrema via Welford's algorithm.
///
/// ```
/// use shadow_sim::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Geometric mean of a slice of positive ratios.
///
/// Used for summarising relative-performance series the way architecture
/// papers do. Returns 1.0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc("a");
        c.add("a", 2);
        c.inc("b");
        assert_eq!(c.get("a"), 3);
        assert_eq!(c.get("b"), 1);
        assert_eq!(c.get("zzz"), 0);
        let items: Vec<_> = c.iter().collect();
        assert_eq!(items, vec![("a", 3), ("b", 1)]);
    }

    #[test]
    fn counter_merge() {
        let mut a = Counter::new();
        a.add("x", 5);
        let mut b = Counter::new();
        b.add("x", 2);
        b.add("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 7);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn counter_display_nonempty() {
        let mut c = Counter::new();
        c.inc("act");
        assert!(c.to_string().contains("act"));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(100, 4);
        for v in [0, 99, 100, 350, 399, 400, 5000] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(3), 2);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(10, 10);
        h.record(10);
        h.record(20);
        assert!((h.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        assert!((45..=55).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn histogram_empty_percentile_zero() {
        let h = Histogram::new(1, 4);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(0, 4);
    }

    #[test]
    fn histogram_parts_round_trip_exactly() {
        let mut h = Histogram::new(7, 5);
        for v in [0, 6, 7, 13, 34, 35, u64::MAX / 2] {
            h.record(v);
        }
        let (width, buckets, overflow, count, sum, max) = h.to_parts();
        let back = Histogram::from_parts(width, buckets.to_vec(), overflow, count, sum, max);
        assert_eq!(h, back);
    }

    #[test]
    fn counter_interned_matches_static() {
        let mut a = Counter::new();
        a.add("ACT", 3);
        a.add("RD", 1);
        let mut b = Counter::new();
        for (k, v) in a.iter() {
            b.add_interned(k, v);
        }
        b.add_interned("custom-event", 9);
        assert_eq!(b.get("ACT"), 3);
        assert_eq!(b.get("custom-event"), 9);
    }

    #[test]
    fn running_stats_welford() {
        let mut s = RunningStats::new();
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for x in xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    #[should_panic]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn histogram_merge_equals_single_accumulator() {
        let samples = [3u64, 17, 17, 42, 99, 250, 10_000];
        let mut whole = Histogram::new(16, 16);
        let mut a = Histogram::new(16, 16);
        let mut b = Histogram::new(16, 16);
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 { &mut a } else { &mut b }.record(s);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must match one accumulator exactly");
    }

    #[test]
    #[should_panic]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(16, 16);
        a.merge(&Histogram::new(8, 16));
    }
}
