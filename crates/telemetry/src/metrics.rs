//! The metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Metric identity is a static name plus an optional static label
//! (a literal or an entry of a fixed table, never a built string), so one
//! logical metric can fan out by taxonomy (`webmail.logins{ok}`,
//! `webmail.logins{blocked}`) while staying cheap to record. Everything
//! is kept in `BTreeMap`s keyed on `(name, label)` so snapshots render
//! in a stable, deterministic order.

use std::collections::BTreeMap;

/// Identity of one metric series.
pub type MetricKey = (&'static str, Option<&'static str>);

/// Log-bucketed histogram of `u64` observations. Bucket `i` holds the
/// count of values whose bit width is `i` (i.e. values in
/// `[2^(i-1), 2^i)`, with bucket 0 reserved for zero), which spans the
/// full `u64` range in 65 buckets at a cost of one increment per
/// observation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros();
        *self.buckets.entry(bucket).or_insert(0) += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold another histogram's observations into this one. The result
    /// is identical to observing both input streams into one histogram,
    /// whatever the interleaving — the merge is order-free.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (b, c) in other.buckets() {
            *self.buckets.entry(b).or_insert(0) += c;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Summarize for reporting.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
        }
    }

    /// Raw `(bucket, count)` pairs, ascending by bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &c)| (b, c))
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Condensed view of one histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// The live registry behind an enabled sink.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl Registry {
    /// Add `n` to a counter.
    pub fn count_by(&mut self, name: &'static str, label: Option<&'static str>, n: u64) {
        *self.counters.entry((name, label)).or_insert(0) += n;
    }

    /// Set a gauge to `value`.
    pub fn gauge_set(&mut self, name: &'static str, label: Option<&'static str>, value: u64) {
        self.gauges.insert((name, label), value);
    }

    /// Raise a gauge to `value` if it is higher (high-water marks).
    pub fn gauge_max(&mut self, name: &'static str, label: Option<&'static str>, value: u64) {
        let slot = self.gauges.entry((name, label)).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, name: &'static str, label: Option<&'static str>, value: u64) {
        self.histograms
            .entry((name, label))
            .or_default()
            .observe(value);
    }

    /// Immutable point-in-time copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let key = |(name, label): &MetricKey| match label {
            Some(l) => format!("{name}{{{l}}}"),
            None => (*name).to_string(),
        };
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (key(k), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (key(k), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (key(k), h.clone()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every metric series, keyed by the rendered
/// `name` / `name{label}` form, in deterministic (sorted) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges (including high-water marks).
    pub gauges: BTreeMap<String, u64>,
    /// Log-bucketed histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Sum of every counter series whose base name is `name`, labelled
    /// or not. `counter("webmail.logins")` adds `webmail.logins{ok}`,
    /// `webmail.logins{blocked}`, etc.
    pub fn counter(&self, name: &str) -> u64 {
        let labelled = format!("{name}{{");
        self.counters
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&labelled))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Value of one gauge, zero if never set.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Fold another snapshot into this one: counters and histogram
    /// observations sum, gauges keep the highest value seen (high-water
    /// semantics — the only gauge kind the workspace records). Because
    /// every combinator is commutative and associative, merging a set of
    /// per-worker snapshots yields the same result in any order.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let mut r = Registry::default();
        r.count_by("webmail.logins", Some("ok"), 2);
        r.count_by("webmail.logins", Some("blocked"), 1);
        r.count_by("webmail.logins", Some("ok"), 1);
        let s = r.snapshot();
        assert_eq!(s.counters["webmail.logins{ok}"], 3);
        assert_eq!(s.counters["webmail.logins{blocked}"], 1);
        assert_eq!(s.counter("webmail.logins"), 4);
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let mut r = Registry::default();
        r.gauge_max("queue.depth_high_water", None, 5);
        r.gauge_max("queue.depth_high_water", None, 3);
        r.gauge_max("queue.depth_high_water", None, 9);
        assert_eq!(r.snapshot().gauge("queue.depth_high_water"), 9);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut r = Registry::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            r.observe("lat", None, v);
        }
        let s = r.snapshot();
        let h = &s.histograms["lat"];
        let buckets: Vec<(u32, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        let sum = h.summary();
        assert_eq!(sum.count, 6);
        assert_eq!(sum.min, 0);
        assert_eq!(sum.max, 1024);
        assert!((sum.mean - 1034.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_equals_joint_observation() {
        let mut joint = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0, 3, 9, 1024] {
            joint.observe(v);
            a.observe(v);
        }
        for v in [7, 7, 2_000_000] {
            joint.observe(v);
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
        // Merging an empty histogram is a no-op either way.
        let empty = Histogram::default();
        a.merge(&empty);
        assert_eq!(a, joint);
        let mut from_empty = Histogram::default();
        from_empty.merge(&joint);
        assert_eq!(from_empty, joint);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges() {
        let mut a = Registry::default();
        a.count_by("runs", None, 2);
        a.gauge_max("depth", None, 5);
        a.observe("lat", None, 4);
        let mut b = Registry::default();
        b.count_by("runs", None, 3);
        b.count_by("other", Some("x"), 1);
        b.gauge_max("depth", None, 3);
        b.observe("lat", None, 9);
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        assert_eq!(merged.counter("runs"), 5);
        assert_eq!(merged.counters["other{x}"], 1);
        assert_eq!(merged.gauge("depth"), 5);
        assert_eq!(merged.histograms["lat"].summary().count, 2);
    }

    #[test]
    fn snapshots_are_comparable() {
        let mut a = Registry::default();
        let mut b = Registry::default();
        a.count_by("x", None, 1);
        b.count_by("x", None, 1);
        assert_eq!(a.snapshot(), b.snapshot());
        b.count_by("x", None, 1);
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
