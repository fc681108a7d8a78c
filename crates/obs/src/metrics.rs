//! Metrics registry: monotonic counters, gauges, and fixed-boundary
//! histograms.
//!
//! All metrics are integer-valued and keyed by name in sorted maps, so a
//! snapshot serializes identically on every run of the same workload.
//! Histogram boundaries are fixed at registration (never derived from the
//! observed data), which keeps bucket layouts — and therefore report
//! bytes — independent of the values that happened to arrive first.
//!
//! This module is integer-only by lint policy (`sslic-analyze`
//! float-in-datapath scope).

use std::collections::BTreeMap;

/// A fixed-boundary histogram over `u64` observations.
///
/// `boundaries = [b0, b1, …, bn]` defines `n + 1` buckets:
/// `v <= b0`, `b0 < v <= b1`, …, `v > bn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    boundaries: Vec<u64>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates an empty histogram. Boundaries are sorted and deduplicated;
    /// an empty boundary list yields a single catch-all bucket.
    pub(crate) fn new(boundaries: &[u64]) -> Self {
        let mut b = boundaries.to_vec();
        b.sort_unstable();
        b.dedup();
        let buckets = vec![0; b.len() + 1];
        Histogram {
            boundaries: b,
            buckets,
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, v: u64) {
        let idx = self.boundaries.partition_point(|&b| b < v);
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket = bucket.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Zeroes every bucket, the count, and the sum, keeping the boundary
    /// layout. Allocation-free.
    pub(crate) fn reset(&mut self) {
        for bucket in self.buckets.iter_mut() {
            *bucket = 0;
        }
        self.count = 0;
        self.sum = 0;
    }

    /// The upper boundaries (exclusive of the final overflow bucket).
    pub(crate) fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Per-bucket observation counts (`boundaries().len() + 1` entries).
    pub(crate) fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observed values.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }
}

/// Monotonic counters, gauges, and histograms, keyed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the monotonic counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(v);
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into the histogram `name`, registering it with
    /// `boundaries` on first use (later boundary arguments are ignored —
    /// boundaries are fixed at registration).
    pub(crate) fn histogram_observe(&mut self, name: &str, boundaries: &[u64], v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(boundaries))
            .observe(v);
    }

    /// Installs a prebuilt histogram under `name`, replacing any
    /// previous registration. Snapshot-side helper: hot paths observe
    /// into preallocated [`Histogram`]s and publish them here off the
    /// frame path.
    pub fn histogram_insert(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_string(), h);
    }

    /// Counter value (0 when the counter was never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_default_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.counter_add("x", 3);
        m.counter_add("x", 4);
        assert_eq!(m.counter("x"), 7);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("occupancy", 5);
        m.gauge_set("occupancy", -2);
        assert_eq!(m.gauge("occupancy"), Some(-2));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_by_fixed_boundaries() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        // v <= 10 → bucket 0; 10 < v <= 100 → bucket 1; v > 100 → bucket 2.
        assert_eq!(h.buckets(), &[2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 0 + 10 + 11 + 100 + 101 + 5000);
    }

    #[test]
    fn histogram_boundaries_sorted_and_deduped() {
        let h = Histogram::new(&[100, 10, 100]);
        assert_eq!(h.boundaries(), &[10, 100]);
        assert_eq!(h.buckets().len(), 3);
    }

    #[test]
    fn registry_histogram_registers_once() {
        let mut m = MetricsRegistry::new();
        m.histogram_observe("h", &[8], 3);
        // Second call's boundaries are ignored: layout is fixed.
        m.histogram_observe("h", &[1, 2, 3], 9);
        let h = m.histogram("h").expect("registered");
        assert_eq!(h.boundaries(), &[8]);
        assert_eq!(h.buckets(), &[1, 1]);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b", 1);
        m.counter_add("a", 1);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
