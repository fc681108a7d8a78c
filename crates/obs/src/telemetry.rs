//! Fleet telemetry: log2-bucketed latency histograms, deterministic
//! percentile estimation, and Prometheus text exposition.
//!
//! Everything in this module is integer-only by lint policy (it is
//! datapath-listed in `sslic-analyze`): the percentile estimator works on
//! bucket counts with integer rank arithmetic, and the exposition
//! renderer formats nothing but integers, so two renders of the same
//! registry are byte-identical — across runs, thread counts, and
//! toolchains. Latency *values* are whatever the caller observes: exact
//! deterministic cost units (operation counts) in Deterministic mode,
//! wall-clock nanoseconds in Wallclock mode. The machinery downstream of
//! `observe` is identical either way.

use crate::metrics::{Histogram, MetricsRegistry};

/// Upper bucket boundaries at successive powers of two:
/// `[2^min_exp, 2^(min_exp+1), …, 2^max_exp]`. Exponents are clamped to
/// 63 and a reversed range yields the single boundary `2^min_exp`.
pub(crate) fn log2_boundaries(min_exp: u32, max_exp: u32) -> Vec<u64> {
    let lo = min_exp.min(63);
    let hi = max_exp.min(63).max(lo);
    let mut out = Vec::with_capacity((hi - lo + 1) as usize);
    for e in lo..=hi {
        out.push(1u64 << e);
    }
    out
}

/// A latency histogram with fixed log2 bucket boundaries.
///
/// Thin wrapper over [`Histogram`] that pins the boundary layout at
/// construction and adds deterministic percentile estimation. `observe`
/// never allocates, so it is safe on the zero-allocation frame path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    inner: Histogram,
}

impl LatencyHistogram {
    /// An empty histogram with boundaries `[2^min_exp … 2^max_exp]`.
    pub fn log2(min_exp: u32, max_exp: u32) -> Self {
        LatencyHistogram {
            inner: Histogram::new(&log2_boundaries(min_exp, max_exp)),
        }
    }

    /// Records one latency observation. Allocation-free.
    pub fn observe(&mut self, v: u64) {
        self.inner.observe(v);
    }

    /// Zeroes every bucket, the count, and the sum, keeping the boundary
    /// layout. Allocation-free (slot rebinding uses this).
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// The wrapped fixed-boundary histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.inner
    }

    /// Deterministic percentile estimate: the smallest bucket upper bound
    /// whose cumulative count reaches `pct` % of the observations.
    pub fn percentile(&self, pct: u64) -> Option<u64> {
        percentile(&self.inner, pct)
    }
}

/// Deterministic percentile estimation from bucket boundaries.
///
/// The rank of the `pct`-th percentile over `count` observations is
/// `ceil(count * pct / 100)` (clamped to `1..=count`); the estimate is
/// the upper boundary of the bucket holding that rank — an upper bound
/// on the true order statistic, computed with pure integer arithmetic so
/// every run agrees byte-for-byte. Observations in the overflow bucket
/// estimate as the last boundary (the histogram's measurable ceiling),
/// or `u64::MAX` for a boundary-less histogram. Returns `None` for an
/// empty histogram or `pct > 100`.
pub(crate) fn percentile(h: &Histogram, pct: u64) -> Option<u64> {
    let count = h.count();
    if count == 0 || pct > 100 {
        return None;
    }
    let rank_wide = (u128::from(count) * u128::from(pct)).div_ceil(100);
    let rank = u64::try_from(rank_wide).unwrap_or(u64::MAX).clamp(1, count);
    let mut seen: u64 = 0;
    for (i, &bucket) in h.buckets().iter().enumerate() {
        seen = seen.saturating_add(bucket);
        if seen >= rank {
            return Some(match h.boundaries().get(i) {
                Some(&b) => b,
                // Overflow bucket: report the measurable ceiling.
                None => h.boundaries().last().copied().unwrap_or(u64::MAX),
            });
        }
    }
    // Unreachable for a consistent histogram (buckets sum to count), but
    // stay total: fall back to the ceiling.
    Some(h.boundaries().last().copied().unwrap_or(u64::MAX))
}

// --- Prometheus text exposition -------------------------------------------

/// Maps a metric name into the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and a
/// leading digit gains a `_` prefix. Any label suffix (`{…}`) the key may
/// carry is preserved untouched — see [`label`].
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    let (base, labels) = split_labels(name);
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in base.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    if let Some(l) = labels {
        out.push_str(l);
    }
    out
}

/// Escapes a label value per the exposition spec: backslash, the double
/// quote, and line feed.
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builds a registry key carrying a Prometheus label set:
/// `base{k="escaped-v",…}`. The exposition renderer recognizes the suffix
/// and splices histogram `le` labels inside it.
pub fn label(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a registry key into its base name and optional `{…}` label
/// suffix.
fn split_labels(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(i) => (&key[..i], Some(&key[i..])),
        None => (key, None),
    }
}

/// Appends one `# TYPE` header the first time `base` is seen.
fn type_header(out: &mut String, seen: &mut Vec<String>, base: &str, kind: &str) {
    if seen.iter().any(|s| s == base) {
        return;
    }
    out.push_str("# TYPE ");
    out.push_str(base);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    seen.push(base.to_string());
}

/// Writes `name{labels,extra} value\n` where `extra` is an optional
/// pre-escaped label to splice into the key's label set.
fn sample_line(out: &mut String, base: &str, labels: Option<&str>, extra: Option<&str>, value: &str) {
    out.push_str(base);
    match (labels, extra) {
        (Some(l), Some(e)) => {
            // `{a="1"}` + `le="8"` → `{a="1",le="8"}`.
            let inner = l.strip_prefix('{').and_then(|s| s.strip_suffix('}')).unwrap_or("");
            out.push('{');
            if !inner.is_empty() {
                out.push_str(inner);
                out.push(',');
            }
            out.push_str(e);
            out.push('}');
        }
        (Some(l), None) => out.push_str(l),
        (None, Some(e)) => {
            out.push('{');
            out.push_str(e);
            out.push('}');
        }
        (None, None) => {}
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Renders a [`MetricsRegistry`] in the Prometheus text exposition format
/// (version 0.0.4): counters, then gauges, then histograms, each in
/// registry (name) order, names sanitized to the metric-name grammar.
/// Registry keys may carry a `{label="value"}` suffix (see [`label`]);
/// histogram `le` labels are spliced into it. The output is a pure
/// function of the registry contents.
pub fn render_prometheus(m: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    for (key, v) in m.counters() {
        let key = sanitize_metric_name(key);
        let (base, labels) = split_labels(&key);
        type_header(&mut out, &mut seen, base, "counter");
        sample_line(&mut out, base, labels, None, &v.to_string());
    }
    for (key, v) in m.gauges() {
        let key = sanitize_metric_name(key);
        let (base, labels) = split_labels(&key);
        type_header(&mut out, &mut seen, base, "gauge");
        sample_line(&mut out, base, labels, None, &v.to_string());
    }
    for (key, h) in m.histograms() {
        let key = sanitize_metric_name(key);
        let (base, labels) = split_labels(&key);
        type_header(&mut out, &mut seen, base, "histogram");
        let bucket = format!("{base}_bucket");
        let mut cumulative: u64 = 0;
        for (i, &n) in h.buckets().iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            let le = match h.boundaries().get(i) {
                Some(b) => format!("le=\"{b}\""),
                None => "le=\"+Inf\"".to_string(),
            };
            sample_line(&mut out, &bucket, labels, Some(&le), &cumulative.to_string());
        }
        sample_line(&mut out, &format!("{base}_sum"), labels, None, &h.sum().to_string());
        sample_line(
            &mut out,
            &format!("{base}_count"),
            labels,
            None,
            &h.count().to_string(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_boundaries_are_powers_of_two() {
        assert_eq!(log2_boundaries(3, 6), vec![8, 16, 32, 64]);
        assert_eq!(log2_boundaries(0, 0), vec![1]);
        // Reversed range degrades to the single low boundary.
        assert_eq!(log2_boundaries(5, 2), vec![32]);
        // Clamped at 2^63.
        assert_eq!(log2_boundaries(63, 70), vec![1u64 << 63]);
    }

    /// Exact oracle: sort the observations, take the rank-th order
    /// statistic (rank = ceil(count*pct/100)), then find the bucket it
    /// falls into — the estimator must report that bucket's upper bound.
    fn oracle(values: &[u64], boundaries: &[u64], pct: u64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((sorted.len() as u64 * pct).div_ceil(100)).clamp(1, sorted.len() as u64);
        let exact = sorted[(rank - 1) as usize];
        match boundaries.iter().find(|&&b| exact <= b) {
            Some(&b) => b,
            None => *boundaries.last().unwrap(),
        }
    }

    #[test]
    fn percentile_matches_exact_oracle() {
        let boundaries = log2_boundaries(0, 16);
        // Deterministic pseudo-random stream (SplitMix64 mix).
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in [1usize, 2, 7, 100, 1000] {
            let values: Vec<u64> = (0..n).map(|_| next() % 100_000).collect();
            let mut h = Histogram::new(&boundaries);
            for &v in &values {
                h.observe(v);
            }
            for pct in [0u64, 1, 50, 90, 99, 100] {
                assert_eq!(
                    percentile(&h, pct),
                    Some(oracle(&values, &boundaries, pct)),
                    "n={n} pct={pct}"
                );
            }
        }
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = Histogram::new(&[8, 16]);
        assert_eq!(percentile(&empty, 50), None);
        let mut h = Histogram::new(&[8, 16]);
        h.observe(4);
        assert_eq!(percentile(&h, 101), None);
        assert_eq!(percentile(&h, 0), Some(8), "rank clamps up to 1");
        // Overflow bucket reports the measurable ceiling.
        h.observe(1_000_000);
        assert_eq!(percentile(&h, 100), Some(16));
        // Boundary-less histogram: ceiling is u64::MAX.
        let mut open = Histogram::new(&[]);
        open.observe(3);
        assert_eq!(percentile(&open, 50), Some(u64::MAX));
    }

    #[test]
    fn latency_histogram_resets_in_place() {
        let mut h = LatencyHistogram::log2(2, 6);
        h.observe(5);
        h.observe(900);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(50), Some(8));
        h.reset();
        assert_eq!((h.count(), h.histogram().sum()), (0, 0));
        assert_eq!(h.percentile(50), None);
        assert_eq!(h.histogram().boundaries(), &[4, 8, 16, 32, 64]);
    }

    #[test]
    fn prometheus_rendering_has_spec_shape() {
        let mut m = MetricsRegistry::new();
        m.counter_add("fleet.frames.total", 6);
        m.gauge_set("fleet.queue_depth", 2);
        m.histogram_observe("fleet.latency", &[8, 64], 5);
        m.histogram_observe("fleet.latency", &[8, 64], 70);
        m.histogram_observe("fleet.latency", &[8, 64], 100);
        let text = render_prometheus(&m);
        let expected = "\
# TYPE fleet_frames_total counter
fleet_frames_total 6
# TYPE fleet_queue_depth gauge
fleet_queue_depth 2
# TYPE fleet_latency histogram
fleet_latency_bucket{le=\"8\"} 1
fleet_latency_bucket{le=\"64\"} 1
fleet_latency_bucket{le=\"+Inf\"} 3
fleet_latency_sum 175
fleet_latency_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_labels_are_spliced_and_escaped() {
        let mut m = MetricsRegistry::new();
        let key = label("stream_latency", &[("stream", "7"), ("site", "a\"b\\c\nd")]);
        m.histogram_observe(&key, &[16], 10);
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE stream_latency histogram\n"));
        assert!(text.contains(
            "stream_latency_bucket{stream=\"7\",site=\"a\\\"b\\\\c\\nd\",le=\"16\"} 1\n"
        ));
        assert!(text.contains("stream_latency_sum{stream=\"7\",site=\"a\\\"b\\\\c\\nd\"} 10\n"));
        // TYPE headers are emitted once per base name, even across labels.
        m.histogram_observe(&label("stream_latency", &[("stream", "8")]), &[16], 3);
        let text = render_prometheus(&m);
        assert_eq!(text.matches("# TYPE stream_latency histogram").count(), 1);
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize_metric_name("fleet.frame-latency"), "fleet_frame_latency");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(
            sanitize_metric_name("a.b{stream=\"x.y\"}"),
            "a_b{stream=\"x.y\"}",
            "label suffixes pass through untouched"
        );
    }

    #[test]
    fn label_escaping_per_spec() {
        assert_eq!(escape_label_value("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
    }
}
