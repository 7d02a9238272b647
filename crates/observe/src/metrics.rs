//! A zero-dependency metrics registry: counters, gauges, and fixed
//! log-scale-bucket histograms with cheap `Arc`-backed handles.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Clone` and record
//! through atomics, so hot paths can cache a handle once and update it
//! without ever touching the registry lock. The registry itself is only
//! locked at registration and export time.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter starting at zero (unregistered; usually obtained from
    /// [`MetricsRegistry::counter`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` value (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0.0_f64.to_bits())))
    }
}

impl Gauge {
    /// A gauge starting at zero (unregistered; usually obtained from
    /// [`MetricsRegistry::gauge`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of finite histogram buckets (one more `+Inf` bucket is implicit).
pub const HISTOGRAM_BUCKETS: usize = 20;

/// Upper bounds (inclusive) of the finite histogram buckets.
///
/// Log-scale, doubling from 128 to `128 << 19` (≈ 67 million). Recorded
/// values are unitless `u64`s; span timing records nanoseconds, which puts
/// the top finite bucket at ~67 ms — far above any simulation hot path.
#[must_use]
pub fn bucket_bounds() -> [u64; HISTOGRAM_BUCKETS] {
    let mut bounds = [0u64; HISTOGRAM_BUCKETS];
    let mut b = 128u64;
    for bound in &mut bounds {
        *bound = b;
        b *= 2;
    }
    bounds
}

#[derive(Debug, Default)]
struct HistogramCore {
    /// Finite buckets followed by the overflow (`+Inf`) bucket.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A histogram with fixed log-scale buckets (see [`bucket_bounds`]).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// An empty histogram (unregistered; usually obtained from
    /// [`MetricsRegistry::histogram`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        // Bucket index via bit math: bounds are 128 << i, so the index is
        // how far v's highest bit sits above bit 7.
        let idx = if v <= 128 {
            0
        } else {
            let msb = 63 - (v - 1).leading_zeros() as usize;
            (msb - 6).min(HISTOGRAM_BUCKETS)
        };
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts: finite buckets in [`bucket_bounds`] order, then
    /// the overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS + 1] {
        let mut out = [0u64; HISTOGRAM_BUCKETS + 1];
        for (o, b) in out.iter_mut().zip(&self.0.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Folds `other`'s observations into this histogram (bucket counts,
    /// count, and sum all add). Used to combine per-shard histograms after
    /// a parallel run; merging is commutative, so shard order is
    /// irrelevant.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(other.bucket_counts()) {
            mine.fetch_add(theirs, Ordering::Relaxed);
        }
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }
}

/// The value side of one registered metric.
#[derive(Debug, Clone)]
enum MetricValue {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    value: MetricValue,
}

/// A registry of named metrics with Prometheus-text and JSON exporters.
///
/// Cloning the registry clones a shared handle: registrations and values
/// are visible through every clone.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricValue,
    ) -> MetricValue {
        let mut metrics = self.inner.lock().expect("metrics registry poisoned");
        if let Some(m) = metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k0, v0), (k1, v1))| k0 == k1 && v0 == v1)
        }) {
            return m.value.clone();
        }
        let value = make();
        metrics.push(Metric {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            value: value.clone(),
        });
        value
    }

    /// Returns the counter registered under `name` + `labels`, registering
    /// a fresh one on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name/labels pair is already registered as a different
    /// metric kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || MetricValue::Counter(Counter::new())) {
            MetricValue::Counter(c) => c,
            _ => panic!("metric `{name}` already registered as a non-counter"),
        }
    }

    /// Returns the gauge registered under `name` + `labels`, registering a
    /// fresh one on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name/labels pair is already registered as a different
    /// metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || MetricValue::Gauge(Gauge::new())) {
            MetricValue::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered as a non-gauge"),
        }
    }

    /// Returns the histogram registered under `name` + `labels`,
    /// registering a fresh one on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name/labels pair is already registered as a different
    /// metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, || MetricValue::Histogram(Histogram::new())) {
            MetricValue::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered as a non-histogram"),
        }
    }

    /// Folds every metric of `other` into this registry: counters add,
    /// gauges take the maximum, histograms merge bucket-wise. Metrics not
    /// yet present here are registered first, so merging into an empty
    /// registry copies `other`'s totals.
    ///
    /// The combine operations are commutative and associative, which makes
    /// the merged result independent of shard order — the property the
    /// fleet engine's deterministic report depends on.
    ///
    /// # Panics
    ///
    /// Panics if either registry lock is poisoned, or if a name/labels
    /// pair is registered with different metric kinds in the two
    /// registries.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs: Vec<Metric> = other
            .inner
            .lock()
            .expect("metrics registry poisoned")
            .clone();
        for m in theirs {
            let labels: Vec<(&str, &str)> = m
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &m.value {
                MetricValue::Counter(c) => {
                    self.counter(&m.name, &labels).add(c.get());
                }
                MetricValue::Gauge(g) => {
                    let mine = self.gauge(&m.name, &labels);
                    mine.set(mine.get().max(g.get()));
                }
                MetricValue::Histogram(h) => {
                    self.histogram(&m.name, &labels).merge_from(h);
                }
            }
        }
    }

    /// Every registered counter as `(name, value)`, label sets collapsed
    /// by summation, sorted by name. The deterministic counter export used
    /// in fleet reports.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        let metrics = self.inner.lock().expect("metrics registry poisoned");
        let mut totals: Vec<(String, u64)> = Vec::new();
        for m in metrics.iter() {
            if let MetricValue::Counter(c) = &m.value {
                match totals.iter_mut().find(|(name, _)| *name == m.name) {
                    Some((_, total)) => *total += c.get(),
                    None => totals.push((m.name.clone(), c.get())),
                }
            }
        }
        totals.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        totals
    }

    /// Number of registered metrics.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("metrics registry poisoned").len()
    }

    /// Whether the registry has no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every metric in the Prometheus text exposition format: one
    /// `name{labels} value` (or bare `name value`) line per sample, with
    /// histograms expanded into `_bucket`/`_sum`/`_count` series.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let metrics = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(metrics.len() * 48);
        for m in metrics.iter() {
            match &m.value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", m.name, label_set(&m.labels, &[]), c.get());
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        m.name,
                        label_set(&m.labels, &[]),
                        fmt_f64(g.get())
                    );
                }
                MetricValue::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (bound, n) in bucket_bounds().iter().zip(&counts) {
                        cumulative += n;
                        let le = bound.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            m.name,
                            label_set(&m.labels, &[("le", &le)]),
                            cumulative
                        );
                    }
                    cumulative += counts[HISTOGRAM_BUCKETS];
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        label_set(&m.labels, &[("le", "+Inf")]),
                        cumulative
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        label_set(&m.labels, &[]),
                        h.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        label_set(&m.labels, &[]),
                        h.count()
                    );
                }
            }
        }
        out
    }

    /// Renders every metric as a JSON array of objects.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::from("[");
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", json_escape(&m.name));
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push_str("},");
            match &m.value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{}", c.get());
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, "\"type\":\"gauge\",\"value\":{}", fmt_f64(g.get()));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count(),
                        h.sum()
                    );
                    let counts = h.bucket_counts();
                    for (j, (bound, n)) in bucket_bounds().iter().zip(&counts).enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{bound},\"count\":{n}}}");
                    }
                    let _ = write!(
                        out,
                        ",{{\"le\":\"+Inf\",\"count\":{}}}]",
                        counts[HISTOGRAM_BUCKETS]
                    );
                }
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Formats a label set: `{k="v",...}` or the empty string when there are
/// no labels. `extra` entries are appended after the registered labels.
fn label_set(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\`, and
/// every control character below U+0020 (`\n`, `\r` and `\t` by name,
/// the rest as `\u00XX`), so the output is always valid JSON. The one
/// JSON string escaper of the metrics export, the trace writer and the
/// phase-profile JSON.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON/Prometheus-safe float formatting (finite shortest round-trip,
/// `NaN`/`+Inf`/`-Inf` spelled out Prometheus-style).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sdb_steps_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels returns the same underlying counter.
        assert_eq!(reg.counter("sdb_steps_total", &[]).get(), 5);
        // Different labels → a distinct counter.
        assert_eq!(reg.counter("sdb_steps_total", &[("k", "v")]).get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("sdb_soc", &[("battery", "0")]);
        g.set(0.75);
        assert!((reg.gauge("sdb_soc", &[("battery", "0")]).get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let bounds = bucket_bounds();
        assert_eq!(bounds[0], 128);
        for w in bounds.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        let h = Histogram::new();
        h.record(1); // → first bucket
        h.record(128); // boundary → first bucket (le is inclusive)
        h.record(129); // → second bucket
        h.record(u64::MAX); // → overflow bucket
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[HISTOGRAM_BUCKETS], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_bucket_boundaries_exact() {
        // Every bound lands in its own bucket; bound+1 lands in the next.
        let h = Histogram::new();
        for (i, bound) in bucket_bounds().iter().enumerate() {
            let before = h.bucket_counts();
            h.record(*bound);
            h.record(bound + 1);
            let after = h.bucket_counts();
            assert_eq!(after[i], before[i] + 1, "bucket {i}");
            assert_eq!(after[i + 1], before[i + 1] + 1, "bucket {}", i + 1);
        }
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("sdb_pushes_total", &[("flow", "discharge")])
            .inc();
        reg.gauge("sdb_directive", &[]).set(0.5);
        reg.histogram("sdb_step_ns", &[]).record(200);
        let text = reg.to_prometheus_text();
        assert!(text.contains("sdb_pushes_total{flow=\"discharge\"} 1\n"));
        assert!(text.contains("sdb_directive 0.5\n"));
        assert!(text.contains("sdb_step_ns_bucket{le=\"256\"} 1\n"));
        assert!(text.contains("sdb_step_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("sdb_step_ns_sum 200\n"));
        assert!(text.contains("sdb_step_ns_count 1\n"));
        // Histogram buckets are cumulative.
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("sdb_step_ns_bucket"))
            .unwrap();
        assert!(last_bucket.ends_with(" 1"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("k", "v")]).add(3);
        reg.gauge("b", &[]).set(1.25);
        reg.histogram("h_ns", &[]).record(1000);
        let json = reg.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"a_total\""));
        assert!(json.contains("\"k\":\"v\""));
        assert!(json.contains("\"value\":3"));
        assert!(json.contains("\"value\":1.25"));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"le\":\"+Inf\""));
        // Balanced braces/brackets (cheap structural sanity check).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("path", "a\"b\\c")]).inc();
        let text = reg.to_prometheus_text();
        assert!(text.contains("path=\"a\\\"b\\\\c\""));
    }

    #[test]
    fn prometheus_escapes_quote_backslash_and_newline() {
        // Regression: every escapable character of the exposition format
        // (`"`, `\`, literal newline) in one label value, in an order that
        // would double-escape if the backslash pass ran last.
        let reg = MetricsRegistry::new();
        reg.counter("esc_total", &[("v", "q\"uote b\\ack n\new")])
            .inc();
        let text = reg.to_prometheus_text();
        assert!(text.contains(r#"v="q\"uote b\\ack n\new""#), "got: {text}");
        // The rendered line must stay a single physical line.
        let line = text
            .lines()
            .find(|l| l.starts_with("esc_total"))
            .expect("metric rendered");
        assert!(line.ends_with(" 1"));
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(json_escape("plain é"), "plain é");
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(
            json_escape("n\nr\rt\tnul\u{0}us\u{1f}"),
            r"n\nr\rt\tnul\u0000us\u001f"
        );
    }

    #[test]
    fn json_export_escapes_control_characters() {
        let reg = MetricsRegistry::new();
        reg.counter("esc_total", &[("v", "a\"b\\c\nd\te\u{1}f")])
            .inc();
        let json = reg.to_json();
        assert!(
            json.contains(r#""v":"a\"b\\c\nd\te\u0001f""#),
            "got: {json}"
        );
        // No raw control characters may survive into the JSON text.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != ' '));
    }

    #[test]
    fn merge_combines_all_metric_kinds() {
        let a = MetricsRegistry::new();
        a.counter("steps_total", &[]).add(3);
        a.gauge("soc", &[]).set(0.25);
        a.histogram("lat_ns", &[]).record(200);

        let b = MetricsRegistry::new();
        b.counter("steps_total", &[]).add(4);
        b.counter("only_in_b_total", &[]).inc();
        b.gauge("soc", &[]).set(0.75);
        b.histogram("lat_ns", &[]).record(300);

        a.merge_from(&b);
        assert_eq!(a.counter("steps_total", &[]).get(), 7);
        assert_eq!(a.counter("only_in_b_total", &[]).get(), 1);
        assert!((a.gauge("soc", &[]).get() - 0.75).abs() < 1e-12);
        let h = a.histogram("lat_ns", &[]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 500);
        // Source registry is untouched.
        assert_eq!(b.counter("steps_total", &[]).get(), 4);
    }

    #[test]
    fn merge_is_order_independent_for_counters_and_histograms() {
        let build = |order: &[u64]| {
            let merged = MetricsRegistry::new();
            for &v in order {
                let shard = MetricsRegistry::new();
                shard.counter("n_total", &[]).add(v);
                shard.histogram("h_ns", &[]).record(v);
                merged.merge_from(&shard);
            }
            (
                merged.counter_totals(),
                merged.histogram("h_ns", &[]).bucket_counts(),
            )
        };
        assert_eq!(build(&[100, 5000, 77]), build(&[77, 100, 5000]));
    }

    #[test]
    fn counter_totals_sums_label_sets_and_sorts() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", &[("k", "a")]).add(2);
        reg.counter("z_total", &[("k", "b")]).add(3);
        reg.counter("a_total", &[]).inc();
        reg.gauge("ignored", &[]).set(9.0);
        assert_eq!(
            reg.counter_totals(),
            vec![("a_total".to_owned(), 1), ("z_total".to_owned(), 5)]
        );
    }

    #[test]
    fn handles_shared_across_clones() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("shared_total", &[]);
        let reg2 = reg.clone();
        reg2.counter("shared_total", &[]).add(7);
        assert_eq!(c.get(), 7);
    }
}
