//! A zero-dependency registry of exact counters with cheap `Arc`-backed
//! handles, and Prometheus-text and JSON exporters.
//!
//! [`Counter`] handles are `Clone` and count through an atomic, so hot
//! paths can cache a handle once and update it without ever touching the
//! registry lock. The registry itself is only locked at registration and
//! export time.
//!
//! Wall-clock timings are not metrics here: `sdb profile` records them,
//! sampled, in `sdb-prof`'s phase tree.

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
    pub(crate) fn new() -> Self {
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

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    counter: Counter,
}

/// A registry of named counters with Prometheus-text and JSON exporters.
///
/// Counters are kept sorted by name, then label set, so every export is a
/// function of the counted values alone, never of registration order.
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

    /// Returns the counter registered under `name` + `labels`, registering
    /// a fresh one on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut metrics = self.inner.lock().expect("metrics registry poisoned");
        // Sorted by name, then label set: the export order.
        let found = metrics.binary_search_by(|m| {
            m.name.as_str().cmp(name).then_with(|| {
                m.labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .cmp(labels.iter().copied())
            })
        });
        match found {
            Ok(i) => metrics[i].counter.clone(),
            Err(i) => {
                let counter = Counter::new();
                metrics.insert(
                    i,
                    Metric {
                        name: name.to_owned(),
                        labels: labels
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                            .collect(),
                        counter: counter.clone(),
                    },
                );
                counter
            }
        }
    }

    /// Adds every counter of `other` into this registry, registering the
    /// ones not yet present here, so merging into an empty registry copies
    /// `other`'s totals. Addition commutes, which makes the merged result
    /// independent of shard order — the property the fleet engine's
    /// deterministic report depends on.
    ///
    /// # Panics
    ///
    /// Panics if either registry lock is poisoned.
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
            self.counter(&m.name, &labels).add(m.counter.get());
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
            match totals.last_mut() {
                Some((name, total)) if *name == m.name => *total += m.counter.get(),
                _ => totals.push((m.name.clone(), m.counter.get())),
            }
        }
        totals
    }

    /// Number of registered counters.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("metrics registry poisoned").len()
    }

    /// Renders every counter in the Prometheus text exposition format: one
    /// `name{labels} value` (or bare `name value`) line per counter.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let metrics = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(metrics.len() * 48);
        for m in metrics.iter() {
            let _ = writeln!(
                out,
                "{}{} {}",
                m.name,
                label_set(&m.labels),
                m.counter.get()
            );
        }
        out
    }

    /// Renders every counter as a JSON array of objects.
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
            let _ = write!(
                out,
                "}},\"type\":\"counter\",\"value\":{}}}",
                m.counter.get()
            );
        }
        out.push(']');
        out
    }
}

/// Formats a label set: `{k="v",...}` or the empty string when there are
/// no labels.
fn label_set(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
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
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("sdb_steps_total", &[]).add(3);
        reg.counter("sdb_pushes_total", &[("flow", "discharge")])
            .inc();
        reg.counter("sdb_pushes_total", &[("flow", "charge")])
            .add(2);
        // One line per counter, sorted by name, then label set, whatever
        // the registration order.
        assert_eq!(
            reg.to_prometheus_text(),
            "sdb_pushes_total{flow=\"charge\"} 2\n\
             sdb_pushes_total{flow=\"discharge\"} 1\n\
             sdb_steps_total 3\n"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("k", "v")]).add(3);
        reg.counter("b_total", &[]).inc();
        let json = reg.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"a_total\""));
        assert!(json.contains("\"k\":\"v\""));
        assert!(json.contains("\"type\":\"counter\",\"value\":3"));
        assert!(
            json.contains("\"name\":\"b_total\",\"labels\":{},\"type\":\"counter\",\"value\":1")
        );
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
        // No raw control characters may survive into the JSON text, which
        // the strict parser reads back to the label value.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != ' '));
        let v = crate::json::parse(&json).unwrap();
        let labels = v.as_arr().unwrap()[0].get("labels").unwrap();
        assert_eq!(
            labels.get("v").unwrap().as_str(),
            Some("a\"b\\c\nd\te\u{1}f")
        );
    }

    #[test]
    fn merge_combines_all_metric_kinds() {
        let a = MetricsRegistry::new();
        a.counter("steps_total", &[]).add(3);

        let b = MetricsRegistry::new();
        b.counter("steps_total", &[]).add(4);
        b.counter("only_in_b_total", &[]).inc();

        a.merge_from(&b);
        assert_eq!(a.counter("steps_total", &[]).get(), 7);
        assert_eq!(a.counter("only_in_b_total", &[]).get(), 1);
        // Source registry is untouched.
        assert_eq!(b.counter("steps_total", &[]).get(), 4);
    }

    #[test]
    fn merge_is_order_independent() {
        // Each shard registers a counter of its own first, so the shard
        // order changes the merged registry's registration order.
        let build = |order: &[u64]| {
            let merged = MetricsRegistry::new();
            for &v in order {
                let shard = MetricsRegistry::new();
                shard.counter(&format!("shard_{v}_total"), &[]).inc();
                shard.counter("n_total", &[]).add(v);
                merged.merge_from(&shard);
            }
            (merged.to_prometheus_text(), merged.to_json())
        };
        assert_eq!(build(&[100, 5000, 77]), build(&[77, 100, 5000]));
    }

    #[test]
    fn counter_totals_sums_label_sets_and_sorts() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", &[("k", "a")]).add(2);
        reg.counter("z_total", &[("k", "b")]).add(3);
        reg.counter("a_total", &[]).inc();
        reg.counter("m_total", &[("k", "a")]).add(4);
        assert_eq!(
            reg.counter_totals(),
            vec![
                ("a_total".to_owned(), 1),
                ("m_total".to_owned(), 4),
                ("z_total".to_owned(), 5)
            ]
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
