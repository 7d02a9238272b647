//! Typed queries over a [`TsdbStore`] and their JSON wire rendering.
//!
//! Four query kinds cover the serving surface:
//!
//! * [`QueryKind::Range`] — raw samples in a time window.
//! * [`QueryKind::Rate`] — per-second derivative between consecutive raw
//!   samples (the usual counter/gauge slope view).
//! * [`QueryKind::Quantile`] — one exact nearest-rank quantile over the
//!   raw samples in the window (one output point per series).
//! * [`QueryKind::RollupQuantile`] — per-bucket sketch quantiles from a
//!   downsampled tier; cheap over long horizons, accurate to the
//!   sketch's relative-error bound.
//!
//! Everything here is pure computation over the store; HTTP parsing
//! lives in [`crate::http`].

use crate::store::{Tier, TsdbStore};
use sdb_trace::writer::esc;

/// What to compute over the selected series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// Raw samples.
    Range,
    /// Per-second slope between consecutive raw samples, stamped at the
    /// later sample.
    Rate,
    /// One exact nearest-rank quantile (`0.0..=1.0`) over the window's
    /// raw samples.
    Quantile(f64),
    /// Per-bucket sketch quantile from a rollup tier, stamped at each
    /// bucket start.
    RollupQuantile(Tier, f64),
}

/// A query: metric name, label matchers, window, and kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Metric name to select.
    pub name: String,
    /// Label equality matchers; all must be present on a series.
    pub matchers: Vec<(String, String)>,
    /// Window start, microseconds (inclusive).
    pub t0_us: i64,
    /// Window end, microseconds (inclusive).
    pub t1_us: i64,
    /// Computation to run.
    pub kind: QueryKind,
}

impl Query {
    /// A whole-history range query with no matchers.
    #[must_use]
    pub fn range_all(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            matchers: Vec::new(),
            t0_us: i64::MIN,
            t1_us: i64::MAX,
            kind: QueryKind::Range,
        }
    }
}

/// One output series: the id's labels plus `(t_us, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoints {
    /// Metric name.
    pub name: String,
    /// Label pairs (canonical sorted order).
    pub labels: Vec<(String, String)>,
    /// Output points.
    pub points: Vec<(i64, f64)>,
}

/// The result of [`run`]: one entry per matched series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Matched series with their computed points.
    pub series: Vec<SeriesPoints>,
}

impl QueryResult {
    /// Renders the result as a JSON document:
    /// `{"series":[{"name":..,"labels":{..},"points":[[t_us,v],..]},..]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(&esc(&s.name));
            out.push_str("\",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&esc(k));
                out.push_str("\":\"");
                out.push_str(&esc(v));
                out.push('"');
            }
            out.push_str("},\"points\":[");
            for (j, (t, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(&t.to_string());
                out.push(',');
                out.push_str(&fmt_json_f64(*v));
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// JSON has no NaN/Inf literals; spell them as null per common practice.
/// Finite values always carry a `.` or an exponent. The one float
/// formatter of this crate's JSON (query results and perf history).
pub(crate) fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// Exact nearest-rank quantile of `values` (not assumed sorted).
fn nearest_rank(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    let k = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    values[k - 1]
}

/// Executes `query` against `store`.
#[must_use]
pub fn run(store: &TsdbStore, query: &Query) -> QueryResult {
    let mut result = QueryResult::default();
    match query.kind {
        QueryKind::Range | QueryKind::Rate | QueryKind::Quantile(_) => {
            for (id, samples) in
                store.select(&query.name, &query.matchers, query.t0_us, query.t1_us)
            {
                let points = match query.kind {
                    QueryKind::Range => samples.iter().map(|s| (s.t_us, s.value)).collect(),
                    QueryKind::Rate => samples
                        .windows(2)
                        .filter(|w| w[1].t_us > w[0].t_us)
                        .map(|w| {
                            let dt_s = (w[1].t_us - w[0].t_us) as f64 * 1e-6;
                            (w[1].t_us, (w[1].value - w[0].value) / dt_s)
                        })
                        .collect(),
                    QueryKind::Quantile(q) => {
                        let mut values: Vec<f64> = samples.iter().map(|s| s.value).collect();
                        if values.is_empty() {
                            Vec::new()
                        } else {
                            let t = samples.last().map_or(0, |s| s.t_us);
                            vec![(t, nearest_rank(&mut values, q))]
                        }
                    }
                    QueryKind::RollupQuantile(..) => unreachable!("handled below"),
                };
                result.series.push(SeriesPoints {
                    name: id.name,
                    labels: id.labels,
                    points,
                });
            }
        }
        QueryKind::RollupQuantile(tier, q) => {
            for (id, buckets) in
                store.select_rollup(&query.name, &query.matchers, tier, query.t0_us, query.t1_us)
            {
                let points = buckets
                    .iter()
                    .filter(|b| b.count > 0)
                    .map(|b| (b.start_us, b.sketch.quantile(q)))
                    .collect();
                result.series.push(SeriesPoints {
                    name: id.name,
                    labels: id.labels,
                    points,
                });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SeriesId;

    fn seeded_store() -> TsdbStore {
        let store = TsdbStore::default();
        let sid = SeriesId::new("sdb_supplied_w", &[("device", "d0")]);
        // Linear ramp at 1 Hz: value = 2 * t_seconds.
        for i in 0..60i64 {
            store.append(&sid, i * 1_000_000, 2.0 * i as f64);
        }
        store
    }

    #[test]
    fn range_query_returns_samples() {
        let store = seeded_store();
        let r = run(&store, &Query::range_all("sdb_supplied_w"));
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].points.len(), 60);
        assert_eq!(r.series[0].labels, vec![("device".into(), "d0".into())]);
    }

    #[test]
    fn rate_is_the_per_second_slope() {
        let store = seeded_store();
        let r = run(
            &store,
            &Query {
                kind: QueryKind::Rate,
                ..Query::range_all("sdb_supplied_w")
            },
        );
        let points = &r.series[0].points;
        assert_eq!(points.len(), 59);
        for (_, v) in points {
            assert!((v - 2.0).abs() < 1e-12, "slope should be 2.0, got {v}");
        }
    }

    #[test]
    fn quantile_is_exact_nearest_rank() {
        let store = seeded_store();
        let r = run(
            &store,
            &Query {
                kind: QueryKind::Quantile(0.5),
                ..Query::range_all("sdb_supplied_w")
            },
        );
        // Values 0,2,..,118; nearest-rank p50 of 60 values is the 30th → 58.
        assert_eq!(r.series[0].points, vec![(59_000_000, 58.0)]);
    }

    #[test]
    fn rollup_quantile_emits_one_point_per_bucket() {
        let store = seeded_store();
        let r = run(
            &store,
            &Query {
                kind: QueryKind::RollupQuantile(Tier::Coarse10s, 0.95),
                ..Query::range_all("sdb_supplied_w")
            },
        );
        // 60 s at 1 Hz → buckets at 0,10,..,50 s.
        let points = &r.series[0].points;
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].0, 0);
        assert_eq!(points[5].0, 50_000_000);
    }

    #[test]
    fn json_rendering_is_wellformed_and_escapes() {
        let result = QueryResult {
            series: vec![SeriesPoints {
                name: "m\"x".into(),
                labels: vec![("k".into(), "v\\".into())],
                points: vec![(1, 2.5), (2, f64::NAN)],
            }],
        };
        let json = result.to_json();
        assert_eq!(
            json,
            "{\"series\":[{\"name\":\"m\\\"x\",\"labels\":{\"k\":\"v\\\\\"},\"points\":[[1,2.5],[2,null]]}]}"
        );
        // Round-trips through the in-repo parser.
        let v = sdb_trace::json::parse(&json).expect("parses");
        let series = v.get("series").and_then(|s| s.as_arr()).expect("series");
        assert_eq!(series.len(), 1);
    }

    #[test]
    fn empty_window_yields_empty_points() {
        let store = seeded_store();
        let r = run(
            &store,
            &Query {
                t0_us: 10_000_000_000,
                t1_us: 20_000_000_000,
                ..Query::range_all("sdb_supplied_w")
            },
        );
        assert_eq!(r.series.len(), 1);
        assert!(r.series[0].points.is_empty());
        let rq = run(
            &store,
            &Query {
                t0_us: 10_000_000_000,
                t1_us: 20_000_000_000,
                kind: QueryKind::Quantile(0.9),
                ..Query::range_all("sdb_supplied_w")
            },
        );
        assert!(rq.series[0].points.is_empty());
    }
}
