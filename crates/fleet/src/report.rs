//! Deterministic fleet aggregation.
//!
//! The report is the canonical artifact of a fleet run: a pure function of
//! the spec and the device outcomes (which are themselves pure functions
//! of the spec), rendered to JSON with shortest-round-trip float
//! formatting. Anything wall-clock lives in
//! [`crate::engine::FleetRunStats`] instead. Aggregation is careful about
//! floating-point ordering: sums and means run in device-index order,
//! percentiles over a `total_cmp`-sorted copy — so the same outcomes
//! always produce the same bits.

use crate::engine::DeviceOutcome;
use crate::spec::FleetSpec;
use sdb_observe::{json_escape, MetricsRegistry};
use std::fmt::Write as _;

/// Summary statistics of one per-device quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSummary {
    /// Arithmetic mean (accumulated in device-index order).
    pub mean: f64,
    /// Minimum.
    pub(crate) min: f64,
    /// Maximum.
    pub(crate) max: f64,
    /// Median (nearest-rank).
    pub(crate) p50: f64,
    /// 95th percentile (nearest-rank).
    pub(crate) p95: f64,
    /// 99th percentile (nearest-rank).
    pub(crate) p99: f64,
}

impl DistSummary {
    /// Summarizes `values` (one per device, in device order). Returns an
    /// all-NaN-free zero summary for an empty slice.
    #[must_use]
    pub(crate) fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let rank = |p: f64| -> f64 {
            // Nearest-rank percentile: ceil(p · n) clamped to [1, n].
            let n = sorted.len();
            let k = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[k - 1]
        };
        Self {
            mean,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            fmt(self.mean),
            fmt(self.min),
            fmt(self.max),
            fmt(self.p50),
            fmt(self.p95),
            fmt(self.p99)
        )
    }
}

/// Per-cohort slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CohortReport {
    /// Cohort name from the spec.
    pub(crate) name: String,
    /// Devices assigned to the cohort.
    pub(crate) devices: usize,
    /// Fraction of the cohort's devices that browned out.
    pub(crate) brownout_rate: f64,
    /// Battery-life distribution, seconds.
    pub(crate) life_s: DistSummary,
    /// Circuit-loss distribution, joules.
    pub(crate) circuit_loss_j: DistSummary,
    /// Cycle-count-balance distribution (1.0 = perfectly balanced wear).
    pub(crate) wear_ccb: DistSummary,
}

/// The canonical fleet artifact: bit-identical for a given spec no matter
/// how many threads produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Devices simulated.
    pub devices: usize,
    /// The master seed the population was sampled from.
    pub(crate) master_seed: u64,
    /// Fraction of all devices that browned out.
    pub brownout_rate: f64,
    /// Battery-life distribution, seconds.
    pub life_s: DistSummary,
    /// Circuit-loss distribution, joules.
    pub circuit_loss_j: DistSummary,
    /// Cell-heat distribution, joules.
    pub(crate) cell_heat_j: DistSummary,
    /// Cycle-count-balance distribution.
    pub(crate) wear_ccb: DistSummary,
    /// Mean-final-SoC distribution.
    pub final_soc: DistSummary,
    /// Total energy delivered across the fleet, joules.
    pub supplied_j_total: f64,
    /// Total unserved energy across the fleet, joules.
    pub unmet_j_total: f64,
    /// Per-cohort breakdowns, in spec order.
    pub(crate) cohorts: Vec<CohortReport>,
    /// Merged counter totals from every shard registry (name → summed
    /// value, sorted by name). Counters are sums of per-device integers,
    /// so they are order- and thread-independent.
    pub counters: Vec<(String, u64)>,
}

impl FleetReport {
    /// Aggregates sorted per-device outcomes. `outcomes` must be in
    /// device-index order (the engine guarantees this).
    #[must_use]
    pub fn from_outcomes(
        spec: &FleetSpec,
        outcomes: &[DeviceOutcome],
        merged: &MetricsRegistry,
    ) -> Self {
        let collect =
            |f: &dyn Fn(&DeviceOutcome) -> f64| -> Vec<f64> { outcomes.iter().map(f).collect() };
        let brownouts = outcomes.iter().filter(|o| o.browned_out).count();
        let cohorts = spec
            .cohorts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let members: Vec<&DeviceOutcome> =
                    outcomes.iter().filter(|o| o.cohort == i).collect();
                let pick = |f: &dyn Fn(&DeviceOutcome) -> f64| -> Vec<f64> {
                    members.iter().map(|o| f(o)).collect()
                };
                let browned = members.iter().filter(|o| o.browned_out).count();
                CohortReport {
                    name: c.name.clone(),
                    devices: members.len(),
                    brownout_rate: if members.is_empty() {
                        0.0
                    } else {
                        browned as f64 / members.len() as f64
                    },
                    life_s: DistSummary::of(&pick(&|o| o.life_s)),
                    circuit_loss_j: DistSummary::of(&pick(&|o| o.circuit_loss_j)),
                    wear_ccb: DistSummary::of(&pick(&|o| o.wear_ccb)),
                }
            })
            .collect();
        Self {
            devices: outcomes.len(),
            master_seed: spec.master_seed,
            brownout_rate: if outcomes.is_empty() {
                0.0
            } else {
                brownouts as f64 / outcomes.len() as f64
            },
            life_s: DistSummary::of(&collect(&|o| o.life_s)),
            circuit_loss_j: DistSummary::of(&collect(&|o| o.circuit_loss_j)),
            cell_heat_j: DistSummary::of(&collect(&|o| o.cell_heat_j)),
            wear_ccb: DistSummary::of(&collect(&|o| o.wear_ccb)),
            final_soc: DistSummary::of(&collect(&|o| o.mean_final_soc)),
            supplied_j_total: outcomes.iter().map(|o| o.supplied_j).sum(),
            unmet_j_total: outcomes.iter().map(|o| o.unmet_j).sum(),
            cohorts,
            counters: merged.counter_totals(),
        }
    }

    /// Renders the report as deterministic JSON. Equal reports render to
    /// byte-equal strings; this is the artifact the determinism tests and
    /// the CI smoke test compare.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"devices\":{},\"master_seed\":{},\"brownout_rate\":{}",
            self.devices,
            self.master_seed,
            fmt(self.brownout_rate)
        );
        let _ = write!(out, ",\"life_s\":{}", self.life_s.to_json());
        let _ = write!(out, ",\"circuit_loss_j\":{}", self.circuit_loss_j.to_json());
        let _ = write!(out, ",\"cell_heat_j\":{}", self.cell_heat_j.to_json());
        let _ = write!(out, ",\"wear_ccb\":{}", self.wear_ccb.to_json());
        let _ = write!(out, ",\"final_soc\":{}", self.final_soc.to_json());
        let _ = write!(
            out,
            ",\"supplied_j_total\":{},\"unmet_j_total\":{}",
            fmt(self.supplied_j_total),
            fmt(self.unmet_j_total)
        );
        out.push_str(",\"cohorts\":[");
        for (i, c) in self.cohorts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"devices\":{},\"brownout_rate\":{},\"life_s\":{},\"circuit_loss_j\":{},\"wear_ccb\":{}}}",
                json_escape(&c.name),
                c.devices,
                fmt(c.brownout_rate),
                c.life_s.to_json(),
                c.circuit_loss_j.to_json(),
                c.wear_ccb.to_json()
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("}}");
        out
    }

    /// Renders a human-readable summary table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} devices, master seed {}",
            self.devices, self.master_seed
        );
        let _ = writeln!(
            out,
            "brownout rate: {:.2}%  |  delivered {:.1} MJ, unserved {:.1} kJ",
            self.brownout_rate * 100.0,
            self.supplied_j_total / 1e6,
            self.unmet_j_total / 1e3
        );
        let _ = writeln!(
            out,
            "battery life (h): p50 {:.2}  p95 {:.2}  p99 {:.2}  (mean {:.2})",
            self.life_s.p50 / 3600.0,
            self.life_s.p95 / 3600.0,
            self.life_s.p99 / 3600.0,
            self.life_s.mean / 3600.0
        );
        let _ = writeln!(
            out,
            "circuit loss (J): p50 {:.1}  p95 {:.1}  p99 {:.1}",
            self.circuit_loss_j.p50, self.circuit_loss_j.p95, self.circuit_loss_j.p99
        );
        let _ = writeln!(
            out,
            "wear CCB: p50 {:.3}  p95 {:.3}  max {:.3}",
            self.wear_ccb.p50, self.wear_ccb.p95, self.wear_ccb.max
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:>12} {:>12}",
            "cohort", "devices", "brownout%", "life p50 (h)", "life p95 (h)"
        );
        for c in &self.cohorts {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>10.2} {:>12.2} {:>12.2}",
                c.name,
                c.devices,
                c.brownout_rate * 100.0,
                c.life_s.p50 / 3600.0,
                c.life_s.p95 / 3600.0
            );
        }
        out
    }
}

/// Shortest-round-trip float formatting: deterministic, parses back to the
/// identical bits (matches `sdb-observe`'s JSON exporter convention).
fn fmt(v: f64) -> String {
    if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "\"+Inf\"" } else { "\"-Inf\"" }.to_owned()
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_summary_of_known_values() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = DistSummary::of(&values);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
        assert_eq!(d.p50, 50.0);
        assert_eq!(d.p95, 95.0);
        assert_eq!(d.p99, 99.0);
        assert!((d.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn dist_summary_handles_small_and_empty() {
        let empty = DistSummary::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p99, 0.0);
        let one = DistSummary::of(&[4.25]);
        assert_eq!(one.p50, 4.25);
        assert_eq!(one.p99, 4.25);
        assert_eq!(one.min, 4.25);
        assert_eq!(one.max, 4.25);
    }

    #[test]
    fn dist_summary_is_order_sensitive_only_in_documented_ways() {
        // Percentiles and min/max ignore input order; mean accumulates in
        // the order given (device order, which the engine fixes).
        let a = DistSummary::of(&[3.0, 1.0, 2.0]);
        let b = DistSummary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.1, 1.0 / 3.0, 12345.678, 1e-300, 0.0] {
            let s = fmt(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(fmt(f64::NAN), "\"NaN\"");
        assert_eq!(fmt(f64::INFINITY), "\"+Inf\"");
    }

    #[test]
    fn cohort_names_are_escaped() {
        let name = "a \"quoted\" back\\slash\nnew line \u{1}";
        let mut spec = FleetSpec::default_population(1, 7);
        spec.cohorts[0].name = name.to_owned();
        let json = FleetReport::from_outcomes(&spec, &[], &MetricsRegistry::new()).to_json();
        // JSON forbids raw control characters in strings.
        assert!(!json.contains(char::is_control), "{json}");
        let report = sdb_observe::json::parse(&json).expect("report is valid JSON");
        let cohorts = report.get("cohorts").and_then(|c| c.as_arr()).unwrap();
        assert_eq!(cohorts[0].get("name").and_then(|n| n.as_str()), Some(name));
    }
}
