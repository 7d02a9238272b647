//! Whole-trace analysis: stream summary + rule evaluation in one pass.
//!
//! [`analyze`] walks a device-tagged event stream once, building a
//! [`TraceSummary`] (event counts per kind, device/time extent) and
//! feeding every event through a [`RuleEngine`]. The result renders as
//! human-readable text or deterministic JSON — the backing store for the
//! `sdb analyze` subcommand.

use crate::rules::{RuleEngine, RuleReport};
use crate::writer::{event_kind, from_jsonl};
use sdb_observe::DeviceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Shape of the analyzed event stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total events analyzed.
    pub(crate) events: usize,
    /// Distinct devices present in the stream.
    pub devices: usize,
    /// Earliest event timestamp, seconds (0 when empty).
    pub(crate) t_min_s: f64,
    /// Latest event timestamp, seconds (0 when empty).
    pub(crate) t_max_s: f64,
    /// Event counts per kind, sorted by kind name.
    pub(crate) by_kind: BTreeMap<&'static str, u64>,
}

/// The outcome of one analysis pass.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Stream shape.
    pub summary: TraceSummary,
    /// Rule evaluation outcome.
    pub rules: RuleReport,
}

/// Analyzes a device-tagged event stream against the default health
/// rules.
///
/// Events are processed in the order given; pass a `(device, seq)`-sorted
/// stream (what `from_jsonl` and the fleet engine produce) for
/// deterministic finding order.
#[must_use]
pub fn analyze(events: &[DeviceEvent]) -> AnalysisReport {
    let mut summary = TraceSummary::default();
    let mut engine = RuleEngine::new();
    let mut devices: Vec<u64> = Vec::new();
    let (mut t_min, mut t_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in events {
        summary.events += 1;
        *summary.by_kind.entry(event_kind(&e.event)).or_insert(0) += 1;
        if devices.binary_search(&e.device).is_err() {
            let pos = devices.partition_point(|&d| d < e.device);
            devices.insert(pos, e.device);
        }
        t_min = t_min.min(e.t_s);
        t_max = t_max.max(e.t_s);
        engine.process(e.device, e.t_s, &e.event);
    }
    summary.devices = devices.len();
    if summary.events > 0 {
        summary.t_min_s = t_min;
        summary.t_max_s = t_max;
    }
    AnalysisReport {
        summary,
        rules: engine.finish(),
    }
}

/// Parses a JSONL trace and analyzes it against the default health rules.
///
/// # Errors
///
/// Returns the parse error (with line number) for a malformed trace file.
pub fn analyze_jsonl(text: &str) -> Result<AnalysisReport, String> {
    let events = from_jsonl(text)?;
    Ok(analyze(&events))
}

impl AnalysisReport {
    /// Renders the report as human-readable text.
    #[must_use]
    pub fn render_text(&self, max_findings: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, {} devices, t = [{:.1} s, {:.1} s]",
            self.summary.events, self.summary.devices, self.summary.t_min_s, self.summary.t_max_s
        );
        for (kind, n) in &self.summary.by_kind {
            let _ = writeln!(out, "  {kind:<22} {n:>10}");
        }
        out.push_str(&self.rules.render_text(max_findings));
        out
    }

    /// Renders the report as deterministic JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\":{");
        let _ = write!(
            out,
            "\"events\":{},\"devices\":{},\"t_min_s\":{:?},\"t_max_s\":{:?},\"by_kind\":{{",
            self.summary.events, self.summary.devices, self.summary.t_min_s, self.summary.t_max_s
        );
        for (i, (kind, n)) in self.summary.by_kind.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{n}");
        }
        out.push_str("}},\"analysis\":");
        out.push_str(&self.rules.to_json());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::to_jsonl;
    use sdb_observe::ObsEvent;

    fn sample_events() -> Vec<DeviceEvent> {
        let step = |soc: Vec<f64>, load: f64, sup: f64| ObsEvent::StepSample {
            load_w: load,
            supplied_w: sup,
            loss_w: 0.01,
            current_a: vec![0.0; soc.len()],
            soc,
        };
        vec![
            DeviceEvent {
                device: 0,
                seq: 0,
                t_s: 60.0,
                event: step(vec![0.9, 0.88], 2.0, 2.0),
            },
            DeviceEvent {
                device: 0,
                seq: 1,
                t_s: 120.0,
                event: step(vec![0.8, 0.3], 5.0, 4.0),
            },
            DeviceEvent {
                device: 1,
                seq: 0,
                t_s: 60.0,
                event: ObsEvent::ThermalThrottle {
                    battery: 0,
                    engaged: true,
                    temperature_c: 44.0,
                },
            },
        ]
    }

    #[test]
    fn analyzes_counts_and_findings() {
        let report = analyze(&sample_events());
        assert_eq!(report.summary.events, 3);
        assert_eq!(report.summary.devices, 2);
        assert_eq!(report.summary.t_min_s, 60.0);
        assert_eq!(report.summary.t_max_s, 120.0);
        assert_eq!(report.summary.by_kind["step_sample"], 2);
        assert_eq!(report.summary.by_kind["thermal_throttle"], 1);
        // Device 0's second step both browns out and shows imbalance.
        assert!(report
            .rules
            .findings
            .iter()
            .any(|f| f.rule == "brownout" && f.device == 0));
        assert!(report
            .rules
            .findings
            .iter()
            .any(|f| f.rule == "ccb-imbalance" && f.device == 0));
        assert!(report.rules.rules_evaluated() >= 3);
    }

    #[test]
    fn jsonl_round_trip_matches_direct_analysis() {
        let events = sample_events();
        let direct = analyze(&events);
        let replayed = analyze_jsonl(&to_jsonl(&events)).unwrap();
        assert_eq!(direct.to_json(), replayed.to_json());
    }

    #[test]
    fn renders_text_and_json() {
        let report = analyze(&sample_events());
        let text = report.render_text(5);
        assert!(text.contains("trace: 3 events, 2 devices"));
        assert!(text.contains("rules evaluated:"));
        let json = report.to_json();
        assert!(json.contains("\"summary\""));
        assert!(json.contains("\"analysis\""));
        // Valid per our own parser, and deterministic.
        crate::json::parse(&json).unwrap();
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn empty_stream_is_harmless() {
        let report = analyze(&[]);
        assert_eq!(report.summary.events, 0);
        assert_eq!(report.summary.devices, 0);
        assert_eq!(report.rules.findings.len(), 0);
        assert_eq!(report.rules.rules_evaluated(), 0);
    }

    #[test]
    fn bad_jsonl_reports_error() {
        assert!(analyze_jsonl("not json\n").is_err());
    }
}
