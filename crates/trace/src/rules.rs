//! The declarative anomaly/health-rule engine.
//!
//! A [`RuleSpec`] names a [`Signal`] extracted from the event stream, an
//! evaluation window, a threshold, and a severity. The [`RuleEngine`]
//! evaluates every rule incrementally as events arrive — O(window) state
//! per `(device, rule)` pair, nothing buffered beyond the window — and
//! emits a [`HealthFinding`] on each rising edge of a violation (the
//! finding latches until the signal recovers, so a sustained anomaly is
//! one finding, not one per step).
//!
//! The default rule set covers the paper's §6-style longitudinal health
//! checks: brownout precursors (sag-rate of pack SoC), realized brownouts,
//! wear-imbalance drift (SoC spread across the pack, the live precursor of
//! CCB divergence), thermal-derate oscillation, and charge-directive
//! thrash.

use sdb_observe::ObsEvent;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Severity {
    /// Worth a look in aggregate.
    Info,
    /// Degraded behavior; the device is on a bad trajectory.
    Warning,
    /// User-visible failure (brownout, hard fault).
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// The signal a rule watches, extracted incrementally from events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Signal {
    /// Decline rate of the pack's mean SoC over the window, in SoC
    /// fraction per hour (positive = draining). From step samples.
    SocSagRatePerHour,
    /// Instantaneous SoC spread across the pack (`max − min`). The live
    /// precursor of CCB wear imbalance. From step samples.
    SocSpread,
    /// Unserved load power, watts (`load − supplied`). From step samples.
    UnmetPowerW,
    /// Thermal-throttle transitions (engage or release) within the window.
    ThermalTransitionsInWindow,
    /// Ratio pushes accepted by the hardware within the window (policy
    /// evaluations with `pushed = true`).
    DirectivePushesInWindow,
    /// Watchdog engagements (link declared dark) within the window.
    WatchdogEngagementsInWindow,
    /// Lookahead-planner plan commits (re-plans) within the window.
    ReplansInWindow,
}

impl Signal {
    fn name(self) -> &'static str {
        match self {
            Signal::SocSagRatePerHour => "soc_sag_rate_per_hour",
            Signal::SocSpread => "soc_spread",
            Signal::UnmetPowerW => "unmet_power_w",
            Signal::ThermalTransitionsInWindow => "thermal_transitions_in_window",
            Signal::DirectivePushesInWindow => "directive_pushes_in_window",
            Signal::WatchdogEngagementsInWindow => "watchdog_engagements_in_window",
            Signal::ReplansInWindow => "replans_in_window",
        }
    }
}

/// One declarative health rule.
#[derive(Debug, Clone)]
pub(crate) struct RuleSpec {
    /// Stable identifier (appears in findings and reports).
    pub(crate) id: String,
    /// The watched signal.
    pub(crate) signal: Signal,
    /// Window for windowed signals (rates and counts), seconds.
    /// Instantaneous signals ignore it.
    pub(crate) window_s: f64,
    /// A value above this threshold violates the rule.
    pub(crate) threshold: f64,
    /// Severity of findings this rule emits.
    pub(crate) severity: Severity,
}

impl RuleSpec {
    fn violated(&self, value: f64) -> bool {
        value > self.threshold
    }
}

/// The default fleet health-rule set.
#[must_use]
fn default_rules() -> Vec<RuleSpec> {
    vec![
        // Load went unserved (realized brownout).
        RuleSpec {
            id: "brownout".to_owned(),
            signal: Signal::UnmetPowerW,
            window_s: 0.0,
            threshold: 1e-6,
            severity: Severity::Critical,
        },
        // Pack draining faster than 40 %/h over 15 min (brownout precursor).
        RuleSpec {
            id: "soc-sag".to_owned(),
            signal: Signal::SocSagRatePerHour,
            window_s: 900.0,
            threshold: 0.40,
            severity: Severity::Warning,
        },
        // SoC spread across the pack beyond 35 % (wear-imbalance drift).
        RuleSpec {
            id: "ccb-imbalance".to_owned(),
            signal: Signal::SocSpread,
            window_s: 0.0,
            threshold: 0.35,
            severity: Severity::Warning,
        },
        // More than 4 thermal-throttle transitions in 30 min (derate flapping).
        RuleSpec {
            id: "thermal-oscillation".to_owned(),
            signal: Signal::ThermalTransitionsInWindow,
            window_s: 1800.0,
            threshold: 4.0,
            severity: Severity::Warning,
        },
        // More than 8 accepted ratio pushes in 10 min (policy thrash).
        RuleSpec {
            id: "directive-thrash".to_owned(),
            signal: Signal::DirectivePushesInWindow,
            window_s: 600.0,
            threshold: 8.0,
            severity: Severity::Info,
        },
        // More than 4 planner re-plans in 30 min (plan instability).
        RuleSpec {
            id: "replan-thrash".to_owned(),
            signal: Signal::ReplansInWindow,
            window_s: 1800.0,
            threshold: 4.0,
            severity: Severity::Info,
        },
        // More than 2 watchdog engagements in 30 min (link repeatedly going dark).
        RuleSpec {
            id: "watchdog-flapping".to_owned(),
            signal: Signal::WatchdogEngagementsInWindow,
            window_s: 1800.0,
            threshold: 2.0,
            severity: Severity::Warning,
        },
    ]
}

/// One rule violation on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthFinding {
    /// The violated rule's id.
    pub rule: String,
    /// Device the violation occurred on.
    pub(crate) device: u64,
    /// Simulation time of the rising edge, seconds.
    pub(crate) t_s: f64,
    /// The signal value that crossed the threshold.
    pub(crate) value: f64,
    /// Severity inherited from the rule.
    pub(crate) severity: Severity,
}

/// Windowed per-`(device, rule)` evaluation state.
#[derive(Debug, Default)]
struct RuleState {
    /// `(t_s, value)` samples inside the window (value is 1.0 for count
    /// signals).
    window: VecDeque<(f64, f64)>,
    /// Whether the rule is currently latched in violation.
    active: bool,
}

/// Per-rule evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RuleStats {
    /// Times the rule's signal was evaluated against its threshold.
    pub(crate) evaluations: u64,
    /// Findings emitted (rising edges).
    pub(crate) findings: u64,
    /// Devices with at least one finding.
    pub(crate) devices_affected: u64,
}

/// Evaluates a rule set incrementally over a (device-tagged) event stream.
#[derive(Debug)]
pub(crate) struct RuleEngine {
    rules: Vec<RuleSpec>,
    states: BTreeMap<(u64, usize), RuleState>,
    affected: BTreeMap<usize, Vec<u64>>,
    stats: Vec<RuleStats>,
    findings: Vec<HealthFinding>,
}

impl RuleEngine {
    /// An engine evaluating the [`default_rules`] set.
    #[must_use]
    pub(crate) fn new() -> Self {
        let rules = default_rules();
        let stats = vec![RuleStats::default(); rules.len()];
        Self {
            rules,
            states: BTreeMap::new(),
            affected: BTreeMap::new(),
            stats,
            findings: Vec::new(),
        }
    }

    /// Feeds one event. Events must arrive in non-decreasing `t_s` order
    /// *per device*; interleaving across devices is fine (state is keyed
    /// per device).
    pub(crate) fn process(&mut self, device: u64, t_s: f64, event: &ObsEvent) {
        for idx in 0..self.rules.len() {
            let rule = &self.rules[idx];
            // Extract this rule's signal sample from the event, if any.
            let sample: Option<f64> = match (rule.signal, event) {
                (Signal::SocSagRatePerHour, ObsEvent::StepSample { soc, .. }) => {
                    let n = soc.len().max(1) as f64;
                    Some(soc.iter().sum::<f64>() / n)
                }
                (Signal::SocSpread, ObsEvent::StepSample { soc, .. }) => {
                    let max = soc.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let min = soc.iter().copied().fold(f64::INFINITY, f64::min);
                    Some(if soc.is_empty() { 0.0 } else { max - min })
                }
                (
                    Signal::UnmetPowerW,
                    ObsEvent::StepSample {
                        load_w, supplied_w, ..
                    },
                ) => Some((load_w - supplied_w).max(0.0)),
                (Signal::ThermalTransitionsInWindow, ObsEvent::ThermalThrottle { .. }) => Some(1.0),
                (
                    Signal::DirectivePushesInWindow,
                    ObsEvent::PolicyEvaluation { pushed: true, .. },
                ) => Some(1.0),
                (
                    Signal::WatchdogEngagementsInWindow,
                    ObsEvent::WatchdogTransition { engaged: true, .. },
                ) => Some(1.0),
                (Signal::ReplansInWindow, ObsEvent::PlanCommit { .. }) => Some(1.0),
                _ => None,
            };
            let Some(sample) = sample else { continue };

            let state = self.states.entry((device, idx)).or_default();
            // Maintain the window, then reduce it to the signal value.
            let value = match rule.signal {
                Signal::SocSpread | Signal::UnmetPowerW => sample,
                Signal::SocSagRatePerHour => {
                    state.window.push_back((t_s, sample));
                    while let Some(&(t0, _)) = state.window.front() {
                        if t_s - t0 > rule.window_s && state.window.len() > 2 {
                            state.window.pop_front();
                        } else {
                            break;
                        }
                    }
                    let (t0, v0) = *state.window.front().expect("window nonempty");
                    let span_s = t_s - t0;
                    // Need at least half a window of history for a stable
                    // rate estimate.
                    if span_s < rule.window_s * 0.5 {
                        continue;
                    }
                    (v0 - sample) / (span_s / 3600.0)
                }
                Signal::ThermalTransitionsInWindow
                | Signal::DirectivePushesInWindow
                | Signal::WatchdogEngagementsInWindow
                | Signal::ReplansInWindow => {
                    state.window.push_back((t_s, sample));
                    while let Some(&(t0, _)) = state.window.front() {
                        if t_s - t0 > rule.window_s {
                            state.window.pop_front();
                        } else {
                            break;
                        }
                    }
                    state.window.len() as f64
                }
            };

            self.stats[idx].evaluations += 1;
            let violated = rule.violated(value);
            if violated && !state.active {
                state.active = true;
                self.stats[idx].findings += 1;
                let devices = self.affected.entry(idx).or_default();
                if devices.last() != Some(&device) && !devices.contains(&device) {
                    devices.push(device);
                    self.stats[idx].devices_affected += 1;
                }
                self.findings.push(HealthFinding {
                    rule: rule.id.clone(),
                    device,
                    t_s,
                    value,
                    severity: rule.severity,
                });
            } else if !violated {
                state.active = false;
            }
        }
    }

    /// Finishes evaluation, returning the report.
    #[must_use]
    pub(crate) fn finish(self) -> RuleReport {
        RuleReport {
            rules: self.rules,
            stats: self.stats,
            findings: self.findings,
        }
    }
}

/// The outcome of a rule evaluation pass.
#[derive(Debug, Clone)]
pub struct RuleReport {
    /// The evaluated rules.
    pub(crate) rules: Vec<RuleSpec>,
    /// Per-rule statistics, parallel to `rules`.
    pub(crate) stats: Vec<RuleStats>,
    /// Every finding, in processing order (device order for a sorted
    /// trace).
    pub findings: Vec<HealthFinding>,
}

impl RuleReport {
    /// Number of rules that evaluated their signal at least once.
    #[must_use]
    pub fn rules_evaluated(&self) -> usize {
        self.stats.iter().filter(|s| s.evaluations > 0).count()
    }

    /// Accepted directive pushes per planner re-plan, or `None` when the
    /// stream carries no plan commits (greedy runs). Each windowed-count
    /// evaluation corresponds to exactly one matching event, so the
    /// evaluation counters are the stream-wide event totals. A planner
    /// whose plans stick should keep this near the pushes a single plan
    /// needs; a climbing ratio means directives churn between re-plans.
    #[must_use]
    pub(crate) fn thrash_per_replan(&self) -> Option<f64> {
        let count = |signal: Signal| {
            self.rules
                .iter()
                .zip(&self.stats)
                .filter(|(r, _)| r.signal == signal)
                .map(|(_, s)| s.evaluations)
                .max()
                .unwrap_or(0)
        };
        let replans = count(Signal::ReplansInWindow);
        if replans == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(count(Signal::DirectivePushesInWindow) as f64 / replans as f64)
    }

    /// Renders the per-rule summary and the worst findings as text.
    #[must_use]
    pub(crate) fn render_text(&self, max_findings: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rules evaluated: {} / {}  |  findings: {}",
            self.rules_evaluated(),
            self.rules.len(),
            self.findings.len()
        );
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12} {:>10} {:>9}",
            "rule", "severity", "evaluations", "findings", "devices"
        );
        for (rule, stats) in self.rules.iter().zip(&self.stats) {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>12} {:>10} {:>9}",
                rule.id,
                rule.severity.to_string(),
                stats.evaluations,
                stats.findings,
                stats.devices_affected
            );
        }
        if let Some(ratio) = self.thrash_per_replan() {
            let _ = writeln!(out, "directive thrash per re-plan: {ratio:.2}");
        }
        if !self.findings.is_empty() {
            let mut worst: Vec<&HealthFinding> = self.findings.iter().collect();
            worst.sort_by(|a, b| {
                b.severity
                    .cmp(&a.severity)
                    .then(a.device.cmp(&b.device))
                    .then(a.t_s.total_cmp(&b.t_s))
            });
            let shown = worst.len().min(max_findings);
            let _ = writeln!(out, "top findings ({shown} of {}):", worst.len());
            for f in &worst[..shown] {
                let _ = writeln!(
                    out,
                    "  [{:>8}] device {:>5} t={:>9.1}s {} = {:.4}",
                    f.severity.to_string(),
                    f.device,
                    f.t_s,
                    f.rule,
                    f.value
                );
            }
        }
        out
    }

    /// Renders the report as deterministic JSON.
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\"rules\":[");
        for (i, (rule, stats)) in self.rules.iter().zip(&self.stats).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":\"{}\",\"signal\":\"{}\",\"severity\":\"{}\",\"window_s\":{:?},\"threshold\":{:?},\"evaluations\":{},\"findings\":{},\"devices_affected\":{}}}",
                rule.id,
                rule.signal.name(),
                rule.severity,
                rule.window_s,
                rule.threshold,
                stats.evaluations,
                stats.findings,
                stats.devices_affected
            );
        }
        out.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"device\":{},\"t_s\":{:?},\"value\":{:?},\"severity\":\"{}\"}}",
                f.rule, f.device, f.t_s, f.value, f.severity
            );
        }
        out.push_str("],\"thrash_per_replan\":");
        match self.thrash_per_replan() {
            Some(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            _ => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(soc: Vec<f64>, load_w: f64, supplied_w: f64) -> ObsEvent {
        let n = soc.len();
        ObsEvent::StepSample {
            load_w,
            supplied_w,
            loss_w: 0.0,
            soc,
            current_a: vec![0.0; n],
        }
    }

    #[test]
    fn brownout_fires_once_per_episode() {
        let mut eng = RuleEngine::new();
        // Served, unserved, unserved (latched), served, unserved again.
        for (t, sup) in [
            (60.0, 5.0),
            (120.0, 3.0),
            (180.0, 3.0),
            (240.0, 5.0),
            (300.0, 2.0),
        ] {
            eng.process(0, t, &step(vec![0.5, 0.5], 5.0, sup));
        }
        let report = eng.finish();
        let brownouts: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "brownout")
            .collect();
        assert_eq!(brownouts.len(), 2, "{:?}", report.findings);
        assert_eq!(brownouts[0].t_s, 120.0);
        assert_eq!(brownouts[1].t_s, 300.0);
        assert_eq!(brownouts[0].severity, Severity::Critical);
    }

    #[test]
    fn sag_rate_needs_window_history() {
        let mut eng = RuleEngine::new();
        // 60 s steps, mean SoC falling 1 %/min = 60 %/h — over threshold,
        // But only after ≥450 s of history.
        for i in 0..20u64 {
            let t = 60.0 * (i + 1) as f64;
            let soc = 1.0 - 0.01 * (i + 1) as f64;
            eng.process(7, t, &step(vec![soc, soc], 1.0, 1.0));
        }
        let report = eng.finish();
        let sag: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "soc-sag")
            .collect();
        assert_eq!(sag.len(), 1, "sustained sag latches to one finding");
        assert!(sag[0].t_s >= 480.0, "fired too early at {}", sag[0].t_s);
        assert!((sag[0].value - 0.6).abs() < 0.05, "rate {}", sag[0].value);
    }

    #[test]
    fn soc_spread_flags_imbalance() {
        let mut eng = RuleEngine::new();
        eng.process(2, 60.0, &step(vec![0.9, 0.8], 1.0, 1.0));
        eng.process(2, 120.0, &step(vec![0.9, 0.4], 1.0, 1.0));
        let report = eng.finish();
        let imb: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "ccb-imbalance")
            .collect();
        assert_eq!(imb.len(), 1);
        assert!((imb[0].value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thermal_oscillation_counts_in_window() {
        let mut eng = RuleEngine::new();
        let throttle = |engaged| ObsEvent::ThermalThrottle {
            battery: 0,
            engaged,
            temperature_c: 45.0,
        };
        // 5 transitions within 30 min → count exceeds 4 on the fifth.
        for i in 0..5u64 {
            eng.process(1, 120.0 * (i + 1) as f64, &throttle(i % 2 == 0));
        }
        let report = eng.finish();
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.rule == "thermal-oscillation")
                .count(),
            1
        );
        // Spread far apart (outside the window) the same count is fine.
        let mut eng = RuleEngine::new();
        for i in 0..5u64 {
            eng.process(1, 2000.0 * (i + 1) as f64, &throttle(i % 2 == 0));
        }
        assert_eq!(eng.finish().findings.len(), 0);
    }

    #[test]
    fn directive_thrash_counts_only_pushed_evaluations() {
        let mut eng = RuleEngine::new();
        let eval = |pushed| ObsEvent::PolicyEvaluation {
            pushed,
            charge_directive: 0.5,
            discharge_directive: 0.5,
        };
        for i in 0..20u64 {
            eng.process(0, 30.0 * (i + 1) as f64, &eval(i % 2 == 0));
        }
        // 10 pushes in 600 s window: the window holds ≤10 pushed samples →
        // Crosses the >8 threshold.
        let report = eng.finish();
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.rule == "directive-thrash")
                .count(),
            1
        );
    }

    #[test]
    fn replan_thrash_counts_plan_commits() {
        let commit = ObsEvent::PlanCommit {
            discharge_directive: 0.4,
            horizon_s: 3600.0,
            forecast_mae_w: 0.1,
        };
        let eval = ObsEvent::PolicyEvaluation {
            pushed: true,
            charge_directive: 0.5,
            discharge_directive: 0.5,
        };
        // 5 commits within 30 min cross the >4 threshold on the fifth.
        let mut eng = RuleEngine::new();
        for i in 0..5u64 {
            eng.process(3, 300.0 * (i + 1) as f64, &commit);
            eng.process(3, 300.0 * (i + 1) as f64 + 1.0, &eval);
            eng.process(3, 300.0 * (i + 1) as f64 + 2.0, &eval);
        }
        let report = eng.finish();
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.rule == "replan-thrash")
                .count(),
            1
        );
        // 10 pushes over 5 re-plans.
        assert_eq!(report.thrash_per_replan(), Some(2.0));
        // Spread out past the window, the same commits stay quiet.
        let mut eng = RuleEngine::new();
        for i in 0..5u64 {
            eng.process(3, 2000.0 * (i + 1) as f64, &commit);
        }
        let report = eng.finish();
        assert_eq!(report.findings.len(), 0);
        assert_eq!(report.thrash_per_replan(), Some(0.0));
        // A greedy stream (no commits) reports no ratio at all.
        let mut eng = RuleEngine::new();
        eng.process(3, 60.0, &eval);
        assert_eq!(eng.finish().thrash_per_replan(), None);
    }

    #[test]
    fn devices_are_tracked_independently() {
        let mut eng = RuleEngine::new();
        eng.process(0, 60.0, &step(vec![0.9, 0.3], 1.0, 1.0));
        eng.process(1, 60.0, &step(vec![0.9, 0.3], 1.0, 1.0));
        let report = eng.finish();
        let imb: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "ccb-imbalance")
            .collect();
        assert_eq!(imb.len(), 2);
        let idx = report
            .rules
            .iter()
            .position(|r| r.id == "ccb-imbalance")
            .unwrap();
        assert_eq!(report.stats[idx].devices_affected, 2);
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut eng = RuleEngine::new();
        eng.process(0, 60.0, &step(vec![0.9, 0.3], 5.0, 4.0));
        let report = eng.finish();
        assert!(report.rules_evaluated() >= 2);
        assert!(report
            .findings
            .iter()
            .any(|f| f.severity >= Severity::Critical));
        let text = report.render_text(10);
        assert!(text.contains("rules evaluated:"));
        assert!(text.contains("brownout"));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"brownout\""));
        // Determinism: rendering twice is byte-identical.
        assert_eq!(json, report.to_json());
    }
}
