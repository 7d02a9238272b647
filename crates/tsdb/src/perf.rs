//! The longitudinal perf-regression gate behind `sdb perf`.
//!
//! `cargo bench` runs (`sdb-bench` writes `BENCH_micro.json` /
//! `BENCH_fleet.json`) are point-in-time facts; this module gives them a
//! memory. [`ingest`] parses the bench files into a flat list of named
//! metrics; [`HistoryEntry`] serializes one run as a single JSONL line
//! appended to a committed history file; [`check`] compares the newest
//! run against a baseline drawn from that history and reports any metric
//! that regressed past a threshold (default 10%).
//!
//! Wall-clock discipline: the entry's `recorded_at_unix_s` stamp is
//! supplied by the caller (the CLI passes real time; tests pass fixed
//! values), so this module itself stays deterministic and the stamp is
//! quarantined exactly like `FleetRunStats` wall-clock facts — it never
//! influences a comparison, only labels history lines for humans.

use crate::query::fmt_json_f64;
use sdb_trace::json::{self, Value};
use sdb_trace::writer::esc;

/// Which direction is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latency: `ns_per_step`, `wall_s`).
    LowerIsBetter,
    /// Larger is better (throughput: `devices_per_sec`, `speedup`).
    HigherIsBetter,
}

/// One bench metric extracted from a bench results file.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMetric {
    /// Stable metric key, e.g. `micro_step.b4.ns_per_step`.
    pub key: String,
    /// Measured value.
    pub value: f64,
    /// Which way improvement points.
    pub direction: Direction,
}

/// One recorded bench run: a stamp plus its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Wall-clock stamp (unix seconds) supplied by the caller; label
    /// only, never compared.
    pub recorded_at_unix_s: u64,
    /// Free-form label (git describe, CI run id, "local").
    pub label: String,
    /// The run's metrics.
    pub metrics: Vec<PerfMetric>,
}

/// One regression found by [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The metric that regressed.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Fractional cost increase (0.10 = 10% worse).
    pub worse_by: f64,
}

/// Parses one bench results document (`BENCH_micro.json` or
/// `BENCH_fleet.json`) into metrics.
///
/// # Errors
///
/// Returns a description when the document is not valid JSON or not a
/// known bench shape.
pub fn ingest(text: &str) -> Result<Vec<PerfMetric>, String> {
    let doc = json::parse(text)?;
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("missing bench field")?;
    match bench {
        "micro_step" => {
            let packs = doc
                .get("packs")
                .and_then(Value::as_arr)
                .ok_or("micro_step without packs")?;
            let mut out = Vec::new();
            for p in packs {
                let b = p
                    .get("batteries")
                    .and_then(Value::as_u64)
                    .ok_or("pack without batteries")?;
                let ns = p
                    .get("ns_per_step")
                    .and_then(Value::as_f64)
                    .ok_or("pack without ns_per_step")?;
                out.push(PerfMetric {
                    key: format!("micro_step.b{b}.ns_per_step"),
                    value: ns,
                    direction: Direction::LowerIsBetter,
                });
            }
            if let Some(allocs) = doc.get("allocs_per_step_max").and_then(Value::as_f64) {
                out.push(PerfMetric {
                    key: "micro_step.allocs_per_step_max".to_owned(),
                    value: allocs,
                    direction: Direction::LowerIsBetter,
                });
            }
            // Optional: the policy_plan bench merges its ns/plan (and the
            // warm-rollout allocation gate) into the same document (older
            // artifacts won't carry them).
            if let Some(pp) = doc.get("policy_plan") {
                if let Some(ns) = pp.get("ns_per_plan").and_then(Value::as_f64) {
                    out.push(PerfMetric {
                        key: "micro_step.policy_plan.ns_per_plan".to_owned(),
                        value: ns,
                        direction: Direction::LowerIsBetter,
                    });
                }
                if let Some(a) = pp.get("allocs_per_rollout").and_then(Value::as_f64) {
                    out.push(PerfMetric {
                        key: "micro_step.policy_plan.allocs_per_rollout".to_owned(),
                        value: a,
                        direction: Direction::LowerIsBetter,
                    });
                }
            }
            // Optional: the SoA fast-forward cycle cost (older artifacts
            // won't carry it).
            if let Some(ns) = doc
                .get("soa_step")
                .and_then(|s| s.get("ns_per_tick"))
                .and_then(Value::as_f64)
            {
                out.push(PerfMetric {
                    key: "micro_step.soa_step.ns_per_tick".to_owned(),
                    value: ns,
                    direction: Direction::LowerIsBetter,
                });
            }
            // Optional: the profiler-overhead pair (older artifacts won't
            // carry it). Phase shares gate each instrumented sub-phase's
            // fraction of micro-step time, so a single phase regressing
            // trips the gate even when the total ns/step stays flat.
            if let Some(prof) = doc.get("prof") {
                if let Some(pct) = prof.get("overhead_pct").and_then(Value::as_f64) {
                    out.push(PerfMetric {
                        key: "micro_step.prof.overhead_pct".to_owned(),
                        value: pct,
                        direction: Direction::LowerIsBetter,
                    });
                }
                if let Some(shares) = prof.get("phase_share").and_then(Value::as_obj) {
                    for (phase, v) in shares {
                        if let Some(pct) = v.as_f64() {
                            out.push(PerfMetric {
                                key: format!("micro_step.phase_share.{phase}"),
                                value: pct,
                                direction: Direction::LowerIsBetter,
                            });
                        }
                    }
                }
            }
            Ok(out)
        }
        "fleet_scaling" => {
            let threads = doc
                .get("threads")
                .and_then(Value::as_arr)
                .ok_or("fleet_scaling without threads")?;
            let mut out = Vec::new();
            for t in threads {
                let n = t
                    .get("threads")
                    .and_then(Value::as_u64)
                    .ok_or("entry without threads")?;
                let dps = t
                    .get("devices_per_sec")
                    .and_then(Value::as_f64)
                    .ok_or("entry without devices_per_sec")?;
                out.push(PerfMetric {
                    key: format!("fleet.t{n}.devices_per_sec"),
                    value: dps,
                    direction: Direction::HigherIsBetter,
                });
            }
            // Optional: the scalar-vs-SoA engine head-to-head (older
            // artifacts won't carry it). Throughput and speedup are
            // higher-is-better; the fast-forward fraction is tracked as a
            // coverage metric (a drop means the quiescence classifier
            // started rejecting lanes it used to accept).
            if let Some(soa) = doc.get("soa") {
                for (section, label) in [
                    ("quiescent", "quiescent"),
                    ("default_population", "default"),
                ] {
                    let Some(s) = soa.get(section) else { continue };
                    if let Some(dps) = s.get("soa_devices_per_sec").and_then(Value::as_f64) {
                        out.push(PerfMetric {
                            key: format!("fleet.soa.{label}.devices_per_sec"),
                            value: dps,
                            direction: Direction::HigherIsBetter,
                        });
                    }
                    if let Some(sp) = s.get("soa_speedup").and_then(Value::as_f64) {
                        out.push(PerfMetric {
                            key: format!("fleet.soa.{label}.speedup"),
                            value: sp,
                            direction: Direction::HigherIsBetter,
                        });
                    }
                    if let Some(ff) = s.get("ff_tick_fraction").and_then(Value::as_f64) {
                        out.push(PerfMetric {
                            key: format!("fleet.soa.{label}.ff_tick_fraction"),
                            value: ff,
                            direction: Direction::HigherIsBetter,
                        });
                    }
                }
            }
            Ok(out)
        }
        "campaign" => {
            // `sdb campaign --bench-out` throughput facts: how fast the
            // matrix orchestrator chews through cells and device sims.
            // Wall-clock stays quarantined in the bench file; only the
            // derived rates enter the longitudinal gate.
            let mut out = Vec::new();
            for (field, key) in [
                ("cells_per_sec", "campaign.cells_per_sec"),
                ("devices_per_sec", "campaign.devices_per_sec"),
            ] {
                if let Some(v) = doc.get(field).and_then(Value::as_f64) {
                    out.push(PerfMetric {
                        key: key.to_owned(),
                        value: v,
                        direction: Direction::HigherIsBetter,
                    });
                }
            }
            if out.is_empty() {
                return Err("campaign bench without throughput fields".to_owned());
            }
            Ok(out)
        }
        other => Err(format!("unknown bench kind {other:?}")),
    }
}

impl HistoryEntry {
    /// Serializes the entry as one JSONL line (no trailing newline):
    /// `{"recorded_at_unix_s":..,"label":..,"metrics":[{"key":..,"value":..,"dir":"lower"|"higher"},..]}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"recorded_at_unix_s\":{},\"label\":\"{}\",\"metrics\":[",
            self.recorded_at_unix_s,
            esc(&self.label)
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":\"{}\",\"value\":{},\"dir\":\"{}\"}}",
                esc(&m.key),
                fmt_json_f64(m.value),
                match m.direction {
                    Direction::LowerIsBetter => "lower",
                    Direction::HigherIsBetter => "higher",
                }
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses one JSONL line produced by [`HistoryEntry::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_jsonl(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let recorded_at_unix_s = doc
            .get("recorded_at_unix_s")
            .and_then(Value::as_u64)
            .ok_or("missing recorded_at_unix_s")?;
        let label = doc
            .get("label")
            .and_then(Value::as_str)
            .ok_or("missing label")?
            .to_owned();
        let mut metrics = Vec::new();
        for m in doc
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or("missing metrics")?
        {
            let key = m
                .get("key")
                .and_then(Value::as_str)
                .ok_or("metric without key")?
                .to_owned();
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            let direction = match m.get("dir").and_then(Value::as_str) {
                Some("lower") => Direction::LowerIsBetter,
                Some("higher") => Direction::HigherIsBetter,
                _ => return Err("metric without dir".to_owned()),
            };
            metrics.push(PerfMetric {
                key,
                value,
                direction,
            });
        }
        Ok(Self {
            recorded_at_unix_s,
            label,
            metrics,
        })
    }
}

/// Parses a whole history file (one JSONL entry per line, blank lines and
/// `#` comments skipped), oldest first.
///
/// # Errors
///
/// Returns the line number and parse error of the first bad line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(
            HistoryEntry::from_jsonl(line).map_err(|e| format!("history line {}: {e}", i + 1))?,
        );
    }
    Ok(out)
}

/// How [`check`] picks its baseline from history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// The most recent history entry (default: catches drift step by
    /// step).
    Last,
    /// Per metric, the best value ever recorded (strictest: catches slow
    /// cumulative drift).
    Best,
}

/// The fractional cost increase of `current` over `baseline` for the
/// metric's direction; positive means worse.
#[must_use]
pub fn cost_increase(direction: Direction, baseline: f64, current: f64) -> f64 {
    match direction {
        // Guard against zero/negative baselines (e.g. allocs_per_step 0):
        // treat any increase from a <= 0 baseline as its absolute value.
        Direction::LowerIsBetter => {
            if baseline > 0.0 {
                current / baseline - 1.0
            } else {
                current.max(0.0)
            }
        }
        Direction::HigherIsBetter => {
            if current > 0.0 {
                baseline / current - 1.0
            } else if baseline > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        }
    }
}

/// Compares `current` metrics against history and returns every metric
/// whose cost grew past `threshold` (0.10 = 10%). Metrics with no
/// baseline (first appearance) pass. An empty history passes everything.
#[must_use]
pub fn check(
    history: &[HistoryEntry],
    current: &[PerfMetric],
    baseline: Baseline,
    threshold: f64,
) -> Vec<Regression> {
    let baseline_of = |m: &PerfMetric| -> Option<f64> {
        match baseline {
            Baseline::Last => history
                .iter()
                .rev()
                .find_map(|e| e.metrics.iter().find(|h| h.key == m.key))
                .map(|h| h.value),
            Baseline::Best => {
                let mut best: Option<f64> = None;
                for h in history
                    .iter()
                    .flat_map(|e| &e.metrics)
                    .filter(|h| h.key == m.key)
                {
                    best = Some(match (best, m.direction) {
                        (None, _) => h.value,
                        (Some(b), Direction::LowerIsBetter) => b.min(h.value),
                        (Some(b), Direction::HigherIsBetter) => b.max(h.value),
                    });
                }
                best
            }
        }
    };
    let mut regressions = Vec::new();
    for m in current {
        let Some(base) = baseline_of(m) else { continue };
        let worse_by = cost_increase(m.direction, base, m.value);
        if worse_by > threshold {
            regressions.push(Regression {
                key: m.key.clone(),
                baseline: base,
                current: m.value,
                worse_by,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    const MICRO: &str = r#"{"bench":"micro_step","steps_per_call":100,"packs":[{"batteries":2,"ns_per_step":240.0,"steps_per_sec":4166666.0,"allocs_per_step":0.0},{"batteries":8,"ns_per_step":600.0,"steps_per_sec":1666666.0,"allocs_per_step":0.0}],"allocs_per_step_max":0.0,"host_cpus":1}"#;
    const FLEET: &str = r#"{"bench":"fleet_scaling","devices":512,"threads":[{"threads":1,"wall_s":0.07,"devices_per_sec":7000.0},{"threads":8,"wall_s":0.068,"devices_per_sec":7400.0}],"host_cpus":1}"#;

    fn entry(stamp: u64, metrics: Vec<PerfMetric>) -> HistoryEntry {
        HistoryEntry {
            recorded_at_unix_s: stamp,
            label: "test".to_owned(),
            metrics,
        }
    }

    #[test]
    fn ingest_both_bench_shapes() {
        let micro = ingest(MICRO).expect("micro parses");
        assert_eq!(micro.len(), 3);
        assert_eq!(micro[0].key, "micro_step.b2.ns_per_step");
        assert_eq!(micro[0].value, 240.0);
        assert_eq!(micro[0].direction, Direction::LowerIsBetter);
        let fleet = ingest(FLEET).expect("fleet parses");
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[1].key, "fleet.t8.devices_per_sec");
        assert_eq!(fleet[1].direction, Direction::HigherIsBetter);
        assert!(ingest("{\"bench\":\"mystery\"}").is_err());
        assert!(ingest("not json").is_err());
    }

    #[test]
    fn ingest_parses_campaign_throughput() {
        let doc = r#"{"bench":"campaign","cells":48,"devices":96,"threads":4,"wall_s":1.5,"cells_per_sec":32.0,"devices_per_sec":64.0,"host_cpus":8}"#;
        let metrics = ingest(doc).expect("campaign bench parses");
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].key, "campaign.cells_per_sec");
        assert_eq!(metrics[0].value, 32.0);
        assert_eq!(metrics[0].direction, Direction::HigherIsBetter);
        assert_eq!(metrics[1].key, "campaign.devices_per_sec");
        // A campaign document without any rate is malformed.
        assert!(ingest(r#"{"bench":"campaign","cells":48}"#).is_err());
    }

    #[test]
    fn ingest_picks_up_merged_policy_plan_entry() {
        let merged = MICRO.replace(
            ",\"host_cpus\"",
            ",\"policy_plan\":{\"ns_per_plan\":123456.0},\"host_cpus\"",
        );
        let metrics = ingest(&merged).expect("merged micro parses");
        let pp = metrics
            .iter()
            .find(|m| m.key == "micro_step.policy_plan.ns_per_plan")
            .expect("policy_plan metric ingested");
        assert_eq!(pp.value, 123_456.0);
        assert_eq!(pp.direction, Direction::LowerIsBetter);
        // Absent from older artifacts → simply not emitted.
        assert_eq!(ingest(MICRO).expect("parses").len(), 3);
    }

    #[test]
    fn ingest_picks_up_soa_step_and_rollout_alloc_metrics() {
        let merged = MICRO.replace(
            ",\"host_cpus\"",
            ",\"policy_plan\":{\"ns_per_plan\":123456.0,\"allocs_per_rollout\":0.0},\
             \"soa_step\":{\"ns_per_tick\":9.4,\"ff_fraction\":0.98},\"host_cpus\"",
        );
        let metrics = ingest(&merged).expect("merged micro parses");
        let soa = metrics
            .iter()
            .find(|m| m.key == "micro_step.soa_step.ns_per_tick")
            .expect("soa_step metric ingested");
        assert_eq!(soa.value, 9.4);
        assert_eq!(soa.direction, Direction::LowerIsBetter);
        let allocs = metrics
            .iter()
            .find(|m| m.key == "micro_step.policy_plan.allocs_per_rollout")
            .expect("rollout alloc metric ingested");
        assert_eq!(allocs.value, 0.0);
        assert_eq!(allocs.direction, Direction::LowerIsBetter);
        // Absent from older artifacts → simply not emitted.
        assert!(!ingest(MICRO)
            .expect("parses")
            .iter()
            .any(|m| m.key.starts_with("micro_step.soa_step")));
    }

    #[test]
    fn ingest_picks_up_soa_engine_head_to_head() {
        let merged = FLEET.replace(
            ",\"host_cpus\"",
            ",\"soa\":{\"devices\":512,\"threads\":8,\"quiescent\":{\"trace_hours\":8.0,\
             \"scalar_devices_per_sec\":1400.0,\"soa_devices_per_sec\":22000.0,\
             \"ff_tick_fraction\":0.97,\"soa_speedup\":15.7,\"soa_ge_3x\":true},\
             \"default_population\":{\"trace_hours\":2.0,\"scalar_devices_per_sec\":4800.0,\
             \"soa_devices_per_sec\":8700.0,\"ff_tick_fraction\":0.44,\"soa_speedup\":1.8}},\
             \"host_cpus\"",
        );
        let metrics = ingest(&merged).expect("merged fleet parses");
        let dps = metrics
            .iter()
            .find(|m| m.key == "fleet.soa.quiescent.devices_per_sec")
            .expect("quiescent throughput ingested");
        assert_eq!(dps.value, 22000.0);
        assert_eq!(dps.direction, Direction::HigherIsBetter);
        let sp = metrics
            .iter()
            .find(|m| m.key == "fleet.soa.default.speedup")
            .expect("default-population speedup ingested");
        assert_eq!(sp.value, 1.8);
        let ff = metrics
            .iter()
            .find(|m| m.key == "fleet.soa.quiescent.ff_tick_fraction")
            .expect("ff fraction ingested");
        assert_eq!(ff.value, 0.97);
        assert_eq!(ff.direction, Direction::HigherIsBetter);
        // Absent from older artifacts → simply not emitted.
        assert!(!ingest(FLEET)
            .expect("parses")
            .iter()
            .any(|m| m.key.starts_with("fleet.soa")));
    }

    #[test]
    fn ingest_picks_up_prof_overhead_and_phase_shares() {
        let merged = MICRO.replace(
            ",\"host_cpus\"",
            ",\"prof\":{\"pack\":8,\"sample_every\":128,\"overhead_pct\":1.9,\
             \"profiled_allocs_per_step\":0.0,\"phase_share\":{\"curve_eval\":1.5,\
             \"observer_emit\":3.0}},\"host_cpus\"",
        );
        let metrics = ingest(&merged).expect("merged micro parses");
        let overhead = metrics
            .iter()
            .find(|m| m.key == "micro_step.prof.overhead_pct")
            .expect("overhead ingested");
        assert_eq!(overhead.value, 1.9);
        assert_eq!(overhead.direction, Direction::LowerIsBetter);
        let emit = metrics
            .iter()
            .find(|m| m.key == "micro_step.phase_share.observer_emit")
            .expect("phase share ingested");
        assert_eq!(emit.value, 3.0);
        assert_eq!(emit.direction, Direction::LowerIsBetter);
        // Absent from older artifacts → simply not emitted.
        assert!(!ingest(MICRO)
            .expect("parses")
            .iter()
            .any(|m| m.key.starts_with("micro_step.prof")));
    }

    #[test]
    fn phase_share_regression_trips_the_gate_when_totals_stay_flat() {
        // Baseline: observer emit at 3% of sampled step self-time, total
        // ns/step 240. Current: emit ballooned 1.5x to 4.5% while the
        // total stayed flat — the per-phase metric must trip the gate on
        // its own.
        let share = |v: f64| PerfMetric {
            key: "micro_step.phase_share.observer_emit".to_owned(),
            value: v,
            direction: Direction::LowerIsBetter,
        };
        let total = |v: f64| PerfMetric {
            key: "micro_step.b8.ns_per_step".to_owned(),
            value: v,
            direction: Direction::LowerIsBetter,
        };
        let history = vec![entry(1, vec![total(240.0), share(3.0)])];
        let current = vec![total(240.0), share(4.5)];
        let regs = check(&history, &current, Baseline::Best, 0.10);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "micro_step.phase_share.observer_emit");
        assert!((regs[0].worse_by - 0.5).abs() < 1e-12);
    }

    #[test]
    fn history_jsonl_round_trips() {
        let e = entry(1_700_000_000, ingest(MICRO).expect("parses"));
        let line = e.to_jsonl();
        assert!(!line.contains('\n'));
        let back = HistoryEntry::from_jsonl(&line).expect("round trips");
        assert_eq!(back, e);
        let text = format!("# comment\n{line}\n\n{line}\n");
        assert_eq!(parse_history(&text).expect("file parses").len(), 2);
        assert!(parse_history("junk\n").is_err());
    }

    #[test]
    fn check_flags_only_past_threshold_regressions() {
        let history = vec![entry(1, ingest(MICRO).expect("parses"))];
        // 5% slower: under the 10% gate.
        let ok = vec![PerfMetric {
            key: "micro_step.b2.ns_per_step".into(),
            value: 252.0,
            direction: Direction::LowerIsBetter,
        }];
        assert!(check(&history, &ok, Baseline::Last, 0.10).is_empty());
        // 20% slower: flagged with the right magnitude.
        let bad = vec![PerfMetric {
            key: "micro_step.b2.ns_per_step".into(),
            value: 288.0,
            direction: Direction::LowerIsBetter,
        }];
        let regs = check(&history, &bad, Baseline::Last, 0.10);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].worse_by - 0.20).abs() < 1e-12);
        // Unknown metric and empty history both pass.
        let novel = vec![PerfMetric {
            key: "new.metric".into(),
            value: 1.0,
            direction: Direction::LowerIsBetter,
        }];
        assert!(check(&history, &novel, Baseline::Last, 0.10).is_empty());
        assert!(check(&[], &bad, Baseline::Last, 0.10).is_empty());
    }

    #[test]
    fn throughput_direction_inverts_the_comparison() {
        let history = vec![entry(1, ingest(FLEET).expect("parses"))];
        // Throughput dropped 20%: cost rose 25% (7000/5600 - 1).
        let bad = vec![PerfMetric {
            key: "fleet.t1.devices_per_sec".into(),
            value: 5600.0,
            direction: Direction::HigherIsBetter,
        }];
        let regs = check(&history, &bad, Baseline::Last, 0.10);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].worse_by - 0.25).abs() < 1e-12);
        // Throughput rose: no regression.
        let good = vec![PerfMetric {
            key: "fleet.t1.devices_per_sec".into(),
            value: 9000.0,
            direction: Direction::HigherIsBetter,
        }];
        assert!(check(&history, &good, Baseline::Last, 0.10).is_empty());
    }

    #[test]
    fn best_baseline_catches_cumulative_drift() {
        // Three runs each 6% slower than the last: Last-baseline passes,
        // Best-baseline catches the compound drift.
        let mk = |v: f64| {
            vec![PerfMetric {
                key: "micro_step.b2.ns_per_step".into(),
                value: v,
                direction: Direction::LowerIsBetter,
            }]
        };
        let history = vec![
            entry(1, mk(240.0)),
            entry(2, mk(254.4)),
            entry(3, mk(269.7)),
        ];
        let current = mk(285.9);
        assert!(check(&history, &current, Baseline::Last, 0.10).is_empty());
        let regs = check(&history, &current, Baseline::Best, 0.10);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].baseline, 240.0);
    }

    #[test]
    fn zero_baseline_allocs_metric_is_guarded() {
        assert_eq!(cost_increase(Direction::LowerIsBetter, 0.0, 0.0), 0.0);
        assert!(cost_increase(Direction::LowerIsBetter, 0.0, 2.0) > 0.10);
        assert_eq!(cost_increase(Direction::HigherIsBetter, 0.0, 0.0), 0.0);
        assert_eq!(
            cost_increase(Direction::HigherIsBetter, 5.0, 0.0),
            f64::INFINITY
        );
    }
}
