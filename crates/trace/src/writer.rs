//! Trace serialization: JSONL capture files and Chrome `trace_event`
//! exports.
//!
//! The JSONL format is the canonical record: one event per line,
//! `{"device":…,"seq":…,"t_s":…,"kind":…,…}`, sorted by `(device, seq)`.
//! Floats use shortest-round-trip formatting, so a trace written from a
//! fleet run is byte-identical for any worker-thread count and parses back
//! to bit-identical events. The Chrome export is a derived view of the
//! same events — a `chrome://tracing` / Perfetto-loadable JSON object with
//! one process track per device (SoC/load counters plus instant events).

use crate::json::{self, Value};
use sdb_observe::{json_escape as esc, DeviceEvent, Flow, ObsEvent};
use std::fmt::Write as _;

/// The `kind` string of one event.
#[must_use]
pub(crate) fn event_kind(event: &ObsEvent) -> &'static str {
    match event {
        ObsEvent::RatioPush { .. } => "ratio_push",
        ObsEvent::ProfileTransition { .. } => "profile_transition",
        ObsEvent::ThermalThrottle { .. } => "thermal_throttle",
        ObsEvent::GaugeRecalibration { .. } => "gauge_recalibration",
        ObsEvent::PolicyEvaluation { .. } => "policy_evaluation",
        ObsEvent::FaultInjection { .. } => "fault_injection",
        ObsEvent::SafetyClamp { .. } => "safety_clamp",
        ObsEvent::StepSample { .. } => "step_sample",
        ObsEvent::BatteryPresence { .. } => "battery_presence",
        ObsEvent::CommandRetry { .. } => "command_retry",
        ObsEvent::WatchdogTransition { .. } => "watchdog_transition",
        ObsEvent::GaugeDegraded { .. } => "gauge_degraded",
        ObsEvent::PlanCommit { .. } => "plan_commit",
    }
}

/// Shortest-round-trip float formatting (deterministic; never produces
/// `NaN`/`inf` for the values the stack emits, but guard anyway).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "null".to_owned()
    } else if v > 0.0 {
        "1e999".to_owned() // parses back to +inf
    } else {
        "-1e999".to_owned()
    }
}

fn f64_list(out: &mut String, key: &str, values: &[f64]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*v));
    }
    out.push(']');
}

/// Serializes one event as a single JSONL line (no trailing newline).
#[must_use]
pub fn to_jsonl_line(e: &DeviceEvent) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"device\":{},\"seq\":{},\"t_s\":{},\"kind\":\"{}\"",
        e.device,
        e.seq,
        fmt_f64(e.t_s),
        event_kind(&e.event)
    );
    match &e.event {
        ObsEvent::RatioPush { flow, ratios } => {
            let _ = write!(out, ",\"flow\":\"{flow}\"");
            f64_list(&mut out, "ratios", ratios);
        }
        ObsEvent::ProfileTransition { battery, from, to } => {
            let _ = write!(
                out,
                ",\"battery\":{battery},\"from\":\"{}\",\"to\":\"{}\"",
                esc(from),
                esc(to)
            );
        }
        ObsEvent::ThermalThrottle {
            battery,
            engaged,
            temperature_c,
        } => {
            let _ = write!(
                out,
                ",\"battery\":{battery},\"engaged\":{engaged},\"temperature_c\":{}",
                fmt_f64(*temperature_c)
            );
        }
        ObsEvent::GaugeRecalibration {
            battery,
            soc_before,
            soc_after,
        } => {
            let _ = write!(
                out,
                ",\"battery\":{battery},\"soc_before\":{},\"soc_after\":{}",
                fmt_f64(*soc_before),
                fmt_f64(*soc_after)
            );
        }
        ObsEvent::PolicyEvaluation {
            pushed,
            charge_directive,
            discharge_directive,
        } => {
            let _ = write!(
                out,
                ",\"pushed\":{pushed},\"charge_directive\":{},\"discharge_directive\":{}",
                fmt_f64(*charge_directive),
                fmt_f64(*discharge_directive)
            );
        }
        ObsEvent::FaultInjection { description } => {
            let _ = write!(out, ",\"description\":\"{}\"", esc(description));
        }
        ObsEvent::SafetyClamp {
            battery,
            flow,
            requested_a,
            applied_a,
        } => {
            let _ = write!(
                out,
                ",\"battery\":{battery},\"flow\":\"{flow}\",\"requested_a\":{},\"applied_a\":{}",
                fmt_f64(*requested_a),
                fmt_f64(*applied_a)
            );
        }
        ObsEvent::StepSample {
            load_w,
            supplied_w,
            loss_w,
            soc,
            current_a,
        } => {
            let _ = write!(
                out,
                ",\"load_w\":{},\"supplied_w\":{},\"loss_w\":{}",
                fmt_f64(*load_w),
                fmt_f64(*supplied_w),
                fmt_f64(*loss_w)
            );
            f64_list(&mut out, "soc", soc);
            f64_list(&mut out, "current_a", current_a);
        }
        ObsEvent::BatteryPresence { battery, present } => {
            let _ = write!(out, ",\"battery\":{battery},\"present\":{present}");
        }
        ObsEvent::CommandRetry { attempt, backoff_s } => {
            let _ = write!(
                out,
                ",\"attempt\":{attempt},\"backoff_s\":{}",
                fmt_f64(*backoff_s)
            );
        }
        ObsEvent::WatchdogTransition { engaged, silent_s } => {
            let _ = write!(
                out,
                ",\"engaged\":{engaged},\"silent_s\":{}",
                fmt_f64(*silent_s)
            );
        }
        ObsEvent::GaugeDegraded {
            battery,
            degraded,
            reason,
        } => {
            let _ = write!(
                out,
                ",\"battery\":{battery},\"degraded\":{degraded},\"reason\":\"{}\"",
                esc(reason)
            );
        }
        ObsEvent::PlanCommit {
            discharge_directive,
            horizon_s,
            forecast_mae_w,
        } => {
            let _ = write!(
                out,
                ",\"discharge_directive\":{},\"horizon_s\":{},\"forecast_mae_w\":{}",
                fmt_f64(*discharge_directive),
                fmt_f64(*horizon_s),
                fmt_f64(*forecast_mae_w)
            );
        }
    }
    out.push('}');
    out
}

/// Renders a full trace as JSONL (one event per line, trailing newline).
/// The caller is expected to pass events already sorted by
/// `(device, seq)` — the fleet engine's capture order.
#[must_use]
pub fn to_jsonl(events: &[DeviceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&to_jsonl_line(e));
        out.push('\n');
    }
    out
}

/// The charging-profile names the emulator emits in `from` and `to`
/// (`ProfileKind::name` in `sdb-emulator`).
const PROFILE_NAMES: &[&str] = &["standard", "fast", "gentle"];

/// The reasons the runtime emits in a `gauge_degraded` event.
const DEGRADED_REASONS: &[&str] = &["stuck-soc"];

/// Reads string field `key` back into the static name it was written
/// from. The event vocabulary holds `&'static str` names, and a replayed
/// trace may come from anywhere, so only the closed set the emitters use
/// is accepted: any other value is an error naming the field.
fn need_name(v: &Value, key: &str, names: &[&'static str]) -> Result<&'static str, String> {
    let raw = need_str(v, key)?;
    names
        .iter()
        .find(|n| **n == raw)
        .copied()
        .ok_or_else(|| format!("unknown `{key}` value {raw:?}"))
}

fn parse_flow(v: &Value) -> Result<Flow, String> {
    match v.as_str() {
        Some("charge") => Ok(Flow::Charge),
        Some("discharge") => Ok(Flow::Discharge),
        other => Err(format!("bad flow value {other:?}")),
    }
}

fn need_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn need_usize(v: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(need_u64(v, key)?).map_err(|e| e.to_string())
}

fn need_bool(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing boolean field `{key}`"))
}

fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn need_f64_list(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric `{key}`")))
        .collect()
}

/// Parses one JSONL line back into a [`DeviceEvent`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn from_jsonl_line(line: &str) -> Result<DeviceEvent, String> {
    let v = json::parse(line)?;
    let event = match need_str(&v, "kind")? {
        "ratio_push" => ObsEvent::RatioPush {
            flow: parse_flow(v.get("flow").ok_or("missing `flow`")?)?,
            ratios: need_f64_list(&v, "ratios")?,
        },
        "profile_transition" => ObsEvent::ProfileTransition {
            battery: need_usize(&v, "battery")?,
            from: need_name(&v, "from", PROFILE_NAMES)?,
            to: need_name(&v, "to", PROFILE_NAMES)?,
        },
        "thermal_throttle" => ObsEvent::ThermalThrottle {
            battery: need_usize(&v, "battery")?,
            engaged: need_bool(&v, "engaged")?,
            temperature_c: need_f64(&v, "temperature_c")?,
        },
        "gauge_recalibration" => ObsEvent::GaugeRecalibration {
            battery: need_usize(&v, "battery")?,
            soc_before: need_f64(&v, "soc_before")?,
            soc_after: need_f64(&v, "soc_after")?,
        },
        "policy_evaluation" => ObsEvent::PolicyEvaluation {
            pushed: need_bool(&v, "pushed")?,
            charge_directive: need_f64(&v, "charge_directive")?,
            discharge_directive: need_f64(&v, "discharge_directive")?,
        },
        "fault_injection" => ObsEvent::FaultInjection {
            description: need_str(&v, "description")?.to_owned(),
        },
        "safety_clamp" => ObsEvent::SafetyClamp {
            battery: need_usize(&v, "battery")?,
            flow: parse_flow(v.get("flow").ok_or("missing `flow`")?)?,
            requested_a: need_f64(&v, "requested_a")?,
            applied_a: need_f64(&v, "applied_a")?,
        },
        "step_sample" => ObsEvent::StepSample {
            load_w: need_f64(&v, "load_w")?,
            supplied_w: need_f64(&v, "supplied_w")?,
            loss_w: need_f64(&v, "loss_w")?,
            soc: need_f64_list(&v, "soc")?,
            current_a: need_f64_list(&v, "current_a")?,
        },
        "battery_presence" => ObsEvent::BatteryPresence {
            battery: need_usize(&v, "battery")?,
            present: need_bool(&v, "present")?,
        },
        "command_retry" => ObsEvent::CommandRetry {
            attempt: u32::try_from(need_u64(&v, "attempt")?).map_err(|e| e.to_string())?,
            backoff_s: need_f64(&v, "backoff_s")?,
        },
        "watchdog_transition" => ObsEvent::WatchdogTransition {
            engaged: need_bool(&v, "engaged")?,
            silent_s: need_f64(&v, "silent_s")?,
        },
        "gauge_degraded" => ObsEvent::GaugeDegraded {
            battery: need_usize(&v, "battery")?,
            degraded: need_bool(&v, "degraded")?,
            reason: need_name(&v, "reason", DEGRADED_REASONS)?,
        },
        "plan_commit" => ObsEvent::PlanCommit {
            discharge_directive: need_f64(&v, "discharge_directive")?,
            horizon_s: need_f64(&v, "horizon_s")?,
            forecast_mae_w: need_f64(&v, "forecast_mae_w")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(DeviceEvent {
        device: need_u64(&v, "device")?,
        seq: need_u64(&v, "seq")?,
        t_s: need_f64(&v, "t_s")?,
        event,
    })
}

/// Parses a whole JSONL trace (blank lines skipped), re-sorting by
/// `(device, seq)` so hand-concatenated files still analyze correctly.
///
/// # Errors
///
/// Returns the first malformed line with its 1-based line number.
pub(crate) fn from_jsonl(text: &str) -> Result<Vec<DeviceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(from_jsonl_line(line).map_err(|e| format!("trace line {}: {e}", i + 1))?);
    }
    events.sort_by_key(|e| (e.device, e.seq));
    Ok(events)
}

/// Renders a Chrome `trace_event` JSON document from a trace: one process
/// track per device (named via metadata events), SoC/power counter tracks
/// from step samples, and instant events for everything else. Load the
/// file in `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
/// simulation time in microseconds.
#[must_use]
pub fn to_chrome(events: &[DeviceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&s);
    };

    let mut last_device: Option<u64> = None;
    for e in events {
        let pid = e.device;
        if last_device != Some(pid) {
            last_device = Some(pid);
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"device-{pid}\"}}}}"
                ),
                &mut out,
            );
        }
        let ts = fmt_f64(e.t_s * 1e6);
        match &e.event {
            ObsEvent::StepSample {
                load_w,
                supplied_w,
                soc,
                ..
            } => {
                // Counter tracks: per-battery SoC and load vs supplied power.
                let mut soc_args = String::new();
                for (i, s) in soc.iter().enumerate() {
                    if i > 0 {
                        soc_args.push(',');
                    }
                    let _ = write!(soc_args, "\"b{i}\":{}", fmt_f64(*s));
                }
                emit(
                    format!(
                        "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\"name\":\"soc\",\"args\":{{{soc_args}}}}}"
                    ),
                    &mut out,
                );
                emit(
                    format!(
                        "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\"name\":\"power_w\",\"args\":{{\"load\":{},\"supplied\":{}}}}}",
                        fmt_f64(*load_w),
                        fmt_f64(*supplied_w)
                    ),
                    &mut out,
                );
            }
            other => {
                emit(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"s\":\"p\",\"name\":\"{}\",\"args\":{{\"detail\":\"{}\"}}}}",
                        event_kind(other),
                        esc(&other.to_string())
                    ),
                    &mut out,
                );
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<DeviceEvent> {
        vec![
            DeviceEvent {
                device: 0,
                seq: 0,
                t_s: 60.0,
                event: ObsEvent::RatioPush {
                    flow: Flow::Discharge,
                    ratios: vec![0.25, 0.75],
                },
            },
            DeviceEvent {
                device: 0,
                seq: 1,
                t_s: 60.0,
                event: ObsEvent::StepSample {
                    load_w: 5.0,
                    supplied_w: 4.5,
                    loss_w: 0.125,
                    soc: vec![0.9, 0.8],
                    current_a: vec![0.4, 1.2],
                },
            },
            DeviceEvent {
                device: 1,
                seq: 0,
                t_s: 120.5,
                event: ObsEvent::ProfileTransition {
                    battery: 1,
                    from: "standard",
                    to: "fast",
                },
            },
            DeviceEvent {
                device: 1,
                seq: 1,
                t_s: 130.0,
                event: ObsEvent::FaultInjection {
                    description: "dropped \"cmd\"\nline".to_owned(),
                },
            },
            DeviceEvent {
                device: 1,
                seq: 2,
                t_s: 131.0,
                event: ObsEvent::ThermalThrottle {
                    battery: 0,
                    engaged: true,
                    temperature_c: 45.25,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 3,
                t_s: 140.0,
                event: ObsEvent::PolicyEvaluation {
                    pushed: true,
                    charge_directive: 0.5,
                    discharge_directive: 1.0 / 3.0,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 4,
                t_s: 141.0,
                event: ObsEvent::SafetyClamp {
                    battery: 0,
                    flow: Flow::Charge,
                    requested_a: 3.5,
                    applied_a: 2.0,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 5,
                t_s: 142.0,
                event: ObsEvent::GaugeRecalibration {
                    battery: 1,
                    soc_before: 0.52,
                    soc_after: 0.49,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 6,
                t_s: 143.0,
                event: ObsEvent::BatteryPresence {
                    battery: 1,
                    present: false,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 7,
                t_s: 150.0,
                event: ObsEvent::CommandRetry {
                    attempt: 2,
                    backoff_s: 7.5,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 8,
                t_s: 155.0,
                event: ObsEvent::WatchdogTransition {
                    engaged: true,
                    silent_s: 30.0,
                },
            },
            DeviceEvent {
                device: 1,
                seq: 9,
                t_s: 156.0,
                event: ObsEvent::GaugeDegraded {
                    battery: 0,
                    degraded: true,
                    reason: "stuck-soc",
                },
            },
            DeviceEvent {
                device: 1,
                seq: 10,
                t_s: 157.0,
                event: ObsEvent::PlanCommit {
                    discharge_directive: 0.625,
                    horizon_s: 3600.0,
                    forecast_mae_w: 0.0625,
                },
            },
        ]
    }

    #[test]
    fn names_outside_the_emitted_vocabulary_are_rejected() {
        let line = |from: &str, reason: &str| {
            let profile = format!(
                "{{\"device\":0,\"seq\":0,\"t_s\":1.0,\"kind\":\"profile_transition\",\
                 \"battery\":0,\"from\":\"{from}\",\"to\":\"fast\"}}"
            );
            let degraded = format!(
                "{{\"device\":0,\"seq\":1,\"t_s\":1.0,\"kind\":\"gauge_degraded\",\
                 \"battery\":0,\"degraded\":true,\"reason\":\"{reason}\"}}"
            );
            (from_jsonl_line(&profile), from_jsonl_line(&degraded))
        };
        let (profile, degraded) = line("standard", "stuck-soc");
        assert!(profile.is_ok() && degraded.is_ok());
        let (profile, degraded) = line("turbo", "bored");
        assert_eq!(profile.unwrap_err(), "unknown `from` value \"turbo\"");
        assert_eq!(degraded.unwrap_err(), "unknown `reason` value \"bored\"");
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_floats_round_trip_bit_exactly() {
        let events = sample_events();
        let back = from_jsonl(&to_jsonl(&events)).unwrap();
        for (a, b) in events.iter().zip(&back) {
            assert_eq!(a.t_s.to_bits(), b.t_s.to_bits());
        }
        // 1/3 survives the trip through text.
        match &back[5].event {
            ObsEvent::PolicyEvaluation {
                discharge_directive,
                ..
            } => assert_eq!(discharge_directive.to_bits(), (1.0f64 / 3.0).to_bits()),
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn from_jsonl_reorders_and_skips_blanks() {
        let events = sample_events();
        let mut lines: Vec<String> = events.iter().map(to_jsonl_line).collect();
        lines.reverse();
        let text = format!("\n{}\n\n", lines.join("\n\n"));
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn bad_lines_report_their_line_number() {
        let err = from_jsonl("{\"device\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let good = to_jsonl_line(&sample_events()[0]);
        let err = from_jsonl(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn chrome_export_is_structurally_sound() {
        let events = sample_events();
        let chrome = to_chrome(&events);
        // It must itself be valid JSON (our parser accepts full JSON).
        let v = json::parse(&chrome).unwrap();
        let arr = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2 counters (one step sample) + 12 instants.
        assert_eq!(arr.len(), 16);
        assert!(chrome.contains("\"name\":\"device-0\""));
        assert!(chrome.contains("\"name\":\"device-1\""));
        assert!(chrome.contains("\"ph\":\"C\""));
        // Timestamps are microseconds.
        assert!(chrome.contains("\"ts\":120500000.0"));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err =
            from_jsonl_line(r#"{"device":0,"seq":0,"t_s":1.0,"kind":"mystery"}"#).unwrap_err();
        assert!(err.contains("mystery"));
    }
}
