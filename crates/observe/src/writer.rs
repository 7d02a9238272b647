//! Trace serialization: JSONL capture files and Chrome `trace_event`
//! exports, and the replay parser that reads a JSONL trace back.
//!
//! The JSONL format is the canonical record: one event per line,
//! `{"device":…,"seq":…,"t_s":…,"kind":…,…}`, sorted by `(device, seq)`,
//! with the payload fields of [`ObsEvent::fields`] after the kind.
//! Floats use shortest-round-trip formatting, so a trace written from a
//! fleet run is byte-identical for any worker-thread count and parses back
//! to bit-identical events. The Chrome export is a derived view of the
//! same events — a `chrome://tracing` / Perfetto-loadable JSON object with
//! one process track per device (SoC/load counters plus instant events
//! whose `args` are the same payload fields).

use crate::events::Field;
use crate::json::{self, Value};
use crate::{json_escape as esc, DeviceEvent, Flow, ObsEvent};
use std::fmt::Write as _;

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

/// Writes `event`'s payload as comma-separated `"name":value` members,
/// the first preceded by `lead`.
fn push_fields(out: &mut String, event: &ObsEvent, lead: &str) {
    for (i, (name, value)) in event.fields().into_iter().enumerate() {
        let sep = if i == 0 { lead } else { "," };
        let _ = write!(out, "{sep}\"{name}\":");
        match value {
            Field::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Field::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Field::Num(x) => out.push_str(&fmt_f64(x)),
            Field::Str(s) => {
                let _ = write!(out, "\"{}\"", esc(s));
            }
            Field::Nums(xs) => {
                let xs: Vec<String> = xs.iter().map(|x| fmt_f64(*x)).collect();
                let _ = write!(out, "[{}]", xs.join(","));
            }
        }
    }
}

/// Renders a full trace as JSONL (one event per line, trailing newline).
/// The caller is expected to pass events already sorted by
/// `(device, seq)` — the fleet engine's capture order.
#[must_use]
pub fn to_jsonl(events: &[DeviceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let _ = write!(
            out,
            "{{\"device\":{},\"seq\":{},\"t_s\":{},\"kind\":\"{}\"",
            e.device,
            e.seq,
            fmt_f64(e.t_s),
            e.event.kind()
        );
        push_fields(&mut out, &e.event, ",");
        out.push_str("}\n");
    }
    out
}

/// A payload type the replay parser reads from one JSON member.
trait FromField: Sized {
    /// What a value of the type is, for the error message.
    const WHAT: &'static str;
    /// The value `v` holds, or `None` when it holds none of this type.
    fn from_field(v: &Value) -> Option<Self>;
}

/// Implements [`FromField`] for each payload type from what the type is
/// and how a JSON value holds one.
macro_rules! from_field {
    ($($ty:ty: $what:literal, |$v:ident| $read:expr;)*) => {$(
        impl FromField for $ty {
            const WHAT: &'static str = $what;
            fn from_field($v: &Value) -> Option<Self> {
                $read
            }
        }
    )*};
}

from_field! {
    f64: "a finite number", |v| v.as_f64().filter(|x| x.is_finite());
    u64: "a non-negative integer", |v| v.as_u64();
    usize: "a battery index", |v| v.as_u64()?.try_into().ok();
    u32: "a 32-bit count", |v| v.as_u64()?.try_into().ok();
    bool: "a boolean", |v| v.as_bool();
    String: "a string", |v| v.as_str().map(str::to_owned);
    Vec<f64>: "an array of finite numbers",
        |v| v.as_arr()?.iter().map(f64::from_field).collect();
    Flow: "`charge` or `discharge`",
        |v| [Flow::Charge, Flow::Discharge].into_iter().find(|f| v.as_str() == Some(f.name()));
    // The event vocabulary holds `&'static str` names, and a replayed
    // trace may come from anywhere, so only the closed set the emitters
    // use is accepted: the reasons the runtime gives a `gauge_degraded`.
    &'static str: "a reason the runtime emits (`stuck-soc`)",
        |v| ["stuck-soc"].into_iter().find(|n| v.as_str() == Some(n));
}

/// Reads member `key` of a JSONL line as a `T`.
fn field<T: FromField>(v: &Value, key: &str) -> Result<T, String> {
    let raw = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    T::from_field(raw).ok_or_else(|| format!("field `{key}` is not {}", T::WHAT))
}

/// Parses one JSONL line back into a [`DeviceEvent`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub(crate) fn from_jsonl_line(line: &str) -> Result<DeviceEvent, String> {
    let v = json::parse(line)?;
    let event = match field::<String>(&v, "kind")?.as_str() {
        "ratio_push" => ObsEvent::RatioPush {
            flow: field(&v, "flow")?,
            ratios: field(&v, "ratios")?,
        },
        "thermal_throttle" => ObsEvent::ThermalThrottle {
            battery: field(&v, "battery")?,
            engaged: field(&v, "engaged")?,
            temperature_c: field(&v, "temperature_c")?,
        },
        "gauge_recalibration" => ObsEvent::GaugeRecalibration {
            battery: field(&v, "battery")?,
            soc_before: field(&v, "soc_before")?,
            soc_after: field(&v, "soc_after")?,
        },
        "policy_evaluation" => ObsEvent::PolicyEvaluation {
            pushed: field(&v, "pushed")?,
            charge_directive: field(&v, "charge_directive")?,
            discharge_directive: field(&v, "discharge_directive")?,
        },
        "fault_injection" => ObsEvent::FaultInjection {
            description: field(&v, "description")?,
        },
        "safety_clamp" => ObsEvent::SafetyClamp {
            battery: field(&v, "battery")?,
            flow: field(&v, "flow")?,
            requested_a: field(&v, "requested_a")?,
            applied_a: field(&v, "applied_a")?,
        },
        "step_sample" => ObsEvent::StepSample {
            load_w: field(&v, "load_w")?,
            supplied_w: field(&v, "supplied_w")?,
            loss_w: field(&v, "loss_w")?,
            soc: field(&v, "soc")?,
            current_a: field(&v, "current_a")?,
        },
        "battery_presence" => ObsEvent::BatteryPresence {
            battery: field(&v, "battery")?,
            present: field(&v, "present")?,
        },
        "command_retry" => ObsEvent::CommandRetry {
            attempt: field(&v, "attempt")?,
            backoff_s: field(&v, "backoff_s")?,
        },
        "watchdog_transition" => ObsEvent::WatchdogTransition {
            engaged: field(&v, "engaged")?,
            silent_s: field(&v, "silent_s")?,
        },
        "gauge_degraded" => ObsEvent::GaugeDegraded {
            battery: field(&v, "battery")?,
            degraded: field(&v, "degraded")?,
            reason: field(&v, "reason")?,
        },
        "plan_commit" => ObsEvent::PlanCommit {
            discharge_directive: field(&v, "discharge_directive")?,
            horizon_s: field(&v, "horizon_s")?,
            forecast_mae_w: field(&v, "forecast_mae_w")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(DeviceEvent {
        device: field(&v, "device")?,
        seq: field(&v, "seq")?,
        t_s: field(&v, "t_s")?,
        event,
    })
}

/// Parses a whole JSONL trace (blank lines skipped), re-sorting by
/// `(device, seq)` so hand-concatenated files still analyze correctly.
///
/// # Errors
///
/// Returns the first malformed line with its 1-based line number, or the
/// line of an event whose time is earlier than that of its device's
/// previous event: the rule engine's windows need each device's clock to
/// run forward.
pub(crate) fn from_jsonl(text: &str) -> Result<Vec<DeviceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e = from_jsonl_line(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        events.push((e, i + 1));
    }
    events.sort_by_key(|(e, _)| (e.device, e.seq));
    for pair in events.windows(2) {
        let ((prev, _), (e, line)) = (&pair[0], &pair[1]);
        if e.device == prev.device && e.t_s < prev.t_s {
            return Err(format!(
                "trace line {line}: device {} goes back in time: seq {} at t_s {:?} after seq {} at t_s {:?}",
                e.device, e.seq, e.t_s, prev.seq, prev.t_s
            ));
        }
    }
    Ok(events.into_iter().map(|(e, _)| e).collect())
}

/// Renders a Chrome `trace_event` JSON document from a trace: one process
/// track per device (named via metadata events), SoC/power counter tracks
/// from step samples, and instant events, with the payload fields as
/// `args`, for everything else. Load the file in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Timestamps are simulation time in
/// microseconds.
#[must_use]
pub fn to_chrome(events: &[DeviceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Every item but the first follows the array's opening `[`.
    let emit = |s: String, out: &mut String| {
        if !out.ends_with('[') {
            out.push(',');
        }
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
                let mut instant = format!(
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"s\":\"p\",\"name\":\"{}\",\"args\":{{",
                    other.kind()
                );
                push_fields(&mut instant, other, "");
                instant.push_str("}}");
                emit(instant, &mut out);
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
                event: ObsEvent::ThermalThrottle {
                    battery: 1,
                    engaged: false,
                    temperature_c: 38.5,
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
        let line = |reason: &str| {
            from_jsonl_line(&format!(
                "{{\"device\":0,\"seq\":1,\"t_s\":1.0,\"kind\":\"gauge_degraded\",\
                 \"battery\":0,\"degraded\":true,\"reason\":\"{reason}\"}}"
            ))
        };
        assert!(line("stuck-soc").is_ok());
        assert_eq!(
            line("bored").unwrap_err(),
            "field `reason` is not a reason the runtime emits (`stuck-soc`)"
        );
    }

    #[test]
    fn a_device_clock_running_backwards_is_rejected() {
        let mut events = sample_events();
        // Device 1's seq 2 now happens before its seq 1.
        events[4].t_s = 129.0;
        let text = to_jsonl(&events);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.reverse();
        let err = from_jsonl(&lines.join("\n")).unwrap_err();
        // Reversed: seq 2 of device 1 is on line 13 - 4 = 9.
        assert!(
            err.starts_with("trace line 9: device 1 goes back in time"),
            "{err}"
        );
        // Equal times are fine, and devices do not share a clock.
        events[4].t_s = 130.0;
        events[2].t_s = 0.0;
        assert!(from_jsonl(&to_jsonl(&events)).is_ok());
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
        let text = to_jsonl(&events);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.reverse();
        let text = format!("\n{}\n\n", lines.join("\n\n"));
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn bad_lines_report_their_line_number() {
        let err = from_jsonl("{\"device\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let good = to_jsonl(&sample_events()[..1]);
        let err = from_jsonl(&format!("{good}not json\n")).unwrap_err();
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
        // An instant's args are the event's payload fields, as in JSONL.
        let args_of = |kind: &str| {
            arr.iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(kind))
                .and_then(|e| e.get("args"))
                .unwrap()
        };
        let args = args_of("thermal_throttle");
        assert_eq!(args.get("battery").unwrap().as_u64(), Some(1));
        assert_eq!(args.get("engaged"), Some(&Value::Bool(false)));
        assert_eq!(args.get("temperature_c"), Some(&Value::Num(38.5)));
        let fault = args_of("fault_injection").get("description").unwrap();
        assert_eq!(fault.as_str(), Some("dropped \"cmd\"\nline"));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err =
            from_jsonl_line(r#"{"device":0,"seq":0,"t_s":1.0,"kind":"mystery"}"#).unwrap_err();
        assert!(err.contains("mystery"));
    }
}
