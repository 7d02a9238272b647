//! The structured event vocabulary and its capture.
//!
//! Every layer of the SDB stack emits [`ObsEvent`]s through an
//! [`crate::Observer`]; a capturing observer keeps each as a
//! [`DeviceEvent`], stamped with the simulation time and the device being
//! simulated.

use std::fmt;

/// Direction of a power flow (ratio pushes, safety clamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Power flowing into batteries.
    Charge,
    /// Power flowing out of batteries.
    Discharge,
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flow::Charge => "charge",
            Flow::Discharge => "discharge",
        })
    }
}

/// A structured event from somewhere in the SDB stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// The hardware accepted a new set of charge/discharge ratios.
    RatioPush {
        /// Which flow the ratios steer.
        flow: Flow,
        /// The realized per-battery ratios.
        ratios: Vec<f64>,
    },
    /// A battery's thermal charge-throttle latched or released.
    ThermalThrottle {
        /// Battery index.
        battery: usize,
        /// `true` when the throttle engaged, `false` when it released.
        engaged: bool,
        /// Cell temperature at the transition, °C.
        temperature_c: f64,
    },
    /// A fuel gauge recalibrated its SoC estimate from a rested OCV.
    GaugeRecalibration {
        /// Battery index.
        battery: usize,
        /// SoC estimate before the recalibration.
        soc_before: f64,
        /// SoC estimate after the recalibration.
        soc_after: f64,
    },
    /// The SDB runtime re-evaluated its policies.
    PolicyEvaluation {
        /// Whether any ratio change was pushed to the hardware.
        pushed: bool,
        /// The charging directive in force.
        charge_directive: f64,
        /// The discharging directive in force.
        discharge_directive: f64,
    },
    /// A fault was injected (dropped link command, induced failure).
    FaultInjection {
        /// Human-readable description of the fault.
        description: String,
    },
    /// The firmware clamped a requested current at a hardware safety
    /// limit.
    SafetyClamp {
        /// Battery index.
        battery: usize,
        /// Which flow was clamped.
        flow: Flow,
        /// Requested current magnitude, amps.
        requested_a: f64,
        /// Applied (clamped) current magnitude, amps.
        applied_a: f64,
    },
    /// One emulation step's summary (the telemetry row shape).
    StepSample {
        /// Requested load, watts.
        load_w: f64,
        /// Load served, watts.
        supplied_w: f64,
        /// Total losses this step (circuit + cell heat), watts.
        loss_w: f64,
        /// Per-battery state of charge after the step.
        soc: Vec<f64>,
        /// Per-battery current (positive = discharge), amps.
        current_a: Vec<f64>,
    },
    /// A battery was attached or detached.
    BatteryPresence {
        /// Battery index.
        battery: usize,
        /// Whether the battery is now physically attached.
        present: bool,
    },
    /// The runtime re-sent an unacknowledged command over the link.
    CommandRetry {
        /// Retry attempt number (1 = first re-send).
        attempt: u32,
        /// Backoff that elapsed before this retry, seconds.
        backoff_s: f64,
    },
    /// The runtime's link watchdog engaged (falling back to safe uniform
    /// ratios) or disengaged (link restored, normal policy resumed).
    WatchdogTransition {
        /// `true` when the watchdog engaged, `false` on recovery.
        engaged: bool,
        /// How long the link had been silent at the transition, seconds.
        silent_s: f64,
    },
    /// The runtime flagged a fuel gauge as degraded (or healthy again).
    GaugeDegraded {
        /// Battery index.
        battery: usize,
        /// `true` when flagged degraded, `false` when cleared.
        degraded: bool,
        /// Why the gauge was flagged (e.g. `"stuck-soc"`).
        reason: &'static str,
    },
    /// A lookahead planner committed a new plan (re-plan) to the runtime.
    PlanCommit {
        /// The discharge directive the plan selected.
        discharge_directive: f64,
        /// Lookahead horizon the plan covers, seconds.
        horizon_s: f64,
        /// Forecast mean absolute error at plan time, watts.
        forecast_mae_w: f64,
    },
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::RatioPush { flow, ratios } => {
                write!(f, "ratio-push {flow} {ratios:?}")
            }
            ObsEvent::ThermalThrottle {
                battery,
                engaged,
                temperature_c,
            } => write!(
                f,
                "thermal-throttle battery={battery} {} at {temperature_c:.2} C",
                if *engaged { "engaged" } else { "released" }
            ),
            ObsEvent::GaugeRecalibration {
                battery,
                soc_before,
                soc_after,
            } => write!(
                f,
                "gauge-recalibration battery={battery} soc {soc_before:.4} -> {soc_after:.4}"
            ),
            ObsEvent::PolicyEvaluation {
                pushed,
                charge_directive,
                discharge_directive,
            } => write!(
                f,
                "policy-evaluation pushed={pushed} charge={charge_directive:.3} discharge={discharge_directive:.3}"
            ),
            ObsEvent::FaultInjection { description } => {
                write!(f, "fault-injection {description}")
            }
            ObsEvent::SafetyClamp {
                battery,
                flow,
                requested_a,
                applied_a,
            } => write!(
                f,
                "safety-clamp battery={battery} {flow} {requested_a:.3} A -> {applied_a:.3} A"
            ),
            ObsEvent::StepSample {
                load_w, supplied_w, ..
            } => write!(f, "step load={load_w:.3} W supplied={supplied_w:.3} W"),
            ObsEvent::BatteryPresence { battery, present } => {
                write!(
                    f,
                    "battery-presence battery={battery} {}",
                    if *present { "attached" } else { "detached" }
                )
            }
            ObsEvent::CommandRetry { attempt, backoff_s } => {
                write!(f, "command-retry attempt={attempt} after {backoff_s:.3} s")
            }
            ObsEvent::WatchdogTransition { engaged, silent_s } => write!(
                f,
                "watchdog {} after {silent_s:.1} s silent",
                if *engaged { "engaged" } else { "recovered" }
            ),
            ObsEvent::GaugeDegraded {
                battery,
                degraded,
                reason,
            } => write!(
                f,
                "gauge-degraded battery={battery} {} ({reason})",
                if *degraded { "flagged" } else { "cleared" }
            ),
            ObsEvent::PlanCommit {
                discharge_directive,
                horizon_s,
                forecast_mae_w,
            } => write!(
                f,
                "plan-commit discharge={discharge_directive:.3} horizon={horizon_s:.0} s mae={forecast_mae_w:.3} W"
            ),
        }
    }
}

/// An event tagged with the device that emitted it — the unit of a fleet
/// trace. `seq` is the per-device emission index, so a merged multi-shard
/// trace can be re-ordered deterministically by `(device, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEvent {
    /// Device index within the fleet (0 for single-device runs).
    pub device: u64,
    /// Emission index within the device's own event stream.
    pub seq: u64,
    /// Simulation time of the event, seconds.
    pub t_s: f64,
    /// The event.
    pub event: ObsEvent,
}

/// The unbounded event capture of a capturing [`crate::Observer`]: it
/// tags every event with the device currently being simulated. A fleet
/// shard calls [`crate::Observer::set_device`] before each device run;
/// devices within a shard run sequentially, so the tag is always right.
/// The captured entries from all shards, in device order, form a
/// deterministic fleet trace regardless of how devices were distributed
/// across threads.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceCollector {
    device: u64,
    next_seq: u64,
    entries: Vec<DeviceEvent>,
}

impl TraceCollector {
    /// Switches the device tag for subsequently recorded events and
    /// restarts the per-device sequence counter.
    pub(crate) fn set_device(&mut self, device: u64) {
        self.device = device;
        self.next_seq = 0;
    }

    /// Captures one event stamped with simulation time `t_s`.
    pub(crate) fn record(&mut self, t_s: f64, event: ObsEvent) {
        self.entries.push(DeviceEvent {
            device: self.device,
            seq: self.next_seq,
            t_s,
            event,
        });
        self.next_seq += 1;
    }

    /// Removes and returns everything captured so far.
    pub(crate) fn drain(&mut self) -> Vec<DeviceEvent> {
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: usize) -> ObsEvent {
        ObsEvent::BatteryPresence {
            battery: i,
            present: true,
        }
    }

    #[test]
    fn trace_collector_tags_device_and_seq() {
        let mut c = TraceCollector::default();
        c.set_device(3);
        c.record(1.0, ev(0));
        c.record(2.0, ev(1));
        c.set_device(9);
        c.record(0.5, ev(2));
        let entries = c.drain();
        assert!(c.drain().is_empty());
        assert_eq!(entries.len(), 3);
        assert_eq!((entries[0].device, entries[0].seq), (3, 0));
        assert_eq!((entries[1].device, entries[1].seq), (3, 1));
        // set_device restarts the per-device sequence.
        assert_eq!((entries[2].device, entries[2].seq), (9, 0));
        assert_eq!(entries[2].t_s, 0.5);
    }

    #[test]
    fn event_display_is_stable() {
        let e = ObsEvent::ThermalThrottle {
            battery: 1,
            engaged: true,
            temperature_c: 45.25,
        };
        assert_eq!(
            e.to_string(),
            "thermal-throttle battery=1 engaged at 45.25 C"
        );
    }
}
