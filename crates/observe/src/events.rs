//! The structured event vocabulary and its capture.
//!
//! Every layer of the SDB stack emits [`ObsEvent`]s through an
//! [`crate::Observer`]; a capturing observer keeps each as a
//! [`DeviceEvent`], stamped with the simulation time and the device being
//! simulated.

/// Direction of a power flow (ratio pushes, safety clamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Power flowing into batteries.
    Charge,
    /// Power flowing out of batteries.
    Discharge,
}

impl Flow {
    /// The flow's name in a trace (`charge`, `discharge`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Flow::Charge => "charge",
            Flow::Discharge => "discharge",
        }
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

/// One payload field of an [`ObsEvent`], as the trace views render it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Field<'a> {
    Int(u64),
    Bool(bool),
    Num(f64),
    Str(&'a str),
    Nums(&'a [f64]),
}

impl ObsEvent {
    /// The event's kind: the `kind` of its JSONL line, the name of its
    /// Chrome instant and its row in `sdb analyze`'s summary.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ObsEvent::RatioPush { .. } => "ratio_push",
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

    /// The event's payload as `(name, value)` pairs, in the order a JSONL
    /// line writes them. The JSONL line and the `args` of a Chrome instant
    /// both read this list.
    pub(crate) fn fields(&self) -> Vec<(&'static str, Field<'_>)> {
        use Field::{Bool, Int, Num, Nums, Str};
        match self {
            ObsEvent::RatioPush { flow, ratios } => {
                vec![("flow", Str(flow.name())), ("ratios", Nums(ratios))]
            }
            ObsEvent::ThermalThrottle {
                battery,
                engaged,
                temperature_c,
            } => vec![
                ("battery", Int(*battery as u64)),
                ("engaged", Bool(*engaged)),
                ("temperature_c", Num(*temperature_c)),
            ],
            ObsEvent::GaugeRecalibration {
                battery,
                soc_before,
                soc_after,
            } => vec![
                ("battery", Int(*battery as u64)),
                ("soc_before", Num(*soc_before)),
                ("soc_after", Num(*soc_after)),
            ],
            ObsEvent::PolicyEvaluation {
                pushed,
                charge_directive,
                discharge_directive,
            } => vec![
                ("pushed", Bool(*pushed)),
                ("charge_directive", Num(*charge_directive)),
                ("discharge_directive", Num(*discharge_directive)),
            ],
            ObsEvent::FaultInjection { description } => vec![("description", Str(description))],
            ObsEvent::SafetyClamp {
                battery,
                flow,
                requested_a,
                applied_a,
            } => vec![
                ("battery", Int(*battery as u64)),
                ("flow", Str(flow.name())),
                ("requested_a", Num(*requested_a)),
                ("applied_a", Num(*applied_a)),
            ],
            ObsEvent::StepSample {
                load_w,
                supplied_w,
                loss_w,
                soc,
                current_a,
            } => vec![
                ("load_w", Num(*load_w)),
                ("supplied_w", Num(*supplied_w)),
                ("loss_w", Num(*loss_w)),
                ("soc", Nums(soc)),
                ("current_a", Nums(current_a)),
            ],
            ObsEvent::BatteryPresence { battery, present } => vec![
                ("battery", Int(*battery as u64)),
                ("present", Bool(*present)),
            ],
            ObsEvent::CommandRetry { attempt, backoff_s } => vec![
                ("attempt", Int(u64::from(*attempt))),
                ("backoff_s", Num(*backoff_s)),
            ],
            ObsEvent::WatchdogTransition { engaged, silent_s } => {
                vec![("engaged", Bool(*engaged)), ("silent_s", Num(*silent_s))]
            }
            ObsEvent::GaugeDegraded {
                battery,
                degraded,
                reason,
            } => vec![
                ("battery", Int(*battery as u64)),
                ("degraded", Bool(*degraded)),
                ("reason", Str(reason)),
            ],
            ObsEvent::PlanCommit {
                discharge_directive,
                horizon_s,
                forecast_mae_w,
            } => vec![
                ("discharge_directive", Num(*discharge_directive)),
                ("horizon_s", Num(*horizon_s)),
                ("forecast_mae_w", Num(*forecast_mae_w)),
            ],
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
    fn kind_and_fields_are_stable() {
        let e = ObsEvent::ThermalThrottle {
            battery: 1,
            engaged: true,
            temperature_c: 45.25,
        };
        assert_eq!(e.kind(), "thermal_throttle");
        assert_eq!(
            e.fields(),
            [
                ("battery", Field::Int(1)),
                ("engaged", Field::Bool(true)),
                ("temperature_c", Field::Num(45.25)),
            ]
        );
    }
}
