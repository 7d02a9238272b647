//! The structured event bus: event vocabulary, sinks, and the
//! flight-recorder ring buffer.
//!
//! Every layer of the SDB stack emits [`ObsEvent`]s through an
//! [`crate::Observer`]; attached [`EventSink`]s receive them with a
//! simulation-time stamp. The [`FlightRecorder`] keeps the last N events
//! in a bounded ring for post-mortem dumps.

use std::fmt;
use std::sync::{Arc, Mutex};

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
    /// A battery's charging profile changed (dynamic profile selection).
    ProfileTransition {
        /// Battery index.
        battery: usize,
        /// Previous profile name.
        from: &'static str,
        /// New profile name.
        to: &'static str,
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
            ObsEvent::ProfileTransition { battery, from, to } => {
                write!(f, "profile-transition battery={battery} {from}->{to}")
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

/// An event with its simulation-time stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulation time of the event, seconds.
    pub t_s: f64,
    /// The event.
    pub event: ObsEvent,
}

/// A consumer of timed events.
pub trait EventSink: Send {
    /// Receives one event stamped with simulation time `t_s`.
    fn record(&mut self, t_s: f64, event: &ObsEvent);
}

/// Shared-sink adapter: lets the caller keep a handle to a sink (to dump
/// it later) while the observer owns another.
impl<S: EventSink> EventSink for Arc<Mutex<S>> {
    fn record(&mut self, t_s: f64, event: &ObsEvent) {
        if let Ok(mut sink) = self.lock() {
            sink.record(t_s, event);
        }
    }
}

/// A bounded ring buffer of the most recent events, for post-mortem dumps.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<TimedEvent>,
    capacity: usize,
    /// Index the next event will be written at.
    next: usize,
    /// Total events ever recorded (≥ `ring.len()`).
    total: u64,
    /// Incremented on every ring overwrite, so overflow is visible in the
    /// metrics registry instead of silently losing history.
    drop_counter: Option<crate::metrics::Counter>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity > 0");
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total: 0,
            drop_counter: None,
        }
    }

    /// A recorder wrapped for sharing between the observer and the caller:
    /// attach a clone via [`crate::Observer::add_sink`], keep the original
    /// to [`FlightRecorder::dump`] later.
    #[must_use]
    pub fn shared(capacity: usize) -> Arc<Mutex<FlightRecorder>> {
        Arc::new(Mutex::new(Self::new(capacity)))
    }

    /// A shared recorder whose ring overwrites increment
    /// `sdb_dropped_events_total` in `registry`. Overflow was historically
    /// silent (only visible by polling [`FlightRecorder::overwritten`]);
    /// the counter puts event loss on the ordinary metrics scrape path so
    /// dashboards and smoke tests can assert it stays zero.
    #[must_use]
    pub fn shared_with_registry(
        capacity: usize,
        registry: &crate::metrics::MetricsRegistry,
    ) -> Arc<Mutex<FlightRecorder>> {
        let mut recorder = Self::new(capacity);
        recorder.drop_counter = Some(registry.counter("sdb_dropped_events_total", &[]));
        Arc::new(Mutex::new(recorder))
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to ring overwrites.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn dump(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() < self.capacity {
            out.extend_from_slice(&self.ring);
        } else {
            out.extend_from_slice(&self.ring[self.next..]);
            out.extend_from_slice(&self.ring[..self.next]);
        }
        out
    }

    /// Renders the retained events as text, one `[t] event` line per
    /// event, oldest first.
    #[must_use]
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.dump() {
            let _ = writeln!(out, "[{:10.1}s] {}", e.t_s, e.event);
        }
        out
    }
}

impl EventSink for FlightRecorder {
    fn record(&mut self, t_s: f64, event: &ObsEvent) {
        let entry = TimedEvent {
            t_s,
            event: event.clone(),
        };
        if self.ring.len() < self.capacity {
            self.ring.push(entry);
        } else {
            self.ring[self.next] = entry;
            if let Some(c) = &self.drop_counter {
                c.inc();
            }
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
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

/// An unbounded capturing sink that tags every event with the device
/// currently being simulated. A fleet shard attaches one collector to its
/// observer and calls [`TraceCollector::set_device`] before each device
/// run; devices within a shard run sequentially, so the tag is always
/// right. The collected entries from all shards, sorted by
/// `(device, seq)`, form a deterministic fleet trace regardless of how
/// devices were distributed across threads.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    device: u64,
    next_seq: u64,
    entries: Vec<DeviceEvent>,
}

impl TraceCollector {
    /// An empty collector tagging events as device 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector wrapped for sharing: attach a clone via
    /// [`crate::Observer::add_sink`], keep the original to drain later.
    #[must_use]
    pub fn shared() -> Arc<Mutex<TraceCollector>> {
        Arc::new(Mutex::new(Self::new()))
    }

    /// Switches the device tag for subsequently recorded events and
    /// restarts the per-device sequence counter.
    pub fn set_device(&mut self, device: u64) {
        self.device = device;
        self.next_seq = 0;
    }

    /// Number of captured events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes and returns everything captured so far.
    pub fn drain(&mut self) -> Vec<DeviceEvent> {
        std::mem::take(&mut self.entries)
    }
}

impl EventSink for TraceCollector {
    fn record(&mut self, t_s: f64, event: &ObsEvent) {
        self.entries.push(DeviceEvent {
            device: self.device,
            seq: self.next_seq,
            t_s,
            event: event.clone(),
        });
        self.next_seq += 1;
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
    fn ring_fills_then_wraps() {
        let mut r = FlightRecorder::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.record(i as f64, &ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.total_recorded(), 5);
        assert_eq!(r.overwritten(), 2);
        // Oldest-first dump: events 2, 3, 4 survive.
        let dump = r.dump();
        let times: Vec<f64> = dump.iter().map(|e| e.t_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
        assert_eq!(dump[0].event, ev(2));
    }

    #[test]
    fn partial_ring_dumps_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..3 {
            r.record(i as f64, &ev(i));
        }
        let times: Vec<f64> = r.dump().iter().map(|e| e.t_s).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0]);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn wrap_exactly_at_capacity_boundary() {
        let mut r = FlightRecorder::new(4);
        for i in 0..4 {
            r.record(i as f64, &ev(i));
        }
        // Full but not yet overwritten: dump starts at 0.
        assert_eq!(r.dump()[0].t_s, 0.0);
        r.record(4.0, &ev(4));
        // One overwrite: dump starts at 1.
        let times: Vec<f64> = r.dump().iter().map(|e| e.t_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn overflow_increments_the_drop_counter() {
        let reg = crate::metrics::MetricsRegistry::new();
        let shared = FlightRecorder::shared_with_registry(2, &reg);
        let dropped = reg.counter("sdb_dropped_events_total", &[]);
        {
            let mut r = shared.lock().unwrap();
            r.record(0.0, &ev(0));
            r.record(1.0, &ev(1));
            assert_eq!(dropped.get(), 0, "no overflow while the ring has room");
            r.record(2.0, &ev(2));
            r.record(3.0, &ev(3));
            assert_eq!(dropped.get(), 2);
            assert_eq!(r.overwritten(), 2);
        }
        assert!(reg
            .to_prometheus_text()
            .contains("sdb_dropped_events_total 2\n"));
    }

    #[test]
    fn shared_sink_records_through_arc() {
        let shared = FlightRecorder::shared(4);
        let mut handle = shared.clone();
        handle.record(1.0, &ev(0));
        assert_eq!(shared.lock().unwrap().len(), 1);
    }

    #[test]
    fn dump_text_is_line_per_event() {
        let mut r = FlightRecorder::new(4);
        r.record(0.5, &ev(1));
        r.record(
            60.0,
            &ObsEvent::RatioPush {
                flow: Flow::Discharge,
                ratios: vec![0.3, 0.7],
            },
        );
        let text = r.dump_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("ratio-push discharge"));
    }

    #[test]
    fn trace_collector_tags_device_and_seq() {
        let mut c = TraceCollector::new();
        c.set_device(3);
        c.record(1.0, &ev(0));
        c.record(2.0, &ev(1));
        c.set_device(9);
        c.record(0.5, &ev(2));
        let entries = c.drain();
        assert!(c.is_empty());
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
