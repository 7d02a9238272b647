//! Flight-recorder observability for the SDB stack.
//!
//! The paper's devices were "instrumented to obtain fine grained (100 Hz)
//! power-draw measurements" (Section 4.3); this crate is the equivalent
//! instrumentation surface for the whole reproduction — the tracing and
//! metrics layer a production battery runtime would ship with:
//!
//! * `metrics` — a zero-dependency registry of exact counters, with
//!   Prometheus-text and JSON exporters (`sdb fleet --metrics-out`).
//! * `events` — the structured event vocabulary, [`ObsEvent`] (ratio
//!   pushes, profile transitions, thermal throttling, gauge
//!   recalibrations, policy evaluations, fault injections, safety clamps),
//!   and the device-tagged capture a capturing observer keeps.
//!
//! Values that change over a run (directives, forecast error) travel in
//! the events, and wall-clock timings in `sdb-prof`'s phase tree (`sdb
//! profile`): the registry holds counts only, so it merges exactly across
//! shards.
//!
//! Everything hangs off an [`Observer`] handle. The default observer is
//! **disabled**: every emit/record call is a branch on a `None` and no
//! event is ever constructed, so instrumented code is zero-cost until an
//! observer is set. An enabled observer records metrics; a
//! [`Observer::capturing`] one also keeps every emitted event.
//!
//! # Example
//!
//! ```
//! use sdb_observe::{ObsEvent, Observer};
//!
//! let obs = Observer::capturing();
//! obs.set_clock(42.0);
//! obs.emit(ObsEvent::BatteryPresence { battery: 0, present: false });
//!
//! let events = obs.drain_events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].t_s, 42.0);
//! println!("{}", obs.registry().unwrap().to_prometheus_text());
//! ```

mod events;
mod metrics;
mod sketch;

use events::TraceCollector;
pub use events::{DeviceEvent, Flow, ObsEvent};
pub use metrics::{json_escape, Counter, MetricsRegistry};
pub use sketch::QuantileSketch;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Shared {
    /// Current simulation time, `f64` bits (stamped onto emitted events).
    clock_bits: AtomicU64,
    /// The event capture of a [`Observer::capturing`] observer.
    events: Option<Mutex<TraceCollector>>,
    registry: MetricsRegistry,
}

/// The handle instrumented code holds: either disabled (the default — all
/// operations are no-ops costing one branch) or attached to a shared
/// registry and, when capturing, an event capture.
///
/// Clones share the same underlying state, so one observer can be threaded
/// through every layer (microcontroller, gauges, runtime, scheduler) and
/// all of them land in the same capture and registry.
#[derive(Clone, Default)]
pub struct Observer {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            None => f.write_str("Observer(disabled)"),
            Some(s) => write!(
                f,
                "Observer(enabled, capturing: {}, {} metrics)",
                s.events.is_some(),
                s.registry.len()
            ),
        }
    }
}

impl Observer {
    /// The disabled observer: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled observer with a fresh registry that captures no events.
    #[must_use]
    pub fn new() -> Self {
        Self::enabled_with(MetricsRegistry::new(), None)
    }

    /// An enabled observer with a fresh registry that also captures every
    /// emitted event, tagged with the device set by
    /// [`Observer::set_device`] (0 until set). Capture is unbounded: take
    /// the events with [`Observer::drain_events`].
    #[must_use]
    pub fn capturing() -> Self {
        Self::enabled_with(MetricsRegistry::new(), Some(Mutex::default()))
    }

    fn enabled_with(registry: MetricsRegistry, events: Option<Mutex<TraceCollector>>) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                clock_bits: AtomicU64::new(0.0_f64.to_bits()),
                events,
                registry,
            })),
        }
    }

    /// Whether this observer records anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether this observer captures events. Code constructing expensive
    /// events (per-step samples with per-battery vectors) should gate on
    /// this; cheap events can just call [`Observer::emit`].
    #[must_use]
    pub fn wants_events(&self) -> bool {
        self.capture().is_some()
    }

    fn capture(&self) -> Option<&Mutex<TraceCollector>> {
        self.shared.as_ref()?.events.as_ref()
    }

    /// Tags subsequently captured events as `device`'s and restarts its
    /// per-device sequence. No-op unless capturing.
    ///
    /// # Panics
    ///
    /// Panics if the capture lock is poisoned.
    pub fn set_device(&self, device: u64) {
        if let Some(c) = self.capture() {
            c.lock()
                .expect("observer capture poisoned")
                .set_device(device);
        }
    }

    /// Removes and returns every event captured so far, in emission order
    /// (empty unless capturing).
    ///
    /// # Panics
    ///
    /// Panics if the capture lock is poisoned.
    #[must_use]
    pub fn drain_events(&self) -> Vec<DeviceEvent> {
        self.capture().map_or_else(Vec::new, |c| {
            c.lock().expect("observer capture poisoned").drain()
        })
    }

    /// Updates the simulation clock used to stamp emitted events. The
    /// emulation step sets this once per step; all layers' events inherit
    /// it.
    pub fn set_clock(&self, t_s: f64) {
        if let Some(s) = &self.shared {
            s.clock_bits.store(t_s.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current simulation clock (0.0 when disabled or never set).
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.shared.as_ref().map_or(0.0, |s| {
            f64::from_bits(s.clock_bits.load(Ordering::Relaxed))
        })
    }

    /// Emits an event stamped with the current simulation clock.
    pub fn emit(&self, event: ObsEvent) {
        let t_s = self.clock_s();
        self.emit_at(t_s, event);
    }

    /// Emits an event stamped with an explicit time.
    ///
    /// # Panics
    ///
    /// Panics if the capture lock is poisoned.
    pub fn emit_at(&self, t_s: f64, event: ObsEvent) {
        if let Some(c) = self.capture() {
            c.lock()
                .expect("observer capture poisoned")
                .record(t_s, event);
        }
    }

    /// Emits a batch of pre-stamped events under a single capture lock,
    /// draining `events` (the vector is cleared but keeps its capacity, so
    /// a caller-owned staging buffer never reallocates at steady state).
    ///
    /// Equivalent to calling [`Observer::emit_at`] once per entry in
    /// order, but the hot loop pays for one lock acquisition per step
    /// instead of one per staged event.
    ///
    /// # Panics
    ///
    /// Panics if the capture lock is poisoned.
    pub fn emit_staged(&self, events: &mut Vec<(f64, ObsEvent)>) {
        if let Some(c) = self.capture() {
            let mut c = c.lock().expect("observer capture poisoned");
            for (t_s, event) in events.drain(..) {
                c.record(t_s, event);
            }
        }
        events.clear();
    }

    /// The metrics registry, when enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.shared.as_ref().map(|s| &s.registry)
    }

    /// Times nothing: a shim kept for the benchmark crate under
    /// `perfbench/`, which still opens these spans. Timings come from the
    /// phase profiler (`sdb profile`). ROADMAP item 3's benchmark change
    /// deletes it, with [`SpanName`] and [`SpanGuard`].
    #[must_use]
    pub fn span(&self, _name: SpanName) -> SpanGuard {
        SpanGuard
    }
}

/// The spans the benchmark crate opens through [`Observer::span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One `run_trace` inner-loop iteration.
    TraceStep,
    /// One complete device simulation inside a fleet run.
    FleetDevice,
}

/// What [`Observer::span`] returns: an empty guard that records nothing.
#[derive(Debug)]
pub struct SpanGuard;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.enabled());
        assert!(!obs.wants_events());
        assert!(obs.registry().is_none());
        obs.set_clock(10.0);
        assert_eq!(obs.clock_s(), 0.0);
        // Emitting into the void must not panic.
        obs.emit(ObsEvent::FaultInjection {
            description: "x".into(),
        });
        obs.set_device(3);
        assert!(obs.drain_events().is_empty());
    }

    #[test]
    fn capturing_observer_stamps_clock_and_device() {
        let metrics_only = Observer::new();
        assert!(metrics_only.enabled());
        assert!(!metrics_only.wants_events());
        metrics_only.emit(ObsEvent::BatteryPresence {
            battery: 0,
            present: true,
        });
        assert!(metrics_only.drain_events().is_empty());

        let obs = Observer::capturing();
        assert!(obs.enabled());
        assert!(obs.wants_events());
        obs.set_clock(5.0);
        obs.emit(ObsEvent::BatteryPresence {
            battery: 0,
            present: true,
        });
        obs.set_device(7);
        obs.emit(ObsEvent::BatteryPresence {
            battery: 1,
            present: false,
        });
        let events = obs.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].device, events[0].seq, events[0].t_s),
            (0, 0, 5.0)
        );
        assert_eq!(
            (events[1].device, events[1].seq, events[1].t_s),
            (7, 0, 5.0)
        );
        assert!(obs.drain_events().is_empty(), "drain empties the capture");
    }

    #[test]
    fn clones_share_state() {
        let obs = Observer::capturing();
        let clone = obs.clone();
        obs.set_clock(2.0);
        obs.emit(ObsEvent::BatteryPresence {
            battery: 1,
            present: false,
        });
        assert_eq!(clone.drain_events().len(), 1);
        assert_eq!(clone.clock_s(), 2.0);
    }

    #[test]
    fn emit_at_overrides_clock() {
        let obs = Observer::capturing();
        obs.set_clock(100.0);
        obs.emit_at(
            7.5,
            ObsEvent::BatteryPresence {
                battery: 0,
                present: true,
            },
        );
        assert_eq!(obs.drain_events()[0].t_s, 7.5);
    }

    #[test]
    fn emit_staged_preserves_order_and_timestamps() {
        let obs = Observer::capturing();
        let mut staged = vec![
            (
                1.0,
                ObsEvent::BatteryPresence {
                    battery: 0,
                    present: true,
                },
            ),
            (
                1.0,
                ObsEvent::BatteryPresence {
                    battery: 1,
                    present: false,
                },
            ),
        ];
        let cap = staged.capacity();
        obs.emit_staged(&mut staged);
        assert!(staged.is_empty());
        assert_eq!(staged.capacity(), cap);
        let dump = obs.drain_events();
        assert_eq!(dump.len(), 2);
        assert_eq!((dump[0].seq, dump[1].seq), (0, 1));
        assert_eq!(dump[0].t_s, 1.0);
        assert!(matches!(
            dump[0].event,
            ObsEvent::BatteryPresence { battery: 0, .. }
        ));
        assert!(matches!(
            dump[1].event,
            ObsEvent::BatteryPresence { battery: 1, .. }
        ));
        // A disabled observer still drains the staging buffer.
        let mut staged = vec![(
            2.0,
            ObsEvent::BatteryPresence {
                battery: 0,
                present: true,
            },
        )];
        Observer::disabled().emit_staged(&mut staged);
        assert!(staged.is_empty());
    }
}
