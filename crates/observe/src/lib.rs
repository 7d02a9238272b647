//! Flight-recorder observability for the SDB stack.
//!
//! The paper's devices were "instrumented to obtain fine grained (100 Hz)
//! power-draw measurements" (Section 4.3); this crate is the equivalent
//! instrumentation surface for the whole reproduction — the tracing and
//! metrics layer a production battery runtime would ship with:
//!
//! * [`metrics`] — a zero-dependency registry of counters, gauges, and
//!   log-scale-bucket histograms, with Prometheus-text and JSON exporters.
//! * [`events`] — the structured event bus: the [`ObsEvent`] vocabulary
//!   (ratio pushes, profile transitions, thermal throttling, gauge
//!   recalibrations, policy evaluations, fault injections, safety clamps),
//!   pluggable [`EventSink`]s, and the bounded [`FlightRecorder`] ring
//!   buffer.
//! * [`span`] — drop-guard span timing for the hot paths, feeding latency
//!   histograms.
//!
//! Everything hangs off an [`Observer`] handle. The default observer is
//! **disabled**: every emit/record call is a branch on a `None` and no
//! event is ever constructed, so instrumented code is zero-cost until a
//! sink or registry is attached.
//!
//! # Example
//!
//! ```
//! use sdb_observe::{FlightRecorder, ObsEvent, Observer};
//!
//! let obs = Observer::new();
//! let recorder = FlightRecorder::shared(256);
//! obs.add_sink(Box::new(recorder.clone()));
//!
//! obs.set_clock(42.0);
//! obs.emit(ObsEvent::BatteryPresence { battery: 0, present: false });
//!
//! let dump = recorder.lock().unwrap().dump();
//! assert_eq!(dump.len(), 1);
//! assert_eq!(dump[0].t_s, 42.0);
//! println!("{}", obs.registry().unwrap().to_prometheus_text());
//! ```

pub mod events;
pub mod metrics;
pub mod sketch;
pub mod span;

pub use events::{
    DeviceEvent, EventSink, FlightRecorder, Flow, ObsEvent, TimedEvent, TraceCollector,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use sketch::QuantileSketch;
pub use span::{SpanGuard, SpanName, SAMPLE_EVERY};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

struct Shared {
    /// Current simulation time, `f64` bits (stamped onto emitted events).
    clock_bits: AtomicU64,
    /// Cached sink count so `wants_events` never takes the lock.
    sink_count: AtomicUsize,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    registry: MetricsRegistry,
    /// Pre-registered latency histograms, indexed by [`SpanName::index`].
    spans: [Histogram; SpanName::ALL.len()],
    /// Calls per span, indexed like `spans`: the sampling gate.
    span_calls: [AtomicU64; SpanName::ALL.len()],
}

/// The handle instrumented code holds: either disabled (the default — all
/// operations are no-ops costing one branch) or attached to a shared
/// registry + sink set.
///
/// Clones share the same underlying state, so one observer can be threaded
/// through every layer (microcontroller, gauges, runtime, scheduler) and
/// all of them land in the same flight recorder and registry.
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
                "Observer(enabled, {} sinks, {} metrics)",
                s.sink_count.load(Ordering::Relaxed),
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

    /// An enabled observer with a fresh registry and no sinks.
    #[must_use]
    pub fn new() -> Self {
        Self::with_registry(MetricsRegistry::new())
    }

    /// An enabled observer recording metrics into `registry`.
    #[must_use]
    pub fn with_registry(registry: MetricsRegistry) -> Self {
        let spans = SpanName::ALL.map(|s| registry.histogram(s.metric_name(), &[]));
        Self {
            shared: Some(Arc::new(Shared {
                clock_bits: AtomicU64::new(0.0_f64.to_bits()),
                sink_count: AtomicUsize::new(0),
                sinks: Mutex::new(Vec::new()),
                registry,
                spans,
                span_calls: SpanName::ALL.map(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// Whether this observer records anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether at least one event sink is attached. Code constructing
    /// expensive events (per-step samples with per-battery vectors) should
    /// gate on this; cheap events can just call [`Observer::emit`].
    #[must_use]
    pub fn wants_events(&self) -> bool {
        self.shared
            .as_ref()
            .is_some_and(|s| s.sink_count.load(Ordering::Relaxed) > 0)
    }

    /// Attaches an event sink. No-op on a disabled observer.
    ///
    /// # Panics
    ///
    /// Panics if the sink lock is poisoned.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(s) = &self.shared {
            s.sinks.lock().expect("observer sinks poisoned").push(sink);
            s.sink_count.fetch_add(1, Ordering::Relaxed);
        }
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
    /// Panics if the sink lock is poisoned.
    pub fn emit_at(&self, t_s: f64, event: ObsEvent) {
        if let Some(s) = &self.shared {
            if s.sink_count.load(Ordering::Relaxed) == 0 {
                return;
            }
            let mut sinks = s.sinks.lock().expect("observer sinks poisoned");
            for sink in sinks.iter_mut() {
                sink.record(t_s, &event);
            }
        }
    }

    /// Emits a batch of pre-stamped events under a single sink lock,
    /// draining `events` (the vector is cleared but keeps its capacity, so
    /// a caller-owned staging buffer never reallocates at steady state).
    ///
    /// Equivalent to calling [`Observer::emit_at`] once per entry in
    /// order, but the hot loop pays for one lock acquisition per step
    /// instead of one per staged event.
    ///
    /// # Panics
    ///
    /// Panics if the sink lock is poisoned.
    pub fn emit_staged(&self, events: &mut Vec<(f64, ObsEvent)>) {
        if let Some(s) = &self.shared {
            if s.sink_count.load(Ordering::Relaxed) > 0 {
                let mut sinks = s.sinks.lock().expect("observer sinks poisoned");
                for (t_s, event) in events.iter() {
                    for sink in sinks.iter_mut() {
                        sink.record(*t_s, event);
                    }
                }
            }
        }
        events.clear();
    }

    /// The metrics registry, when enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.shared.as_ref().map(|s| &s.registry)
    }

    /// Starts a latency span for a well-known hot path; the guard records
    /// on drop. Per-step spans (see [`SpanName`]) are timed on 1 call in
    /// [`SAMPLE_EVERY`] per observer, the first included, so their
    /// histograms hold a sample; exact step counts are in the counters.
    /// Returns `None` (no timing, no clock read) when disabled or when the
    /// call falls outside the sample.
    #[must_use]
    pub fn span(&self, name: SpanName) -> Option<SpanGuard> {
        let s = self.shared.as_ref()?;
        let i = name.index();
        // `Relaxed`: the count only picks which calls are timed and
        // publishes no other data.
        if name.sampled() && s.span_calls[i].fetch_add(1, Ordering::Relaxed) % SAMPLE_EVERY != 0 {
            return None;
        }
        Some(SpanGuard::new(s.spans[i].clone()))
    }
}

static GLOBAL: OnceLock<Observer> = OnceLock::new();

/// Installs the process-global observer. Objects created afterwards
/// (microcontrollers, runtimes) default to it, so a binary can turn on
/// observability for everything it constructs with one call. Returns
/// `false` if a global observer was already installed (the original
/// stays).
pub fn install_global(observer: Observer) -> bool {
    GLOBAL.set(observer).is_ok()
}

/// The process-global observer: the installed one, or the disabled
/// default. Cloning is cheap (an `Option<Arc>` clone).
#[must_use]
pub fn global() -> Observer {
    GLOBAL.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.enabled());
        assert!(!obs.wants_events());
        assert!(obs.registry().is_none());
        assert!(obs.span(SpanName::MicroStep).is_none());
        obs.set_clock(10.0);
        assert_eq!(obs.clock_s(), 0.0);
        // Emitting into the void must not panic.
        obs.emit(ObsEvent::FaultInjection {
            description: "x".into(),
        });
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let obs = Observer::new();
        assert!(obs.enabled());
        assert!(!obs.wants_events());
        let a = FlightRecorder::shared(8);
        let b = FlightRecorder::shared(8);
        obs.add_sink(Box::new(a.clone()));
        obs.add_sink(Box::new(b.clone()));
        assert!(obs.wants_events());
        obs.set_clock(5.0);
        obs.emit(ObsEvent::BatteryPresence {
            battery: 0,
            present: true,
        });
        assert_eq!(a.lock().unwrap().len(), 1);
        assert_eq!(b.lock().unwrap().len(), 1);
        assert_eq!(a.lock().unwrap().dump()[0].t_s, 5.0);
    }

    #[test]
    fn spans_record_into_named_histograms() {
        let obs = Observer::new();
        drop(obs.span(SpanName::PolicyEval));
        let text = obs.registry().unwrap().to_prometheus_text();
        assert!(text.contains("sdb_policy_eval_ns_count 1"));
        assert!(text.contains("sdb_micro_step_ns_count 0"));
    }

    #[test]
    fn per_step_spans_time_one_call_in_sample_every() {
        let obs = Observer::new();
        for _ in 0..2 * SAMPLE_EVERY + 1 {
            drop(obs.span(SpanName::MicroStep));
            drop(obs.span(SpanName::FleetDevice));
        }
        // A second observer keeps its own gate.
        drop(Observer::with_registry(obs.registry().unwrap().clone()).span(SpanName::MicroStep));
        let text = obs.registry().unwrap().to_prometheus_text();
        assert!(text.contains("sdb_micro_step_ns_count 4"), "{text}");
        assert!(text.contains("sdb_fleet_device_ns_count 257"), "{text}");
    }

    #[test]
    fn clones_share_state() {
        let obs = Observer::new();
        let clone = obs.clone();
        let rec = FlightRecorder::shared(8);
        clone.add_sink(Box::new(rec.clone()));
        obs.set_clock(2.0);
        obs.emit(ObsEvent::BatteryPresence {
            battery: 1,
            present: false,
        });
        assert_eq!(rec.lock().unwrap().len(), 1);
        assert_eq!(clone.clock_s(), 2.0);
    }

    #[test]
    fn emit_at_overrides_clock() {
        let obs = Observer::new();
        let rec = FlightRecorder::shared(8);
        obs.add_sink(Box::new(rec.clone()));
        obs.set_clock(100.0);
        obs.emit_at(
            7.5,
            ObsEvent::BatteryPresence {
                battery: 0,
                present: true,
            },
        );
        assert_eq!(rec.lock().unwrap().dump()[0].t_s, 7.5);
    }

    #[test]
    fn emit_staged_preserves_order_and_timestamps() {
        let obs = Observer::new();
        let rec = FlightRecorder::shared(8);
        obs.add_sink(Box::new(rec.clone()));
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
        let dump = rec.lock().unwrap().dump();
        assert_eq!(dump.len(), 2);
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

    #[test]
    fn global_defaults_to_disabled() {
        // Note: other tests in this process must not install a global,
        // so this asserts only the unset behavior contractually.
        let g = global();
        let _ = g.enabled();
    }
}
