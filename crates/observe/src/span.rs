//! Span timing for hot paths.
//!
//! A [`SpanGuard`] measures wall-clock time from creation to drop and
//! records the elapsed nanoseconds into a latency [`Histogram`]. The
//! well-known spans ([`SpanName`]) are pre-registered by the observer so
//! the hot paths never touch the registry lock.

use crate::metrics::Histogram;
use std::time::Instant;

/// Per-step spans time 1 call in `SAMPLE_EVERY` per observer, starting
/// with the first. The phase profiler's sampling gate uses the same rate.
pub const SAMPLE_EVERY: u64 = 128;

/// The instrumented hot paths.
///
/// [`MicroStep`](SpanName::MicroStep), [`PolicyEval`](SpanName::PolicyEval)
/// and [`TraceStep`](SpanName::TraceStep) fire once per simulated step, so
/// timing every call would cost several clock reads per step. They are
/// timed on a 1-in-[`SAMPLE_EVERY`] sample: their histograms' `_count` and
/// `_sum` cover the timed calls only, and exact step counts are in the
/// counters `sdb_micro_steps_total` and `sdb_policy_evals_total`.
/// [`FleetDevice`](SpanName::FleetDevice) is timed on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One `Microcontroller::step` call.
    MicroStep,
    /// One runtime policy evaluation (an `SdbRuntime::tick` that fired).
    PolicyEval,
    /// One `run_trace` inner-loop iteration (tick + step + bookkeeping).
    TraceStep,
    /// One complete device simulation inside a fleet run.
    FleetDevice,
}

impl SpanName {
    /// Every span, in registry order.
    pub const ALL: [SpanName; 4] = [
        SpanName::MicroStep,
        SpanName::PolicyEval,
        SpanName::TraceStep,
        SpanName::FleetDevice,
    ];

    /// Index into the observer's pre-registered histogram table.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SpanName::MicroStep => 0,
            SpanName::PolicyEval => 1,
            SpanName::TraceStep => 2,
            SpanName::FleetDevice => 3,
        }
    }

    /// Whether this span fires once per simulated step and so is timed
    /// on a 1-in-[`SAMPLE_EVERY`] sample rather than on every call.
    pub(crate) fn sampled(self) -> bool {
        !matches!(self, SpanName::FleetDevice)
    }

    /// The histogram metric name this span records into.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            SpanName::MicroStep => "sdb_micro_step_ns",
            SpanName::PolicyEval => "sdb_policy_eval_ns",
            SpanName::TraceStep => "sdb_trace_step_ns",
            SpanName::FleetDevice => "sdb_fleet_device_ns",
        }
    }
}

/// Records elapsed wall-clock nanoseconds into a histogram on drop.
///
/// Owns its histogram handle (an `Arc` clone), so holding a guard never
/// borrows the observer — callers can keep mutating the observed object
/// while the span is open.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Histogram,
    start: Instant,
}

impl SpanGuard {
    /// Starts a span recording into `hist`.
    #[must_use]
    pub fn new(hist: Histogram) -> Self {
        Self {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop() {
        let h = Histogram::new();
        {
            let _g = SpanGuard::new(h.clone());
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() > 0);
    }

    #[test]
    fn span_indices_match_all_order() {
        for (i, s) in SpanName::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
