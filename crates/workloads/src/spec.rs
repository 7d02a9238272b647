//! Declarative workloads, and the named workload catalog.
//!
//! A [`WorkloadSpec`] names a trace family; [`WorkloadSpec::build`]
//! materializes one device's trace from its private seed. The catalog
//! ([`WorkloadSpec::catalog`]) is the set of traces the `sdb` CLI lists
//! and runs by name.

use crate::device::Activity;
use crate::traces::{phone_day, tablet_session, watch_day, Trace};
use std::sync::Arc;

/// A workload family. Seeded families draw the device's private seed, so
/// two devices live different days; [`WorkloadSpec::Shared`] replays one
/// `Arc`'d trace on every device (built once).
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Every device replays the same trace.
    Shared(Arc<Trace>),
    /// The Figure 13 watch day, seeded per device.
    WatchDay {
        /// Hour of the one-hour GPS run (`None` = no run).
        run_hour: Option<f64>,
    },
    /// The smartphone day, seeded per device.
    PhoneDay,
    /// A tablet mixed-activity session, seeded per device.
    TabletMixed {
        /// Seconds per activity segment.
        segment_s: f64,
        /// Total session length, seconds.
        total_s: f64,
    },
    /// Any workload clipped to a maximum duration (the last segment is
    /// shortened to land exactly on the boundary).
    Truncated {
        /// The workload being clipped.
        inner: Box<WorkloadSpec>,
        /// Maximum trace duration, seconds.
        max_s: f64,
    },
}

/// The named workload catalog, in listing order: name, description, spec.
const CATALOG: [(&str, &str, WorkloadSpec); 4] = [
    (
        "watch-day",
        "24 h watch day with an hour-9 GPS run (Figure 13)",
        WorkloadSpec::WatchDay {
            run_hour: Some(9.0),
        },
    ),
    (
        "watch-day-norun",
        "the same day without the run",
        WorkloadSpec::WatchDay { run_hour: None },
    ),
    (
        "phone-day",
        "24 h smartphone day (commute navigation, streaming)",
        WorkloadSpec::PhoneDay,
    ),
    (
        "tablet-mixed",
        "4 h tablet session mixing network and compute",
        WorkloadSpec::TabletMixed {
            segment_s: 300.0,
            total_s: 4.0 * 3600.0,
        },
    ),
];

impl WorkloadSpec {
    /// The named catalog as `(name, description)` pairs, in listing order.
    pub fn catalog() -> impl Iterator<Item = (&'static str, &'static str)> {
        CATALOG.iter().map(|(name, about, _)| (*name, *about))
    }

    /// The catalog workload `name`, or `None` for a name not in
    /// [`WorkloadSpec::catalog`].
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        CATALOG
            .into_iter()
            .find_map(|(n, _, spec)| (n == name).then_some(spec))
    }

    /// Materializes the trace for one device. `seed` is the device's
    /// private stream seed.
    #[must_use]
    pub fn build(&self, seed: u64) -> Arc<Trace> {
        match self {
            WorkloadSpec::Shared(t) => Arc::clone(t),
            WorkloadSpec::WatchDay { run_hour } => Arc::new(watch_day(seed, *run_hour)),
            WorkloadSpec::PhoneDay => Arc::new(phone_day(seed)),
            WorkloadSpec::TabletMixed { segment_s, total_s } => Arc::new(tablet_session(
                seed,
                &[Activity::Network, Activity::Compute, Activity::Interactive],
                *segment_s,
                *total_s,
            )),
            WorkloadSpec::Truncated { inner, max_s } => {
                let full = inner.build(seed);
                if full.duration_s() <= *max_s {
                    return full;
                }
                let mut clipped = Trace::new();
                let mut remaining = *max_s;
                for p in full.points() {
                    if remaining <= 0.0 {
                        break;
                    }
                    let dur = p.dur_s.min(remaining);
                    clipped.push(p.load_w, p.external_w, dur);
                    remaining -= dur;
                }
                Arc::new(clipped)
            }
        }
    }

    /// Whether [`WorkloadSpec::build`] reads its seed. When it does not,
    /// every seed builds the same trace.
    #[must_use]
    pub fn reads_seed(&self) -> bool {
        match self {
            WorkloadSpec::Shared(_) => false,
            WorkloadSpec::WatchDay { .. }
            | WorkloadSpec::PhoneDay
            | WorkloadSpec::TabletMixed { .. } => true,
            WorkloadSpec::Truncated { inner, .. } => inner.reads_seed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_workload_ignores_its_seed_exactly_when_it_does_not_read_it() {
        let shared = WorkloadSpec::Shared(Arc::new(Trace::constant(0.05, 3600.0)));
        for w in [
            shared,
            WorkloadSpec::WatchDay {
                run_hour: Some(9.0),
            },
            WorkloadSpec::PhoneDay,
            WorkloadSpec::TabletMixed {
                segment_s: 300.0,
                total_s: 3600.0,
            },
        ] {
            assert_eq!(w.reads_seed(), w.build(1) != w.build(2), "{w:?}");
            let clipped = WorkloadSpec::Truncated {
                inner: Box::new(w.clone()),
                max_s: 1800.0,
            };
            assert_eq!(clipped.reads_seed(), w.reads_seed(), "{w:?}");
            if !clipped.reads_seed() {
                assert_eq!(clipped.build(1), clipped.build(2));
            }
        }
    }

    #[test]
    fn every_catalog_workload_builds_a_seeded_trace() {
        let names: Vec<&str> = WorkloadSpec::catalog().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            ["watch-day", "watch-day-norun", "phone-day", "tablet-mixed"]
        );
        for name in names {
            let w = WorkloadSpec::named(name).unwrap();
            assert!(w.reads_seed(), "{name}");
            assert!(w.build(7).duration_s() >= 4.0 * 3600.0 - 1e-6, "{name}");
        }
        assert!(WorkloadSpec::named("moon-day").is_none());
    }

    #[test]
    fn shared_workload_reuses_the_trace() {
        let t = Arc::new(Trace::constant(2.0, 600.0));
        let w = WorkloadSpec::Shared(Arc::clone(&t));
        let a = w.build(1);
        let b = w.build(2);
        assert!(Arc::ptr_eq(&a, &b), "shared traces must not be rebuilt");
    }

    #[test]
    fn seeded_workloads_differ_per_device() {
        let w = WorkloadSpec::WatchDay {
            run_hour: Some(9.0),
        };
        let a = w.build(1);
        let b = w.build(2);
        assert_ne!(a.points(), b.points());
    }

    #[test]
    fn truncation_clips_to_the_hour_boundary() {
        let w = WorkloadSpec::Truncated {
            inner: Box::new(WorkloadSpec::WatchDay {
                run_hour: Some(9.0),
            }),
            max_s: 2.0 * 3600.0,
        };
        let t = w.build(5);
        assert!(
            (t.duration_s() - 7200.0).abs() < 1e-9,
            "got {}",
            t.duration_s()
        );
        // A bound longer than the day leaves the trace untouched.
        let w = WorkloadSpec::Truncated {
            inner: Box::new(WorkloadSpec::WatchDay {
                run_hour: Some(9.0),
            }),
            max_s: 100.0 * 3600.0,
        };
        assert!((w.build(5).duration_s() - 24.0 * 3600.0).abs() < 1e-6);
    }
}
