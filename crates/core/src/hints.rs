//! Route/schedule hints (Section 8's EV direction).
//!
//! "An EV's NAV system could provide the vehicle's route as a hint to the
//! SDB Runtime, which could then decide the appropriate batteries based on
//! traffic, hills, temperature, and other factors." This module implements
//! the hint data structure and its translation into a directive schedule:
//! a timeline of `(from_s, directive, preserve?)` entries the runtime can
//! follow.

use crate::policy::{DischargeDirective, PreservePolicy};

/// Expected power demand over one upcoming segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HintSegment {
    /// Segment duration, seconds.
    pub dur_s: f64,
    /// Expected mean power, watts.
    pub expected_w: f64,
    /// Expected peak power, watts.
    pub(crate) peak_w: f64,
}

/// A route/schedule hint: an ordered list of upcoming segments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouteHint {
    segments: Vec<HintSegment>,
}

impl RouteHint {
    /// An empty hint.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment.
    ///
    /// # Panics
    ///
    /// Panics on non-positive duration or negative powers.
    pub fn push(&mut self, dur_s: f64, expected_w: f64, peak_w: f64) {
        assert!(dur_s > 0.0 && expected_w >= 0.0 && peak_w >= expected_w);
        self.segments.push(HintSegment {
            dur_s,
            expected_w,
            peak_w,
        });
    }

    /// The segments.
    #[must_use]
    pub fn segments(&self) -> &[HintSegment] {
        &self.segments
    }

    /// Compiles the hint into a directive schedule for a pack whose
    /// `efficient`/`inefficient` battery indices and high-power threshold
    /// are given: segments ahead of demanding episodes preserve the
    /// efficient battery; others run loss-optimal.
    #[must_use]
    pub fn compile(
        &self,
        efficient: usize,
        inefficient: usize,
        threshold_w: f64,
    ) -> Vec<ScheduleEntry> {
        let mut out = Vec::with_capacity(self.segments.len());
        let mut t = 0.0;
        for (i, seg) in self.segments.iter().enumerate() {
            // Does any *later* segment need high power?
            let demanding_later = self.segments[i + 1..]
                .iter()
                .any(|s| s.peak_w >= threshold_w);
            let entry = if seg.peak_w >= threshold_w {
                // In the demanding segment itself: spend the efficient
                // battery; that is what it was saved for.
                ScheduleEntry {
                    from_s: t,
                    directive: DischargeDirective::new(1.0),
                    preserve: Some(PreservePolicy::new(efficient, inefficient, threshold_w)),
                }
            } else if demanding_later {
                ScheduleEntry {
                    from_s: t,
                    directive: DischargeDirective::new(0.2),
                    preserve: Some(PreservePolicy::new(efficient, inefficient, threshold_w)),
                }
            } else {
                ScheduleEntry {
                    from_s: t,
                    directive: DischargeDirective::new(1.0),
                    preserve: None,
                }
            };
            out.push(entry);
            t += seg.dur_s;
        }
        out
    }
}

/// One entry of a compiled directive schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleEntry {
    /// Activation time relative to the schedule start, seconds.
    pub from_s: f64,
    /// Discharging directive to apply.
    pub directive: DischargeDirective,
    /// Preserve policy to install (or clear).
    pub preserve: Option<PreservePolicy>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commute_hint() -> RouteHint {
        let mut h = RouteHint::new();
        h.push(1800.0, 10.0, 15.0); // flat city driving
        h.push(600.0, 40.0, 80.0); // steep hill
        h.push(1800.0, 12.0, 18.0); // flat again
        h
    }

    #[test]
    fn hint_accounting() {
        let h = commute_hint();
        assert_eq!(h.segments().len(), 3);
        let total_s: f64 = h.segments().iter().map(|s| s.dur_s).sum();
        assert!((total_s - 4200.0).abs() < 1e-9);
    }

    #[test]
    fn compile_preserves_before_hill_spends_after() {
        let schedule = commute_hint().compile(0, 1, 50.0);
        assert_eq!(schedule.len(), 3);
        assert!(schedule[0].preserve.is_some(), "preserve ahead of the hill");
        assert!(schedule[0].directive.value() < 0.5);
        assert!(
            schedule[1].preserve.is_some(),
            "spend the efficient cell on the hill"
        );
        assert!(schedule[1].directive.value() > 0.9);
        assert!(schedule[2].preserve.is_none(), "nothing demanding later");
    }

    #[test]
    fn entry_lookup() {
        // One entry per segment, starting where the segment starts.
        let schedule = commute_hint().compile(0, 1, 50.0);
        let starts: Vec<f64> = schedule.iter().map(|e| e.from_s).collect();
        assert_eq!(starts, [0.0, 1800.0, 2400.0]);
    }

    #[test]
    #[should_panic(expected = "peak_w >= expected_w")]
    fn rejects_peak_below_mean() {
        let mut h = RouteHint::new();
        h.push(10.0, 5.0, 2.0);
    }
}
