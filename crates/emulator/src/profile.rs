//! Charging profiles.
//!
//! "An example charging profile looks like: the battery is charged at a
//! constant high current until SoC reaches 80 % ..., and the charging is
//! limited to a trickle charge or low current after" (Section 2.2). SDB
//! instruments each regulator with *multiple* charging profiles
//! (Section 3.2.2). Here a pack template fixes each slot's profile, and
//! the firmware's thermal throttle derates it while a cell runs hot.

use sdb_battery_model::spec::BatterySpec;

/// Named profile classes a pack slot can be built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// Standard CC-CV: rated charge current to 80 %, tapering after.
    Standard,
    /// As fast as the chemistry allows: max charge current to 80 %, then an
    /// aggressive taper. Costs longevity (Table 2).
    Fast,
    /// Longevity-preserving: reduced current, early taper. For overnight
    /// charging.
    Gentle,
}

/// A piecewise-constant-current charging profile with a CV taper.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargingProfile {
    /// Profile class.
    pub(crate) kind: ProfileKind,
    /// Constant-current phase current, amps.
    pub cc_current_a: f64,
    /// SoC at which the taper begins.
    pub(crate) taper_start_soc: f64,
    /// Current floor at 100 % SoC (trickle), amps.
    pub(crate) trickle_a: f64,
}

impl ChargingProfile {
    /// Builds the given profile class for a cell spec.
    #[must_use]
    pub fn for_spec(kind: ProfileKind, spec: &BatterySpec) -> Self {
        match kind {
            ProfileKind::Standard => Self {
                kind,
                cc_current_a: 0.7 * spec.max_charge_a,
                taper_start_soc: 0.80,
                trickle_a: 0.05 * spec.max_charge_a,
            },
            ProfileKind::Fast => Self {
                kind,
                cc_current_a: spec.max_charge_a,
                taper_start_soc: 0.80,
                trickle_a: 0.08 * spec.max_charge_a,
            },
            ProfileKind::Gentle => Self {
                kind,
                cc_current_a: 0.4 * spec.max_charge_a,
                taper_start_soc: 0.70,
                trickle_a: 0.03 * spec.max_charge_a,
            },
        }
    }

    /// The charge current the profile allows at `soc` (amps, as a positive
    /// magnitude). Linear taper from the CC current down to the trickle
    /// current between `taper_start_soc` and 1.0.
    #[must_use]
    pub(crate) fn current_at(&self, soc: f64) -> f64 {
        let soc = soc.clamp(0.0, 1.0);
        if soc < self.taper_start_soc {
            self.cc_current_a
        } else {
            let span = (1.0 - self.taper_start_soc).max(f64::EPSILON);
            let t = (soc - self.taper_start_soc) / span;
            self.cc_current_a + (self.trickle_a - self.cc_current_a) * t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;

    fn spec() -> BatterySpec {
        BatterySpec::from_chemistry("p", Chemistry::Type2CoStandard, 2.0)
    }

    #[test]
    fn cc_phase_constant_then_tapers() {
        let p = ChargingProfile::for_spec(ProfileKind::Standard, &spec());
        assert_eq!(p.current_at(0.1), p.current_at(0.79));
        assert!(p.current_at(0.9) < p.current_at(0.79));
        assert!((p.current_at(1.0) - p.trickle_a).abs() < 1e-12);
    }

    #[test]
    fn fast_beats_standard_beats_gentle() {
        let s = spec();
        let fast = ChargingProfile::for_spec(ProfileKind::Fast, &s);
        let std = ChargingProfile::for_spec(ProfileKind::Standard, &s);
        let gentle = ChargingProfile::for_spec(ProfileKind::Gentle, &s);
        assert!(fast.cc_current_a > std.cc_current_a);
        assert!(std.cc_current_a > gentle.cc_current_a);
    }

    #[test]
    fn charge_never_exceeds_cell_limit() {
        let s = spec();
        for kind in [
            ProfileKind::Standard,
            ProfileKind::Fast,
            ProfileKind::Gentle,
        ] {
            let p = ChargingProfile::for_spec(kind, &s);
            for k in 0..=10 {
                let soc = k as f64 / 10.0;
                assert!(p.current_at(soc) <= s.max_charge_a + 1e-12);
            }
        }
    }

    #[test]
    fn fast_charge_cell_charges_much_faster() {
        // The Figure 11b premise: a Type 3 cell under its fast profile
        // reaches 50 % far sooner than a Type 2 under its standard profile:
        // both are still in constant current there, so more than 2.5x the
        // current is more than 2.5x sooner.
        let fast_cell = BatterySpec::from_chemistry("f", Chemistry::Type3CoPower, 4.0);
        let std_cell = BatterySpec::from_chemistry("s", Chemistry::Type2CoStandard, 4.0);
        let fast = ChargingProfile::for_spec(ProfileKind::Fast, &fast_cell);
        let std = ChargingProfile::for_spec(ProfileKind::Standard, &std_cell);
        assert!(fast.taper_start_soc > 0.5 && std.taper_start_soc > 0.5);
        assert!(
            fast.cc_current_a > 2.5 * std.cc_current_a,
            "fast {} A vs std {} A",
            fast.cc_current_a,
            std.cc_current_a
        );
    }
}
