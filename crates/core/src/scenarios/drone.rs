//! The drone scenario (Section 8's future-work devices).
//!
//! "We are working on additional devices that would benefit from this
//! technology, such as drones, smart glasses, and electric vehicles
//! (EV). Each would require a different combination of battery
//! chemistries." A quadcopter is the sharpest case: climb and gust
//! rejection demand short bursts of very high power, while cruise wants
//! energy density. A pure high-energy pack cannot supply the bursts; a
//! pure high-power pack cannot fly long. SDB mixes the two and routes the
//! bursts to the power cell.

use crate::policy::DischargeDirective;
use crate::runtime::SdbRuntime;
use crate::scheduler::{drive, Hooks, SimOptions, SimResult};
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_workloads::traces::Trace;
use std::ops::ControlFlow;

/// Pack composition for the drone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneConfig {
    /// High-energy (NMC) capacity, amp-hours.
    pub energy_ah: f64,
    /// High-power (LFP) capacity, amp-hours.
    pub power_ah: f64,
}

impl DroneConfig {
    /// Builds a configuration from a *volume* budget (liters) and the
    /// volume fraction given to the high-energy chemistry — airframes are
    /// volume- and mass-constrained, so that is the fair comparison basis
    /// (the paper frames the tablet tradeoff the same way, Section 5.1).
    #[must_use]
    pub fn from_volume(total_l: f64, energy_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&energy_fraction) && total_l > 0.0);
        let e_chem = Chemistry::OtherNmc;
        let p_chem = Chemistry::Type1LfpPower;
        let energy_l = total_l * energy_fraction;
        let power_l = total_l - energy_l;
        Self {
            energy_ah: energy_l * e_chem.energy_density_wh_per_l() / e_chem.nominal_voltage_v(),
            power_ah: power_l * p_chem.energy_density_wh_per_l() / p_chem.nominal_voltage_v(),
        }
    }

    /// The three packs compared at the same volume budget: pure
    /// high-energy, pure high-power, and the SDB mix (60 % energy volume).
    #[must_use]
    pub fn variants(total_l: f64) -> [(&'static str, DroneConfig); 3] {
        [
            ("all-energy", Self::from_volume(total_l, 1.0)),
            ("all-power", Self::from_volume(total_l, 0.0)),
            ("sdb-mix", Self::from_volume(total_l, 0.6)),
        ]
    }

    /// Builds the pack.
    ///
    /// # Panics
    ///
    /// Panics if both capacities are zero.
    #[must_use]
    pub fn build_pack(&self) -> Microcontroller {
        let mut b = PackBuilder::new();
        if self.energy_ah > 0.0 {
            b = b.battery_at(
                BatterySpec::from_chemistry(
                    "drone energy (NMC)",
                    Chemistry::OtherNmc,
                    self.energy_ah,
                ),
                1.0,
                ProfileKind::Standard,
            );
        }
        if self.power_ah > 0.0 {
            b = b.battery_at(
                BatterySpec::from_chemistry(
                    "drone power (LFP)",
                    Chemistry::Type1LfpPower,
                    self.power_ah,
                ),
                1.0,
                ProfileKind::Fast,
            );
        }
        b.build()
    }
}

/// A deterministic flight profile: takeoff climb, cruise legs with gust
/// bursts, and landing. Powers are scaled for a small quadcopter flying on
/// a ~4 Ah pack (cruise ≈ 25 W, bursts ≈ 55 W — beyond what a pure
/// high-energy pack of this size can source).
#[must_use]
pub fn flight_profile(legs: usize) -> Trace {
    let mut t = Trace::new();
    // Takeoff climb: 20 s at burst power.
    t.push(58.0, 0.0, 20.0);
    for _leg in 0..legs {
        // Cruise leg.
        t.push(25.0, 0.0, 120.0);
        // Gust rejection / maneuver burst: a few seconds of peak power.
        t.push(52.0, 0.0, 5.0);
    }
    // Landing: controlled descent.
    t.push(35.0, 0.0, 20.0);
    t
}

/// Outcome of one flight attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightOutcome {
    /// Whether every demanded watt was delivered (a brownout mid-flight is
    /// a crash).
    pub completed: bool,
    /// Time flown before the first brownout (or the full profile), seconds.
    pub flight_time_s: f64,
    /// Total losses, joules.
    pub losses_j: f64,
}

/// Flies the profile on a pack under the loss-optimal (RBL) policy. The
/// first step with more than 1 µW unserved is a crash: its losses count,
/// its time does not.
#[must_use]
pub fn fly(micro: &mut Microcontroller, profile: &Trace) -> FlightOutcome {
    let mut runtime = SdbRuntime::new(micro.battery_count());
    runtime.set_discharge_directive(DischargeDirective::new(1.0));
    runtime.set_update_period(5.0);
    let runs = profile.runs(5.0);
    let mut durations = runs
        .iter()
        .flat_map(|&(p, n)| std::iter::repeat_n(p.dur_s, n));
    let mut outcome = FlightOutcome {
        completed: true,
        flight_time_s: 0.0,
        losses_j: 0.0,
    };
    let _: SimResult = drive(
        micro,
        &mut runtime,
        &runs,
        &SimOptions::default(),
        Hooks::default(),
        |_, _| {},
        |elapsed, _, report| {
            let dur_s = durations.next().expect("one step per point");
            outcome.losses_j += (report.circuit_loss_w + report.cell_heat_w) * dur_s;
            if report.unmet_w > 1e-6 {
                outcome.completed = false;
                return ControlFlow::Break(());
            }
            outcome.flight_time_s = elapsed;
            ControlFlow::Continue(())
        },
    );
    outcome
}

/// Maximum number of cruise legs each configuration completes before a
/// brownout, searching incrementally.
#[must_use]
pub fn max_legs(config: &DroneConfig, cap: usize) -> usize {
    let mut best = 0;
    for legs in 1..=cap {
        let mut micro = config.build_pack();
        if fly(&mut micro, &flight_profile(legs)).completed {
            best = legs;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyInput;

    const VOLUME_L: f64 = 0.03;

    #[test]
    fn pure_energy_pack_cannot_take_off() {
        // The full-volume NMC pack (~4.5 Ah) maxes out around 55 W —
        // below the 58 W climb.
        let (_, cfg) = DroneConfig::variants(VOLUME_L)[0];
        let mut micro = cfg.build_pack();
        let outcome = fly(&mut micro, &flight_profile(2));
        assert!(!outcome.completed, "should brown out in the climb");
        assert!(outcome.flight_time_s < 21.0);
    }

    #[test]
    fn sdb_mix_flies_and_outlasts_pure_power() {
        let variants = DroneConfig::variants(VOLUME_L);
        let mix_legs = max_legs(&variants[2].1, 40);
        let power_legs = max_legs(&variants[1].1, 40);
        assert!(mix_legs > 0, "the mix must fly");
        // The all-power pack also flies (it can always supply bursts)...
        assert!(power_legs > 0);
        // ...but at the same volume the energy-dense mix flies longer.
        assert!(
            mix_legs > power_legs,
            "mix {mix_legs} legs vs power {power_legs} legs"
        );
    }

    #[test]
    fn bursts_route_to_the_power_cell() {
        let (_, cfg) = DroneConfig::variants(VOLUME_L)[2];
        let mut micro = cfg.build_pack();
        let mut runtime = SdbRuntime::new(2);
        runtime.set_discharge_directive(DischargeDirective::new(1.0));
        runtime.set_update_period(1.0);
        // Cruise step to settle ratios, then a burst step.
        let cruise_input = PolicyInput::from_micro(&micro).with_load(25.0);
        runtime.tick(&mut micro, &cruise_input, 2.0).unwrap();
        micro.step(25.0, 0.0, 5.0);
        let burst_input = PolicyInput::from_micro(&micro).with_load(55.0);
        runtime.tick(&mut micro, &burst_input, 2.0).unwrap();
        let report = micro.step(55.0, 0.0, 5.0);
        assert!(report.unmet_w < 1e-6, "burst must be served");
        // The ~1.1 Ah LFP cell carries an outsized share for its size: its
        // power far exceeds its capacity-proportional ~30 %.
        let p_power = report.batteries[1].current_a * report.batteries[1].terminal_v;
        assert!(
            p_power > 0.35 * 55.0,
            "power cell carried only {p_power} W of the burst"
        );
    }

    #[test]
    fn flight_profile_shape() {
        let t = flight_profile(5);
        assert!(t.peak_load_w() >= 55.0);
        assert!(t.mean_load_w() > 22.0 && t.mean_load_w() < 40.0);
        assert!((t.duration_s() - (20.0 + 5.0 * 125.0 + 20.0)).abs() < 1e-9);
    }
}
