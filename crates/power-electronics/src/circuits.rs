//! Discharge and charge circuit topologies.
//!
//! Section 3.2 contrasts naive multi-battery circuits (Figure 4a/4b) with
//! the SDB designs (Figure 4c):
//!
//! * **Discharge**: the naive circuit puts an electronic switch and storage
//!   capacitor in the high-current path; SDB folds the battery switch into
//!   the regulator's own switch, removing the series component.
//! * **Charge**: the naive circuit needs `N` buck regulators (external
//!   charging) plus a buck-boost per ordered battery pair — `O(N²)`
//!   regulators; SDB uses `N` synchronous reversible bucks — `O(N)`.
//!
//! The prototype's measured discharge loss (Figure 6a) is reproduced by
//! [`DischargeCircuit::loss_fraction`].

use crate::error::PowerError;
use crate::regulator::{FlowDirection, Regulator, RegulatorKind};
use crate::switch::SwitchPath;

/// Discharge-side topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DischargeTopology {
    /// Figure 4(a): discrete electronic switch + smoothing capacitor in
    /// series with the load (also the measured prototype's ideal-diode
    /// switch, Section 4.1).
    NaiveSwitch,
    /// Figure 4(c): switching integrated into the regulator; no extra
    /// series component.
    SdbIntegrated,
}

/// A discharge circuit serving one system load from `n` batteries.
#[derive(Debug, Clone, PartialEq)]
pub struct DischargeCircuit {
    /// Topology.
    pub(crate) topology: DischargeTopology,
    /// Number of batteries multiplexed.
    pub(crate) batteries: usize,
    /// Per-battery conduction path.
    path: SwitchPath,
    /// Controller/driver quiescent power, watts.
    quiescent_w: f64,
}

impl DischargeCircuit {
    /// Builds a discharge circuit over `batteries` cells.
    ///
    /// # Panics
    ///
    /// Panics if `batteries` is zero.
    #[must_use]
    pub fn new(topology: DischargeTopology, batteries: usize) -> Self {
        assert!(batteries > 0, "need at least one battery");
        let (path, quiescent_w) = match topology {
            DischargeTopology::NaiveSwitch => (SwitchPath::prototype(), 0.0007),
            DischargeTopology::SdbIntegrated => (SwitchPath::integrated(), 0.0004),
        };
        Self {
            topology,
            batteries,
            path,
            quiescent_w,
        }
    }

    /// Power lost in the circuit when supplying `load_w` watts from a
    /// battery at `v_batt` volts.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for non-positive voltage or
    /// negative/non-finite load.
    pub fn loss_w(&self, load_w: f64, v_batt: f64) -> Result<f64, PowerError> {
        if !v_batt.is_finite() || v_batt <= 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "v_batt",
                value: v_batt,
            });
        }
        if !load_w.is_finite() || load_w < 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "load_w",
                value: load_w,
            });
        }
        let current = load_w / v_batt;
        Ok(self.quiescent_w + self.path.loss_w(current))
    }

    /// Loss as a fraction of the load — the Figure 6(a) quantity.
    ///
    /// # Errors
    ///
    /// As [`DischargeCircuit::loss_w`]; zero load returns 0.
    pub fn loss_fraction(&self, load_w: f64, v_batt: f64) -> Result<f64, PowerError> {
        let loss = self.loss_w(load_w, v_batt)?;
        if load_w <= 0.0 {
            return Ok(0.0);
        }
        Ok(loss / load_w)
    }
}

/// Charge-side topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeTopology {
    /// Figure 4(b): one buck per battery from the external supply, plus a
    /// buck-boost per *ordered* battery pair for battery-to-battery
    /// charging — `O(N²)` regulators.
    NaiveMatrix,
    /// Figure 4(c): one synchronous reversible buck per battery — `O(N)`.
    SdbReversible,
}

/// A charge circuit over `n` batteries.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeCircuit {
    /// Topology.
    pub(crate) topology: ChargeTopology,
    /// Number of batteries.
    pub(crate) batteries: usize,
    /// Per-stage regulator model used for external charging.
    external_stage: Regulator,
    /// Per-stage regulator model used for battery-to-battery transfer.
    transfer_stage: Regulator,
}

impl ChargeCircuit {
    /// Builds a charge circuit over `batteries` cells rated `rated_a` per
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if `batteries` is zero.
    #[must_use]
    pub fn new(topology: ChargeTopology, batteries: usize, rated_a: f64) -> Self {
        assert!(batteries > 0, "need at least one battery");
        let (external_stage, transfer_stage) = match topology {
            ChargeTopology::NaiveMatrix => (
                Regulator::typical(RegulatorKind::Buck, rated_a),
                Regulator::typical(RegulatorKind::BuckBoost, rated_a),
            ),
            ChargeTopology::SdbReversible => (
                Regulator::typical(RegulatorKind::SynchronousReversibleBuck, rated_a),
                Regulator::typical(RegulatorKind::SynchronousReversibleBuck, rated_a),
            ),
        };
        Self {
            topology,
            batteries,
            external_stage,
            transfer_stage,
        }
    }

    /// Number of switched-mode regulators required.
    #[must_use]
    pub fn regulator_count(&self) -> usize {
        match self.topology {
            ChargeTopology::NaiveMatrix => self.batteries + self.batteries * (self.batteries - 1),
            ChargeTopology::SdbReversible => self.batteries,
        }
    }

    /// Power delivered into a battery when charging from the external
    /// supply with `power_w` at battery voltage `v_batt`.
    ///
    /// # Errors
    ///
    /// Propagates regulator model errors.
    pub fn external_charge_w(&self, power_w: f64, v_batt: f64) -> Result<f64, PowerError> {
        self.external_stage
            .transfer_w(power_w, v_batt, FlowDirection::Forward)
    }

    /// Power delivered into battery Y when charging it from battery X with
    /// `power_w` drawn from X (`ChargeOneFromAnother` path).
    ///
    /// The naive matrix routes through a single buck-boost; the SDB design
    /// routes through X's regulator in reverse-buck mode and then Y's in
    /// buck mode (two stages), as in Figure 4(c).
    ///
    /// # Errors
    ///
    /// Propagates regulator model errors.
    pub fn battery_to_battery_w(
        &self,
        power_w: f64,
        v_src: f64,
        v_dst: f64,
    ) -> Result<f64, PowerError> {
        match self.topology {
            ChargeTopology::NaiveMatrix => {
                self.transfer_stage
                    .transfer_w(power_w, v_dst, FlowDirection::Forward)
            }
            ChargeTopology::SdbReversible => {
                let at_bus =
                    self.transfer_stage
                        .transfer_w(power_w, v_src, FlowDirection::Reverse)?;
                self.transfer_stage
                    .transfer_w(at_bus, v_dst, FlowDirection::Forward)
            }
        }
    }

    /// Maximum power one charging channel can push into a battery at
    /// `v_batt` (the per-channel regulator current rating).
    #[must_use]
    pub fn max_channel_power_w(&self, v_batt: f64) -> f64 {
        self.external_stage.rated_a * v_batt.max(0.0)
    }

    /// Relative charging efficiency at `current_a` (Figure 6c's quantity).
    ///
    /// # Errors
    ///
    /// Propagates regulator model errors.
    pub fn relative_efficiency(&self, current_a: f64, v_batt: f64) -> Result<f64, PowerError> {
        self.external_stage.relative_efficiency(current_a, v_batt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_6a_loss_shape() {
        // Prototype (naive switch) loss: ≈1 % at 0.1 W light load, ~1.6 %
        // at 10 W, bathtub in between.
        let c = DischargeCircuit::new(DischargeTopology::NaiveSwitch, 2);
        let at = |w: f64| c.loss_fraction(w, 3.8).unwrap() * 100.0;
        let light = at(0.1);
        let mid = at(1.0);
        let heavy = at(10.0);
        assert!(light > 0.8 && light < 1.4, "light = {light}");
        assert!(mid < light, "mid = {mid}");
        assert!(heavy > 1.3 && heavy < 2.0, "heavy = {heavy}");
        assert!(heavy > mid);
    }

    #[test]
    fn integrated_design_cuts_loss() {
        let naive = DischargeCircuit::new(DischargeTopology::NaiveSwitch, 2);
        let sdb = DischargeCircuit::new(DischargeTopology::SdbIntegrated, 2);
        for &w in &[0.1, 1.0, 5.0, 10.0] {
            assert!(
                sdb.loss_fraction(w, 3.8).unwrap() < naive.loss_fraction(w, 3.8).unwrap(),
                "at {w} W"
            );
        }
    }

    #[test]
    fn discharge_rejects_bad_inputs() {
        let c = DischargeCircuit::new(DischargeTopology::SdbIntegrated, 2);
        assert!(c.loss_w(1.0, 0.0).is_err());
        assert!(c.loss_w(-1.0, 3.8).is_err());
        assert_eq!(c.loss_fraction(0.0, 3.8).unwrap(), 0.0);
    }

    #[test]
    fn regulator_count_scaling() {
        // Paper: O(N²) for the naive matrix vs O(N) for SDB.
        for n in 1..=6 {
            let naive = ChargeCircuit::new(ChargeTopology::NaiveMatrix, n, 3.0);
            let sdb = ChargeCircuit::new(ChargeTopology::SdbReversible, n, 3.0);
            assert_eq!(naive.regulator_count(), n * n);
            assert_eq!(sdb.regulator_count(), n);
        }
    }

    #[test]
    fn external_charging_loses_a_few_percent() {
        let c = ChargeCircuit::new(ChargeTopology::SdbReversible, 2, 3.0);
        let delivered = c.external_charge_w(7.6, 3.8).unwrap();
        let eff = delivered / 7.6;
        assert!(eff > 0.90 && eff < 0.99, "eff = {eff}");
    }

    #[test]
    fn battery_to_battery_double_stage_costs_more_than_single() {
        // The SDB reverse-buck path pays two conversion stages; the naive
        // buck-boost pays one lossier stage. Both must land well below 1.
        let sdb = ChargeCircuit::new(ChargeTopology::SdbReversible, 2, 3.0);
        let naive = ChargeCircuit::new(ChargeTopology::NaiveMatrix, 2, 3.0);
        let d_sdb = sdb.battery_to_battery_w(5.0, 4.0, 3.7).unwrap();
        let d_naive = naive.battery_to_battery_w(5.0, 4.0, 3.7).unwrap();
        assert!(d_sdb < 5.0 && d_naive < 5.0);
        assert!(d_sdb > 4.2 && d_naive > 4.2);
    }

    #[test]
    fn figure_6c_relative_efficiency() {
        let c = ChargeCircuit::new(ChargeTopology::SdbReversible, 2, 2.5);
        let hi = c.relative_efficiency(0.8, 3.8).unwrap();
        let lo = c.relative_efficiency(2.2, 3.8).unwrap();
        assert!(hi > lo);
        assert!(lo > 0.90, "lo = {lo}");
    }

    #[test]
    #[should_panic(expected = "at least one battery")]
    fn zero_batteries_rejected() {
        let _ = DischargeCircuit::new(DischargeTopology::SdbIntegrated, 0);
    }
}
