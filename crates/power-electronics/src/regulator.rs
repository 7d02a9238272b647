//! Switched-mode regulator models.
//!
//! Section 3.2 of the paper uses three regulator forms: plain buck
//! regulators (external-supply charging), buck-boost regulators (naive
//! battery-to-battery charging), and synchronous *reversible* buck
//! regulators — the trick that collapses the naive `O(N²)` charging matrix
//! to `O(N)` (Figure 4c). This module models their loss/efficiency
//! behavior; Figure 6(c)'s "% of typical chip efficiency vs charging
//! current" curve comes from `Regulator::relative_efficiency`.

use crate::error::PowerError;

/// Regulator topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegulatorKind {
    /// Step-down only; output voltage below input. Used for charging from
    /// an external supply.
    Buck,
    /// Output above or below input; needed when charging one battery from
    /// another of unknown relative voltage (naive design, Figure 4b).
    BuckBoost,
    /// Synchronous buck that can run in *reverse buck* mode, moving current
    /// from output to input (the SDB charging circuit, Figure 4c).
    SynchronousReversibleBuck,
}

impl RegulatorKind {
    /// Whether this topology can push current from its output terminal
    /// back to its input terminal.
    #[must_use]
    pub(crate) fn is_reversible(self) -> bool {
        matches!(self, Self::SynchronousReversibleBuck)
    }
}

/// Direction of power flow through a reversible regulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDirection {
    /// Input → output (normal buck operation).
    Forward,
    /// Output → input (reverse buck mode).
    Reverse,
}

/// A switched-mode regulator with a physical loss model:
/// `P_loss = P_quiescent + V_sw·f·Q + I²·R_cond`.
#[derive(Debug, Clone, PartialEq)]
pub struct Regulator {
    /// Topology.
    pub(crate) kind: RegulatorKind,
    /// Quiescent (controller) power, watts.
    pub(crate) quiescent_w: f64,
    /// Switching loss coefficient, watts (already folded with frequency and
    /// gate charge: loss contribution proportional to duty activity).
    pub(crate) switching_w: f64,
    /// Total conduction-path resistance (FETs + inductor DCR), ohms.
    pub(crate) conduction_ohm: f64,
    /// Maximum rated output current, amps.
    pub(crate) rated_a: f64,
}

impl Regulator {
    /// A regulator with class-typical parameters rated for `rated_a` amps.
    #[must_use]
    pub fn typical(kind: RegulatorKind, rated_a: f64) -> Self {
        let (quiescent_w, switching_w, conduction_ohm) = match kind {
            RegulatorKind::Buck => (0.004, 0.015, 0.030),
            RegulatorKind::BuckBoost => (0.006, 0.030, 0.050),
            // The charger path includes the sense resistor and both FETs;
            // calibrated so relative efficiency lands near the paper's
            // ~94 % at 2.2 A (Figure 6c).
            RegulatorKind::SynchronousReversibleBuck => (0.008, 0.018, 0.120),
        };
        Self {
            kind,
            quiescent_w,
            switching_w,
            conduction_ohm,
            rated_a,
        }
    }

    /// Power lost when carrying `current_a` at output voltage `v_out`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for non-finite inputs;
    /// [`PowerError::OverRating`] above the current rating.
    pub(crate) fn loss_w(&self, current_a: f64, v_out: f64) -> Result<f64, PowerError> {
        if !current_a.is_finite() || current_a < 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "current_a",
                value: current_a,
            });
        }
        if !v_out.is_finite() || v_out <= 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "v_out",
                value: v_out,
            });
        }
        if current_a > self.rated_a * (1.0 + 1e-9) {
            return Err(PowerError::OverRating {
                requested: current_a,
                rating: self.rated_a,
            });
        }
        Ok(self.quiescent_w
            + self.switching_w * (current_a / self.rated_a)
            + current_a * current_a * self.conduction_ohm)
    }

    /// Efficiency when delivering `current_a` at `v_out`:
    /// `P_out / (P_out + P_loss)`.
    ///
    /// # Errors
    ///
    /// As `Regulator::loss_w`. Zero current yields zero efficiency (all
    /// quiescent loss).
    pub fn efficiency(&self, current_a: f64, v_out: f64) -> Result<f64, PowerError> {
        let p_out = current_a * v_out;
        let loss = self.loss_w(current_a, v_out)?;
        if p_out <= 0.0 {
            return Ok(0.0);
        }
        Ok(p_out / (p_out + loss))
    }

    /// Efficiency as a percentage of the chip's typical (design-point)
    /// efficiency — the Figure 6(c) quantity. Near 100 % at light loads,
    /// dropping to ~94 % at high charging currents as conduction losses
    /// dominate.
    ///
    /// # Errors
    ///
    /// As [`Regulator::efficiency`].
    pub(crate) fn relative_efficiency(
        &self,
        current_a: f64,
        v_out: f64,
    ) -> Result<f64, PowerError> {
        // The chip's "typical" number is quoted at a light design load
        // (20 % of rating).
        let design = self.efficiency(self.rated_a * 0.2, v_out)?;
        Ok((self.efficiency(current_a, v_out)? / design).min(1.0))
    }

    /// Transfers `power_w` through the regulator in `direction`, returning
    /// the power that reaches the other side.
    ///
    /// # Errors
    ///
    /// As `Regulator::loss_w`; reverse flow on a non-reversible topology
    /// is rejected as an invalid parameter.
    pub fn transfer_w(
        &self,
        power_w: f64,
        v_out: f64,
        direction: FlowDirection,
    ) -> Result<f64, PowerError> {
        if direction == FlowDirection::Reverse && !self.kind.is_reversible() {
            return Err(PowerError::InvalidParameter {
                name: "direction",
                value: -1.0,
            });
        }
        if !power_w.is_finite() || power_w < 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "power_w",
                value: power_w,
            });
        }
        let current = power_w / v_out;
        let eta = self.efficiency(current, v_out)?;
        Ok(power_w * eta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Regulator {
        Regulator::typical(RegulatorKind::SynchronousReversibleBuck, 3.0)
    }

    #[test]
    fn typical_parameters_sane() {
        for kind in [
            RegulatorKind::Buck,
            RegulatorKind::BuckBoost,
            RegulatorKind::SynchronousReversibleBuck,
        ] {
            let r = Regulator::typical(kind, 2.0);
            assert!(r.quiescent_w > 0.0 && r.conduction_ohm > 0.0);
        }
    }

    #[test]
    fn buck_boost_least_efficient() {
        let bb = Regulator::typical(RegulatorKind::BuckBoost, 3.0);
        let b = Regulator::typical(RegulatorKind::Buck, 3.0);
        let e_bb = bb.efficiency(1.5, 3.8).unwrap();
        let e_b = b.efficiency(1.5, 3.8).unwrap();
        assert!(e_b > e_bb);
    }

    #[test]
    fn efficiency_peaks_mid_load() {
        let r = reg();
        let light = r.efficiency(0.05, 3.8).unwrap();
        let mid = r.efficiency(0.8, 3.8).unwrap();
        let heavy = r.efficiency(3.0, 3.8).unwrap();
        assert!(mid > light, "quiescent loss dominates at light load");
        assert!(mid > heavy, "conduction loss dominates at heavy load");
        assert!(mid > 0.93);
    }

    #[test]
    fn figure_6c_shape() {
        // Relative efficiency ≈ 100 % at light charge currents, ~94 % at
        // the 2.2 A top of the paper's sweep.
        let r = Regulator::typical(RegulatorKind::SynchronousReversibleBuck, 2.5);
        let hi = r.relative_efficiency(0.8, 3.8).unwrap();
        let lo = r.relative_efficiency(2.2, 3.8).unwrap();
        assert!(hi > 0.985, "hi = {hi}");
        assert!(lo > 0.90 && lo < 0.97, "lo = {lo}");
        assert!(hi > lo);
    }

    #[test]
    fn reverse_mode_only_on_reversible() {
        let r = Regulator::typical(RegulatorKind::Buck, 2.0);
        assert!(r.transfer_w(5.0, 3.8, FlowDirection::Reverse).is_err());
        let r = reg();
        let out = r.transfer_w(5.0, 3.8, FlowDirection::Reverse).unwrap();
        assert!(out < 5.0 && out > 4.5);
    }

    #[test]
    fn rejects_over_rating_and_bad_inputs() {
        let r = reg();
        assert!(matches!(
            r.loss_w(10.0, 3.8),
            Err(PowerError::OverRating { .. })
        ));
        assert!(r.loss_w(-1.0, 3.8).is_err());
        assert!(r.loss_w(1.0, 0.0).is_err());
        assert!(r.efficiency(f64::NAN, 3.8).is_err());
    }

    #[test]
    fn zero_current_zero_efficiency() {
        assert_eq!(reg().efficiency(0.0, 3.8).unwrap(), 0.0);
    }

    #[test]
    fn transfer_conserves_less_than_input() {
        let r = reg();
        let out = r.transfer_w(8.0, 3.8, FlowDirection::Forward).unwrap();
        assert!(out < 8.0 && out > 7.0);
        assert_eq!(r.transfer_w(0.0, 3.8, FlowDirection::Forward).unwrap(), 0.0);
    }
}
