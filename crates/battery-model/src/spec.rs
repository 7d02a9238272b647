//! Full parameterization of a single battery cell.
//!
//! A [`BatterySpec`] carries everything the paper's emulator (Section 4.3)
//! learns from the cycler hardware for one cell: the OCP-vs-SoC curve, the
//! DCIR-vs-SoC curve, the concentration resistance, and the plate
//! capacitance — plus ratings (capacity, current limits), physical size, and
//! aging parameters.

use crate::chemistry::Chemistry;
use crate::curves::Curve;
use crate::error::BatteryError;

/// Static description of one battery cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BatterySpec {
    /// Human-readable name (e.g. "Library #7 (Type 2)").
    pub name: String,
    /// Chemistry class.
    pub chemistry: Chemistry,
    /// Rated capacity in amp-hours.
    pub capacity_ah: f64,
    /// Open-circuit potential vs SoC (volts).
    pub ocp: Curve,
    /// DC internal (ohmic) resistance vs SoC for *this* cell (ohms),
    /// already scaled for its capacity.
    pub dcir: Curve,
    /// Concentration (RC-branch) resistance in ohms — fixed per cell.
    pub concentration_r_ohm: f64,
    /// Plate (RC-branch) capacitance in farads — fixed per cell.
    pub plate_c_f: f64,
    /// Maximum continuous discharge current in amps.
    pub max_discharge_a: f64,
    /// Maximum charge current in amps.
    pub max_charge_a: f64,
    /// Tolerable charge cycles `χ` before the cell falls below its warranty
    /// capacity threshold (Section 3.3).
    pub tolerable_cycles: u32,
    /// Cell volume in liters (for energy-density accounting, Figure 11a).
    pub volume_l: f64,
    /// Cell mass in kilograms.
    pub mass_kg: f64,
    /// Per-cycle capacity-fade coefficient at the reference 0.3C rate
    /// (fraction of original capacity lost per equivalent full cycle).
    pub fade_per_cycle: f64,
    /// Exponent controlling how fade accelerates with C-rate.
    pub fade_crate_exponent: f64,
}

impl BatterySpec {
    /// Builds a spec for a cell of `chemistry` with the given capacity,
    /// deriving curves, limits, size, and aging parameters from the
    /// chemistry's constants.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_ah` is not a positive finite number; use
    /// [`BatterySpec::validate`] for fallible checking of hand-built specs.
    #[must_use]
    pub fn from_chemistry(name: &str, chemistry: Chemistry, capacity_ah: f64) -> Self {
        assert!(
            capacity_ah.is_finite() && capacity_ah > 0.0,
            "capacity must be positive, got {capacity_ah}"
        );
        // Resistance scales inversely with capacity (more parallel plate
        // area), so a 1 Ah-normalized curve divides by capacity.
        let dcir = chemistry.dcir_curve_1ah().scale_y(1.0 / capacity_ah);
        let energy_wh = capacity_ah * chemistry.nominal_voltage_v();
        let volume_l = energy_wh / chemistry.energy_density_wh_per_l();
        // Gravimetric density roughly 2.3x the volumetric number in Wh/kg
        // terms for pouch cells; good enough for mass bookkeeping.
        let mass_kg = energy_wh / (chemistry.energy_density_wh_per_l() * 0.45);
        // Reference fade: cell reaches ~80 % capacity at `tolerable_cycles`
        // when cycled gently at 0.3C.
        let fade_per_cycle = 0.20 / f64::from(chemistry.tolerable_cycles());
        Self {
            name: name.to_owned(),
            chemistry,
            capacity_ah,
            ocp: chemistry.ocp_curve(),
            dcir,
            concentration_r_ohm: chemistry.base_resistance_ohm_ah() * 0.35 / capacity_ah,
            plate_c_f: 900.0 * capacity_ah,
            max_discharge_a: chemistry.max_discharge_c() * capacity_ah,
            max_charge_a: chemistry.max_charge_c() * capacity_ah,
            tolerable_cycles: chemistry.tolerable_cycles(),
            volume_l,
            mass_kg,
            fade_per_cycle,
            fade_crate_exponent: chemistry.crate_aging_sensitivity(),
        }
    }

    /// Checks that every numeric field is physically sensible.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidSpec`] naming the first bad field.
    pub fn validate(&self) -> Result<(), BatteryError> {
        let positive: [(&'static str, f64); 8] = [
            ("capacity_ah", self.capacity_ah),
            ("concentration_r_ohm", self.concentration_r_ohm),
            ("plate_c_f", self.plate_c_f),
            ("max_discharge_a", self.max_discharge_a),
            ("max_charge_a", self.max_charge_a),
            ("volume_l", self.volume_l),
            ("mass_kg", self.mass_kg),
            ("fade_crate_exponent", self.fade_crate_exponent),
        ];
        for (field, value) in positive {
            if !value.is_finite() || value <= 0.0 {
                return Err(BatteryError::InvalidSpec { field, value });
            }
        }
        if !self.fade_per_cycle.is_finite() || self.fade_per_cycle < 0.0 {
            return Err(BatteryError::InvalidSpec {
                field: "fade_per_cycle",
                value: self.fade_per_cycle,
            });
        }
        if self.tolerable_cycles == 0 {
            return Err(BatteryError::InvalidSpec {
                field: "tolerable_cycles",
                value: 0.0,
            });
        }
        if self.ocp.y_min() <= 0.0 {
            return Err(BatteryError::InvalidSpec {
                field: "ocp",
                value: self.ocp.y_min(),
            });
        }
        if self.dcir.y_min() <= 0.0 {
            return Err(BatteryError::InvalidSpec {
                field: "dcir",
                value: self.dcir.y_min(),
            });
        }
        Ok(())
    }

    /// Rated energy content in watt-hours at nominal voltage.
    #[must_use]
    pub fn energy_wh(&self) -> f64 {
        self.capacity_ah * self.chemistry.nominal_voltage_v()
    }

    /// Converts a current in amps to a C-rate for this cell.
    #[must_use]
    pub fn c_rate(&self, current_a: f64) -> f64 {
        current_a.abs() / self.capacity_ah
    }

    /// Maximum instantaneous discharge power in watts at the given SoC:
    /// the vertex of `P(I) = I·(OCV − I·R)` capped by the current limit.
    #[must_use]
    pub fn max_power_w(&self, soc: f64) -> f64 {
        let ocv = self.ocp.eval(soc);
        let r = self.dcir.eval(soc);
        let i_peak = (ocv / (2.0 * r)).min(self.max_discharge_a);
        i_peak * (ocv - i_peak * r)
    }

    /// Returns a copy with a different name (for building cell libraries).
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Returns a copy with DCIR scaled by `factor` (unit-to-unit variation
    /// or age).
    #[must_use]
    pub fn with_dcir_scaled(mut self, factor: f64) -> Self {
        self.dcir = self.dcir.scale_y(factor);
        self.concentration_r_ohm *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_chemistry_is_valid() {
        for chem in Chemistry::ALL {
            let spec = BatterySpec::from_chemistry("t", chem, 2.0);
            spec.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 0.0);
    }

    #[test]
    fn validate_catches_bad_field() {
        let mut spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        spec.mass_kg = -1.0;
        assert_eq!(
            spec.validate(),
            Err(BatteryError::InvalidSpec {
                field: "mass_kg",
                value: -1.0
            })
        );
    }

    #[test]
    fn resistance_scales_inversely_with_capacity() {
        let small = BatterySpec::from_chemistry("s", Chemistry::Type2CoStandard, 1.0);
        let big = BatterySpec::from_chemistry("b", Chemistry::Type2CoStandard, 4.0);
        let r_small = small.dcir.eval(0.5);
        let r_big = big.dcir.eval(0.5);
        assert!((r_small / r_big - 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_and_charge_content() {
        let spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        assert!((spec.energy_wh() - 2.0 * 3.8).abs() < 1e-12);
        assert!((spec.c_rate(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_power_higher_at_high_soc() {
        let spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        assert!(spec.max_power_w(0.9) > spec.max_power_w(0.1));
        assert!(spec.max_power_w(0.5) > 0.0);
    }

    #[test]
    fn power_cell_outpowers_energy_cell() {
        let p = BatterySpec::from_chemistry("p", Chemistry::Type3CoPower, 2.0);
        let e = BatterySpec::from_chemistry("e", Chemistry::Type2CoStandard, 2.0);
        assert!(p.max_power_w(0.5) > e.max_power_w(0.5));
    }

    #[test]
    fn dcir_scaling_helper() {
        let spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        let aged = spec.clone().with_dcir_scaled(1.5);
        assert!((aged.dcir.eval(0.5) / spec.dcir.eval(0.5) - 1.5).abs() < 1e-9);
        assert!((aged.concentration_r_ohm / spec.concentration_r_ohm - 1.5).abs() < 1e-9);
    }

    #[test]
    fn volume_tracks_energy_density() {
        // Same capacity: the lower-density chemistry needs more volume.
        let t2 = BatterySpec::from_chemistry("t2", Chemistry::Type2CoStandard, 2.0);
        let t1 = BatterySpec::from_chemistry("t1", Chemistry::Type1LfpPower, 2.0);
        let t2_density = t2.energy_wh() / t2.volume_l;
        let t1_density = t1.energy_wh() / t1.volume_l;
        assert!(t2_density > t1_density);
    }
}
