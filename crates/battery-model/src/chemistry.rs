//! Battery chemistry classes and their capability profiles.
//!
//! Figure 1(a) of the paper compares four Li-ion cell constructions along six
//! axes: power density, form-factor flexibility, energy density,
//! affordability, longevity, and efficiency. This module encodes those
//! classes, their qualitative axis scores (used to regenerate the radar
//! chart), and the physical constants that seed the quantitative models.

use crate::curves::{self, Curve};

/// The Li-ion chemistry classes compared in Figure 1(a), plus two extra
/// classes covering the "3 more of other types" in the paper's 15-battery
/// library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Chemistry {
    /// Type 1: LiFePO4 cathode, high-density liquid polymer separator.
    /// Power-tool class: fast charging, high peak power, poor energy density.
    Type1LfpPower,
    /// Type 2: CoO2 cathode, high-density liquid polymer separator.
    /// The standard mobile-device cell: best energy density.
    Type2CoStandard,
    /// Type 3: CoO2 cathode, low-density liquid polymer separator.
    /// Emerging higher-power variant of Type 2, trading some energy density.
    Type3CoPower,
    /// Type 4: CoO2 cathode, rubber-like solid ceramic separator.
    /// Bendable, but high internal resistance and poor efficiency.
    Type4Bendable,
    /// NMC cathode cell ("other" class in the paper's library).
    OtherNmc,
    /// LTO anode cell ("other" class): extreme cycle life and charge rate,
    /// low voltage and energy density.
    OtherLto,
}

/// Qualitative axis scores in `[0, 1]` matching Figure 1(a)'s radar axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisScores {
    /// Sustained/peak power per unit mass.
    pub(crate) power_density: f64,
    /// Mechanical flexibility (bend radius axis).
    pub(crate) form_factor_flexibility: f64,
    /// Energy per unit volume/mass.
    pub(crate) energy_density: f64,
    /// Inverse of $/joule.
    pub(crate) affordability: f64,
    /// Capacity retention over cycle count.
    pub(crate) longevity: f64,
    /// One minus the typical resistive loss fraction.
    pub(crate) efficiency: f64,
}

impl AxisScores {
    /// Returns the scores as `(label, value)` pairs in the figure's axis
    /// order, for table/radar regeneration.
    #[must_use]
    pub fn as_rows(&self) -> [(&'static str, f64); 6] {
        [
            ("Power Density", self.power_density),
            ("Form-factor Flexibility", self.form_factor_flexibility),
            ("Energy Density", self.energy_density),
            ("Affordability", self.affordability),
            ("Longevity", self.longevity),
            ("Efficiency", self.efficiency),
        ]
    }
}

impl Chemistry {
    /// All chemistry classes, Figure 1(a) order first.
    pub const ALL: [Chemistry; 6] = [
        Chemistry::Type1LfpPower,
        Chemistry::Type2CoStandard,
        Chemistry::Type3CoPower,
        Chemistry::Type4Bendable,
        Chemistry::OtherNmc,
        Chemistry::OtherLto,
    ];

    /// The four classes shown in Figure 1(a).
    pub const FIGURE_1A: [Chemistry; 4] = [
        Chemistry::Type1LfpPower,
        Chemistry::Type2CoStandard,
        Chemistry::Type3CoPower,
        Chemistry::Type4Bendable,
    ];

    /// Short human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Type1LfpPower => "Type 1 (LiFePO4, power)",
            Self::Type2CoStandard => "Type 2 (CoO2, standard)",
            Self::Type3CoPower => "Type 3 (CoO2, low-density separator)",
            Self::Type4Bendable => "Type 4 (bendable, solid separator)",
            Self::OtherNmc => "Other (NMC)",
            Self::OtherLto => "Other (LTO)",
        }
    }

    /// Qualitative axis scores for Figure 1(a).
    #[must_use]
    pub fn axis_scores(self) -> AxisScores {
        match self {
            Self::Type1LfpPower => AxisScores {
                power_density: 0.95,
                form_factor_flexibility: 0.2,
                energy_density: 0.35,
                affordability: 0.8,
                longevity: 0.9,
                efficiency: 0.85,
            },
            Self::Type2CoStandard => AxisScores {
                power_density: 0.5,
                form_factor_flexibility: 0.3,
                energy_density: 0.95,
                affordability: 0.7,
                longevity: 0.6,
                efficiency: 0.9,
            },
            Self::Type3CoPower => AxisScores {
                power_density: 0.7,
                form_factor_flexibility: 0.3,
                energy_density: 0.8,
                affordability: 0.6,
                longevity: 0.55,
                efficiency: 0.85,
            },
            Self::Type4Bendable => AxisScores {
                power_density: 0.25,
                form_factor_flexibility: 0.95,
                energy_density: 0.55,
                affordability: 0.4,
                longevity: 0.5,
                efficiency: 0.45,
            },
            Self::OtherNmc => AxisScores {
                power_density: 0.65,
                form_factor_flexibility: 0.25,
                energy_density: 0.85,
                affordability: 0.65,
                longevity: 0.7,
                efficiency: 0.88,
            },
            Self::OtherLto => AxisScores {
                power_density: 0.9,
                form_factor_flexibility: 0.2,
                energy_density: 0.25,
                affordability: 0.45,
                longevity: 0.98,
                efficiency: 0.92,
            },
        }
    }

    /// Nominal (mid-SoC) cell voltage in volts.
    #[must_use]
    pub fn nominal_voltage_v(self) -> f64 {
        match self {
            Self::Type1LfpPower => 3.2,
            Self::Type2CoStandard | Self::Type3CoPower | Self::Type4Bendable => 3.8,
            Self::OtherNmc => 3.7,
            Self::OtherLto => 2.4,
        }
    }

    /// Volumetric energy density in Wh/l (Section 5.1's measured ranges:
    /// high-energy cells 590–600 Wh/l, high-power cells 530–540 Wh/l with an
    /// effective 500–510 Wh/l after high-current swelling).
    #[must_use]
    pub fn energy_density_wh_per_l(self) -> f64 {
        match self {
            Self::Type1LfpPower => 330.0,
            Self::Type2CoStandard => 595.0,
            Self::Type3CoPower => 535.0,
            Self::Type4Bendable => 350.0,
            Self::OtherNmc => 560.0,
            Self::OtherLto => 180.0,
        }
    }

    /// Effective energy density in Wh/l after accounting for swelling under
    /// the chemistry's intended (fast) charging regime; equal to
    /// [`Self::energy_density_wh_per_l`] for chemistries that do not swell.
    #[must_use]
    pub fn effective_energy_density_wh_per_l(self) -> f64 {
        match self {
            // "prone to expand in size when charged with high currents.
            // Therefore, the effective energy density is between 500–510 Wh/l"
            Self::Type3CoPower => 505.0,
            other => other.energy_density_wh_per_l(),
        }
    }

    /// Tolerable charge cycles `χ` before capacity drops below the warranty
    /// threshold (Section 3.3's wear-ratio denominator).
    #[must_use]
    pub(crate) fn tolerable_cycles(self) -> u32 {
        match self {
            Self::Type1LfpPower => 2000,
            Self::Type2CoStandard => 800,
            // Fast-charge cells are designed for high C-rates, so their
            // rated cycle life is high; what they trade away is energy
            // density (Figure 11a) — and they still fade faster *when
            // actually fast-charged* (Figure 11c).
            Self::Type3CoPower => 1800,
            Self::Type4Bendable => 500,
            Self::OtherNmc => 1000,
            Self::OtherLto => 7000,
        }
    }

    /// Baseline internal resistance in ohms, normalized to a 1 Ah cell at
    /// mid-SoC. Actual cell resistance scales inversely with capacity
    /// (parallel plate area) and varies with SoC via the DCIR curve.
    #[must_use]
    pub(crate) fn base_resistance_ohm_ah(self) -> f64 {
        match self {
            Self::Type1LfpPower => 0.045,
            Self::Type2CoStandard => 0.09,
            Self::Type3CoPower => 0.06,
            // "rubber-like separator increases the resistance to passage of
            // ions" — roughly 5x the standard cell (Figure 1c: ~30% heat loss
            // at 2C vs ~5–8% for Types 2/3).
            Self::Type4Bendable => 0.42,
            Self::OtherNmc => 0.075,
            Self::OtherLto => 0.035,
        }
    }

    /// Maximum continuous discharge C-rate.
    #[must_use]
    pub(crate) fn max_discharge_c(self) -> f64 {
        match self {
            Self::Type1LfpPower => 10.0,
            Self::Type2CoStandard => 2.0,
            Self::Type3CoPower => 4.0,
            Self::Type4Bendable => 2.0,
            Self::OtherNmc => 3.0,
            Self::OtherLto => 10.0,
        }
    }

    /// Maximum charge C-rate (fast-charging headroom).
    #[must_use]
    pub(crate) fn max_charge_c(self) -> f64 {
        match self {
            Self::Type1LfpPower => 4.0,
            Self::Type2CoStandard => 0.7,
            Self::Type3CoPower => 2.0,
            Self::Type4Bendable => 0.5,
            Self::OtherNmc => 1.0,
            Self::OtherLto => 6.0,
        }
    }

    /// Aging sensitivity to C-rate: multiplier on the per-cycle fade rate at
    /// 1C relative to a gentle 0.3C cycle (higher = degrades faster under
    /// fast charge; Figure 1b).
    #[must_use]
    pub(crate) fn crate_aging_sensitivity(self) -> f64 {
        match self {
            Self::Type1LfpPower => 0.8,
            Self::Type2CoStandard => 2.4,
            Self::Type3CoPower => 1.3,
            Self::Type4Bendable => 2.8,
            Self::OtherNmc => 1.6,
            Self::OtherLto => 0.3,
        }
    }

    /// Open-circuit-potential curve (volts vs SoC) for this chemistry,
    /// normalized to the cell's voltage window (Figure 8b shapes).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the embedded knot tables are valid.
    #[must_use]
    pub(crate) fn ocp_curve(self) -> Curve {
        // Shapes: LFP has a famously flat plateau around 3.3 V; CoO2 cells
        // ramp from ~3.0 V to ~4.35 V; LTO sits near 2.3–2.5 V.
        let pts: &[f64] = match self {
            Self::Type1LfpPower => &[
                2.9, 3.18, 3.26, 3.29, 3.31, 3.32, 3.33, 3.34, 3.35, 3.38, 3.55,
            ],
            Self::Type2CoStandard => &[
                3.00, 3.45, 3.60, 3.68, 3.74, 3.80, 3.87, 3.95, 4.05, 4.18, 4.35,
            ],
            Self::Type3CoPower => &[
                2.95, 3.42, 3.58, 3.66, 3.72, 3.78, 3.85, 3.93, 4.03, 4.16, 4.30,
            ],
            Self::Type4Bendable => &[
                2.90, 3.35, 3.52, 3.62, 3.70, 3.77, 3.84, 3.92, 4.02, 4.14, 4.28,
            ],
            Self::OtherNmc => &[
                3.05, 3.40, 3.55, 3.62, 3.68, 3.73, 3.80, 3.89, 3.98, 4.08, 4.20,
            ],
            Self::OtherLto => &[
                2.00, 2.22, 2.28, 2.31, 2.33, 2.35, 2.37, 2.40, 2.44, 2.50, 2.65,
            ],
        };
        curves::from_soc_samples(pts).expect("embedded OCP table is valid")
    }

    /// DC internal resistance curve (ohms vs SoC) for a 1 Ah cell of this
    /// chemistry. Resistance rises steeply at low SoC (Figure 8c shapes).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the embedded knot tables are valid.
    #[must_use]
    pub(crate) fn dcir_curve_1ah(self) -> Curve {
        let base = self.base_resistance_ohm_ah();
        // Multiplier on the mid-SoC base resistance; steep rise near empty.
        let shape = [6.0, 2.8, 1.8, 1.4, 1.2, 1.0, 0.95, 0.92, 0.90, 0.88, 0.87];
        let pts: Vec<f64> = shape.iter().map(|m| m * base).collect();
        curves::from_soc_samples(&pts).expect("embedded DCIR table is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_chemistries_have_valid_curves() {
        for chem in Chemistry::ALL {
            let ocp = chem.ocp_curve();
            let dcir = chem.dcir_curve_1ah();
            // OCP increases with SoC; DCIR decreases.
            assert!(ocp.eval(0.9) > ocp.eval(0.1), "{}", chem.name());
            assert!(dcir.eval(0.1) > dcir.eval(0.9), "{}", chem.name());
        }
    }

    #[test]
    fn energy_density_ordering_matches_paper() {
        // Type 2 (high energy) > Type 3 (high power) > Type 1/4.
        assert!(
            Chemistry::Type2CoStandard.energy_density_wh_per_l()
                > Chemistry::Type3CoPower.energy_density_wh_per_l()
        );
        assert!(
            Chemistry::Type3CoPower.energy_density_wh_per_l()
                > Chemistry::Type1LfpPower.energy_density_wh_per_l()
        );
        // Paper: high-energy 590–600 Wh/l; high-power effective 500–510 Wh/l.
        let e2 = Chemistry::Type2CoStandard.energy_density_wh_per_l();
        assert!((590.0..=600.0).contains(&e2));
        let e3 = Chemistry::Type3CoPower.effective_energy_density_wh_per_l();
        assert!((500.0..=510.0).contains(&e3));
    }

    #[test]
    fn bendable_has_highest_resistance() {
        let r4 = Chemistry::Type4Bendable.base_resistance_ohm_ah();
        for chem in Chemistry::ALL {
            if chem != Chemistry::Type4Bendable {
                assert!(r4 > chem.base_resistance_ohm_ah());
            }
        }
    }

    #[test]
    fn fast_charge_chemistries_charge_faster() {
        assert!(Chemistry::Type3CoPower.max_charge_c() > Chemistry::Type2CoStandard.max_charge_c());
        assert!(Chemistry::Type1LfpPower.max_charge_c() > Chemistry::Type3CoPower.max_charge_c());
    }

    #[test]
    fn axis_scores_in_unit_range() {
        for chem in Chemistry::ALL {
            for (label, v) in chem.axis_scores().as_rows() {
                assert!((0.0..=1.0).contains(&v), "{} {label} = {v}", chem.name());
            }
        }
    }

    #[test]
    fn radar_tradeoffs_hold() {
        // Figure 1a: bendable is most flexible, least efficient; Type 2 has
        // the best energy density; Type 1 has the best power density of the
        // four shown.
        let s1 = Chemistry::Type1LfpPower.axis_scores();
        let s2 = Chemistry::Type2CoStandard.axis_scores();
        let s3 = Chemistry::Type3CoPower.axis_scores();
        let s4 = Chemistry::Type4Bendable.axis_scores();
        assert!(
            s4.form_factor_flexibility > s1.form_factor_flexibility.max(s2.form_factor_flexibility)
        );
        assert!(s4.efficiency < s1.efficiency.min(s2.efficiency).min(s3.efficiency));
        assert!(
            s2.energy_density
                > s1.energy_density
                    .max(s3.energy_density)
                    .max(s4.energy_density)
        );
        assert!(s1.power_density > s2.power_density.max(s3.power_density).max(s4.power_density));
        // Type 3 trades energy density for power density vs Type 2.
        assert!(s3.power_density > s2.power_density && s3.energy_density < s2.energy_density);
    }

    #[test]
    fn nominal_voltage_within_ocp_window() {
        for chem in Chemistry::ALL {
            let ocp = chem.ocp_curve();
            let v = chem.nominal_voltage_v();
            assert!(v >= ocp.y_min() && v <= ocp.y_max(), "{}", chem.name());
        }
    }
}
