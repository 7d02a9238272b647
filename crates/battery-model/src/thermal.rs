//! Lumped thermal model for a cell.
//!
//! The paper lists device temperature among the external factors that can
//! trigger policy changes (Section 3.3) and motivates the SDB discharge
//! design with heating concerns. This module provides a first-order lumped
//! model: the cell is one thermal mass heated by its resistive losses and
//! cooled toward ambient through a fixed thermal resistance.

/// Arrhenius-style temperature dependence of the cell's internal
/// resistance: ionic conductivity drops in the cold, so resistance rises.
/// Returns the multiplier relative to the 25 °C reference (≈1.6× at 0 °C,
/// ≈0.8× at 40 °C).
#[must_use]
pub(crate) fn resistance_multiplier_at(temperature_c: f64) -> f64 {
    const T_REF_K: f64 = 298.15;
    const ACTIVATION_K: f64 = 1600.0;
    let t_k = (temperature_c + 273.15).max(200.0);
    (ACTIVATION_K * (1.0 / t_k - 1.0 / T_REF_K)).exp()
}

/// First-order thermal state: `C_th · dT/dt = P_heat − (T − T_amb)/R_th`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Cell temperature, °C.
    temperature_c: f64,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Thermal resistance to ambient, K/W.
    pub r_th_k_per_w: f64,
    /// Thermal capacitance, J/K.
    pub c_th_j_per_k: f64,
}

impl ThermalModel {
    /// Creates a model at ambient equilibrium.
    ///
    /// Typical pouch-cell values: `r_th` ≈ 12 K/W for a small cell in a
    /// device, `c_th` ≈ 45 J/K per Ah of capacity.
    #[must_use]
    pub fn new(ambient_c: f64, r_th_k_per_w: f64, c_th_j_per_k: f64) -> Self {
        Self {
            temperature_c: ambient_c,
            ambient_c,
            r_th_k_per_w,
            c_th_j_per_k,
        }
    }

    /// Default model for a cell of `capacity_ah` at a given ambient.
    #[must_use]
    pub fn for_capacity_at(capacity_ah: f64, ambient_c: f64) -> Self {
        Self::new(
            ambient_c,
            12.0 / capacity_ah.max(0.1).sqrt(),
            45.0 * capacity_ah.max(0.1),
        )
    }

    /// Current cell temperature, °C.
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Overwrites the temperature state (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite temperature.
    pub fn set_temperature_c(&mut self, temperature_c: f64) {
        assert!(temperature_c.is_finite(), "bad temperature {temperature_c}");
        self.temperature_c = temperature_c;
    }

    /// Advances the thermal state by `dt_s` seconds with `heat_w` watts of
    /// internal dissipation (exact exponential update, stable for any step).
    pub(crate) fn step(&mut self, heat_w: f64, dt_s: f64) {
        debug_assert!(dt_s >= 0.0 && heat_w.is_finite());
        let t_ss = self.ambient_c + heat_w.max(0.0) * self.r_th_k_per_w;
        let tau = self.r_th_k_per_w * self.c_th_j_per_k;
        if tau > 0.0 {
            self.temperature_c = t_ss + (self.temperature_c - t_ss) * (-dt_s / tau).exp();
        } else {
            self.temperature_c = t_ss;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_multiplier_shape() {
        assert!((resistance_multiplier_at(25.0) - 1.0).abs() < 1e-3);
        let cold = resistance_multiplier_at(0.0);
        let hot = resistance_multiplier_at(40.0);
        assert!(cold > 1.4 && cold < 1.9, "cold = {cold}");
        assert!(hot > 0.7 && hot < 0.9, "hot = {hot}");
        // Monotone decreasing in temperature.
        assert!(resistance_multiplier_at(-20.0) > cold);
        assert!(resistance_multiplier_at(60.0) < hot);
    }

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::new(25.0, 10.0, 100.0);
        assert_eq!(t.temperature_c(), 25.0);
    }

    #[test]
    fn heats_toward_steady_state() {
        let mut t = ThermalModel::new(25.0, 10.0, 100.0);
        // 1 W → steady state 35 °C.
        for _ in 0..100 {
            t.step(1.0, 60.0);
        }
        assert!((t.temperature_c() - 35.0).abs() < 0.1);
    }

    #[test]
    fn cools_back_to_ambient() {
        let mut t = ThermalModel::new(25.0, 10.0, 100.0);
        t.step(5.0, 10_000.0);
        assert!(t.temperature_c() > 30.0);
        t.step(0.0, 100_000.0);
        assert!((t.temperature_c() - 25.0).abs() < 0.01);
    }

    #[test]
    fn exponential_update_is_stable_for_huge_steps() {
        let mut t = ThermalModel::new(25.0, 10.0, 100.0);
        t.step(2.0, 1e9);
        assert!((t.temperature_c() - 45.0).abs() < 1e-6);
    }

    #[test]
    fn bigger_cells_heat_slower() {
        let mut small = ThermalModel::for_capacity_at(0.2, 25.0);
        let mut large = ThermalModel::for_capacity_at(3.0, 25.0);
        small.step(1.0, 60.0);
        large.step(1.0, 60.0);
        assert!(small.temperature_c() > large.temperature_c());
    }

    #[test]
    fn negative_heat_clamped() {
        let mut t = ThermalModel::new(25.0, 10.0, 100.0);
        t.step(-5.0, 1000.0);
        assert!(t.temperature_c() >= 25.0 - 1e-9);
    }
}
