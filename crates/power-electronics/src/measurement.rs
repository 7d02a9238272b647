//! Setpoint and measurement error models.
//!
//! Figures 6(b) and 6(d) of the paper report how accurately the prototype
//! enforces what the microcontroller asked for: the share of load current
//! drawn from each battery (< 0.6 % error across 1–99 % settings) and the
//! charging current (≤ 0.5 % error across 0.2–2.0 A). Both errors come from
//! the same physical sources — timer/DAC quantization, sense-chain offset,
//! and gain mismatch — which this module models deterministically.

use crate::error::PowerError;

/// Deterministic per-setpoint wiggle in `[-1, 1]`, standing in for the
/// unit-specific gain mismatch a real board exhibits (reproducible so the
/// figure harness is stable).
fn setpoint_wiggle(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut h = bits ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// A current setpoint DAC + sense-resistor chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseChain {
    /// Full-scale current, amps.
    pub(crate) full_scale_a: f64,
    /// DAC/ADC resolution in bits.
    pub(crate) bits: u32,
    /// Sense-chain offset, amps.
    pub offset_a: f64,
    /// Peak gain mismatch (fraction).
    pub gain_mismatch: f64,
}

impl SenseChain {
    /// The prototype's charger chain: 12-bit over 4 A full scale, 0.5 mA
    /// offset, 0.1 % gain mismatch.
    #[must_use]
    pub fn prototype_charger() -> Self {
        Self {
            full_scale_a: 4.0,
            bits: 12,
            offset_a: 0.0005,
            gain_mismatch: 0.001,
        }
    }

    /// One least-significant bit in amps.
    #[must_use]
    pub fn lsb_a(&self) -> f64 {
        self.full_scale_a
            / f64::from(1u64.checked_shl(self.bits).unwrap_or(u64::MAX) as u32).max(1.0)
    }

    /// The current the hardware actually realizes for a requested setpoint.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for non-finite or negative
    /// setpoints; [`PowerError::OverRating`] above full scale.
    pub fn realized_current_a(&self, set_a: f64) -> Result<f64, PowerError> {
        if !set_a.is_finite() || set_a < 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "set_a",
                value: set_a,
            });
        }
        if set_a > self.full_scale_a {
            return Err(PowerError::OverRating {
                requested: set_a,
                rating: self.full_scale_a,
            });
        }
        let lsb = self.lsb_a();
        let quantized = (set_a / lsb).round() * lsb;
        let gained = quantized * (1.0 + self.gain_mismatch * setpoint_wiggle(set_a));
        Ok((gained + self.offset_a).max(0.0))
    }

    /// Relative setpoint error in percent — the Figure 6(d) quantity.
    ///
    /// # Errors
    ///
    /// As [`SenseChain::realized_current_a`]; zero setpoint is rejected
    /// (relative error undefined).
    pub fn error_percent(&self, set_a: f64) -> Result<f64, PowerError> {
        if set_a <= 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "set_a",
                value: set_a,
            });
        }
        let realized = self.realized_current_a(set_a)?;
        Ok(((realized - set_a) / set_a).abs() * 100.0)
    }
}

/// The discharge-share chain: the share of load current assigned to one
/// battery is realized through timer-grid duty quantization plus the sense
/// chain's gain mismatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareChain {
    /// Duty timer steps per switching period.
    pub(crate) duty_steps: u32,
    /// Peak gain mismatch between the per-battery current sensors
    /// (fraction).
    pub(crate) gain_mismatch: f64,
}

impl ShareChain {
    /// The prototype's share chain: 14-bit effective duty resolution,
    /// 0.15 % sensor mismatch.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            duty_steps: 16_384,
            gain_mismatch: 0.0015,
        }
    }

    /// The share actually realized for a requested proportion setting.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] if `share` is outside `(0, 1]`.
    pub fn realized_share(&self, share: f64) -> Result<f64, PowerError> {
        if !share.is_finite() || share <= 0.0 || share > 1.0 {
            return Err(PowerError::InvalidParameter {
                name: "share",
                value: share,
            });
        }
        let step = 1.0 / f64::from(self.duty_steps);
        let quantized = (share / step).round() * step;
        Ok((quantized * (1.0 + self.gain_mismatch * setpoint_wiggle(share))).clamp(0.0, 1.0))
    }

    /// Relative share error in percent — the Figure 6(b) quantity
    /// ("% error of the measured % discharge current vs the % set").
    ///
    /// # Errors
    ///
    /// As [`ShareChain::realized_share`].
    pub fn error_percent(&self, share: f64) -> Result<f64, PowerError> {
        let realized = self.realized_share(share)?;
        Ok(((realized - share) / share).abs() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wiggle_is_deterministic_and_bounded() {
        for &x in &[0.01, 0.2, 0.5, 1.37, 2.0] {
            let a = setpoint_wiggle(x);
            let b = setpoint_wiggle(x);
            assert_eq!(a, b);
            assert!((-1.0..=1.0).contains(&a));
        }
        assert_ne!(setpoint_wiggle(0.5), setpoint_wiggle(0.51));
    }

    #[test]
    fn lsb_matches_bits() {
        let s = SenseChain::prototype_charger();
        assert!((s.lsb_a() - 4.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn figure_6d_error_bounds() {
        // ≤ ~0.5 % error across the paper's 0.2–2.0 A sweep.
        let s = SenseChain::prototype_charger();
        let mut worst: f64 = 0.0;
        let mut i = 0.2;
        while i <= 2.0 + 1e-9 {
            let e = s.error_percent(i).unwrap();
            worst = worst.max(e);
            i += 0.2;
        }
        assert!(worst <= 0.6, "worst = {worst}");
        assert!(worst > 0.0, "a physical chain has nonzero error");
    }

    #[test]
    fn error_shrinks_at_high_current() {
        let s = SenseChain::prototype_charger();
        // Offset dominates at low currents: relative error at 0.2 A should
        // generally exceed that at 2.0 A.
        let low = s.error_percent(0.2).unwrap();
        let high = s.error_percent(2.0).unwrap();
        assert!(low > high * 0.5, "low {low}, high {high}");
    }

    #[test]
    fn realized_current_validates() {
        let s = SenseChain::prototype_charger();
        assert!(s.realized_current_a(-0.1).is_err());
        assert!(s.realized_current_a(f64::NAN).is_err());
        assert!(matches!(
            s.realized_current_a(5.0),
            Err(PowerError::OverRating { .. })
        ));
        assert!(s.error_percent(0.0).is_err());
    }

    #[test]
    fn figure_6b_error_bounds() {
        // < 0.6 % error across the paper's 1–99 % proportion settings.
        let c = ShareChain::prototype();
        for &p in &[0.01, 0.05, 0.10, 0.20, 0.50, 0.80, 0.95, 0.99] {
            let e = c.error_percent(p).unwrap();
            assert!(e < 0.6, "error at {p} = {e}");
        }
    }

    #[test]
    fn share_chain_validates() {
        let c = ShareChain::prototype();
        assert!(c.realized_share(0.0).is_err());
        assert!(c.realized_share(1.1).is_err());
        assert!(c.realized_share(-0.2).is_err());
        assert!(c.realized_share(1.0).is_ok());
    }

    #[test]
    fn realized_share_close_to_setpoint() {
        let c = ShareChain::prototype();
        for &p in &[0.01, 0.33, 0.66, 0.99] {
            let r = c.realized_share(p).unwrap();
            assert!((r - p).abs() / p < 0.006);
        }
    }
}
