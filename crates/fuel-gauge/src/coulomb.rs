//! Coulomb counting with realistic measurement imperfections.
//!
//! A coulomb counter integrates the current through a sense resistor. Real
//! counters are imperfect in three ways modeled here: the ADC quantizes
//! each current sample, the sense chain has a small offset (which
//! integrates into drift), and sampling happens at a finite rate.

/// A coulomb counter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoulombCounter {
    /// ADC resolution, amps per count.
    pub(crate) lsb_a: f64,
    /// Static sense offset, amps (integrates into drift).
    pub(crate) offset_a: f64,
    /// Net charge counted, coulombs (positive = discharged).
    net_c: f64,
    /// Total charge moved in the discharge direction, coulombs.
    discharged_c: f64,
    /// Total charge moved in the charge direction, coulombs.
    charged_c: f64,
}

impl CoulombCounter {
    /// Creates a counter with the given ADC resolution and offset.
    ///
    /// # Panics
    ///
    /// Panics if `lsb_a` is negative or non-finite.
    #[must_use]
    pub(crate) fn new(lsb_a: f64, offset_a: f64) -> Self {
        assert!(lsb_a.is_finite() && lsb_a >= 0.0, "bad lsb: {lsb_a}");
        assert!(offset_a.is_finite(), "bad offset: {offset_a}");
        Self {
            lsb_a,
            offset_a,
            net_c: 0.0,
            discharged_c: 0.0,
            charged_c: 0.0,
        }
    }

    /// Records one current sample held for `dt_s` seconds
    /// (positive = discharge). Returns the *measured* current.
    pub(crate) fn sample(&mut self, current_a: f64, dt_s: f64) -> f64 {
        debug_assert!(current_a.is_finite() && dt_s >= 0.0);
        let measured = self.measure(current_a);
        let dq = measured * dt_s;
        self.net_c += dq;
        if dq >= 0.0 {
            self.discharged_c += dq;
        } else {
            self.charged_c += -dq;
        }
        measured
    }

    /// The measured value for a true current (quantization + offset), with
    /// no integration.
    #[must_use]
    pub(crate) fn measure(&self, current_a: f64) -> f64 {
        let with_offset = current_a + self.offset_a;
        if self.lsb_a > 0.0 {
            (with_offset / self.lsb_a).round() * self.lsb_a
        } else {
            with_offset
        }
    }

    /// Net counted charge, coulombs (positive = net discharge).
    #[must_use]
    pub(crate) fn net_c(&self) -> f64 {
        self.net_c
    }

    /// Resets the net accumulator (e.g. on OCV recalibration), keeping
    /// lifetime throughput counters.
    pub(crate) fn reset_net(&mut self) {
        self.net_c = 0.0;
    }

    /// Raw accumulator state for snapshotting:
    /// `(net_c, discharged_c, charged_c)`.
    #[must_use]
    pub(crate) fn export_state(&self) -> (f64, f64, f64) {
        (self.net_c, self.discharged_c, self.charged_c)
    }

    /// Restores accumulators captured by [`CoulombCounter::export_state`].
    pub(crate) fn import_state(&mut self, net_c: f64, discharged_c: f64, charged_c: f64) {
        self.net_c = net_c;
        self.discharged_c = discharged_c;
        self.charged_c = charged_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_counter_is_exact() {
        let mut c = CoulombCounter::new(0.0, 0.0);
        c.sample(2.0, 10.0);
        c.sample(-1.0, 5.0);
        assert!((c.net_c() - 15.0).abs() < 1e-12);
        assert!((c.discharged_c - 20.0).abs() < 1e-12);
        assert!((c.charged_c - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_rounds_to_lsb() {
        let c = CoulombCounter::new(0.01, 0.0);
        assert!((c.measure(0.234) - 0.23).abs() < 1e-12);
        assert!((c.measure(0.235999) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn offset_integrates_into_drift() {
        let mut c = CoulombCounter::new(0.0, 0.001);
        // One hour at zero true current: 3.6 C of phantom discharge.
        for _ in 0..3600 {
            c.sample(0.0, 1.0);
        }
        assert!((c.net_c() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn prototype_error_small_at_real_currents() {
        // Prototype-grade counter: 1 mA resolution, 50 µA offset.
        let mut c = CoulombCounter::new(0.001, 50e-6);
        // 0.5 A for one hour = 1800 C true.
        for _ in 0..3600 {
            c.sample(0.5, 1.0);
        }
        let err = (c.net_c() - 1800.0).abs() / 1800.0;
        assert!(err < 0.01, "relative error {err}");
    }

    #[test]
    fn reset_keeps_lifetime_counters() {
        let mut c = CoulombCounter::new(0.0, 0.0);
        c.sample(1.0, 10.0);
        c.reset_net();
        assert_eq!(c.net_c(), 0.0);
        assert!((c.discharged_c - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad lsb")]
    fn rejects_negative_lsb() {
        let _ = CoulombCounter::new(-1.0, 0.0);
    }
}
