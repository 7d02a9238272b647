//! The battery switch's conduction path.
//!
//! The SDB discharge design (Figure 4c) restructures the switched-mode
//! regulator's built-in switch to draw *packets of energy* from the
//! batteries; "the ratio of the current draw is determined by the fraction
//! of time the switch is connected to a particular battery". The share that
//! duty cycle realizes is modelled by
//! [`ShareChain`](crate::measurement::ShareChain); this module models the
//! loss of the path each packet flows through.

/// A conduction path from one battery into the shared node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SwitchPath {
    /// FET on-resistance, ohms.
    pub(crate) r_on_ohm: f64,
    /// Constant forward drop (ideal-diode controller), volts. Zero for the
    /// integrated-regulator design.
    pub(crate) drop_v: f64,
}

impl SwitchPath {
    /// The prototype's path: an ideal-diode switch (Section 4.1), which
    /// costs a small forward drop plus conduction resistance. The paper
    /// notes this *underestimates* the proposal's efficiency.
    #[must_use]
    pub(crate) fn prototype() -> Self {
        Self {
            r_on_ohm: 0.016,
            drop_v: 0.018,
        }
    }

    /// The proposed integrated design, where the battery switch is the
    /// regulator's own switch: no extra diode drop, minimal added
    /// resistance.
    #[must_use]
    pub(crate) fn integrated() -> Self {
        Self {
            r_on_ohm: 0.004,
            drop_v: 0.0,
        }
    }

    /// Power lost in the path at `current_a` amps.
    #[must_use]
    pub(crate) fn loss_w(&self, current_a: f64) -> f64 {
        let i = current_a.abs();
        i * i * self.r_on_ohm + i * self.drop_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_lossier_than_integrated() {
        let proto = SwitchPath::prototype();
        let integ = SwitchPath::integrated();
        assert!(proto.loss_w(2.0) > integ.loss_w(2.0));
    }

    #[test]
    fn loss_grows_superlinearly() {
        let p = SwitchPath::integrated();
        assert!(p.loss_w(4.0) > 3.9 * p.loss_w(2.0));
        assert_eq!(p.loss_w(0.0), 0.0);
    }
}
