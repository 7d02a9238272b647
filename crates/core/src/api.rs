//! The four SDB APIs (Section 3.3).
//!
//! "The runtime communicates with the SDB microcontroller using the
//! following four APIs: `Charge(c1, ..., cN)`, `Discharge(d1, ..., dN)`,
//! `ChargeOneFromAnother(X, Y, W, T)`, and `QueryBatteryStatus()`."
//!
//! [`SdbApi`] abstracts that boundary so the runtime can drive the real
//! emulated microcontroller, the lossy link, or a mock in tests.

use crate::error::SdbError;
use sdb_emulator::link::{Command, Link};
use sdb_emulator::micro::Microcontroller;
use sdb_fuel_gauge::gauge::BatteryStatus;

/// The OS-facing SDB hardware interface.
pub trait SdbApi {
    /// Number of batteries behind this interface.
    fn battery_count(&self) -> usize;

    /// `Charge(c1, ..., cN)`: set charging power ratios (must sum to 1).
    ///
    /// # Errors
    ///
    /// [`SdbError::BadRatios`] / [`SdbError::HardwareRejected`] on
    /// malformed tuples or firmware rejection.
    fn charge(&mut self, ratios: &[f64]) -> Result<(), SdbError>;

    /// `Discharge(d1, ..., dN)`: set discharging power ratios.
    ///
    /// # Errors
    ///
    /// As [`SdbApi::charge`].
    fn discharge(&mut self, ratios: &[f64]) -> Result<(), SdbError>;

    /// `ChargeOneFromAnother(X, Y, W, T)`.
    ///
    /// # Errors
    ///
    /// [`SdbError::BadIndex`] / [`SdbError::HardwareRejected`].
    fn charge_one_from_another(
        &mut self,
        from: usize,
        to: usize,
        power_w: f64,
        duration_s: f64,
    ) -> Result<(), SdbError>;

    /// `QueryBatteryStatus()`: per-battery gauge rows.
    fn query_battery_status(&mut self) -> Vec<BatteryStatus>;
}

impl SdbApi for Microcontroller {
    fn battery_count(&self) -> usize {
        Microcontroller::battery_count(self)
    }

    fn charge(&mut self, ratios: &[f64]) -> Result<(), SdbError> {
        self.set_charge_ratios(ratios)
            .map_err(|e| SdbError::HardwareRejected(e.to_string()))
    }

    fn discharge(&mut self, ratios: &[f64]) -> Result<(), SdbError> {
        self.set_discharge_ratios(ratios)
            .map_err(|e| SdbError::HardwareRejected(e.to_string()))
    }

    fn charge_one_from_another(
        &mut self,
        from: usize,
        to: usize,
        power_w: f64,
        duration_s: f64,
    ) -> Result<(), SdbError> {
        Microcontroller::charge_one_from_another(self, from, to, power_w, duration_s)
            .map_err(|e| SdbError::HardwareRejected(e.to_string()))
    }

    fn query_battery_status(&mut self) -> Vec<BatteryStatus> {
        Microcontroller::query_battery_status(self)
    }
}

/// The link implementation fires commands into the transport; delivery (and
/// therefore any Nack) is asynchronous, so command methods always succeed
/// locally — matching the prototype's Bluetooth boundary.
impl SdbApi for Link {
    fn battery_count(&self) -> usize {
        self.micro().battery_count()
    }

    fn charge(&mut self, ratios: &[f64]) -> Result<(), SdbError> {
        self.send(Command::Charge(ratios.to_vec()));
        Ok(())
    }

    fn discharge(&mut self, ratios: &[f64]) -> Result<(), SdbError> {
        self.send(Command::Discharge(ratios.to_vec()));
        Ok(())
    }

    fn charge_one_from_another(
        &mut self,
        from: usize,
        to: usize,
        power_w: f64,
        duration_s: f64,
    ) -> Result<(), SdbError> {
        self.send(Command::ChargeOneFromAnother {
            from,
            to,
            power_w,
            duration_s,
        });
        Ok(())
    }

    fn query_battery_status(&mut self) -> Vec<BatteryStatus> {
        // The link's gauges are queried synchronously in the emulator; a
        // production driver would await the serial round-trip. Routing
        // through the link (not straight to the firmware) keeps injected
        // stale-status faults effective on this path too.
        self.query_battery_status_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;

    fn micro() -> Microcontroller {
        PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery(BatterySpec::from_chemistry(
                "b",
                Chemistry::Type3CoPower,
                2.0,
            ))
            .build()
    }

    #[test]
    fn micro_implements_api() {
        let mut m = micro();
        let api: &mut dyn SdbApi = &mut m;
        assert_eq!(api.battery_count(), 2);
        api.discharge(&[0.3, 0.7]).unwrap();
        api.charge(&[0.5, 0.5]).unwrap();
        assert_eq!(api.query_battery_status().len(), 2);
        assert!(api.discharge(&[0.9, 0.9]).is_err());
        assert!(api.charge_one_from_another(0, 0, 5.0, 10.0).is_err());
    }

    #[test]
    fn link_implements_api_asynchronously() {
        let mut link = Link::ideal(micro());
        let api: &mut dyn SdbApi = &mut link;
        // Malformed ratios are accepted locally (Nack arrives later).
        api.discharge(&[0.9, 0.9]).unwrap();
        api.discharge(&[1.0, 0.0]).unwrap();
        link.step(2.0, 0.0, 60.0);
        let mut responses = Vec::new();
        link.drain_responses_into(&mut responses);
        assert_eq!(responses.len(), 2);
    }
}
