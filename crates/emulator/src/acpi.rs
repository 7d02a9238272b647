//! ACPI-style legacy battery view.
//!
//! "These parameters are exposed through the Advanced Configuration and
//! Power Interface (ACPI). However, none of these APIs allow the OS to set
//! the battery parameters" (Section 2.2). Existing OS components expect a
//! *single logical battery*; this module aggregates a heterogeneous SDB
//! pack into that legacy view, so unmodified power managers keep working
//! while SDB-aware components use the rich per-battery APIs.

use crate::micro::Microcontroller;

/// Charging state of the aggregate battery (ACPI `_BST` semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcpiState {
    /// Net current flowing out of the pack.
    Discharging,
    /// Net current flowing into the pack.
    Charging,
    /// No meaningful current.
    Idle,
}

/// The single-logical-battery view of a pack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcpiBatteryInfo {
    /// Design capacity of all present batteries, milliwatt-hours.
    pub design_capacity_mwh: f64,
    /// Last full charge capacity (design × fade), milliwatt-hours.
    pub last_full_capacity_mwh: f64,
    /// Remaining capacity, milliwatt-hours.
    pub remaining_capacity_mwh: f64,
    /// Present drain (positive) or charge (negative) rate, milliwatts.
    pub(crate) present_rate_mw: f64,
    /// Capacity-weighted pack voltage, millivolts.
    pub voltage_mv: f64,
    /// Charging state.
    pub state: AcpiState,
    /// Remaining percentage `[0, 100]`.
    pub percentage: f64,
    /// Number of physically present batteries aggregated.
    pub(crate) batteries_present: usize,
}

/// Builds the legacy single-battery view from the pack's gauges and
/// ground-truth fade.
#[must_use]
pub fn report(micro: &Microcontroller) -> AcpiBatteryInfo {
    let statuses = micro.query_battery_status();
    let mut design_mwh = 0.0;
    let mut full_mwh = 0.0;
    let mut remaining_mwh = 0.0;
    let mut rate_mw = 0.0;
    let mut v_weight = 0.0;
    let mut v_sum = 0.0;
    let mut present = 0usize;
    for (status, cell) in statuses.iter().zip(micro.cells()) {
        if !status.present {
            continue;
        }
        present += 1;
        let nominal_v = cell.spec().chemistry.nominal_voltage_v();
        let design = cell.spec().capacity_ah * nominal_v * 1000.0;
        design_mwh += design;
        full_mwh += design * cell.aging().capacity_fraction();
        remaining_mwh += status.remaining_ah * nominal_v * 1000.0;
        rate_mw += status.current_a * status.terminal_v * 1000.0;
        v_sum += status.terminal_v * cell.spec().capacity_ah;
        v_weight += cell.spec().capacity_ah;
    }
    let state = if rate_mw > 1.0 {
        AcpiState::Discharging
    } else if rate_mw < -1.0 {
        AcpiState::Charging
    } else {
        AcpiState::Idle
    };
    AcpiBatteryInfo {
        design_capacity_mwh: design_mwh,
        last_full_capacity_mwh: full_mwh,
        remaining_capacity_mwh: remaining_mwh,
        present_rate_mw: rate_mw,
        voltage_mv: if v_weight > 0.0 {
            v_sum / v_weight * 1000.0
        } else {
            0.0
        },
        state,
        percentage: if full_mwh > 0.0 {
            (remaining_mwh / full_mwh * 100.0).clamp(0.0, 100.0)
        } else {
            0.0
        },
        batteries_present: present,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::PackBuilder;
    use crate::profile::ProfileKind;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;

    fn pack() -> Microcontroller {
        PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                0.5,
                ProfileKind::Fast,
            )
            .build()
    }

    #[test]
    fn aggregates_pack_to_single_battery() {
        let m = pack();
        let info = report(&m);
        assert_eq!(info.batteries_present, 2);
        // 2 Ah @ 3.8 V × 2 cells = 15200 mWh design.
        assert!((info.design_capacity_mwh - 15_200.0).abs() < 1.0);
        // One full + one half cell: 75 % remaining.
        assert!((info.percentage - 75.0).abs() < 1.0, "{}", info.percentage);
        assert_eq!(info.state, AcpiState::Idle);
        assert!(info.voltage_mv > 3000.0 && info.voltage_mv < 4500.0);
    }

    #[test]
    fn discharging_state_and_runtime_estimate() {
        let mut m = pack();
        m.step(7.6, 0.0, 60.0);
        let info = report(&m);
        assert_eq!(info.state, AcpiState::Discharging);
        assert!(info.present_rate_mw > 6000.0);
    }

    #[test]
    fn charging_state() {
        let mut m = pack();
        m.set_charge_ratios(&[0.0, 1.0]).unwrap();
        m.step(0.0, 10.0, 60.0);
        let info = report(&m);
        assert_eq!(info.state, AcpiState::Charging);
    }

    #[test]
    fn detached_battery_leaves_the_aggregate() {
        let mut m = pack();
        let before = report(&m);
        m.set_battery_present(1, false).unwrap();
        let after = report(&m);
        assert_eq!(after.batteries_present, 1);
        assert!(after.design_capacity_mwh < before.design_capacity_mwh);
        // Only the full cell remains: 100 %.
        assert!((after.percentage - 100.0).abs() < 1.0);
    }
}
