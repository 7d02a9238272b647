//! Figure 6: SDB hardware microbenchmarks.

use crate::table::{Figure, Table};
use sdb_power_electronics::circuits::{
    ChargeCircuit, ChargeTopology, DischargeCircuit, DischargeTopology,
};
use sdb_power_electronics::measurement::{SenseChain, ShareChain};

/// Nominal battery voltage used by the prototype microbenchmarks.
const V_BATT: f64 = 3.8;

/// Figure 6(a): `% power loss` of the discharge circuit vs discharge
/// power, over the paper's 0.1–10 W sweep.
#[must_use]
pub(crate) fn fig6a_series() -> Vec<(f64, f64)> {
    let circuit = DischargeCircuit::new(DischargeTopology::NaiveSwitch, 2);
    [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
        .iter()
        .map(|&w| {
            (
                w,
                circuit.loss_fraction(w, V_BATT).expect("valid load") * 100.0,
            )
        })
        .collect()
}

/// Figure 6(a).
#[must_use]
pub fn fig6a() -> Figure {
    pairs(
        "Figure 6(a): Discharge circuit power loss (%) vs discharge power (W)",
        [("Power (W)", 1), ("Loss (%)", 2)],
        &fig6a_series(),
    )
}

/// Figure 6(b): `% error` of the measured discharge share vs the share set
/// by the microcontroller, over the paper's 1–99 % sweep.
#[must_use]
pub(crate) fn fig6b_series() -> Vec<(f64, f64)> {
    let chain = ShareChain::prototype();
    [0.01, 0.05, 0.10, 0.20, 0.50, 0.80, 0.95, 0.99]
        .iter()
        .map(|&p| (p * 100.0, chain.error_percent(p).expect("valid share")))
        .collect()
}

/// Figure 6(b).
#[must_use]
pub fn fig6b() -> Figure {
    pairs(
        "Figure 6(b): Share setpoint error (%) vs proportion setting (%)",
        [("Setting (%)", 0), ("Error (%)", 3)],
        &fig6b_series(),
    )
}

/// Figure 6(c): charging efficiency as a % of the chip's typical
/// efficiency vs charging current, over the paper's 0.8–2.2 A sweep.
#[must_use]
pub(crate) fn fig6c_series() -> Vec<(f64, f64)> {
    let circuit = ChargeCircuit::new(ChargeTopology::SdbReversible, 2, 2.5);
    (0..=7)
        .map(|k| {
            let i = 0.8 + 0.2 * k as f64;
            (
                i,
                circuit
                    .relative_efficiency(i, V_BATT)
                    .expect("valid current")
                    * 100.0,
            )
        })
        .collect()
}

/// Figure 6(c).
#[must_use]
pub fn fig6c() -> Figure {
    pairs(
        "Figure 6(c): Charging efficiency (% of chip typical) vs charging current (A)",
        [("Current (A)", 1), ("Efficiency (%)", 1)],
        &fig6c_series(),
    )
}

/// Figure 6(d): `% error` of the measured charging current vs the current
/// set by the microcontroller, over the paper's 0.2–2.0 A sweep.
#[must_use]
pub(crate) fn fig6d_series() -> Vec<(f64, f64)> {
    let chain = SenseChain::prototype_charger();
    (1..=10)
        .map(|k| {
            let i = 0.2 * k as f64;
            (i, chain.error_percent(i).expect("valid current"))
        })
        .collect()
}

/// Figure 6(d).
#[must_use]
pub fn fig6d() -> Figure {
    pairs(
        "Figure 6(d): Charging current setpoint error (%) vs charging current (A)",
        [("Current (A)", 1), ("Error (%)", 3)],
        &fig6d_series(),
    )
}

/// A two-column figure of `(x, y)` points.
fn pairs(caption: &str, header: [(&str, usize); 2], series: &[(f64, f64)]) -> Figure {
    let mut table = Table::new(header);
    for &(x, y) in series {
        table.push(vec![x.into(), y.into()]);
    }
    Figure::new(caption, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_paper_shape() {
        let s = fig6a_series();
        let light = s[0].1;
        let heavy = s.last().unwrap().1;
        // "power-loss remains ≈1% under typical light loads while it
        // reaches 1.6% with a 10W load".
        assert!((0.8..=1.4).contains(&light), "light = {light}");
        assert!((1.3..=2.0).contains(&heavy), "heavy = {heavy}");
    }

    #[test]
    fn fig6b_under_paper_bound() {
        // "< 0.6% error under a wide range of current assignments".
        for (p, e) in fig6b_series() {
            assert!(e < 0.6, "error at {p}% = {e}");
        }
    }

    #[test]
    fn fig6c_paper_shape() {
        let s = fig6c_series();
        // High efficiency at light loads, ≈94 % at high charging currents.
        assert!(s[0].1 > 97.0, "light = {}", s[0].1);
        let last = s.last().unwrap().1;
        assert!((92.0..=97.0).contains(&last), "heavy = {last}");
    }

    #[test]
    fn fig6d_under_paper_bound() {
        // "the error remains at or below 0.5%" (we allow a hair of slack
        // for quantization corner cases).
        for (i, e) in fig6d_series() {
            assert!(e <= 0.6, "error at {i} A = {e}");
        }
    }
}
