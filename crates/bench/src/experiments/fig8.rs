//! Figure 8: the battery emulator's characteristic curves.

use crate::table::{Figure, Table};
use sdb_battery_model::library::paper_library;
use sdb_battery_model::spec::BatterySpec;

/// The five batteries of Figure 8(b) — a spread of library cells.
#[must_use]
pub(crate) fn fig8b_batteries() -> Vec<BatterySpec> {
    let lib = paper_library();
    // A representative spread: three Type 2 sizes, one Type 3, one Type 4.
    [0, 4, 7, 8, 10].iter().map(|&i| lib[i].clone()).collect()
}

/// The eight batteries of Figure 8(c).
#[must_use]
pub(crate) fn fig8c_batteries() -> Vec<BatterySpec> {
    let lib = paper_library();
    [0, 2, 4, 6, 8, 9, 10, 14]
        .iter()
        .map(|&i| lib[i].clone())
        .collect()
}

/// Figure 8(b): open-circuit potential vs SoC for five batteries.
#[must_use]
pub fn fig8b() -> Figure {
    panel(
        "Figure 8(b): Open circuit potential (V) vs state of charge",
        &fig8b_batteries(),
        |b, soc| b.ocp.eval(soc),
    )
}

/// Figure 8(c): internal resistance vs SoC for eight batteries.
#[must_use]
pub fn fig8c() -> Figure {
    panel(
        "Figure 8(c): Internal resistance (ohm) vs state of charge",
        &fig8c_batteries(),
        |b, soc| b.dcir.eval(soc),
    )
}

/// One curve per battery, sampled every 10 % of SoC.
fn panel(caption: &str, batteries: &[BatterySpec], curve: fn(&BatterySpec, f64) -> f64) -> Figure {
    let mut table = Table::new(
        std::iter::once(("SoC (%)".to_owned(), 0))
            .chain((1..=batteries.len()).map(|i| (format!("Battery {i}"), 3))),
    );
    for k in 0..=10 {
        let pct = f64::from(k) * 10.0;
        let mut row = vec![pct.into()];
        row.extend(batteries.iter().map(|b| curve(b, pct / 100.0).into()));
        table.push(row);
    }
    Figure::new(caption, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_counts_match_paper() {
        assert_eq!(fig8b_batteries().len(), 5);
        assert_eq!(fig8c_batteries().len(), 8);
    }

    #[test]
    fn ocp_rises_resistance_falls() {
        for b in fig8b_batteries() {
            assert!(b.ocp.eval(1.0) > b.ocp.eval(0.0));
        }
        for b in fig8c_batteries() {
            assert!(b.dcir.eval(0.0) > b.dcir.eval(1.0));
        }
    }

    #[test]
    fn voltage_window_matches_figure() {
        // Figure 8(b) spans roughly 2.7–4.3 V.
        for b in fig8b_batteries() {
            assert!(b.ocp.y_min() >= 2.0 && b.ocp.y_max() <= 4.5, "{}", b.name);
        }
    }
}
