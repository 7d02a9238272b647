//! Figure 11: the energy density / charge speed / longevity tradeoff.

use crate::table::{Cell, Figure, Table};
use sdb_core::scenarios::hybrid::{charge_time_curve, ChargeCurve, HybridConfig};

/// External charger power used in the Figure 11(b) experiment, watts.
pub(crate) const CHARGER_W: f64 = 60.0;

/// Figure 11(a): energy density per configuration.
#[must_use]
pub(crate) fn fig11a_rows() -> Vec<(String, f64)> {
    HybridConfig::paper_configs()
        .iter()
        .map(|c| (c.label(), c.energy_density_wh_per_l()))
        .collect()
}

/// Figure 11(a).
#[must_use]
pub fn fig11a() -> Figure {
    labelled(
        "Figure 11(a): Energy density (Wh/l) vs % of fast-charging battery by capacity",
        ["Fast-charging share", "Energy density (Wh/l)"],
        fig11a_rows(),
    )
}

/// Figure 11(b): the three charge-time curves.
#[must_use]
pub fn fig11b_curves() -> Vec<(String, ChargeCurve)> {
    HybridConfig::paper_configs()
        .iter()
        .map(|c| {
            let name = if c.fast_fraction == 0.0 {
                "Traditional Battery".to_owned()
            } else if c.fast_fraction == 1.0 {
                "Fast Charging Battery".to_owned()
            } else {
                "SDB".to_owned()
            };
            (name, charge_time_curve(c, CHARGER_W))
        })
        .collect()
}

/// Figure 11(b); a target a configuration never reaches is missing.
#[must_use]
pub(crate) fn fig11b() -> Figure {
    let curves = fig11b_curves();
    let mut table = Table::new(
        std::iter::once(("% charged".to_owned(), 0))
            .chain(curves.iter().map(|(n, _)| (format!("{n} (min)"), 1))),
    );
    for (i, pct) in curves[0].1.targets_pct.iter().enumerate() {
        let mut row = vec![Cell::from(*pct)];
        row.extend(curves.iter().map(|(_, c)| Cell::from(c.minutes[i])));
        table.push(row);
    }
    Figure::new(
        format!("Figure 11(b): Charging time (min) vs % charged ({CHARGER_W} W supply)"),
        table,
    )
}

/// Figure 11(c): longevity after 1000 cycles per configuration.
#[must_use]
pub(crate) fn fig11c_rows() -> Vec<(String, f64)> {
    let [no_fast, half, all_fast] = HybridConfig::paper_configs();
    vec![
        (
            "All Fast Charging Battery".to_owned(),
            all_fast.longevity_after_cycles(1000),
        ),
        ("SDB".to_owned(), half.longevity_after_cycles(1000)),
        (
            "No Fast Charging Battery".to_owned(),
            no_fast.longevity_after_cycles(1000),
        ),
    ]
}

/// Figure 11(c).
#[must_use]
pub fn fig11c() -> Figure {
    labelled(
        "Figure 11(c): Pack capacity retained after 1000 cycles (%)",
        ["Configuration", "Capacity retained (%)"],
        fig11c_rows(),
    )
}

/// One `(label, value)` row per configuration, values to 0.1.
fn labelled(caption: &str, header: [&str; 2], rows: Vec<(String, f64)>) -> Figure {
    let mut table = Table::new([(header[0], 0), (header[1], 1)]);
    for (label, value) in rows {
        table.push(vec![label.into(), value.into()]);
    }
    Figure::new(caption, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11a_monotone_decreasing() {
        let rows = fig11a_rows();
        assert!(rows[0].1 > rows[1].1 && rows[1].1 > rows[2].1);
    }

    #[test]
    fn fig11b_sdb_in_between() {
        let curves = fig11b_curves();
        let t = |name: &str, pct: f64| {
            curves
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, c)| c.minutes_to(pct))
                .expect("target reached")
        };
        let traditional = t("Traditional Battery", 40.0);
        let sdb = t("SDB", 40.0);
        let fast = t("Fast Charging Battery", 40.0);
        assert!(fast < sdb && sdb < traditional);
        assert!(
            traditional / sdb > 1.8,
            "SDB ~3x faster to 40% than traditional"
        );
    }

    #[test]
    fn fig11c_sdb_is_middle_ground() {
        let rows = fig11c_rows();
        let all_fast = rows[0].1;
        let sdb = rows[1].1;
        let no_fast = rows[2].1;
        assert!(no_fast > sdb && sdb > all_fast);
    }
}
