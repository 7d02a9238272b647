//! Figure 11: the energy density / charge speed / longevity tradeoff.

use crate::table;
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

/// Renders Figure 11(a).
#[must_use]
pub fn render_fig11a() -> String {
    let rows: Vec<Vec<String>> = fig11a_rows()
        .iter()
        .map(|(label, d)| vec![label.clone(), table::f(*d, 1)])
        .collect();
    format!(
        "Figure 11(a): Energy density (Wh/l) vs % of fast-charging battery by capacity\n\n{}",
        table::render(&["Fast-charging share", "Energy density (Wh/l)"], &rows)
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

/// Renders Figure 11(b).
#[must_use]
pub(crate) fn render_fig11b() -> String {
    let curves = fig11b_curves();
    let mut header = vec!["% charged".to_owned()];
    header.extend(curves.iter().map(|(n, _)| format!("{n} (min)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let targets = &curves[0].1.targets_pct;
    let rows: Vec<Vec<String>> = targets
        .iter()
        .enumerate()
        .map(|(i, pct)| {
            let mut row = vec![table::f(*pct, 0)];
            row.extend(curves.iter().map(|(_, c)| table::opt_min(c.minutes[i])));
            row
        })
        .collect();
    format!(
        "Figure 11(b): Charging time (min) vs % charged ({CHARGER_W} W supply)\n\n{}",
        table::render(&header_refs, &rows)
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

/// Renders Figure 11(c).
#[must_use]
pub fn render_fig11c() -> String {
    let rows: Vec<Vec<String>> = fig11c_rows()
        .iter()
        .map(|(label, pct)| vec![label.clone(), table::f(*pct, 1)])
        .collect();
    format!(
        "Figure 11(c): Pack capacity retained after 1000 cycles (%)\n\n{}",
        table::render(&["Configuration", "Capacity retained (%)"], &rows)
    )
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
