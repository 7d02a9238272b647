//! Figure 8: the battery emulator's characteristic curves.

use crate::table;
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

/// SoC grid used by both panels.
fn soc_grid() -> Vec<f64> {
    (0..=10).map(|k| k as f64 / 10.0).collect()
}

/// Figure 8(b): open-circuit potential vs SoC for five batteries.
#[must_use]
pub fn render_fig8b() -> String {
    let batteries = fig8b_batteries();
    let mut header = vec!["SoC (%)".to_owned()];
    header.extend(
        batteries
            .iter()
            .enumerate()
            .map(|(i, _)| format!("Battery {}", i + 1)),
    );
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = soc_grid()
        .iter()
        .map(|&soc| {
            let mut row = vec![table::f(soc * 100.0, 0)];
            row.extend(batteries.iter().map(|b| table::f(b.ocp.eval(soc), 3)));
            row
        })
        .collect();
    format!(
        "Figure 8(b): Open circuit potential (V) vs state of charge\n\n{}",
        table::render(&header_refs, &rows)
    )
}

/// Figure 8(c): internal resistance vs SoC for eight batteries.
#[must_use]
pub fn render_fig8c() -> String {
    let batteries = fig8c_batteries();
    let mut header = vec!["SoC (%)".to_owned()];
    header.extend(
        batteries
            .iter()
            .enumerate()
            .map(|(i, _)| format!("Battery {}", i + 1)),
    );
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = soc_grid()
        .iter()
        .map(|&soc| {
            let mut row = vec![table::f(soc * 100.0, 0)];
            row.extend(batteries.iter().map(|b| table::f(b.dcir.eval(soc), 3)));
            row
        })
        .collect();
    format!(
        "Figure 8(c): Internal resistance (ohm) vs state of charge\n\n{}",
        table::render(&header_refs, &rows)
    )
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
