//! Figure 10: validating the production model against the reference cell.

use crate::table;
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::reference::{validate_model, ValidationReport};
use sdb_battery_model::spec::BatterySpec;

/// The paper's three validation currents.
pub(crate) const CURRENTS_A: [f64; 3] = [0.2, 0.5, 0.7];

/// Runs the Figure 10 validation at all three currents.
#[must_use]
pub fn fig10_reports() -> Vec<ValidationReport> {
    let spec = BatterySpec::from_chemistry("validation cell", Chemistry::Type2CoStandard, 1.5);
    CURRENTS_A
        .iter()
        .map(|&i| validate_model(&spec, i, 10.0, 2015))
        .collect()
}

/// Renders Figure 10.
#[must_use]
pub(crate) fn render_fig10() -> String {
    let reports = fig10_reports();
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                table::f(r.current_a, 1),
                r.samples.to_string(),
                table::f(r.accuracy_percent(), 2),
                table::f(r.max_abs_rel_error * 100.0, 2),
            ]
        })
        .collect();
    let mean_acc = reports
        .iter()
        .map(ValidationReport::accuracy_percent)
        .sum::<f64>()
        / reports.len() as f64;
    format!(
        "Figure 10: Thevenin model vs reference cell (paper reports 97.5% accuracy)\n\n{}\nMean accuracy: {:.2}%\n",
        table::render(
            &["Current (A)", "Samples", "Accuracy (%)", "Max error (%)"],
            &rows
        ),
        mean_acc
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_near_paper_figure() {
        for r in fig10_reports() {
            let acc = r.accuracy_percent();
            assert!(
                acc > 96.0 && acc < 100.0,
                "accuracy at {} A = {acc}",
                r.current_a
            );
            assert!(r.samples > 100);
        }
    }

    #[test]
    fn render_mentions_mean() {
        assert!(render_fig10().contains("Mean accuracy"));
    }
}
