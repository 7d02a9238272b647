//! Figure 10: validating the production model against the reference cell.

use crate::table::{Figure, Table};
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

/// Figure 10, with the mean accuracy as a note.
#[must_use]
pub(crate) fn fig10() -> Figure {
    let reports = fig10_reports();
    let mut table = Table::new([
        ("Current (A)", 1),
        ("Samples", 0),
        ("Accuracy (%)", 2),
        ("Max error (%)", 2),
    ]);
    for r in &reports {
        table.push(vec![
            r.current_a.into(),
            (r.samples as f64).into(),
            r.accuracy_percent().into(),
            (r.max_abs_rel_error * 100.0).into(),
        ]);
    }
    let mean_acc = reports
        .iter()
        .map(ValidationReport::accuracy_percent)
        .sum::<f64>()
        / reports.len() as f64;
    Figure {
        notes: format!("\nMean accuracy: {mean_acc:.2}%\n"),
        ..Figure::new(
            "Figure 10: Thevenin model vs reference cell (paper reports 97.5% accuracy)",
            table,
        )
    }
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
        assert!(fig10().text().contains("Mean accuracy"));
    }
}
