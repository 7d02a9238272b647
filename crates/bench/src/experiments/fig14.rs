//! Figure 14: 2-in-1 battery management.

use crate::table;
use sdb_core::scenarios::two_in_one::{two_in_one_comparison, TwoInOneRow};

/// Seed used by the published figure.
pub(crate) const SEED: u64 = 21;

/// The Figure 14 rows: one per workload.
#[must_use]
pub fn fig14_rows() -> Vec<TwoInOneRow> {
    two_in_one_comparison(SEED)
}

/// Renders Figure 14.
#[must_use]
pub(crate) fn render_fig14() -> String {
    let rows_data = fig14_rows();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.workload.to_owned(),
                table::f(r.simultaneous_life_s / 3600.0, 2),
                table::f(r.charge_through_life_s / 3600.0, 2),
                table::f(r.improvement_pct(), 1),
            ]
        })
        .collect();
    let max = rows_data
        .iter()
        .map(TwoInOneRow::improvement_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    format!(
        "Figure 14: Battery-life improvement of simultaneous draw over charge-through\n\n{}\nMaximum improvement: {:.1}% (paper reports up to 22%)\n",
        table::render(
            &["Workload", "Simultaneous (h)", "Charge-through (h)", "Improvement (%)"],
            &rows
        ),
        max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_wins_across_workloads() {
        let rows = fig14_rows();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.improvement_pct() > 3.0,
                "{}: improvement = {:.1}%",
                r.workload,
                r.improvement_pct()
            );
        }
        // Headline: the best case lands in the paper's ballpark.
        let max = rows
            .iter()
            .map(TwoInOneRow::improvement_pct)
            .fold(0.0, f64::max);
        assert!((10.0..=35.0).contains(&max), "max = {max}%");
    }
}
