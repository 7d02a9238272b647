//! Figure 14: 2-in-1 battery management.

use crate::table::{Figure, Table};
use sdb_core::scenarios::two_in_one::{two_in_one_comparison, TwoInOneRow};

/// Seed used by the published figure.
pub(crate) const SEED: u64 = 21;

/// The Figure 14 rows: one per workload.
#[must_use]
pub fn fig14_rows() -> Vec<TwoInOneRow> {
    two_in_one_comparison(SEED)
}

/// Figure 14, with the maximum improvement as a note.
#[must_use]
pub(crate) fn fig14() -> Figure {
    let rows = fig14_rows();
    let mut table = Table::new([
        ("Workload", 0),
        ("Simultaneous (h)", 2),
        ("Charge-through (h)", 2),
        ("Improvement (%)", 1),
    ]);
    for r in &rows {
        table.push(vec![
            r.workload.into(),
            (r.simultaneous_life_s / 3600.0).into(),
            (r.charge_through_life_s / 3600.0).into(),
            r.improvement_pct().into(),
        ]);
    }
    let max = rows
        .iter()
        .map(TwoInOneRow::improvement_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    Figure {
        notes: format!("\nMaximum improvement: {max:.1}% (paper reports up to 22%)\n"),
        ..Figure::new(
            "Figure 14: Battery-life improvement of simultaneous draw over charge-through",
            table,
        )
    }
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
