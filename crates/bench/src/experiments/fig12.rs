//! Figure 12: performance priority levels.

use crate::table::{Figure, Table};
use sdb_core::scenarios::turbo::{turbo_comparison, TurboRow};

/// The six bars of Figure 12.
#[must_use]
pub fn fig12_rows() -> Vec<TurboRow> {
    turbo_comparison()
}

/// Figure 12.
#[must_use]
pub(crate) fn fig12() -> Figure {
    let mut table = Table::new([
        ("Workload", 0),
        ("Level", 0),
        ("Latency ratio", 3),
        ("Energy ratio", 3),
    ]);
    for r in fig12_rows() {
        table.push(vec![
            r.profile.into(),
            r.level.label().into(),
            r.latency_ratio.into(),
            r.energy_ratio.into(),
        ]);
    }
    Figure::new(
        "Figure 12: Latency and energy vs performance priority level (normalized to Low)",
        table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_workloads::cpu::PowerLevel;

    #[test]
    fn six_rows() {
        assert_eq!(fig12_rows().len(), 6);
    }

    #[test]
    fn headline_numbers_hold() {
        let rows = fig12_rows();
        let net_high = rows
            .iter()
            .find(|r| r.profile.starts_with("Network") && r.level == PowerLevel::High)
            .unwrap();
        let cpu_high = rows
            .iter()
            .find(|r| r.profile.starts_with("CPU") && r.level == PowerLevel::High)
            .unwrap();
        // Paper: network energy up ~20.6 %, CPU latency down ~26 %.
        assert!(net_high.energy_ratio > 1.10);
        assert!(cpu_high.latency_ratio < 0.80);
    }
}
