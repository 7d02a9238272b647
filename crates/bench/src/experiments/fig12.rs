//! Figure 12: performance priority levels.

use crate::table;
use sdb_core::scenarios::turbo::{turbo_comparison, TurboRow};

/// The six bars of Figure 12.
#[must_use]
pub fn fig12_rows() -> Vec<TurboRow> {
    turbo_comparison()
}

/// Renders Figure 12.
#[must_use]
pub(crate) fn render_fig12() -> String {
    let rows: Vec<Vec<String>> = fig12_rows()
        .iter()
        .map(|r| {
            vec![
                r.profile.to_owned(),
                r.level.label().to_owned(),
                table::f(r.latency_ratio, 3),
                table::f(r.energy_ratio, 3),
            ]
        })
        .collect();
    format!(
        "Figure 12: Latency and energy vs performance priority level (normalized to Low)\n\n{}",
        table::render(
            &["Workload", "Level", "Latency ratio", "Energy ratio"],
            &rows
        )
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
