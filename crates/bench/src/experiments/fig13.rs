//! Figure 13: the watch day under the two policies.

use crate::table::{Figure, Table};
use sdb_core::scenarios::watch::{watch_scenario, WatchOutcome, WatchPolicy};

/// Seed used by the published figure.
pub(crate) const SEED: u64 = 13;

/// Runs both policies over the paper's day (run at hour 9).
#[must_use]
pub fn fig13_outcomes() -> (WatchOutcome, WatchOutcome) {
    (
        watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, Some(9.0), SEED),
        watch_scenario(WatchPolicy::PreserveLiIon, Some(9.0), SEED),
    )
}

/// Figure 13: the hourly energy/loss series, with the event annotations
/// the paper calls out as notes.
#[must_use]
pub(crate) fn fig13() -> Figure {
    let (p1, p2) = fig13_outcomes();
    let hours = p1.hourly_load_j.len().max(p2.hourly_load_j.len());
    let at = |series: &[f64], h: usize| series.get(h).copied().unwrap_or(0.0);
    let mut table = Table::new([
        ("Hour", 0),
        ("Device energy (J)", 0),
        ("Policy 1 losses (J)", 1),
        ("Policy 2 losses (J)", 1),
    ]);
    for h in 0..hours {
        table.push(vec![
            ((h + 1) as f64).into(),
            at(&p1.hourly_load_j, h).into(),
            at(&p1.hourly_loss_j, h).into(),
            at(&p2.hourly_loss_j, h).into(),
        ]);
    }
    let fmt_event = |s: Option<f64>| {
        s.map_or_else(|| "never".to_owned(), |t| format!("hour {:.1}", t / 3600.0))
    };
    let notes = format!(
        "\nEvents:\n\
         - Policy 1: Li-ion discharged completely: {}\n\
         - Policy 1: bendable discharged completely: {}\n\
         - Policy 1: device battery life: {:.1} h\n\
         - Policy 2: device battery life: {:.1} h\n\
         - Battery-life gain from preserving the Li-ion: {:.1} h\n\
         - Total losses: policy 1 = {:.0} J, policy 2 = {:.0} J\n",
        fmt_event(p1.li_ion_empty_s),
        fmt_event(p1.bendable_empty_s),
        p1.life_s / 3600.0,
        p2.life_s / 3600.0,
        (p2.life_s - p1.life_s) / 3600.0,
        p1.total_loss_j,
        p2.total_loss_j,
    );
    Figure {
        notes,
        ..Figure::new(
            "Figure 13: Watch day — hourly energy (J) and per-policy losses (J)",
            table,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_events_reproduced() {
        let (p1, p2) = fig13_outcomes();
        // Policy 1 empties the Li-ion early (paper: ~hour 9.5).
        let li = p1.li_ion_empty_s.expect("policy 1 kills the Li-ion") / 3600.0;
        assert!(li < 12.0, "Li-ion died at hour {li}");
        // Preserve policy gains over an hour.
        assert!((p2.life_s - p1.life_s) / 3600.0 > 1.0);
        // And wastes less energy.
        assert!(p2.total_loss_j < p1.total_loss_j);
    }

    #[test]
    fn render_includes_events() {
        let out = fig13().text();
        assert!(out.contains("Li-ion discharged completely"));
        assert!(out.contains("Battery-life gain"));
    }
}
