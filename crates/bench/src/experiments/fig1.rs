//! Figure 1: Li-ion battery properties.

use crate::table;
use sdb_battery_model::aging::FadeModel;
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_battery_model::thevenin::TheveninCell;

/// Figure 1(a): the four chemistry classes scored on the radar axes.
#[must_use]
pub(crate) fn fig1a_rows() -> Vec<(Chemistry, [(&'static str, f64); 6])> {
    Chemistry::FIGURE_1A
        .iter()
        .map(|&c| (c, c.axis_scores().as_rows()))
        .collect()
}

/// Renders Figure 1(a).
#[must_use]
pub fn render_fig1a() -> String {
    let data = fig1a_rows();
    let header: Vec<&str> = std::iter::once("Axis")
        .chain(data.iter().map(|(c, _)| c.name()))
        .collect();
    let axes = data[0].1;
    let rows: Vec<Vec<String>> = axes
        .iter()
        .enumerate()
        .map(|(i, (axis, _))| {
            let mut row = vec![(*axis).to_owned()];
            for (_, scores) in &data {
                row.push(table::f(scores[i].1, 2));
            }
            row
        })
        .collect();
    format!(
        "Figure 1(a): Li-ion batteries compared (axis scores in [0,1])\n\n{}",
        table::render(&header, &rows)
    )
}

/// Figure 1(b): capacity after N cycles for a 1 Ah Type 2 sample charged
/// at 0.5, 0.7 and 1.0 A. Returns `(cycles, [cap% @0.5A, @0.7A, @1.0A])`.
#[must_use]
pub(crate) fn fig1b_series() -> Vec<(u32, [f64; 3])> {
    let spec = BatterySpec::from_chemistry("sample Type 2", Chemistry::Type2CoStandard, 1.0);
    let fade = FadeModel::for_spec(&spec);
    (0..=600)
        .step_by(50)
        .map(|n| {
            (
                n,
                [
                    fade.capacity_after(n, 0.5) * 100.0,
                    fade.capacity_after(n, 0.7) * 100.0,
                    fade.capacity_after(n, 1.0) * 100.0,
                ],
            )
        })
        .collect()
}

/// Renders Figure 1(b).
#[must_use]
pub fn render_fig1b() -> String {
    let rows: Vec<Vec<String>> = fig1b_series()
        .iter()
        .map(|(n, caps)| {
            vec![
                n.to_string(),
                table::f(caps[0], 1),
                table::f(caps[1], 1),
                table::f(caps[2], 1),
            ]
        })
        .collect();
    format!(
        "Figure 1(b): Capacity after N cycles (%) vs charging current, 1 Ah Type 2 cell\n\n{}",
        table::render(&["Cycles", "0.5A", "0.7A", "1.0A"], &rows)
    )
}

/// Figure 1(c): internal heat loss (%) vs discharge C-rate for Types
/// 2/3/4. Returns `(c_rate, [type2%, type3%, type4%])`.
#[must_use]
pub(crate) fn fig1c_series() -> Vec<(f64, [f64; 3])> {
    let cells: Vec<TheveninCell> = [
        Chemistry::Type2CoStandard,
        Chemistry::Type3CoPower,
        Chemistry::Type4Bendable,
    ]
    .iter()
    .map(|&c| TheveninCell::new(BatterySpec::from_chemistry(c.name(), c, 1.0)))
    .collect();
    (1..=8)
        .map(|k| {
            let c_rate = k as f64 * 0.25;
            (
                c_rate,
                [
                    cells[0].heat_loss_fraction_at_c_rate(c_rate) * 100.0,
                    cells[1].heat_loss_fraction_at_c_rate(c_rate) * 100.0,
                    cells[2].heat_loss_fraction_at_c_rate(c_rate) * 100.0,
                ],
            )
        })
        .collect()
}

/// Renders Figure 1(c).
#[must_use]
pub fn render_fig1c() -> String {
    let rows: Vec<Vec<String>> = fig1c_series()
        .iter()
        .map(|(c, losses)| {
            vec![
                table::f(*c, 2),
                table::f(losses[0], 1),
                table::f(losses[1], 1),
                table::f(losses[2], 1),
            ]
        })
        .collect();
    format!(
        "Figure 1(c): Internal heat loss (%) vs discharge C-rate\n\n{}",
        table::render(&["C-rate", "Type 2", "Type 3", "Type 4"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1b_monotone_decreasing_and_ordered() {
        let series = fig1b_series();
        for w in series.windows(2) {
            for k in 0..3 {
                assert!(w[1].1[k] <= w[0].1[k], "capacity must not grow with cycles");
            }
        }
        let last = series.last().unwrap().1;
        assert!(
            last[0] > last[1] && last[1] > last[2],
            "higher current fades faster"
        );
    }

    #[test]
    fn fig1c_type4_dominates() {
        for (c, losses) in fig1c_series() {
            assert!(losses[2] > losses[0], "Type 4 lossier at {c}C");
            assert!(losses[0] > losses[1], "Type 2 lossier than Type 3 at {c}C");
        }
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(render_fig1a().contains("Power Density"));
        assert!(render_fig1b().contains("600"));
        assert!(render_fig1c().contains("2.00"));
    }
}
