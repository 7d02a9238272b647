//! Ablations of SDB design choices (extension beyond the paper).
//!
//! Three questions the paper's design raises but does not quantify:
//!
//! 1. How much does the RBL allocator's DCIR-slope (δ) term matter,
//!    versus a plain parallel-resistor split?
//! 2. What does the preserve policy cost when its workload prediction is
//!    wrong (the user never goes running)?
//! 3. What do the SDB circuit topologies save over the naive designs, in
//!    components and in loss?

use crate::table;
use sdb_core::policy::{rbl_discharge, PolicyInput};
use sdb_core::scenarios::watch::{watch_scenario, WatchPolicy};
use sdb_power_electronics::circuits::{
    ChargeCircuit, ChargeTopology, DischargeCircuit, DischargeTopology,
};

/// Ablation 1: allocate a 6 W load across a fresh hybrid pack with and
/// without the slope term, and report the loss-weighted difference.
/// Returns `(with_slope_ratios, without_slope_ratios)`.
#[must_use]
pub(crate) fn slope_term_allocations() -> (Vec<f64>, Vec<f64>) {
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;
    use sdb_emulator::profile::ProfileKind;
    // Drain state where the DCIR slope matters: mid-low SoC.
    let micro = PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 4.0),
            0.25,
            ProfileKind::Standard,
        )
        .battery_at(
            BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 4.0),
            0.25,
            ProfileKind::Fast,
        )
        .build();
    let input = PolicyInput::from_micro(&micro).with_load(6.0);
    let with = rbl_discharge(&input).expect("feasible");
    let mut zeroed = input.clone();
    for b in &mut zeroed.batteries {
        b.dcir_slope = 0.0;
    }
    let without = rbl_discharge(&zeroed).expect("feasible");
    (with, without)
}

/// Ablation 2: the preserve policy on a day with no run (wrong
/// prediction). Returns `(policy1_loss_j, policy2_loss_j)` for that day.
#[must_use]
pub(crate) fn wrong_prediction_losses() -> (f64, f64) {
    let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, None, 13);
    let p2 = watch_scenario(WatchPolicy::PreserveLiIon, None, 13);
    (p1.total_loss_j, p2.total_loss_j)
}

/// Ablation 3 rows: circuit topology comparison.
#[must_use]
pub(crate) fn topology_rows() -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for n in [2usize, 3, 4] {
        let naive_c = ChargeCircuit::new(ChargeTopology::NaiveMatrix, n, 3.0);
        let sdb_c = ChargeCircuit::new(ChargeTopology::SdbReversible, n, 3.0);
        rows.push(vec![
            format!("charge regulators, N={n}"),
            naive_c.regulator_count().to_string(),
            sdb_c.regulator_count().to_string(),
        ]);
    }
    let naive_d = DischargeCircuit::new(DischargeTopology::NaiveSwitch, 2);
    let sdb_d = DischargeCircuit::new(DischargeTopology::SdbIntegrated, 2);
    for &w in &[1.0, 5.0, 10.0] {
        rows.push(vec![
            format!("discharge loss @ {w} W (%)"),
            table::f(naive_d.loss_fraction(w, 3.8).expect("valid") * 100.0, 2),
            table::f(sdb_d.loss_fraction(w, 3.8).expect("valid") * 100.0, 2),
        ]);
    }
    rows
}

/// Ablation 4: battery life of the watch day as a function of the
/// discharging directive parameter — the CCB↔RBL tension made visible.
/// Returns `(directive, life_h)` pairs.
#[must_use]
pub(crate) fn directive_sweep() -> Vec<(f64, f64)> {
    use sdb_core::policy::DischargeDirective;
    use sdb_core::runtime::SdbRuntime;
    use sdb_core::scheduler::{run_trace, SimOptions};
    use sdb_workloads::traces::watch_day;
    (0..=4)
        .map(|k| {
            let d = k as f64 * 0.25;
            let mut micro = sdb_core::scenarios::watch::build_pack();
            let mut runtime = SdbRuntime::new(2);
            runtime.set_discharge_directive(DischargeDirective::new(d));
            let sim = run_trace(
                &mut micro,
                &mut runtime,
                &watch_day(13, Some(9.0)),
                &SimOptions::default(),
            );
            (d, sim.battery_life_s() / 3600.0)
        })
        .collect()
}

/// Ablation 5: the oracle policy (exact future knowledge) against the two
/// fixed watch policies. Returns `(label, life_h)` triples.
#[must_use]
pub(crate) fn oracle_comparison() -> Vec<(&'static str, f64)> {
    use sdb_core::scenarios::watch::{watch_scenario, WatchPolicy};
    [
        WatchPolicy::MinimizeInstantaneousLosses,
        WatchPolicy::PreserveLiIon,
        WatchPolicy::Oracle,
    ]
    .into_iter()
    .map(|p| (p.label(), watch_scenario(p, Some(9.0), 13).life_s / 3600.0))
    .collect()
}

/// Ablation 6: the Section 8 drone — legs flown per pack composition at
/// the same volume budget. Returns `(label, legs)` pairs.
#[must_use]
pub(crate) fn drone_comparison() -> Vec<(&'static str, usize)> {
    use sdb_core::scenarios::drone::{max_legs, DroneConfig};
    DroneConfig::variants(0.03)
        .into_iter()
        .map(|(label, cfg)| (label, max_legs(&cfg, 40)))
        .collect()
}

/// Ablation 7: the offline-optimal DP plan vs the online policies on the
/// watch day — how much is future knowledge worth? Returns
/// `(label, life_h)` pairs.
#[must_use]
pub(crate) fn optimal_gap() -> Vec<(&'static str, f64)> {
    use sdb_core::optimal::{plan, CellParams, PlanConfig};
    use sdb_core::scenarios::watch::{watch_scenario, WatchPolicy};
    use sdb_workloads::traces::watch_day;
    let cells = [
        CellParams::from_spec(sdb_battery_model::library::watch_li_ion().spec()),
        CellParams::from_spec(sdb_battery_model::library::watch_bendable().spec()),
    ];
    let trace = watch_day(13, Some(9.0));
    let optimal = plan(&cells, &trace, &PlanConfig::default());
    let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, Some(9.0), 13);
    let p2 = watch_scenario(WatchPolicy::PreserveLiIon, Some(9.0), 13);
    vec![
        ("RBL (greedy, online)", p1.life_s / 3600.0),
        ("Preserve (heuristic, online)", p2.life_s / 3600.0),
        (
            "DP plan (offline, knows the future)",
            optimal.life_s / 3600.0,
        ),
    ]
}

/// Renders all the ablations.
#[must_use]
pub fn render_ablations() -> String {
    let (with, without) = slope_term_allocations();
    let (p1, p2) = wrong_prediction_losses();
    let mut out = String::from("Ablations (extensions beyond the paper)\n\n");
    out.push_str(&format!(
        "1. RBL slope term (load split at 25% SoC):\n   with δ term:    [{:.3}, {:.3}]\n   without δ term: [{:.3}, {:.3}]\n\n",
        with[0], with[1], without[0], without[1]
    ));
    out.push_str(&format!(
        "2. Preserve policy under a wrong prediction (no run that day):\n   policy 1 losses: {p1:.1} J\n   policy 2 losses: {p2:.1} J\n   prediction-miss penalty: {:.1}%\n\n",
        (p2 / p1 - 1.0) * 100.0
    ));
    out.push_str("3. Naive vs SDB circuit topologies:\n\n");
    out.push_str(&table::render(
        &["Quantity", "Naive", "SDB"],
        &topology_rows(),
    ));
    out.push_str("\n4. Watch battery life vs discharging directive (0 = CCB, 1 = RBL):\n");
    for (d, life) in directive_sweep() {
        out.push_str(&format!("   d = {d:.2}: {life:.1} h\n"));
    }
    out.push_str("\n5. Future-knowledge oracle vs fixed policies (watch day with run):\n");
    for (label, life) in oracle_comparison() {
        out.push_str(&format!("   {label}: {life:.1} h\n"));
    }
    out.push_str("\n6. Drone pack composition at equal volume (cruise legs flown):\n");
    for (label, legs) in drone_comparison() {
        out.push_str(&format!("   {label}: {legs} legs\n"));
    }
    out.push_str("\n7. The value of future knowledge (watch-day battery life):\n");
    for (label, life) in optimal_gap() {
        out.push_str(&format!("   {label}: {life:.1} h\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_term_changes_allocation() {
        let (with, without) = slope_term_allocations();
        // At low SoC the slope term shifts load off the steeper cell; the
        // two splits must differ measurably.
        let diff = (with[0] - without[0]).abs();
        assert!(diff > 0.005, "with {with:?} vs without {without:?}");
    }

    #[test]
    fn wrong_prediction_costs_but_does_not_explode() {
        let (p1, p2) = wrong_prediction_losses();
        // The preserve policy pays extra losses when the run never comes...
        assert!(p2 > p1);
        // ...but the penalty is bounded (the bendable cell is fine at low
        // power).
        assert!(p2 < 4.0 * p1, "p1 {p1} p2 {p2}");
    }

    #[test]
    fn directive_sweep_shows_tension() {
        let sweep = directive_sweep();
        assert_eq!(sweep.len(), 5);
        // Lives vary across the directive range: the parameter matters.
        let min = sweep.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
        let max = sweep.iter().map(|&(_, l)| l).fold(0.0, f64::max);
        assert!(max - min > 0.5, "sweep flat: {sweep:?}");
    }

    #[test]
    fn oracle_beats_instantaneous() {
        let rows = oracle_comparison();
        let p1 = rows[0].1;
        let oracle = rows[2].1;
        assert!(oracle > p1 + 0.5, "oracle {oracle} vs p1 {p1}");
    }

    #[test]
    fn drone_mix_wins() {
        let rows = drone_comparison();
        let all_energy = rows[0].1;
        let all_power = rows[1].1;
        let mix = rows[2].1;
        assert_eq!(all_energy, 0, "pure energy pack cannot fly the profile");
        assert!(mix > all_power);
    }

    #[test]
    fn optimal_plan_tops_the_ladder() {
        let rows = optimal_gap();
        let greedy = rows[0].1;
        let preserve = rows[1].1;
        let optimal = rows[2].1;
        assert!(
            optimal >= preserve - 0.1,
            "optimal {optimal} vs preserve {preserve}"
        );
        assert!(optimal > greedy + 1.0);
    }

    #[test]
    fn sdb_topologies_strictly_better() {
        for row in topology_rows() {
            let naive: f64 = row[1].parse().expect("numeric");
            let sdb: f64 = row[2].parse().expect("numeric");
            assert!(sdb < naive, "{}: sdb {sdb} vs naive {naive}", row[0]);
        }
    }
}
