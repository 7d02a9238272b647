//! The 2-in-1 battery-management scenario (Section 5.3, Figure 14).
//!
//! 2-in-1 devices keep a second battery under the detachable keyboard and
//! traditionally use it "solely to charge the battery in the tablet" —
//! paying conversion losses twice. SDB instead draws power simultaneously
//! from both batteries: "the internal losses are proportional to the
//! square of the current (resistive losses = I²R). Splitting the power
//! draw across the two batteries, therefore, reduces the internal losses"
//! — up to 22 % more battery life.

use crate::policy::DischargeDirective;
use crate::runtime::SdbRuntime;
use crate::scheduler::{drive, Hooks, SimOptions};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackTemplate;
use sdb_workloads::traces::{two_in_one_workloads, Trace};
use std::ops::ControlFlow;

/// Battery index of the internal (tablet) cell.
pub(crate) const INTERNAL: usize = 0;
/// Battery index of the external (keyboard-base) cell.
pub(crate) const EXTERNAL: usize = 1;

/// The two management strategies of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// SDB: draw power simultaneously from both batteries (loss-optimal
    /// split).
    SimultaneousDraw,
    /// Traditional: run the system from the internal battery only, while
    /// the external battery charges it through the conversion chain.
    ChargeThrough,
}

/// One bar of Figure 14.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoInOneRow {
    /// Workload name.
    pub workload: &'static str,
    /// Battery life under simultaneous draw, seconds.
    pub simultaneous_life_s: f64,
    /// Battery life under charge-through, seconds.
    pub charge_through_life_s: f64,
}

impl TwoInOneRow {
    /// Battery-life improvement of simultaneous draw over charge-through,
    /// percent.
    #[must_use]
    pub fn improvement_pct(&self) -> f64 {
        (self.simultaneous_life_s / self.charge_through_life_s - 1.0) * 100.0
    }
}

/// Builds the 2-in-1 pack: the catalog `two-in-one`, two equal 4 Ah Type 2
/// cells (Section 5.3: "two equal sized traditional Li-ion batteries").
#[must_use]
pub(crate) fn build_pack() -> Microcontroller {
    PackTemplate::named("two-in-one", 1.0)
        .expect("two-in-one is a catalog pack")
        .instantiate()
}

/// Runs one workload to exhaustion under a strategy and returns battery
/// life in seconds. The trace is repeated until the pack browns out (or
/// `cap_s` elapses).
#[must_use]
pub fn battery_life_s(strategy: Strategy, workload: &Trace, cap_s: f64) -> f64 {
    battery_life_with_detach(strategy, workload, cap_s, f64::INFINITY, 0.0)
}

/// Like [`battery_life_s`], but the keyboard base (the external battery)
/// is repeatedly undocked: `docked_s` seconds attached, then `undocked_s`
/// detached, alternating. The paper notes the simultaneous-draw gain "is
/// not realizable for a user who only keeps the base ... plugged in for
/// short periods of time".
#[must_use]
pub(crate) fn battery_life_with_detach(
    strategy: Strategy,
    workload: &Trace,
    cap_s: f64,
    docked_s: f64,
    undocked_s: f64,
) -> f64 {
    assert!(docked_s > 0.0 && undocked_s >= 0.0 && cap_s.is_finite());
    let mut micro = build_pack();
    let mut runtime = SdbRuntime::new(2);
    runtime.set_discharge_directive(DischargeDirective::new(1.0));
    runtime.set_update_period(60.0);
    if strategy == Strategy::ChargeThrough {
        // The system load always comes from the internal battery, and no
        // runtime re-evaluates the split.
        runtime.set_update_period(f64::INFINITY);
        micro
            .set_discharge_ratios(&[1.0, 0.0])
            .expect("valid ratios");
    }
    let opts = SimOptions {
        max_dt_s: 30.0,
        stop_on_brownout: true,
    };
    // Enough repeats of the workload to pass the cap, where `post_step`
    // stops the run.
    let runs = workload.runs(opts.max_dt_s);
    let duration_s: f64 = runs
        .iter()
        .flat_map(|&(p, n)| std::iter::repeat_n(p.dur_s, n))
        .sum();
    let repeats = (cap_s / duration_s).ceil() as usize + 1;
    let runs = runs.repeat(repeats);
    let period = docked_s + undocked_s;
    let result = drive(
        &mut micro,
        &mut runtime,
        &runs,
        &opts,
        Hooks::default(),
        |elapsed, micro| {
            let docked = elapsed % period < docked_s;
            if micro.battery_present(EXTERNAL) != docked {
                micro
                    .set_battery_present(EXTERNAL, docked)
                    .expect("valid index");
            }
            // Charge-through keeps a transfer running: the external
            // battery continuously recharges the internal one at the
            // internal cell's acceptance power.
            if strategy == Strategy::ChargeThrough
                && docked
                && !micro.transfer_active()
                && !micro.cells()[EXTERNAL].is_empty()
                && micro.cells()[INTERNAL].soc() < 0.95
            {
                let accept_w = micro.charge_acceptance_a(INTERNAL)
                    * micro.cells()[INTERNAL].terminal_voltage(0.0);
                if accept_w > 0.1 {
                    micro
                        .charge_one_from_another(EXTERNAL, INTERNAL, accept_w, 600.0)
                        .expect("valid transfer");
                }
            }
        },
        |elapsed, _, _| {
            if elapsed < cap_s {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        },
    );
    result.battery_life_s()
}

/// Runs the full Figure 14 comparison across the named workloads.
#[must_use]
pub fn two_in_one_comparison(seed: u64) -> Vec<TwoInOneRow> {
    two_in_one_workloads(seed)
        .into_iter()
        .map(|(name, trace)| {
            let cap_s = 48.0 * 3600.0;
            TwoInOneRow {
                workload: name,
                simultaneous_life_s: battery_life_s(Strategy::SimultaneousDraw, &trace, cap_s),
                charge_through_life_s: battery_life_s(Strategy::ChargeThrough, &trace, cap_s),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_workloads::device::Activity;
    use sdb_workloads::traces::tablet_session;

    #[test]
    fn simultaneous_draw_beats_charge_through() {
        // One representative workload is enough for the unit test (the
        // full sweep runs in the figure harness).
        let trace = tablet_session(5, &[Activity::Network, Activity::Compute], 300.0, 3600.0);
        let sim = battery_life_s(Strategy::SimultaneousDraw, &trace, 24.0 * 3600.0);
        let ct = battery_life_s(Strategy::ChargeThrough, &trace, 24.0 * 3600.0);
        let improvement = (sim / ct - 1.0) * 100.0;
        assert!(
            improvement > 5.0 && improvement < 40.0,
            "improvement = {improvement}% (sim {sim}, ct {ct})"
        );
    }

    #[test]
    fn mostly_undocked_usage_shrinks_the_gain() {
        let trace = tablet_session(5, &[Activity::Network, Activity::Compute], 300.0, 3600.0);
        let cap = 24.0 * 3600.0;
        // Always docked vs docked only 10 minutes per hour.
        let sim_docked = battery_life_s(Strategy::SimultaneousDraw, &trace, cap);
        let sim_undocked =
            battery_life_with_detach(Strategy::SimultaneousDraw, &trace, cap, 600.0, 3000.0);
        // Undocking removes the second battery most of the time: life
        // drops substantially (the internal cell carries the day alone).
        assert!(
            sim_undocked < 0.8 * sim_docked,
            "undocked {sim_undocked} vs docked {sim_docked}"
        );
        // But the device keeps running through every dock/undock
        // transition (no panics, load served until genuine exhaustion).
        assert!(sim_undocked > 0.25 * sim_docked);
    }

    #[test]
    fn detach_while_transfer_active_is_safe() {
        let trace = tablet_session(5, &[Activity::Compute], 300.0, 1800.0);
        // Charge-through with rapid dock cycling: transfers abort cleanly.
        let life =
            battery_life_with_detach(Strategy::ChargeThrough, &trace, 24.0 * 3600.0, 300.0, 300.0);
        assert!(life > 3600.0, "life = {life}");
    }

    #[test]
    fn both_strategies_use_both_batteries_eventually() {
        let trace = tablet_session(5, &[Activity::Compute], 300.0, 3600.0);
        // Charge-through still extracts energy from the external cell (via
        // transfer); its life must far exceed a single-battery life.
        let single = {
            let mut micro = build_pack();
            micro.set_discharge_ratios(&[1.0, 0.0]).unwrap();
            // No transfer: internal battery only.
            let mut elapsed = 0.0;
            let resampled = trace.resampled(30.0);
            'outer: loop {
                for p in resampled.points() {
                    let report = micro.step(p.load_w, 0.0, p.dur_s);
                    elapsed += p.dur_s;
                    if report.unmet_w > 1e-9 {
                        break 'outer;
                    }
                }
            }
            elapsed
        };
        let ct = battery_life_s(Strategy::ChargeThrough, &trace, 24.0 * 3600.0);
        assert!(ct > 1.5 * single, "ct {ct} vs single {single}");
    }
}
