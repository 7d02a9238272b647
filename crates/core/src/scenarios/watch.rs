//! The bendable-battery smart-watch scenario (Section 5.2, Figure 13).
//!
//! A 200 mAh Li-ion cell in the watch body is augmented with a 200 mAh
//! bendable cell in the strap. The bendable cell is fine at low power but
//! very inefficient at high power, so the policy question is *when to
//! spend which battery*:
//!
//! * **Policy 1** minimizes instantaneous losses (pure RBL-Discharge) —
//!   which quietly drains the efficient Li-ion first, leaving the run to
//!   the lossy bendable cell.
//! * **Policy 2** preserves the Li-ion for the predicted run (the
//!   [`crate::policy::PreservePolicy`]).
//!
//! The paper's trace: message checking all day, a run at hour 9; Policy 1
//! empties the Li-ion by ~hour 9.5 and dies at ~hour 18, Policy 2 lasts
//! past hour 19 — over an hour more battery life.

use crate::policy::{DischargeDirective, PreservePolicy};
use crate::runtime::SdbRuntime;
use crate::scheduler::{run_trace, SimOptions, SimResult};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackTemplate;
use sdb_workloads::device::{Activity, DeviceClass, DevicePower};
use sdb_workloads::traces::watch_day;

/// Battery index of the Li-ion cell in the watch pack.
pub const LI_ION: usize = 0;
/// Battery index of the bendable cell in the watch pack.
pub const BENDABLE: usize = 1;

/// The two policies of Figure 13, plus the future-knowledge oracle the
/// paper hypothesizes ("if we had knowledge of the future workload, we
/// could improve upon the above instantaneously-optimal algorithms",
/// Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchPolicy {
    /// Policy 1: minimize instantaneous losses (pure RBL-Discharge).
    MinimizeInstantaneousLosses,
    /// Policy 2: preserve the Li-ion for high-power episodes.
    PreserveLiIon,
    /// Oracle: knows the run window exactly — preserves the Li-ion only
    /// until the run completes, then reverts to loss-optimal splitting.
    Oracle,
}

impl WatchPolicy {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::MinimizeInstantaneousLosses => "Policy 1 (minimize instantaneous losses)",
            Self::PreserveLiIon => "Policy 2 (preserve Li-ion)",
            Self::Oracle => "Oracle (exact future knowledge)",
        }
    }
}

/// Outcome of one watch-day simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchOutcome {
    /// Which policy ran.
    pub policy: WatchPolicy,
    /// Battery life: time to first unserved load, seconds (full day if the
    /// pack survived).
    pub life_s: f64,
    /// When the Li-ion cell emptied, if it did.
    pub li_ion_empty_s: Option<f64>,
    /// When the bendable cell emptied, if it did.
    pub bendable_empty_s: Option<f64>,
    /// Per-hour losses (cell heat + circuit), joules.
    pub hourly_loss_j: Vec<f64>,
    /// Per-hour load energy, joules.
    pub hourly_load_j: Vec<f64>,
    /// Total losses over the run, joules.
    pub total_loss_j: f64,
    /// Raw simulation result.
    pub sim: SimResult,
}

/// Builds the catalog watch pack at full charge: 200 mAh Li-ion + 200
/// mAh bendable.
#[must_use]
pub fn build_pack() -> Microcontroller {
    PackTemplate::named("watch", 1.0)
        .expect("the watch is a catalog pack")
        .instantiate()
}

/// The load above which the watch is in a "high-power episode" (the run):
/// halfway between interactive and GPS-tracking draw.
#[must_use]
pub fn high_power_threshold_w() -> f64 {
    let dev = DevicePower::for_class(DeviceClass::Watch);
    0.5 * (dev.draw_w(Activity::Interactive) + dev.draw_w(Activity::GpsTracking))
}

/// Runs one watch day under a policy. `run_hour` is the hour the user goes
/// running (`None` = no run that day); `seed` selects the trace.
#[must_use]
pub fn watch_scenario(policy: WatchPolicy, run_hour: Option<f64>, seed: u64) -> WatchOutcome {
    let mut micro = build_pack();
    let mut runtime = SdbRuntime::new(2);
    runtime.set_update_period(60.0);
    let opts = SimOptions {
        max_dt_s: 60.0,
        stop_on_brownout: false,
    };
    let trace = watch_day(seed, run_hour);

    let sim = match policy {
        WatchPolicy::MinimizeInstantaneousLosses => {
            runtime.set_discharge_directive(DischargeDirective::new(1.0));
            run_trace(&mut micro, &mut runtime, &trace, &opts)
        }
        WatchPolicy::PreserveLiIon => {
            runtime.set_preserve(Some(PreservePolicy::new(
                LI_ION,
                BENDABLE,
                high_power_threshold_w(),
            )));
            run_trace(&mut micro, &mut runtime, &trace, &opts)
        }
        WatchPolicy::Oracle => {
            // Exact future knowledge: preserve only until the run is over
            // (or not at all if no run is coming), then run loss-optimal.
            match run_hour {
                None => {
                    runtime.set_discharge_directive(DischargeDirective::new(1.0));
                    run_trace(&mut micro, &mut runtime, &trace, &opts)
                }
                Some(rh) => {
                    let switch_s = (rh + 1.0) * 3600.0;
                    let (before, after) = split_trace(&trace, switch_s);
                    runtime.set_preserve(Some(PreservePolicy::new(
                        LI_ION,
                        BENDABLE,
                        high_power_threshold_w(),
                    )));
                    let first = run_trace(&mut micro, &mut runtime, &before, &opts);
                    runtime.set_preserve(None);
                    runtime.set_discharge_directive(DischargeDirective::new(1.0));
                    let second = run_trace(&mut micro, &mut runtime, &after, &opts);
                    merge_sims(first, second)
                }
            }
        }
    };
    WatchOutcome {
        policy,
        life_s: sim.battery_life_s(),
        li_ion_empty_s: sim.battery_empty_s[LI_ION],
        bendable_empty_s: sim.battery_empty_s[BENDABLE],
        hourly_loss_j: sim.hourly_loss_j.clone(),
        hourly_load_j: sim.hourly_load_j.clone(),
        total_loss_j: sim.total_loss_j(),
        sim,
    }
}

/// Splits a trace at `at_s` into (before, after).
fn split_trace(
    trace: &sdb_workloads::traces::Trace,
    at_s: f64,
) -> (sdb_workloads::traces::Trace, sdb_workloads::traces::Trace) {
    let mut before = sdb_workloads::traces::Trace::new();
    let mut after = sdb_workloads::traces::Trace::new();
    let mut t = 0.0;
    for p in trace.points() {
        if t + p.dur_s <= at_s + 1e-9 {
            before.push(p.load_w, p.external_w, p.dur_s);
        } else if t >= at_s - 1e-9 {
            after.push(p.load_w, p.external_w, p.dur_s);
        } else {
            // Segment straddles the boundary.
            before.push(p.load_w, p.external_w, at_s - t);
            after.push(p.load_w, p.external_w, p.dur_s - (at_s - t));
        }
        t += p.dur_s;
    }
    (before, after)
}

/// Merges two back-to-back simulation results into one timeline.
fn merge_sims(first: SimResult, second: SimResult) -> SimResult {
    let offset = first.simulated_s;
    let shift = |t: Option<f64>| t.map(|v| v + offset);
    let mut hourly_loss = first.hourly_loss_j.clone();
    let mut hourly_load = first.hourly_load_j.clone();
    // The split is hour-aligned in practice; append with index offset.
    let hour_offset = (offset / 3600.0).round() as usize;
    for (k, (&loss, &load)) in second
        .hourly_loss_j
        .iter()
        .zip(&second.hourly_load_j)
        .enumerate()
    {
        let idx = hour_offset + k;
        if hourly_loss.len() <= idx {
            hourly_loss.resize(idx + 1, 0.0);
            hourly_load.resize(idx + 1, 0.0);
        }
        hourly_loss[idx] += loss;
        hourly_load[idx] += load;
    }
    SimResult {
        simulated_s: first.simulated_s + second.simulated_s,
        supplied_j: first.supplied_j + second.supplied_j,
        unmet_j: first.unmet_j + second.unmet_j,
        circuit_loss_j: first.circuit_loss_j + second.circuit_loss_j,
        cell_heat_j: first.cell_heat_j + second.cell_heat_j,
        external_j: first.external_j + second.external_j,
        first_brownout_s: first
            .first_brownout_s
            .or_else(|| shift(second.first_brownout_s)),
        battery_empty_s: first
            .battery_empty_s
            .iter()
            .zip(&second.battery_empty_s)
            .map(|(&a, &b)| a.or_else(|| shift(b)))
            .collect(),
        hourly_loss_j: hourly_loss,
        hourly_load_j: hourly_load,
        final_soc: second.final_soc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 13;

    #[test]
    fn figure_13_policy_comparison() {
        let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, Some(9.0), SEED);
        let p2 = watch_scenario(WatchPolicy::PreserveLiIon, Some(9.0), SEED);

        // Policy 1 drains the efficient Li-ion early (paper: ~hour 9.5).
        let li1 = p1.li_ion_empty_s.expect("policy 1 empties the Li-ion") / 3600.0;
        assert!(li1 < 12.0, "policy 1 Li-ion died at hour {li1}");
        // Policy 2 holds the Li-ion until (at least) the run.
        if let Some(t) = p2.li_ion_empty_s {
            assert!(t / 3600.0 > 9.0, "policy 2 kept Li-ion for the run")
        }

        // Headline: the preserve policy buys over an hour of battery life.
        let gain_h = (p2.life_s - p1.life_s) / 3600.0;
        assert!(
            gain_h > 1.0,
            "gain = {gain_h} h (p1 {}, p2 {})",
            p1.life_s / 3600.0,
            p2.life_s / 3600.0
        );

        // And lower total losses.
        assert!(p2.total_loss_j < p1.total_loss_j);
    }

    #[test]
    fn without_a_run_instantaneous_policy_wins() {
        // Paper: "if the user had not gone for a run then the first policy
        // would have given better battery life."
        let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, None, SEED);
        let p2 = watch_scenario(WatchPolicy::PreserveLiIon, None, SEED);
        // Both should survive further; compare by total losses since the
        // day may not kill either pack.
        assert!(
            p1.total_loss_j <= p2.total_loss_j,
            "p1 {} vs p2 {}",
            p1.total_loss_j,
            p2.total_loss_j
        );
        assert!(p1.life_s >= p2.life_s - 1800.0);
    }

    #[test]
    fn run_hour_dominates_losses_under_policy_1() {
        let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, Some(9.0), SEED);
        // Hour 9 (the run) should show the largest hourly loss while the
        // pack is alive — the bendable cell burns hard once the Li-ion is
        // nearly gone.
        let alive_hours = (p1.life_s / 3600.0).floor() as usize;
        let h9 = p1.hourly_loss_j[9];
        let max_other = p1
            .hourly_loss_j
            .iter()
            .take(alive_hours.min(p1.hourly_loss_j.len()))
            .enumerate()
            .filter(|(h, _)| *h != 9)
            .map(|(_, &l)| l)
            .fold(0.0, f64::max);
        assert!(h9 > max_other * 0.8, "h9 = {h9}, max other = {max_other}");
    }

    #[test]
    fn oracle_dominates_both_fixed_policies() {
        // With a run: the oracle beats the instantaneous policy by hours
        // and lands within minutes of the preserve policy. (Interestingly
        // it does not strictly dominate preserve: reverting to the
        // loss-greedy split after the run spends the efficient cell into
        // the tail, where the near-empty bendable cell's resistance
        // explodes — echoing the paper's warning that instantaneous
        // optimality is not global optimality, even with future
        // knowledge of *load* but not of resistance trajectories.)
        let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, Some(9.0), SEED);
        let p2 = watch_scenario(WatchPolicy::PreserveLiIon, Some(9.0), SEED);
        let oracle = watch_scenario(WatchPolicy::Oracle, Some(9.0), SEED);
        assert!(
            (oracle.life_s - p2.life_s).abs() < 0.5 * 3600.0,
            "oracle {} vs preserve {}",
            oracle.life_s / 3600.0,
            p2.life_s / 3600.0
        );
        assert!(oracle.life_s > p1.life_s + 3600.0);
        // Without a run: the oracle matches the instantaneous policy (it
        // knows there is nothing to preserve for).
        let p1_norun = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, None, SEED);
        let oracle_norun = watch_scenario(WatchPolicy::Oracle, None, SEED);
        assert_eq!(oracle_norun.total_loss_j, p1_norun.total_loss_j);
    }

    #[test]
    fn threshold_separates_activities() {
        let dev = DevicePower::for_class(DeviceClass::Watch);
        let th = high_power_threshold_w();
        assert!(dev.draw_w(Activity::Interactive) < th);
        assert!(dev.draw_w(Activity::GpsTracking) > th);
    }
}
