//! Drop-in invariant-checked simulation wrappers.
//!
//! These mirror the sdb-core scheduler entry points but run an
//! [`InvariantChecker`](crate::invariant::InvariantChecker) over every
//! step and panic at the end of the run if any invariant was violated —
//! so a test switches from "runs" to "runs and proves the physics" by
//! changing one function name.

use crate::invariant::InvariantChecker;
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, ChargeTargets, Hooks, SimOptions, SimResult};
use sdb_emulator::micro::Microcontroller;
use sdb_workloads::traces::{charging_session, Trace};
use std::ops::ControlFlow;

/// As [`sdb_core::scheduler::run_trace`], with every invariant checked on
/// every step.
///
/// # Panics
///
/// Panics if any invariant was violated during the run.
#[must_use]
pub fn checked_run_trace(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
) -> SimResult {
    let mut checker = InvariantChecker::for_micro(micro);
    let runs = trace.runs(opts.max_dt_s);
    let result = drive(
        micro,
        runtime,
        &runs,
        opts,
        Hooks::default(),
        |_, _| {},
        |t, _, report| {
            checker.check_step(t, report);
            ControlFlow::Continue(())
        },
    );
    checker.check_micro(result.simulated_s, micro);
    let report = checker.finish();
    assert!(report.is_clean(), "invariant violations:\n{report}");
    result
}

/// As [`sdb_core::scheduler::run_charge_session`], with every invariant
/// checked on every step.
///
/// # Panics
///
/// Panics on invariant violations, or if `targets` is not ascending.
#[must_use]
pub fn checked_run_charge_session(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    external_w: f64,
    targets: &[f64],
    max_s: f64,
    dt_s: f64,
) -> Vec<Option<f64>> {
    let mut checker = InvariantChecker::for_micro(micro);
    let mut session = ChargeTargets::new(micro, targets);
    let _ = drive(
        micro,
        runtime,
        &[charging_session(external_w, max_s, dt_s)],
        &SimOptions::default(),
        Hooks::default(),
        |_, _| {},
        |t, micro, report| {
            checker.check_step(t, report);
            session.note(t, micro)
        },
    );
    checker.check_micro(micro.time_s(), micro);
    let report = checker.finish();
    assert!(report.is_clean(), "invariant violations:\n{report}");
    session.reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;

    #[test]
    fn checked_wrappers_pass_clean_runs() {
        let mut m = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery(BatterySpec::from_chemistry(
                "b",
                Chemistry::Type3CoPower,
                2.0,
            ))
            .build();
        let mut rt = SdbRuntime::new(2);
        let r = checked_run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(4.0, 1800.0),
            &SimOptions::default(),
        );
        assert!(r.unmet_j < 1e-6);
        let _ = checked_run_charge_session(&mut m, &mut rt, 20.0, &[0.9], 2.0 * 3600.0, 60.0);
    }

    #[test]
    fn figure_11b_sessions_hold_every_invariant_at_every_step() {
        use sdb_core::policy::ChargeDirective;
        use sdb_core::scenarios::hybrid::{charge_time_curve, HybridConfig};
        // `charge_time_curve`'s pack, runtime and targets, checked.
        let targets: Vec<f64> = (3..=17).map(|k| f64::from(k) * 5.0 / 100.0).collect();
        for config in HybridConfig::paper_configs() {
            let mut micro = config.build_pack(0.0);
            let mut runtime = SdbRuntime::new(micro.battery_count());
            runtime.set_charge_directive(ChargeDirective::new(1.0));
            runtime.set_update_period(30.0);
            let times = checked_run_charge_session(
                &mut micro,
                &mut runtime,
                60.0,
                &targets,
                6.0 * 3600.0,
                15.0,
            );
            let minutes: Vec<Option<f64>> = times.iter().map(|t| t.map(|s| s / 60.0)).collect();
            assert_eq!(minutes, charge_time_curve(&config, 60.0).minutes);
        }
    }
}
