//! Drop-in invariant-checked simulation wrappers.
//!
//! These mirror the sdb-core scheduler entry points but run an
//! [`InvariantChecker`](crate::invariant::InvariantChecker) over every
//! step and panic at the end of the run if any invariant was violated —
//! so a test switches from "runs" to "runs and proves the physics" by
//! changing one function name.

use crate::invariant::InvariantChecker;
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, run_charge_session, Hooks, Linked, SimOptions, SimResult};
use sdb_emulator::link::Link;
use sdb_emulator::micro::Microcontroller;
use sdb_workloads::traces::Trace;

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
    let points = trace.resampled(opts.max_dt_s);
    let result: SimResult = drive(
        micro,
        runtime,
        points.points(),
        opts,
        Hooks::default(),
        |_, _| {},
        |t, _, report| checker.check_step(t, report),
    );
    checker.check_micro(result.simulated_s, micro);
    let report = checker.finish();
    assert!(report.is_clean(), "invariant violations:\n{report}");
    result
}

/// As [`run_charge_session`], with the ground-truth invariants checked
/// after the session.
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
    let reached = run_charge_session(micro, runtime, external_w, targets, max_s, dt_s);
    checker.check_micro(micro.time_s(), micro);
    let report = checker.finish();
    assert!(report.is_clean(), "invariant violations:\n{report}");
    reached
}

/// As [`sdb_core::scheduler::run_trace`] over the lossy link
/// ([`Linked`], status heartbeat every `status_period_s` seconds), with
/// every invariant checked on every step.
///
/// # Panics
///
/// Panics if any invariant was violated during the run.
#[must_use]
pub fn checked_run_trace_linked(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    status_period_s: f64,
) -> SimResult {
    let mut checker = InvariantChecker::for_micro(link.micro());
    let points = trace.resampled(opts.max_dt_s);
    let result: SimResult = drive(
        &mut Linked::new(link, status_period_s),
        runtime,
        points.points(),
        opts,
        Hooks::default(),
        |_, _| {},
        |t, l, report| {
            checker.check_step(t, report);
            checker.check_micro(t, l.link.micro());
        },
    );
    let report = checker.finish();
    assert!(report.is_clean(), "invariant violations:\n{report}");
    result
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
}
