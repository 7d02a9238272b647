//! The lookahead-policy seam: how planning layers steer the runtime.
//!
//! The paper's CCB/RBL policies are "instantaneously optimal" — they
//! optimize the current instant from gauge state alone. A *lookahead*
//! policy instead watches the load as it unfolds and periodically commits
//! a plan: a directive setting chosen by optimizing over a forecast of
//! the future load. This module defines the seam between the two worlds:
//! [`LookaheadPolicy`] is the planner-side trait (implemented by
//! `sdb-policy`'s receding-horizon planner and oracle), [`PlanUpdate`] is
//! the plan it commits, and the `policy` hook of [`crate::scheduler::drive`]
//! threads a planner through an ordinary trace run.
//!
//! The seam is deliberately thin: a plan is expressed in the same
//! directive vocabulary the rest of the OS uses
//! ([`crate::policy::DischargeDirective`] /
//! [`crate::policy::ChargeDirective`]), so greedy blend, planner, and
//! oracle are drop-in interchangeable and everything downstream — the
//! four paper APIs, the hardware push rate-limit, the observability
//! surface — is shared.

use crate::policy::{ChargeDirective, DischargeDirective, PolicyInput};
use sdb_emulator::micro::Microcontroller;

/// A plan committed by a [`LookaheadPolicy`]: the directive setting the
/// planner chose for the coming horizon, plus the forecast quality it was
/// chosen under (surfaced as the `sdb_policy_forecast_mae` gauge and the
/// `plan_commit` trace event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanUpdate {
    /// The discharge directive the plan selected.
    pub discharge: DischargeDirective,
    /// Optional charge directive override (most plans steer discharge
    /// only).
    pub charge: Option<ChargeDirective>,
    /// Lookahead horizon the plan covers, seconds.
    pub horizon_s: f64,
    /// Forecast mean absolute error at plan time, watts (0 for oracles).
    pub forecast_mae_w: f64,
}

/// A policy that periodically re-plans from observed load and pack state.
///
/// [`crate::scheduler::drive`] calls [`LookaheadPolicy::plan`]
/// before every trace point; returning `Some` commits the plan to the
/// runtime (via [`crate::runtime::SdbRuntime::commit_plan`]) and returning
/// `None` leaves the current directives in force. After the step executes
/// the driver feeds the realized load back through
/// [`LookaheadPolicy::observe_step`] so history-based forecasters learn.
pub trait LookaheadPolicy {
    /// Decides whether to re-plan at simulation time `t_s`. `micro` is the
    /// live pack (planners may clone it to roll candidate futures
    /// forward); `input` is the policy view the runtime will see this
    /// tick.
    fn plan(
        &mut self,
        t_s: f64,
        micro: &Microcontroller,
        input: &PolicyInput,
    ) -> Option<PlanUpdate>;

    /// Feeds one executed step back to the policy: the step ended at
    /// `t_s`, lasted `dt_s` seconds, and drew `load_w` watts.
    fn observe_step(&mut self, t_s: f64, dt_s: f64, load_w: f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait is object-safe — the scheduler takes `&mut dyn`.
    #[test]
    fn trait_is_object_safe() {
        struct Never;
        impl LookaheadPolicy for Never {
            fn plan(
                &mut self,
                _t_s: f64,
                _micro: &Microcontroller,
                _input: &PolicyInput,
            ) -> Option<PlanUpdate> {
                None
            }
            fn observe_step(&mut self, _t_s: f64, _dt_s: f64, _load_w: f64) {}
        }
        let mut p = Never;
        let _dyn_ref: &mut dyn LookaheadPolicy = &mut p;
    }

    #[test]
    fn plan_update_is_copy_and_carries_directives() {
        let u = PlanUpdate {
            discharge: DischargeDirective::new(0.75),
            charge: None,
            horizon_s: 3600.0,
            forecast_mae_w: 0.25,
        };
        let v = u;
        assert_eq!(u, v);
        assert!((v.discharge.value() - 0.75).abs() < 1e-12);
    }
}
