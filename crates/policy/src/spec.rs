//! Declarative policies: how a device's runtime is steered.
//!
//! A [`PolicySpec`] is one of the paper's greedy policies (the CCB/RBL
//! blend or the watch's preserve policy) or one of this crate's planners
//! (the history-forecast planner or the perfect-forecast oracle).
//! [`PolicySpec::install`] is the one place a device is set up under a
//! policy: the fleet, the campaign, the policy corpus and `sdb sim` all
//! call it. [`PolicyMode`] is the greedy / planned / oracle axis those
//! front ends let a user pick.

use crate::forecast::HistoryForecaster;
use crate::planner::{Planner, PlannerConfig};
use sdb_core::policy::{DischargeDirective, PreservePolicy};
use sdb_core::runtime::SdbRuntime;
use sdb_emulator::Microcontroller;
use sdb_workloads::Trace;
use std::sync::Arc;

/// Warm-up days a planned device's forecaster folds in (fleet, campaign
/// and `sdb sim`).
pub const WARMUP_DAYS: u64 = 7;

/// Seed offset separating a planner's warm-up days from the evaluated
/// trace, so it trains on the device's *habit*, never on the day being
/// judged.
pub const WARMUP_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seeds of a device's warm-up days: `seed + k·salt` for
/// `k = 1..=days`, in that order.
pub fn warmup_seeds(seed: u64, days: u64, salt: u64) -> impl Iterator<Item = u64> {
    (1..=days).map(move |k| seed.wrapping_add(k.wrapping_mul(salt)))
}

/// The policy a device's runtime applies.
#[derive(Debug, Clone, Copy)]
pub enum PolicySpec {
    /// A fixed discharge-directive blend (0 = CCB/longevity, 1 = RBL).
    Blend(f64),
    /// The workload-aware watch preserve policy.
    Preserve {
        /// Index of the efficient battery.
        efficient: usize,
        /// Index of the inefficient (strap) battery.
        inefficient: usize,
        /// Load threshold (watts) above which the efficient cell engages.
        threshold_w: f64,
    },
    /// The receding-horizon planner: a history forecaster warm-started
    /// from previous days of the device's own workload family steers the
    /// directive through rollout planning.
    Planned {
        /// Lookahead horizon, seconds.
        horizon_s: f64,
        /// Re-plan cadence, seconds.
        replan_s: f64,
    },
    /// The perfect-forecast oracle planner over the device's own trace —
    /// the upper bound on what any forecast-driven policy could achieve.
    Oracle,
}

impl PolicySpec {
    /// Installs the policy on `runtime`, which re-evaluates every
    /// `update_period_s`, and returns the planner to hook into the drive
    /// loop, if the policy has one. The oracle plans over `trace`; the
    /// planned policy's forecaster folds `history`, the device's warm-up
    /// days, which only it reads.
    pub fn install(
        self,
        runtime: &mut SdbRuntime,
        update_period_s: f64,
        trace: &Arc<Trace>,
        history: impl Iterator<Item = Arc<Trace>>,
    ) -> Option<Planner> {
        runtime.set_update_period(update_period_s);
        match self {
            PolicySpec::Blend(v) => {
                runtime.set_discharge_directive(DischargeDirective::new(v));
                None
            }
            PolicySpec::Preserve {
                efficient,
                inefficient,
                threshold_w,
            } => {
                runtime.set_preserve(Some(PreservePolicy::new(
                    efficient,
                    inefficient,
                    threshold_w,
                )));
                None
            }
            PolicySpec::Planned {
                horizon_s,
                replan_s,
            } => {
                let days: Vec<Arc<Trace>> = history.collect();
                let forecaster = HistoryForecaster::from_history(days.iter().map(Arc::as_ref), 0.3);
                let cfg = PlannerConfig {
                    horizon_s,
                    replan_period_s: replan_s,
                    update_period_s,
                    ..PlannerConfig::default()
                };
                Some(Planner::new(cfg, Box::new(forecaster)))
            }
            PolicySpec::Oracle => {
                let cfg = PlannerConfig {
                    candidates: 17,
                    update_period_s,
                    ..PlannerConfig::default()
                };
                Some(Planner::oracle(cfg, Arc::clone(trace)))
            }
        }
    }

    /// Whether a device under this policy on `pack` may take the SoA
    /// fast path: only a greedy policy (a planner commits plans at times
    /// the quiescence classifier cannot see ahead of) on a pack without
    /// thermal cells.
    #[must_use]
    pub fn soa_eligible(self, pack: &Microcontroller) -> bool {
        matches!(self, PolicySpec::Blend(_) | PolicySpec::Preserve { .. })
            && pack.cells().iter().all(|c| c.temperature_c().is_none())
    }
}

/// The three interchangeable policy modes: the axis `sdb fleet
/// --policy`, the campaign's policy axis and the corpus head-to-head
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// The paper's fixed CCB/RBL blend (instantaneously optimal).
    Greedy,
    /// Receding-horizon planner over the history forecaster.
    Planned,
    /// Receding-horizon planner over the perfect forecast.
    Oracle,
}

impl PolicyMode {
    /// Every mode, in sweep order.
    pub(crate) const ALL: [PolicyMode; 3] =
        [PolicyMode::Greedy, PolicyMode::Planned, PolicyMode::Oracle];

    /// Stable lowercase name (report key / CLI value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyMode::Greedy => "greedy",
            PolicyMode::Planned => "planned",
            PolicyMode::Oracle => "oracle",
        }
    }

    /// Parses a CLI/axis value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid values on an unknown name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown policy `{s}` (expected one of greedy|planned|oracle)"))
    }

    /// The mode as a [`PolicySpec`]: greedy is the fixed `blend`, planned
    /// looks `horizon_s` ahead and re-plans every `replan_s`.
    #[must_use]
    pub fn spec(self, blend: f64, horizon_s: f64, replan_s: f64) -> PolicySpec {
        match self {
            PolicyMode::Greedy => PolicySpec::Blend(blend),
            PolicyMode::Planned => PolicySpec::Planned {
                horizon_s,
                replan_s,
            },
            PolicyMode::Oracle => PolicySpec::Oracle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_round_trip_through_their_names() {
        for mode in PolicyMode::ALL {
            assert_eq!(PolicyMode::parse(mode.name()), Ok(mode));
        }
        assert!(PolicyMode::parse("psychic").is_err());
    }

    #[test]
    fn only_planners_install_a_planner_and_only_greedy_is_soa_eligible() {
        let trace = Arc::new(Trace::constant(1.0, 3600.0));
        let pack = sdb_emulator::PackTemplate::named("phone", 1.0)
            .unwrap()
            .instantiate();
        for mode in PolicyMode::ALL {
            let spec = mode.spec(0.5, 1800.0, 600.0);
            let mut runtime = SdbRuntime::new(2);
            let days = std::iter::repeat_with(|| Arc::clone(&trace)).take(2);
            let planner = spec.install(&mut runtime, 60.0, &trace, days);
            assert_eq!(planner.is_some(), mode != PolicyMode::Greedy, "{mode:?}");
            assert_eq!(spec.soa_eligible(&pack), mode == PolicyMode::Greedy);
        }
    }

    #[test]
    fn warmup_seeds_step_by_the_salt() {
        let seeds: Vec<u64> = warmup_seeds(10, 3, 5).collect();
        assert_eq!(seeds, [15, 20, 25]);
        assert_eq!(warmup_seeds(u64::MAX, 1, 2).next(), Some(1));
    }
}
