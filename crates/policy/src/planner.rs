//! Receding-horizon directive planner.
//!
//! At a configurable re-plan cadence the planner asks its [`Forecaster`]
//! for the coming load, then *shoots*: for each candidate discharge
//! directive on a discretized grid it clones the live pack, rolls the
//! forecast forward through a disposable runtime + emulator pair, and
//! scores the rollout lexicographically — battery life first, then
//! unserved energy, then conversion losses. The winner is committed
//! through the [`sdb_core::LookaheadPolicy`] seam as an ordinary
//! [`DischargeDirective`], so downstream (the four paper APIs, the push
//! rate-limit, the observability surface) nothing knows or cares that a
//! planner is steering.
//!
//! Determinism: rollouts are pure functions of `(pack state, forecast,
//! candidate)`; ties break toward the currently committed directive and
//! then toward the smaller candidate, and a hysteresis margin suppresses
//! switches that don't clear a minimum gain — so plans are bit-identical
//! across runs and thread counts, and directive thrash is bounded by
//! construction.

use crate::forecast::{Forecaster, HistoryForecaster, OracleForecaster};
use crate::tuner::{forecast_stats, tuned_directive};
use sdb_core::policy::{DischargeDirective, PolicyInput};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, Hooks, PreparedResult, SimOptions};
use sdb_core::{LookaheadPolicy, PlanUpdate};
use sdb_emulator::{Microcontroller, PackSnapshot};
use sdb_observe::Observer;
use sdb_workloads::behavior::UserArchetype;
use sdb_workloads::traces::TracePoint;
use sdb_workloads::Trace;
use std::sync::Arc;

/// Planner knobs. [`PlannerConfig::default`] matches the corpus runs:
/// a 4 h horizon re-planned every 30 min over a 9-point directive grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Lookahead horizon, seconds. Oracles pass [`f64::INFINITY`] to plan
    /// over the whole remaining trace.
    pub horizon_s: f64,
    /// Re-plan cadence, seconds ([`f64::INFINITY`] plans exactly once).
    pub replan_period_s: f64,
    /// Number of evenly spaced candidate directives on `[0, 1]` (min 2).
    pub candidates: usize,
    /// Rollout simulation step, seconds. Matches the outer driver's
    /// default step so oracle rollouts reproduce the outer run exactly.
    pub plan_dt_s: f64,
    /// Runtime update period used inside rollouts, seconds (matches the
    /// outer runtime for fidelity).
    pub update_period_s: f64,
    /// Hysteresis: a challenger must extend rollout battery life by at
    /// least this much to displace the committed directive, seconds.
    pub min_life_gain_s: f64,
    /// Hysteresis: or cut rollout losses by at least this fraction.
    pub min_loss_gain_frac: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            horizon_s: 4.0 * 3600.0,
            replan_period_s: 1800.0,
            candidates: 9,
            plan_dt_s: 60.0,
            update_period_s: 60.0,
            min_life_gain_s: 60.0,
            min_loss_gain_frac: 0.02,
        }
    }
}

/// Rollout score, compared lexicographically.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    life_s: f64,
    unmet_j: f64,
    loss_j: f64,
}

impl Score {
    /// Strictly better than `other`: longer life, then less unserved
    /// energy, then (beyond float noise) lower losses.
    fn beats(&self, other: &Score) -> bool {
        if self.life_s != other.life_s {
            return self.life_s > other.life_s;
        }
        if self.unmet_j != other.unmet_j {
            return self.unmet_j < other.unmet_j;
        }
        self.loss_j < other.loss_j - loss_tol(other.loss_j)
    }

    /// Beats `incumbent` by enough to overcome switching hysteresis.
    fn beats_with_margin(&self, incumbent: &Score, cfg: &PlannerConfig) -> bool {
        self.life_s > incumbent.life_s + cfg.min_life_gain_s
            || self.unmet_j < incumbent.unmet_j - 1e-6
            || self.loss_j < incumbent.loss_j * (1.0 - cfg.min_loss_gain_frac)
    }
}

/// Loss comparisons ignore sub-nanojoule float noise so candidate
/// ordering can't flip on the last bit of an accumulated sum.
fn loss_tol(loss_j: f64) -> f64 {
    1e-9 + 1e-12 * loss_j.abs()
}

/// Reusable rollout state: one scratch emulator + runtime pair shared by
/// every candidate, entered through snapshot/restore instead of a
/// per-candidate pack clone. After the first rollout warms the buffers,
/// a full candidate sweep performs zero heap allocations.
struct RolloutScratch {
    micro: Microcontroller,
    runtime: SdbRuntime,
    snap: PackSnapshot,
    input: PolicyInput,
}

impl RolloutScratch {
    fn new(live: &Microcontroller) -> Self {
        let mut micro = live.clone();
        micro.set_observer(Observer::disabled());
        let mut runtime = SdbRuntime::new(micro.battery_count());
        runtime.set_observer(Observer::disabled());
        let input = PolicyInput::from_micro(&micro);
        Self {
            micro,
            runtime,
            snap: PackSnapshot::default(),
            input,
        }
    }
}

/// The receding-horizon planner. Implements [`LookaheadPolicy`]; drive it
/// as the `policy` hook of [`sdb_core::scheduler::drive`].
pub struct Planner {
    cfg: PlannerConfig,
    forecaster: Box<dyn Forecaster>,
    /// Currently committed directive value.
    current_d: f64,
    planned_once: bool,
    since_plan_s: f64,
    replans: u64,
    /// Lazily built rollout scratch (sized to the pack on first plan).
    scratch: Option<RolloutScratch>,
}

impl Planner {
    /// A planner over an arbitrary forecaster. The first plan anchors its
    /// hysteresis at the auto-tuned directive for the initial forecast.
    #[must_use]
    pub fn new(cfg: PlannerConfig, forecaster: Box<dyn Forecaster>) -> Self {
        Self {
            cfg,
            forecaster,
            current_d: 0.5,
            planned_once: false,
            since_plan_s: 0.0,
            replans: 0,
            scratch: None,
        }
    }

    /// The standard history-driven planner: an hourly-bucket forecaster
    /// warm-started from `days` simulated days of `archetype` usage.
    #[must_use]
    pub fn history(cfg: PlannerConfig, archetype: &UserArchetype, days: u32, seed: u64) -> Self {
        Self::new(
            cfg,
            Box::new(HistoryForecaster::warmed(archetype, days, seed, 0.3)),
        )
    }

    /// The perfect-forecast oracle over the true workload `trace`: the
    /// horizon is forced to the entire remaining trace, while the re-plan
    /// cadence comes from `cfg`. With `replan_period_s = f64::INFINITY`
    /// the oracle plans exactly once at t = 0, and because its rollout is
    /// an exact simulation over every grid directive (including the
    /// greedy baseline's, if on-grid), its realized battery life can
    /// never fall below the best fixed directive's — the upper bound the
    /// head-to-head tables report. A finite cadence lets the oracle also
    /// adapt mid-trace, matching the planner's degrees of freedom.
    #[must_use]
    pub fn oracle(mut cfg: PlannerConfig, trace: Arc<Trace>) -> Self {
        cfg.horizon_s = f64::INFINITY;
        Self::new(cfg, Box::new(OracleForecaster::new(trace)))
    }

    /// How many plans have been committed so far.
    #[must_use]
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// The currently committed directive value.
    #[must_use]
    pub fn current_directive(&self) -> f64 {
        self.current_d
    }

    /// The forecaster's running one-step-ahead MAE, watts.
    #[must_use]
    pub fn forecast_mae_w(&self) -> f64 {
        self.forecaster.mae_w()
    }

    /// Rolls pre-resampled forecast `points` forward from a snapshot of
    /// `micro` under a fixed directive `d` and scores the outcome.
    /// Rollouts run fully unobserved so planning leaves no trace in
    /// metrics or event streams, and reuse one scratch emulator/runtime
    /// pair restored through [`PackSnapshot`] instead of cloning the
    /// pack per candidate — zero heap allocations per rollout once the
    /// scratch is warm.
    fn rollout(&mut self, micro: &Microcontroller, d: f64, points: &[TracePoint]) -> Score {
        // Nested profiler scope: the rollout's own trace/micro steps land
        // under planner_rollout in the phase tree, separated from the
        // live simulation's steps.
        let _prof = sdb_prof::sub(sdb_prof::Phase::PlannerRollout);
        let stale = self
            .scratch
            .as_ref()
            .is_none_or(|s| s.micro.battery_count() != micro.battery_count());
        if stale {
            self.scratch = Some(RolloutScratch::new(micro));
        }
        let s = self.scratch.as_mut().expect("just ensured");
        micro.snapshot_into(&mut s.snap);
        s.micro
            .restore_from(&s.snap)
            .expect("scratch pack matches the live pack's shape");
        s.runtime.set_update_period(self.cfg.update_period_s);
        s.runtime
            .set_discharge_directive(DischargeDirective::new(d));
        // A fresh runtime evaluates on its first tick; restore that state
        // so the reused runtime behaves identically to a per-candidate one.
        s.runtime.force_policy_refresh();
        let opts = SimOptions {
            max_dt_s: self.cfg.plan_dt_s,
            stop_on_brownout: true,
        };
        let hooks = Hooks {
            input: Some(&mut s.input),
            ..Hooks::default()
        };
        let res: PreparedResult = drive(
            &mut s.micro,
            &mut s.runtime,
            points,
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| {},
        );
        Score {
            life_s: res.battery_life_s(),
            unmet_j: res.unmet_j,
            loss_j: res.total_loss_j(),
        }
    }
}

impl LookaheadPolicy for Planner {
    fn plan(
        &mut self,
        t_s: f64,
        micro: &sdb_emulator::Microcontroller,
        _input: &PolicyInput,
    ) -> Option<PlanUpdate> {
        if self.planned_once && self.since_plan_s < self.cfg.replan_period_s {
            return None;
        }
        let first = !self.planned_once;
        self.planned_once = true;
        self.since_plan_s = 0.0;

        let forecast = self
            .forecaster
            .forecast(t_s, self.cfg.horizon_s, self.cfg.plan_dt_s);
        if forecast.points().is_empty() {
            return None;
        }
        if first {
            // Anchor hysteresis and tie-breaking at the auto-tuned blend
            // for this forecast shape.
            self.current_d = tuned_directive(&forecast_stats(&forecast)).value();
        }

        // Candidate grid, plus the incumbent if it sits off-grid.
        let k = self.cfg.candidates.max(2);
        let mut cands: Vec<f64> = (0..k).map(|i| i as f64 / (k - 1) as f64).collect();
        if !cands.iter().any(|c| (c - self.current_d).abs() < 1e-12) {
            cands.push(self.current_d);
        }
        // One resample shared by every candidate; scores are bit-identical
        // to `run_trace` rollouts.
        let resampled = forecast.resampled(self.cfg.plan_dt_s);
        let scores: Vec<Score> = cands
            .iter()
            .map(|&d| self.rollout(micro, d, resampled.points()))
            .collect();
        let cur_idx = cands
            .iter()
            .position(|c| (c - self.current_d).abs() < 1e-12)
            .expect("incumbent directive is always a candidate");

        // Lexicographic argmax with deterministic tie-breaks: score, then
        // proximity to the incumbent, then the smaller directive.
        let mut best = cur_idx;
        for i in 0..cands.len() {
            if i == best {
                continue;
            }
            let closer = ((cands[i] - self.current_d).abs(), cands[i])
                < ((cands[best] - self.current_d).abs(), cands[best]);
            if scores[i].beats(&scores[best]) || (!scores[best].beats(&scores[i]) && closer) {
                best = i;
            }
        }

        // Hysteresis: an established plan only yields to a challenger
        // that clears the configured margin.
        if !first && best != cur_idx && !scores[best].beats_with_margin(&scores[cur_idx], &self.cfg)
        {
            return None;
        }
        let d = cands[best];
        let changed = (d - self.current_d).abs() > 1e-12;
        self.current_d = d;
        if !first && !changed {
            return None;
        }
        self.replans += 1;
        Some(PlanUpdate {
            discharge: DischargeDirective::new(d),
            charge: None,
            horizon_s: forecast.duration_s(),
            forecast_mae_w: self.forecaster.mae_w(),
        })
    }

    fn observe_step(&mut self, t_s: f64, dt_s: f64, load_w: f64) {
        self.since_plan_s += dt_s;
        self.forecaster.observe(t_s, dt_s, load_w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::{BatterySpec, Chemistry};
    use sdb_core::scheduler::SimResult;
    use sdb_emulator::{Microcontroller, PackBuilder, ProfileKind};

    fn run_planned(
        micro: &mut Microcontroller,
        rt: &mut SdbRuntime,
        trace: &Trace,
        planner: &mut Planner,
    ) -> SimResult {
        let opts = SimOptions::default();
        let points = trace.resampled(opts.max_dt_s);
        let hooks = Hooks {
            policy: Some(planner),
            ..Hooks::default()
        };
        drive(
            micro,
            rt,
            points.points(),
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| {},
        )
    }

    fn hybrid_pack(soc: f64) -> Microcontroller {
        PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 2.0),
                soc,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 1.0),
                soc,
                ProfileKind::Fast,
            )
            .build()
    }

    #[test]
    fn planner_commits_a_first_plan_and_respects_cadence() {
        let mut micro = hybrid_pack(1.0);
        let mut rt = SdbRuntime::new(micro.battery_count());
        let trace = Trace::constant(3.0, 2.0 * 3600.0);
        let cfg = PlannerConfig {
            replan_period_s: f64::INFINITY,
            ..PlannerConfig::default()
        };
        let mut planner = Planner::oracle(cfg, Arc::new(trace.clone()));
        let res = run_planned(&mut micro, &mut rt, &trace, &mut planner);
        assert_eq!(
            planner.replans(),
            1,
            "single-shot oracle plans exactly once"
        );
        assert!(res.simulated_s > 0.0);
        let d = planner.current_directive();
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn planned_run_is_deterministic() {
        let trace = Arc::new(Trace::constant(4.0, 3600.0));
        let run = || {
            let mut micro = hybrid_pack(0.9);
            let mut rt = SdbRuntime::new(micro.battery_count());
            let mut planner =
                Planner::history(PlannerConfig::default(), &UserArchetype::commuter(), 7, 99);
            let res = run_planned(&mut micro, &mut rt, &trace, &mut planner);
            (res, planner.current_directive(), planner.replans())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rollouts_leave_live_state_untouched() {
        let micro = hybrid_pack(1.0);
        let before = micro.cells().iter().map(|c| c.soc()).collect::<Vec<_>>();
        let mut planner = Planner::oracle(
            PlannerConfig::default(),
            Arc::new(Trace::constant(2.0, 600.0)),
        );
        let points = Trace::constant(2.0, 600.0).resampled(60.0);
        let _ = planner.rollout(&micro, 0.5, points.points());
        let after = micro.cells().iter().map(|c| c.soc()).collect::<Vec<_>>();
        assert_eq!(before, after);
        // And the live runtime push counter is unaffected by planning.
        let rt = SdbRuntime::new(micro.battery_count());
        assert_eq!(rt.pushes(), 0);
    }

    #[test]
    fn snapshot_restore_rollouts_are_repeatable() {
        // The same candidate scored twice through the shared scratch must
        // produce bit-identical scores: restore fully resets the pack.
        let micro = hybrid_pack(0.8);
        let mut planner = Planner::oracle(
            PlannerConfig::default(),
            Arc::new(Trace::constant(4.0, 3600.0)),
        );
        let points = Trace::constant(4.0, 3600.0).resampled(60.0);
        let a = planner.rollout(&micro, 0.7, points.points());
        let b = planner.rollout(&micro, 0.2, points.points());
        let a2 = planner.rollout(&micro, 0.7, points.points());
        let b2 = planner.rollout(&micro, 0.2, points.points());
        assert_eq!(a, a2, "rollout leaked state between candidates");
        assert_eq!(b, b2);
        assert_ne!(a, b, "distinct directives should score differently");
    }
}
