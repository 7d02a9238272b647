//! Receding-horizon directive planner.
//!
//! At a configurable re-plan cadence the planner asks its [`Forecaster`]
//! for the coming load, then *shoots*: for each candidate discharge
//! directive on a discretized grid it restores a snapshot of the live
//! pack, rolls the forecast forward through a disposable runtime +
//! emulator pair, and scores the rollout lexicographically — battery
//! life first, then unserved energy, then conversion losses. The winner
//! is committed through the [`sdb_core::LookaheadPolicy`] seam as an
//! ordinary [`DischargeDirective`], so downstream (the four paper APIs,
//! the push rate-limit, the observability surface) nothing knows or
//! cares that a planner is steering.
//!
//! Determinism: rollouts are pure functions of `(pack state, forecast,
//! candidate)`; ties break toward the currently committed directive and
//! then toward the smaller candidate, and a hysteresis margin suppresses
//! switches that don't clear a minimum gain — so plans are bit-identical
//! across runs and thread counts, and directive thrash is bounded by
//! construction.

use crate::forecast::{Forecaster, OracleForecaster};
use crate::tuner::{forecast_stats, tuned_directive};
use sdb_core::policy::{DischargeDirective, PolicyInput};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, Hooks, PreparedResult, SimOptions};
use sdb_core::{LookaheadPolicy, PlanUpdate};
use sdb_emulator::{Microcontroller, PackSnapshot};
use sdb_observe::Observer;
use sdb_workloads::traces::TracePoint;
use sdb_workloads::Trace;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Rollout simulation step, seconds. Matches the outer driver's default
/// step so oracle rollouts reproduce the outer run exactly.
const PLAN_DT_S: f64 = 60.0;

/// Hysteresis: a challenger displaces the committed directive only if it
/// extends rollout battery life by more than this many seconds, serves
/// more load, or cuts rollout losses by more than [`MIN_LOSS_GAIN_FRAC`].
const MIN_LIFE_GAIN_S: f64 = 60.0;

/// The loss-cut share of the switching hysteresis.
const MIN_LOSS_GAIN_FRAC: f64 = 0.02;

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
    /// Runtime update period used inside rollouts, seconds (matches the
    /// outer runtime for fidelity).
    pub update_period_s: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            horizon_s: 4.0 * 3600.0,
            replan_period_s: 1800.0,
            candidates: 9,
            update_period_s: 60.0,
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
    fn beats_with_margin(&self, incumbent: &Score) -> bool {
        self.life_s > incumbent.life_s + MIN_LIFE_GAIN_S
            || self.unmet_j < incumbent.unmet_j - 1e-6
            || self.loss_j < incumbent.loss_j * (1.0 - MIN_LOSS_GAIN_FRAC)
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
///
/// A rollout computes only what its [`Score`] reads. Each cut leaves every
/// score bit-identical:
///
/// - The scratch pack does not sample its fuel gauges: every rollout
///   reloads them from the live snapshot, and nothing inside a rollout
///   reads them.
/// - When the forecast carries no external power, the scratch runtime
///   skips the charge side of each tick, and the input refill skips each
///   cell's charge acceptance: the pack reads charge ratios only while
///   external power exceeds the load, and only the charge side reads
///   acceptance.
/// - When, besides, no transfer is in flight, no cell can charge, so no
///   charge cycle completes, and the cells stop their discharge-side
///   C-rate accumulators: only a cycle completion reads them, and the
///   next rollout restores them from the snapshot.
/// - A tick inside the runtime's last certified box of pack states skips
///   its discharge evaluation, its no-push certificate and the input
///   refill: the box's certificate proves the evaluation could not push.
///
/// A transfer can only come from the live pack: a rollout's runtime
/// never orders one.
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
        micro.set_gauge_sampling(false);
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

    /// Prepares one re-plan: captures the live pack, which every
    /// candidate's rollout restores, and turns on the charge side and the
    /// C-rate accumulators only if the rollouts can charge a cell.
    fn load(&mut self, live: &Microcontroller, runs: &[(TracePoint, usize)]) {
        live.snapshot_into(&mut self.snap);
        let (external, charging) = may_charge(live, runs);
        self.runtime.set_charge_evaluation(external);
        self.micro.set_discharge_rate_tracking(charging);
    }

    /// Rolls the forecast's `runs` forward from the loaded
    /// snapshot under a fixed directive `d` and scores the outcome.
    /// Rollouts run fully unobserved so planning leaves no trace in
    /// metrics or event streams.
    fn rollout(&mut self, cfg: &PlannerConfig, d: f64, runs: &[(TracePoint, usize)]) -> Score {
        // Nested profiler scope: the rollout's own trace/micro steps land
        // under planner_rollout in the phase tree, separated from the
        // live simulation's steps.
        let _prof = sdb_prof::sub(sdb_prof::Phase::PlannerRollout);
        self.micro
            .restore_from(&self.snap)
            .expect("scratch pack matches the live pack's shape");
        self.runtime.set_update_period(cfg.update_period_s);
        self.runtime
            .set_discharge_directive(DischargeDirective::new(d));
        // A fresh runtime evaluates on its first tick; restore that state
        // so the reused runtime behaves identically to a per-candidate one.
        self.runtime.force_policy_refresh();
        let opts = SimOptions {
            max_dt_s: PLAN_DT_S,
            stop_on_brownout: true,
        };
        let hooks = Hooks {
            input: Some(&mut self.input),
            ..Hooks::default()
        };
        let res: PreparedResult = drive(
            &mut self.micro,
            &mut self.runtime,
            runs,
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        );
        Score {
            life_s: res.battery_life_s(),
            unmet_j: res.unmet_j,
            loss_j: res.total_loss_j(),
        }
    }
}

/// Whether rollouts of `runs` from `live` can charge a cell: `(by
/// external power, by external power or by the transfer in flight)`.
fn may_charge(live: &Microcontroller, runs: &[(TracePoint, usize)]) -> (bool, bool) {
    let external = runs.iter().any(|(p, _)| p.external_w > 0.0);
    (external, external || live.transfer_active())
}

/// Scores every candidate directive over a forecast's runs.
type Scorer = fn(&mut Planner, &Microcontroller, &[f64], &[(TracePoint, usize)]) -> Vec<Score>;

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

    /// Scores every candidate directive over `runs` through the rollout
    /// scratch, snapshotting `live` once for the whole sweep.
    fn scratch_scores(
        &mut self,
        live: &Microcontroller,
        cands: &[f64],
        runs: &[(TracePoint, usize)],
    ) -> Vec<Score> {
        let stale = self
            .scratch
            .as_ref()
            .is_none_or(|s| s.micro.battery_count() != live.battery_count());
        if stale {
            self.scratch = Some(RolloutScratch::new(live));
        }
        let s = self.scratch.as_mut().expect("just ensured");
        s.load(live, runs);
        cands
            .iter()
            .map(|&d| s.rollout(&self.cfg, d, runs))
            .collect()
    }

    /// [`LookaheadPolicy::plan`], scoring each re-plan's candidates with
    /// `score`: the rollout scratch, or a reference scorer in tests.
    fn plan_with(
        &mut self,
        t_s: f64,
        micro: &Microcontroller,
        score: Scorer,
    ) -> Option<PlanUpdate> {
        if self.planned_once && self.since_plan_s < self.cfg.replan_period_s {
            return None;
        }
        let first = !self.planned_once;
        self.planned_once = true;
        self.since_plan_s = 0.0;

        let forecast = self.forecaster.forecast(t_s, self.cfg.horizon_s, PLAN_DT_S);
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
        let runs = forecast.runs(PLAN_DT_S);
        let scores = score(self, micro, &cands, &runs);
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
        if !first && best != cur_idx && !scores[best].beats_with_margin(&scores[cur_idx]) {
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
}

impl LookaheadPolicy for Planner {
    fn plan(
        &mut self,
        t_s: f64,
        micro: &Microcontroller,
        _input: &PolicyInput,
    ) -> Option<PlanUpdate> {
        self.plan_with(t_s, micro, Self::scratch_scores)
    }

    fn observe_step(&mut self, t_s: f64, dt_s: f64, load_w: f64) {
        self.since_plan_s += dt_s;
        self.forecaster.observe(t_s, dt_s, load_w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::HistoryForecaster;
    use sdb_battery_model::aging::CYCLE_CHARGE_THRESHOLD;
    use sdb_battery_model::{BatterySpec, Chemistry};
    use sdb_core::scheduler::SimResult;
    use sdb_emulator::{PackBuilder, ProfileKind};
    use sdb_testkit::{check, Gen};
    use sdb_workloads::behavior::{simulate_days, UserArchetype};

    fn run_planned(
        micro: &mut Microcontroller,
        rt: &mut SdbRuntime,
        trace: &Trace,
        planner: &mut dyn LookaheadPolicy,
    ) -> SimResult {
        let opts = SimOptions::default();
        let hooks = Hooks {
            policy: Some(planner),
            ..Hooks::default()
        };
        drive(
            micro,
            rt,
            &trace.runs(opts.max_dt_s),
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
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

    /// A planner whose forecaster learned `days` simulated commuter days.
    fn commuter_history_planner(cfg: PlannerConfig, days: u32, seed: u64) -> Planner {
        let history = simulate_days(&UserArchetype::commuter(), days, seed);
        Planner::new(
            cfg,
            Box::new(HistoryForecaster::from_history(&history, 0.3)),
        )
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
            let mut planner = commuter_history_planner(PlannerConfig::default(), 7, 99);
            let res = run_planned(&mut micro, &mut rt, &trace, &mut planner);
            (res, planner.current_directive(), planner.replans())
        };
        assert_eq!(run(), run());
    }

    /// Scores candidate `d` the way a per-candidate clone would, with
    /// gauge sampling, charge evaluation and the C-rate accumulators all
    /// on: the reference every scratch rollout must match bit for bit.
    /// Also returns the charge cycles the rollout completed.
    fn reference_rollout(
        cfg: &PlannerConfig,
        live: &Microcontroller,
        d: f64,
        runs: &[(TracePoint, usize)],
    ) -> (Score, u32) {
        let mut micro = live.clone();
        micro.set_observer(Observer::disabled());
        let mut rt = SdbRuntime::new(micro.battery_count());
        rt.set_observer(Observer::disabled());
        rt.set_update_period(cfg.update_period_s);
        rt.set_discharge_directive(DischargeDirective::new(d));
        let opts = SimOptions {
            max_dt_s: PLAN_DT_S,
            stop_on_brownout: true,
        };
        let res: PreparedResult = drive(
            &mut micro,
            &mut rt,
            runs,
            &opts,
            Hooks::default(),
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        );
        let cycles = |m: &Microcontroller| m.cells().iter().map(|c| c.cycle_count()).sum::<u32>();
        let score = Score {
            life_s: res.battery_life_s(),
            unmet_j: res.unmet_j,
            loss_j: res.total_loss_j(),
        };
        (score, cycles(&micro) - cycles(live))
    }

    fn reference_scores(
        planner: &mut Planner,
        live: &Microcontroller,
        cands: &[f64],
        runs: &[(TracePoint, usize)],
    ) -> Vec<Score> {
        cands
            .iter()
            .map(|&d| reference_rollout(&planner.cfg, live, d, runs).0)
            .collect()
    }

    fn bits(scores: &[Score]) -> Vec<[u64; 3]> {
        scores
            .iter()
            .map(|s| [s.life_s.to_bits(), s.unmet_j.to_bits(), s.loss_j.to_bits()])
            .collect()
    }

    /// A 2–3-cell pack of drawn chemistries, capacities and charge levels
    /// (some near empty), worn in for a few drawn steps, with external
    /// power and sometimes a battery-to-battery transfer still running, so
    /// its gauges, RC state and transfer are all non-trivial.
    fn arb_live_pack(g: &mut Gen) -> Microcontroller {
        let chems = [
            Chemistry::Type1LfpPower,
            Chemistry::Type2CoStandard,
            Chemistry::Type3CoPower,
            Chemistry::Type4Bendable,
            Chemistry::OtherNmc,
            Chemistry::OtherLto,
        ];
        let mut b = PackBuilder::new();
        for i in 0..g.usize_range(2, 4) {
            let soc = if g.chance(0.3) {
                g.f64_range(0.01, 0.08)
            } else {
                g.f64_range(0.1, 1.0)
            };
            let kind = g.pick(&[ProfileKind::Standard, ProfileKind::Fast]);
            let spec = BatterySpec::from_chemistry(
                &format!("b{i}"),
                g.pick(&chems),
                g.f64_range(0.3, 3.0),
            );
            b = b.battery_at(spec, soc, kind);
        }
        let mut micro = b.build();
        micro.set_observer(Observer::disabled());
        if g.chance(0.5) {
            let to = micro.battery_count() - 1;
            let _ = micro.charge_one_from_another(0, to, g.f64_range(0.5, 3.0), 7200.0);
        }
        for _ in 0..g.usize_range(1, 6) {
            let external_w = if g.chance(0.3) {
                g.f64_range(0.0, 8.0)
            } else {
                0.0
            };
            micro.step(g.f64_range(0.0, 4.0), external_w, 60.0);
        }
        micro
    }

    /// A drawn 2–8 h trace; with `external`, some segments bring external
    /// power above or below the load.
    fn arb_trace(g: &mut Gen, external: bool) -> Trace {
        let mut t = Trace::new();
        for _ in 0..g.usize_range(2, 8) {
            let load_w = g.f64_range(0.05, 5.0);
            let external_w = if external && g.chance(0.4) {
                g.f64_range(0.5, 10.0)
            } else {
                0.0
            };
            t.push(load_w, external_w, g.f64_range(900.0, 3600.0));
        }
        t
    }

    /// `live` with every cell's cycle counter a hair short of its next
    /// cycle: the first charge a rollout moves into a cell completes one,
    /// which reads the C-rate accumulators and fades the cell.
    fn on_the_verge_of_a_cycle(live: &Microcontroller) -> Microcontroller {
        let mut snap = live.snapshot();
        for cell in &mut snap.cells {
            cell.aging.cumulative_frac = CYCLE_CHARGE_THRESHOLD - 1e-9;
        }
        let mut verge = live.clone();
        verge.restore_from(&snap).expect("same pack");
        verge
    }

    /// The scratch skips work only where the reference, which keeps
    /// gauges, the charge side and the C-rate accumulators on, shows the
    /// same scores: on history forecasts (no external power) the charge
    /// side is off, and so are the accumulators unless a transfer is in
    /// flight; rollouts that complete a charge cycle, by external power
    /// or by a live transfer, keep them on.
    #[test]
    fn scratch_scores_match_reference_rollouts_bit_for_bit() {
        let (mut by_external, mut by_transfer, mut skipped) = (0u32, 0u32, 0u32);
        check(24, 0xD0_0101, |g| {
            let live = arb_live_pack(g);
            let verge = on_the_verge_of_a_cycle(&live);
            let cfg = PlannerConfig {
                horizon_s: 4.0 * 3600.0,
                ..PlannerConfig::default()
            };
            let forecaster = HistoryForecaster::from_history([&arb_trace(g, false)], 0.3);
            let history = forecaster
                .forecast(g.f64_range(0.0, 86_400.0), cfg.horizon_s, PLAN_DT_S)
                .runs(PLAN_DT_S);
            assert!(history.iter().all(|(p, _)| p.external_w == 0.0));
            let oracle = OracleForecaster::new(Arc::new(arb_trace(g, true)))
                .forecast(0.0, f64::INFINITY, PLAN_DT_S)
                .runs(PLAN_DT_S);
            let mut planner = Planner::new(cfg, Box::new(forecaster));
            let cands: Vec<f64> = (0..9).map(|i| f64::from(i) / 8.0).collect();
            // History, oracle, then history again through one scratch: the
            // charge side switches off, on and off between re-plans; then
            // both again from the pack on the verge of a cycle.
            for (pack, runs) in [
                (&live, &history),
                (&live, &oracle),
                (&live, &history),
                (&verge, &oracle),
                (&verge, &history),
            ] {
                let (external, charging) = may_charge(pack, runs);
                assert!(!external || runs == &oracle, "a history forecast charges");
                assert_eq!(charging, external || pack.transfer_active());
                skipped += u32::from(!charging);
                let fast = planner.scratch_scores(pack, &cands, runs);
                let reference = reference_scores(&mut planner, pack, &cands, runs);
                assert_eq!(bits(&fast), bits(&reference));
                let cycles = reference_rollout(&planner.cfg, pack, 0.5, runs).1;
                if cycles > 0 && external {
                    by_external += 1;
                } else if cycles > 0 {
                    by_transfer += 1;
                }
            }
        });
        assert!(skipped > 0, "no rollout skipped the accumulators");
        assert!(
            by_external > 0,
            "no rollout completed a cycle on external power"
        );
        assert!(
            by_transfer > 0,
            "no rollout completed a cycle by a transfer"
        );
    }

    /// A recording planner: commits the same way as [`Planner`], scoring
    /// through the rollout scratch or through reference rollouts.
    struct Recording {
        planner: Planner,
        reference: bool,
        commits: Vec<f64>,
    }

    impl LookaheadPolicy for Recording {
        fn plan(
            &mut self,
            t_s: f64,
            micro: &Microcontroller,
            _: &PolicyInput,
        ) -> Option<PlanUpdate> {
            let score: Scorer = if self.reference {
                reference_scores
            } else {
                Planner::scratch_scores
            };
            let plan = self.planner.plan_with(t_s, micro, score);
            if let Some(p) = &plan {
                self.commits.push(p.discharge.value());
            }
            plan
        }

        fn observe_step(&mut self, t_s: f64, dt_s: f64, load_w: f64) {
            self.planner.observe_step(t_s, dt_s, load_w);
        }
    }

    #[test]
    fn history_planned_day_commits_the_same_directives_as_reference_rollouts() {
        // A phone day with an evening charge: the live run charges while
        // history forecasts (no external power) turn the charge side of
        // every rollout off.
        let mut day = sdb_workloads::traces::phone_day(11);
        day.push(0.3, 12.0, 3600.0);
        let run = |reference: bool| {
            let mut micro = hybrid_pack(0.7);
            let mut rt = SdbRuntime::new(micro.battery_count());
            let cfg = PlannerConfig {
                horizon_s: 8.0 * 3600.0,
                ..PlannerConfig::default()
            };
            let mut rec = Recording {
                planner: commuter_history_planner(cfg, 3, 1),
                reference,
                commits: Vec::new(),
            };
            let res = run_planned(&mut micro, &mut rt, &day, &mut rec);
            (rec.commits, res, micro.snapshot())
        };
        let (commits, res, snap) = run(false);
        assert!(commits.len() > 1, "the day re-plans: {commits:?}");
        assert_eq!((commits, res, snap), run(true));
    }

    #[test]
    fn rollouts_leave_live_state_untouched() {
        let mut micro = hybrid_pack(1.0);
        micro.step(1.5, 0.0, 60.0);
        let before = micro.snapshot();
        let mut planner = Planner::oracle(
            PlannerConfig::default(),
            Arc::new(Trace::constant(2.0, 600.0)),
        );
        let runs = Trace::constant(2.0, 600.0).runs(60.0);
        let _ = planner.scratch_scores(&micro, &[0.0, 0.5, 1.0], &runs);
        assert_eq!(before, micro.snapshot(), "gauges included");
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
        let runs = Trace::constant(4.0, 3600.0).runs(60.0);
        let s = planner.scratch_scores(&micro, &[0.7, 0.2, 0.7, 0.2], &runs);
        assert_eq!(s[0], s[2], "rollout leaked state between candidates");
        assert_eq!(s[1], s[3]);
        assert_ne!(s[0], s[1], "distinct directives should score differently");
    }
}
