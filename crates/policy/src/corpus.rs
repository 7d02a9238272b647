//! The evaluation corpus: named scenarios and the greedy / planned /
//! oracle head-to-head runner behind `sdb policy`.
//!
//! Each [`Scenario`] pairs a pack with a workload (the same builds the
//! `sdb` CLI exposes), a start state that puts the run under genuine
//! energy pressure, and the fixed greedy blend it is judged against. The
//! head-to-head runs every scenario under all three policy modes and
//! reports battery life, brownouts, unserved energy, losses, wear spread,
//! directive pushes, and re-plans — everything needed to see where
//! lookahead buys real lifetime and what a perfect forecast would add.
//!
//! Determinism: outcomes are a pure function of `(scenario, seed)`. The
//! text and JSON reports are built with stable formatting so byte-level
//! comparison across runs and thread counts is meaningful.

use crate::planner::Planner;
use crate::spec::{warmup_seeds, PolicyMode};
use sdb_core::metrics::ccb;
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, Hooks, SimOptions};
use sdb_emulator::PackTemplate;
use sdb_workloads::{Trace, WorkloadSpec};
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::sync::Arc;

/// One corpus entry: a pack × workload under energy pressure, with the
/// fixed greedy blend it is judged against.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario name (report key).
    pub name: &'static str,
    /// The catalog pack, every cell at the scenario's start state of
    /// charge.
    pub pack: PackTemplate,
    /// Workload to replay.
    pub workload: WorkloadSpec,
    /// The fixed blend the greedy baseline runs with.
    pub greedy_directive: f64,
    /// Multiplier applied to the workload's load power.
    pub(crate) load_scale: f64,
}

impl Scenario {
    /// Builds the scenario's workload trace for `seed`, with the load
    /// scale applied.
    #[must_use]
    pub fn build_trace(&self, seed: u64) -> Arc<Trace> {
        let base = self.workload.build(seed);
        if (self.load_scale - 1.0).abs() < 1e-12 {
            return base;
        }
        let mut scaled = Trace::new();
        for p in base.points() {
            scaled.push(p.load_w * self.load_scale, p.external_w, p.dur_s);
        }
        Arc::new(scaled)
    }
}

/// The scenario corpus: every pack class, with loads scaled so the packs
/// run out of energy inside the trace — the regime where directive
/// choice actually moves battery life.
#[must_use]
pub fn corpus() -> Vec<Scenario> {
    let scenario = |name, pack, soc, workload, load_scale| Scenario {
        name,
        pack: PackTemplate::named(pack, soc).expect("corpus packs are catalog packs"),
        workload,
        greedy_directive: 0.5,
        load_scale,
    };
    let watch_day = |run_hour| WorkloadSpec::WatchDay { run_hour };
    let tablet = |hours: f64| WorkloadSpec::TabletMixed {
        segment_s: 300.0,
        total_s: hours * 3600.0,
    };
    vec![
        scenario("watch-day", "watch", 1.0, watch_day(Some(9.0)), 1.0),
        scenario("watch-run-late", "watch", 1.0, watch_day(Some(18.0)), 1.0),
        scenario("watch-day-heavy", "watch", 1.0, watch_day(Some(9.0)), 1.3),
        scenario("watch-day-norun", "watch", 1.0, watch_day(None), 1.0),
        scenario("phone-day", "phone", 1.0, WorkloadSpec::PhoneDay, 1.0),
        scenario("phone-heavy", "phone", 0.8, WorkloadSpec::PhoneDay, 1.6),
        scenario("tablet-mixed", "tablet-hybrid", 0.5, tablet(4.0), 2.0),
        scenario("two-in-one", "two-in-one", 0.6, tablet(6.0), 2.5),
    ]
}

/// Outcome of one scenario × policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// Policy mode that produced this row.
    pub policy: PolicyMode,
    /// Battery life (time to first brownout, or full trace), seconds.
    pub life_s: f64,
    /// Whether any load went unserved.
    pub(crate) browned_out: bool,
    /// Unserved load energy, joules.
    pub(crate) unmet_j: f64,
    /// Total conversion + heat losses, joules.
    pub(crate) loss_j: f64,
    /// Wear spread after the run (CCB metric: max/min wear ratio).
    pub(crate) wear_ccb: f64,
    /// Directive pushes the runtime sent to hardware.
    pub(crate) pushes: u64,
    /// Plans committed (0 for greedy).
    pub replans: u64,
    /// Final forecast MAE, watts (0 for greedy and oracle).
    pub forecast_mae_w: f64,
}

/// Days of history the planned mode warm-starts from.
pub(crate) const CORPUS_WARMUP_DAYS: u64 = 14;

/// The planned mode's lookahead horizon. 8 h is long enough that a
/// habit-forecast planner sees a day's stress event (a GPS run, an
/// evening commute) several re-plans before it starts.
pub(crate) const CORPUS_HORIZON_S: f64 = 8.0 * 3600.0;

/// Runs one scenario under one policy mode. Pure function of
/// `(scenario, mode, seed)`.
#[must_use]
pub(crate) fn run_scenario(s: &Scenario, mode: PolicyMode, seed: u64) -> RunOutcome {
    let mut micro = s.pack.instantiate();
    let trace = s.build_trace(seed);
    let mut runtime = SdbRuntime::new(micro.battery_count());
    let opts = SimOptions::default();
    // The planned mode warms up on "previous days": the same workload
    // under derived seeds. It never sees the evaluated day itself — its
    // forecast is the user's habit, not the answer key (that is the
    // oracle's job).
    let history = warmup_seeds(seed, CORPUS_WARMUP_DAYS).map(|d| s.build_trace(d));
    // Re-plan every 30 minutes; re-evaluate every 60 s, the runtime's
    // default.
    let mut planner = mode
        .spec(s.greedy_directive, CORPUS_HORIZON_S, 1800.0)
        .install(&mut runtime, 60.0, &trace, history);
    let runs = trace.runs(opts.max_dt_s);
    let hooks = Hooks {
        policy: planner.as_mut().map(|p| p as _),
        ..Hooks::default()
    };
    let result = drive(
        &mut micro,
        &mut runtime,
        &runs,
        &opts,
        hooks,
        |_, _| {},
        |_, _, _| ControlFlow::Continue(()),
    );
    let replans = planner.as_ref().map_or(0, Planner::replans);
    let mae = match (&planner, mode) {
        (Some(p), PolicyMode::Planned) => p.forecast_mae_w(),
        _ => 0.0,
    };
    let wear: Vec<f64> = micro.cells().iter().map(|c| c.wear_ratio()).collect();
    RunOutcome {
        scenario: s.name,
        policy: mode,
        life_s: result.battery_life_s(),
        browned_out: result.first_brownout_s.is_some(),
        unmet_j: result.unmet_j,
        loss_j: result.total_loss_j(),
        wear_ccb: ccb(&wear),
        pushes: runtime.pushes(),
        replans,
        forecast_mae_w: mae,
    }
}

/// A full greedy / planned / oracle sweep over the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadToHead {
    /// Master seed the sweep ran under.
    pub(crate) seed: u64,
    /// One row per scenario × policy, corpus order, greedy → planned →
    /// oracle within each scenario.
    pub rows: Vec<RunOutcome>,
}

/// Runs the whole corpus under all three policy modes.
#[must_use]
pub fn run_head_to_head(seed: u64) -> HeadToHead {
    let prof_run = sdb_prof::scope(sdb_prof::Phase::PolicyRun);
    let mut rows = Vec::new();
    for s in corpus() {
        for mode in PolicyMode::ALL {
            rows.push(run_scenario(&s, mode, seed));
        }
    }
    drop(prof_run);
    if sdb_prof::enabled() {
        sdb_prof::flush_thread();
    }
    HeadToHead { seed, rows }
}

impl HeadToHead {
    /// Scenarios where the planner strictly beats greedy on battery life
    /// or serves strictly more of the load.
    #[must_use]
    pub(crate) fn planner_wins(&self) -> usize {
        self.pairs()
            .filter(|(g, p, _)| p.life_s > g.life_s || p.unmet_j < g.unmet_j)
            .count()
    }

    /// Scenarios where the oracle's battery life is at least both the
    /// greedy's and the planner's (within float noise).
    #[must_use]
    pub(crate) fn oracle_bounds(&self) -> usize {
        self.pairs()
            .filter(|(g, p, o)| o.life_s >= g.life_s - 1e-6 && o.life_s >= p.life_s - 1e-6)
            .count()
    }

    fn pairs(&self) -> impl Iterator<Item = (&RunOutcome, &RunOutcome, &RunOutcome)> {
        self.rows.chunks_exact(3).map(|c| (&c[0], &c[1], &c[2]))
    }

    /// Fixed-width table, one row per scenario × policy.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy head-to-head (seed {}, {} scenarios)",
            self.seed,
            self.rows.len() / 3
        );
        let _ = writeln!(
            out,
            "{:<16} {:<8} {:>8} {:>9} {:>10} {:>10} {:>9} {:>7} {:>8} {:>8}",
            "scenario",
            "policy",
            "life_h",
            "brownout",
            "unmet_j",
            "loss_j",
            "wear_ccb",
            "pushes",
            "replans",
            "mae_w"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<8} {:>8.2} {:>9} {:>10.1} {:>10.1} {:>9.3} {:>7} {:>8} {:>8.3}",
                r.scenario,
                r.policy.name(),
                r.life_s / 3600.0,
                if r.browned_out { "yes" } else { "-" },
                r.unmet_j,
                r.loss_j,
                r.wear_ccb,
                r.pushes,
                r.replans,
                r.forecast_mae_w
            );
        }
        let _ = writeln!(
            out,
            "planner beats greedy on {} / {} scenarios; oracle bounds both on {} / {}",
            self.planner_wins(),
            self.rows.len() / 3,
            self.oracle_bounds(),
            self.rows.len() / 3
        );
        out
    }

    /// Canonical JSON export (stable key order, `{:?}` float formatting —
    /// byte-identical across runs and thread counts).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn f(v: f64) -> String {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_owned()
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{{\"seed\":{},\"rows\":[", self.seed);
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"scenario\":\"{}\",\"policy\":\"{}\",\"life_s\":{},\"browned_out\":{},\"unmet_j\":{},\"loss_j\":{},\"wear_ccb\":{},\"pushes\":{},\"replans\":{},\"forecast_mae_w\":{}}}",
                r.scenario,
                r.policy.name(),
                f(r.life_s),
                r.browned_out,
                f(r.unmet_j),
                f(r.loss_j),
                f(r.wear_ccb),
                r.pushes,
                r.replans,
                f(r.forecast_mae_w)
            );
        }
        let _ = write!(
            out,
            "],\"planner_wins\":{},\"oracle_bounds\":{}}}",
            self.planner_wins(),
            self.oracle_bounds()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_stable_and_named_uniquely() {
        let c = corpus();
        assert!(c.len() >= 5);
        let mut names: Vec<_> = c.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let s = corpus()
            .into_iter()
            .find(|s| s.name == "tablet-mixed")
            .unwrap();
        let a = run_scenario(&s, PolicyMode::Planned, 42);
        let b = run_scenario(&s, PolicyMode::Planned, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_mode_commits_no_plans() {
        let s = corpus().into_iter().next().unwrap();
        let r = run_scenario(&s, PolicyMode::Greedy, 42);
        assert_eq!(r.replans, 0);
        assert_eq!(r.forecast_mae_w, 0.0);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let h = HeadToHead {
            seed: 1,
            rows: vec![],
        };
        let j = h.to_json();
        assert!(j.starts_with("{\"seed\":1"));
        assert!(j.ends_with('}'));
    }
}
