//! Plan-based lookahead policies for Software Defined Batteries.
//!
//! The paper's CCB/RBL blend is *instantaneously optimal*: at every tick
//! it splits the load from gauge state alone, with no model of what the
//! workload will do next. Its own Section 8 observes that "knowledge of
//! the future workload" is where the remaining headroom lives. This crate
//! quantifies that headroom end-to-end:
//!
//! * `forecast` — load forecasting over the `sdb-workloads` behavior
//!   models: [`HistoryForecaster`] folds windowed history into
//!   24 hourly EWMA buckets (warm-startable from simulated user days) and
//!   emits piecewise-constant power forecasts, while
//!   `OracleForecaster` replays the true remaining trace — the
//!   perfect-forecast upper bound.
//! * `planner` — a receding-horizon planner ([`Planner`]): at a
//!   configurable re-plan cadence it rolls the forecast forward through a
//!   cloned emulator for each candidate discharge directive and commits
//!   the lexicographically best one (battery life, then unserved energy,
//!   then losses) through the [`sdb_core::LookaheadPolicy`] seam. The plan
//!   vocabulary is the same [`sdb_core::policy::DischargeDirective`] the four
//!   paper APIs accept, so greedy blend, planner, and oracle are drop-in
//!   interchangeable.
//! * `tuner` — a directive auto-tuner mapping forecast statistics
//!   (duty factor, burstiness) to a CCB-vs-RBL blend; the planner uses it
//!   to anchor its first plan.
//! * `spec` — [`PolicySpec`], the one place a device is set up under a
//!   policy (blend, preserve, planned from warm-up days, oracle over the
//!   device's trace), and [`PolicyMode`], the greedy / planned / oracle
//!   axis of the fleet, the campaign and the corpus.
//! * `corpus` — the evaluation corpus: named pack × workload scenarios
//!   and a deterministic greedy / planned / oracle head-to-head runner
//!   with text and JSON reports (the `sdb policy` subcommand).
//!
//! Everything is a pure function of `(scenario, seed)`: re-plans, rollouts
//! and reports are bit-identical across runs and thread counts.

mod corpus;
mod forecast;
mod planner;
mod spec;
mod tuner;

pub use corpus::{corpus, run_head_to_head, HeadToHead, RunOutcome, Scenario};
pub use forecast::{Forecaster, HistoryForecaster};
pub use planner::{Planner, PlannerConfig};
pub use spec::{warmup_seeds, PolicyMode, PolicySpec, WARMUP_DAYS, WARMUP_SALT};
