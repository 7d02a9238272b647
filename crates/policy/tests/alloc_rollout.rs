//! Proves warm planner rollouts allocate nothing.
//!
//! The test binary installs [`sdb_testkit::CountingAllocator`] as the
//! global allocator (thread-local counters, so parallel tests measure
//! independently). Per-epoch work (forecast materialization, the
//! candidate and score vectors) allocates a fixed amount per plan, so the
//! check differences it away: once the rollout scratch is warm, plan
//! epochs with 17 candidates must allocate exactly as much as epochs with
//! 2. Every extra rollout runs through the snapshot/restore scratch pair.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::policy::PolicyInput;
use sdb_core::LookaheadPolicy;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_policy::{HistoryForecaster, Planner, PlannerConfig};
use sdb_testkit::{alloc_counter, CountingAllocator};
use sdb_workloads::Trace;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn hybrid_pack() -> Microcontroller {
    PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 2.0),
            0.9,
            ProfileKind::Standard,
        )
        .battery_at(
            BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 1.0),
            0.9,
            ProfileKind::Fast,
        )
        .build()
}

/// A synthetic "previous day": light idle punctuated by heavy bursts, so
/// the forecaster has real structure and rollouts see varying load.
fn history_day() -> Trace {
    let mut t = Trace::new();
    for hour in 0..24 {
        let heavy = hour % 6 == 3;
        t.push(if heavy { 2.5 } else { 0.15 }, 0.0, 3600.0);
    }
    t
}

/// A 12 h day plugged in every third hour, so the oracle's rollouts
/// evaluate the charge side too, and every counted epoch still has a
/// forecast left.
fn charging_day() -> Trace {
    let mut t = Trace::new();
    for hour in 0..12 {
        let external_w = if hour % 3 == 1 { 10.0 } else { 0.0 };
        t.push(1.2, external_w, 3600.0);
    }
    t
}

/// Plan epochs counted per candidate count.
const EPOCHS: u64 = 20;

/// Heap allocations across `EPOCHS` full plan epochs of the planner that
/// `build` makes at `candidates`: two warm-up epochs build the rollout
/// scratch and settle the incumbent onto the candidate grid, then the
/// counted epochs run back to back (the re-plan clock advanced through
/// `observe_step`).
fn allocs_at_candidates(build: &dyn Fn(PlannerConfig) -> Planner, candidates: usize) -> u64 {
    let micro = hybrid_pack();
    let input = PolicyInput::from_micro(&micro);
    let cfg = PlannerConfig {
        candidates,
        ..PlannerConfig::default()
    };
    let period = cfg.replan_period_s;
    let mut planner = build(cfg);
    let mut t = 0.0;
    for _ in 0..2 {
        let _ = planner.plan(t, &micro, &input);
        planner.observe_step(t, period, 0.5);
        t += period;
    }
    let before = alloc_counter::allocs();
    for _ in 0..EPOCHS {
        let _ = planner.plan(t, &micro, &input);
        planner.observe_step(t, period, 0.5);
        t += period;
    }
    alloc_counter::allocs() - before
}

/// Allocations per warm rollout: the extra rollouts per epoch at 17
/// candidates against `narrow`.
fn allocs_per_rollout(build: &dyn Fn(PlannerConfig) -> Planner, narrow: usize) -> f64 {
    let wide = 17;
    let extra =
        allocs_at_candidates(build, wide) as f64 - allocs_at_candidates(build, narrow) as f64;
    extra / (EPOCHS * (wide - narrow) as u64) as f64
}

#[test]
fn warm_history_rollouts_allocate_nothing() {
    let day = history_day();
    let build = |cfg| {
        let cfg = PlannerConfig {
            horizon_s: 4.0 * 3600.0,
            ..cfg
        };
        Planner::new(cfg, Box::new(HistoryForecaster::from_history([&day], 0.3)))
    };
    assert_eq!(allocs_per_rollout(&build, 2), 0.0);
}

/// Against 9 candidates, not 2: an off-grid incumbent costs its epoch one
/// allocation (the candidate list grows), and the oracle's first plan can
/// keep the auto-tuned directive. The 9-point grid is a subset of the
/// 17-point one, so both runs keep or drop an off-grid incumbent alike.
#[test]
fn warm_oracle_rollouts_with_charging_allocate_nothing() {
    let day = Arc::new(charging_day());
    let build = |cfg| Planner::oracle(cfg, Arc::clone(&day));
    assert_eq!(allocs_per_rollout(&build, 9), 0.0);
}
