#![allow(missing_docs)]
//! ns/plan for the lookahead planner, plus a per-rollout allocation gate.
//!
//! Measures one full `Planner::plan` epoch — forecast materialization
//! plus a rollout per candidate directive over the configured horizon —
//! and prints ns/plan. End-to-end planning cost is gated by perfbench's
//! `fleet-planned` workload; this bench gates the allocations.
//!
//! The allocation gate isolates the rollouts from the per-epoch work
//! (forecast materialization, candidate/score vectors) by differencing:
//! once the shared [`RolloutScratch`] is warm, an epoch with 17
//! candidates must allocate exactly as much as an epoch with 2 — every
//! extra rollout runs entirely through the snapshot/restore scratch pair.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_bench::harness::{format_ns, Harness};
use sdb_core::policy::PolicyInput;
use sdb_core::LookaheadPolicy;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_policy::{HistoryForecaster, Planner, PlannerConfig};
use sdb_testkit::{alloc_counter, CountingAllocator};
use sdb_workloads::Trace;
use std::hint::black_box;

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

/// Plan epochs measured per candidate count by the allocation gate.
const ALLOC_EPOCHS: u64 = 50;

/// Steady-state heap allocations across `ALLOC_EPOCHS` full plan epochs
/// at `candidates`: two warmup epochs build the rollout scratch and
/// settle the incumbent onto the candidate grid, then the counted epochs
/// run back to back (the replan clock advanced via `observe_step`).
fn allocs_at_candidates(
    micro: &Microcontroller,
    forecaster: &HistoryForecaster,
    input: &PolicyInput,
    candidates: usize,
) -> u64 {
    let cfg = PlannerConfig {
        horizon_s: 4.0 * 3600.0,
        candidates,
        ..PlannerConfig::default()
    };
    let period = cfg.replan_period_s;
    let mut planner = Planner::new(cfg, Box::new(forecaster.clone()));
    let mut t = 0.0;
    for _ in 0..2 {
        black_box(planner.plan(t, micro, input));
        planner.observe_step(t, period, 0.5);
        t += period;
    }
    let before = alloc_counter::allocs();
    for _ in 0..ALLOC_EPOCHS {
        black_box(planner.plan(t, micro, input));
        planner.observe_step(t, period, 0.5);
        t += period;
    }
    alloc_counter::allocs() - before
}

fn main() {
    let mut h = Harness::from_args();
    let micro = hybrid_pack();
    let forecaster = HistoryForecaster::from_history([&history_day()], 0.3);
    let cfg = PlannerConfig {
        horizon_s: 4.0 * 3600.0,
        ..PlannerConfig::default()
    };
    let input = PolicyInput {
        batteries: Vec::new(),
        load_w: 0.0,
        external_w: 0.0,
    };

    h.bench_batched(
        "policy_plan",
        || Planner::new(cfg, Box::new(forecaster.clone())),
        |mut planner| {
            black_box(planner.plan(0.0, &micro, &input));
            planner
        },
    );
    let ns_per_plan = h.results().last().expect("bench recorded").min_ns;
    println!("  plan epoch: {} per plan", format_ns(ns_per_plan));
    h.finish();

    // Allocation gate: the extra 15 rollouts per epoch at 17 candidates
    // must be free once the scratch is warm.
    let wide = 17usize;
    let narrow = 2usize;
    let a_wide = allocs_at_candidates(&micro, &forecaster, &input, wide);
    let a_narrow = allocs_at_candidates(&micro, &forecaster, &input, narrow);
    let extra_rollouts = ALLOC_EPOCHS * (wide - narrow) as u64;
    let allocs_per_rollout = (a_wide as f64 - a_narrow as f64) / extra_rollouts as f64;
    println!(
        "  rollout allocs: {a_wide} allocs over {ALLOC_EPOCHS} epochs at {wide} \
         candidates vs {a_narrow} at {narrow} -> {allocs_per_rollout} allocs/rollout"
    );
    assert!(
        allocs_per_rollout == 0.0,
        "warm planner rollouts allocated ({allocs_per_rollout}/rollout) — the \
         snapshot/restore scratch path regressed"
    );
}
