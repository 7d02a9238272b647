//! Property-based tests for the lookahead planner (sdb-testkit
//! seeded-case harness, same idiom as the sdb-core policy suite).

use sdb_battery_model::{BatterySpec, Chemistry};
use sdb_core::policy::{BatteryView, DischargeDirective, PolicyInput};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, run_trace, Hooks, SimOptions, SimResult};
use sdb_core::LookaheadPolicy;
use sdb_emulator::{Microcontroller, PackBuilder, ProfileKind};
use sdb_observe::{ObsEvent, Observer};
use sdb_policy::{corpus, HistoryForecaster, Planner, PlannerConfig};
use sdb_testkit::{check, Gen};
use sdb_workloads::Trace;
use std::ops::ControlFlow;
use std::sync::Arc;

/// `run_trace` with `planner` in the loop.
fn run_planned(
    micro: &mut Microcontroller,
    rt: &mut SdbRuntime,
    trace: &Trace,
    planner: &mut Planner,
) -> SimResult {
    let opts = SimOptions::default();
    let hooks = Hooks {
        policy: Some(planner),
        ..Hooks::default()
    };
    let runs = trace.runs(opts.max_dt_s);
    drive(
        micro,
        rt,
        &runs,
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

/// A short random piecewise-constant load trace.
fn arb_trace(g: &mut Gen) -> Trace {
    let mut t = Trace::new();
    for _ in 0..g.usize_range(3, 10) {
        t.push(g.f64_range(0.05, 2.0), 0.0, g.f64_range(300.0, 3600.0));
    }
    t
}

/// A random non-empty battery view (always usable for discharge).
fn arb_view(g: &mut Gen) -> BatteryView {
    let soc = g.f64_range(0.05, 1.0);
    BatteryView {
        soc,
        ocv_v: 3.0 + soc,
        resistance_ohm: g.f64_range(0.01, 2.0),
        dcir_slope: g.f64_range(0.0, 5.0),
        wear: g.f64_range(0.0, 1.0),
        capacity_ah: 2.0,
        max_discharge_a: 4.0,
        charge_acceptance_a: 1.0,
        empty: false,
        full: soc >= 1.0,
    }
}

fn arb_input(g: &mut Gen) -> PolicyInput {
    PolicyInput {
        batteries: g.vec_with(2..6, arb_view),
        load_w: g.f64_range(0.1, 20.0),
        external_w: 0.0,
    }
}

/// Every directive the planner commits over a run is a valid directive
/// value, and blending it against an arbitrary pack state yields a valid
/// ratio tuple (non-negative, unit sum).
#[test]
fn planner_directives_stay_within_valid_ratio_bounds() {
    check(16, 0xD0_0001, |g| {
        let day = arb_trace(g);
        let mut micro = hybrid_pack(g.f64_range(0.4, 1.0));
        let mut rt = SdbRuntime::new(micro.battery_count());
        let obs = Observer::capturing();
        rt.set_observer(obs.clone());
        let cfg = PlannerConfig {
            horizon_s: 2.0 * 3600.0,
            replan_period_s: 900.0,
            candidates: g.usize_range(3, 10),
            ..PlannerConfig::default()
        };
        let mut planner = Planner::new(cfg, Box::new(HistoryForecaster::from_history([&day], 0.3)));
        let _ = run_planned(&mut micro, &mut rt, &day, &mut planner);
        let events = obs.drain_events();
        let committed: Vec<f64> = events
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::PlanCommit {
                    discharge_directive,
                    ..
                } => Some(discharge_directive),
                _ => None,
            })
            .collect();
        assert!(!committed.is_empty(), "the first plan always commits");
        let input = arb_input(g);
        for d in committed {
            assert!((0.0..=1.0).contains(&d), "committed directive {d}");
            let ratios = DischargeDirective::new(d)
                .ratios(&input)
                .expect("non-empty pack is feasible");
            let sum: f64 = ratios.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
            assert!(ratios.iter().all(|r| *r >= 0.0), "negative share");
        }
    });
}

/// Perturbing the forecast moves pack shares by no more than the
/// directive shift it induces: the blend is 1-Lipschitz in the directive
/// (the PR 5 continuity property), so walking from the unperturbed
/// plan's directive to the perturbed one in small steps never jumps any
/// battery's share by more than the step.
#[test]
fn forecast_perturbation_shifts_ratios_at_most_one_to_one() {
    check(32, 0xD0_0002, |g| {
        let micro = hybrid_pack(g.f64_range(0.5, 1.0));
        let base = arb_trace(g);
        let scale = 1.0 + g.f64_range(-0.2, 0.2);
        let mut perturbed = Trace::new();
        for p in base.points() {
            t_push(&mut perturbed, p.load_w * scale, p.dur_s);
        }
        let cfg = PlannerConfig {
            horizon_s: 2.0 * 3600.0,
            ..PlannerConfig::default()
        };
        let first_plan = |day: &Trace| {
            let mut planner =
                Planner::new(cfg, Box::new(HistoryForecaster::from_history([day], 0.3)));
            let input = PolicyInput {
                batteries: Vec::new(),
                load_w: 0.0,
                external_w: 0.0,
            };
            planner
                .plan(0.0, &micro, &input)
                .expect("the first plan always commits")
                .discharge
                .value()
        };
        let d_a = first_plan(&base);
        let d_b = first_plan(&perturbed);

        let input = arb_input(g);
        let ratios_at = |d: f64| {
            DischargeDirective::new(d)
                .ratios(&input)
                .expect("non-empty pack is feasible")
        };
        // End-to-end bound…
        let (ra, rb) = (ratios_at(d_a), ratios_at(d_b));
        for (i, (a, b)) in ra.iter().zip(&rb).enumerate() {
            assert!(
                (a - b).abs() <= (d_a - d_b).abs() + 1e-9,
                "share {i} moved {a} -> {b} for directive shift {d_a} -> {d_b}"
            );
        }
        // …and the swept form: every intermediate step is equally tame.
        let (lo, hi) = (d_a.min(d_b), d_a.max(d_b));
        let steps = 64;
        let dd = (hi - lo) / f64::from(steps);
        if dd > 0.0 {
            let mut prev = ratios_at(lo);
            for k in 1..=steps {
                let r = ratios_at(lo + f64::from(k) * dd);
                for (i, (a, b)) in prev.iter().zip(&r).enumerate() {
                    assert!(
                        (a - b).abs() <= dd + 1e-9,
                        "share {i} jumped {a} -> {b} over d-step {dd}"
                    );
                }
                prev = r;
            }
        }
    });
}

fn t_push(t: &mut Trace, load_w: f64, dur_s: f64) {
    t.push(load_w, 0.0, dur_s);
}

/// The single-shot oracle (perfect forecast, one plan at t = 0) never
/// underperforms the greedy fixed directive on battery life: greedy's
/// blend sits on the oracle's candidate grid, and the oracle's rollout
/// step matches the outer driver's, so the committed plan's realized
/// life is the max over a set that contains the greedy run.
#[test]
fn single_shot_oracle_never_underperforms_greedy_on_corpus() {
    for s in &corpus() {
        for seed in [7_u64, 42, 1234] {
            let trace = s.build_trace(seed);

            let mut micro = s.pack.instantiate();
            let mut rt = SdbRuntime::new(micro.battery_count());
            rt.set_discharge_directive(DischargeDirective::new(s.greedy_directive));
            let greedy = run_trace(&mut micro, &mut rt, &trace, &SimOptions::default());

            let mut micro = s.pack.instantiate();
            let mut rt = SdbRuntime::new(micro.battery_count());
            let cfg = PlannerConfig {
                replan_period_s: f64::INFINITY,
                candidates: 17,
                ..PlannerConfig::default()
            };
            let mut planner = Planner::oracle(cfg, Arc::clone(&trace));
            let oracle = run_planned(&mut micro, &mut rt, &trace, &mut planner);
            assert_eq!(planner.replans(), 1, "{}: single-shot plans once", s.name);
            assert!(
                oracle.battery_life_s() >= greedy.battery_life_s() - 1e-6,
                "{} seed {seed}: oracle life {:.1} s < greedy life {:.1} s",
                s.name,
                oracle.battery_life_s(),
                greedy.battery_life_s()
            );
        }
    }
}
