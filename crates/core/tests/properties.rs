//! Property-based tests for the SDB Runtime policies and scheduler
//! (sdb-testkit seeded-case harness).

use sdb_core::policy::{
    ccb_charge, ccb_discharge, rbl_charge, rbl_discharge, BatteryView, ChargeDirective,
    DischargeDirective, PolicyInput, PreservePolicy,
};
use sdb_testkit::{check, Gen};

fn arb_view(g: &mut Gen) -> BatteryView {
    let soc = g.f64_range(0.0, 1.0);
    let accept_frac = g.f64_range(0.0, 1.0);
    BatteryView {
        soc,
        ocv_v: 3.0 + soc,
        resistance_ohm: g.f64_range(0.01, 2.0),
        dcir_slope: g.f64_range(0.0, 5.0),
        wear: g.f64_range(0.0, 1.0),
        capacity_ah: 2.0,
        max_discharge_a: 4.0,
        charge_acceptance_a: if soc >= 1.0 { 0.0 } else { accept_frac * 1.4 },
        empty: soc <= 0.0,
        full: soc >= 1.0,
    }
}

fn arb_input(g: &mut Gen) -> PolicyInput {
    PolicyInput {
        batteries: g.vec_with(1..6, arb_view),
        load_w: g.f64_range(0.1, 20.0),
        external_w: 0.0,
    }
}

/// Like [`arb_input`] but with at least two batteries (for the
/// monotonicity and preserve properties that need a pair).
fn arb_input_multi(g: &mut Gen) -> PolicyInput {
    PolicyInput {
        batteries: g.vec_with(2..6, arb_view),
        load_w: g.f64_range(0.1, 20.0),
        external_w: 0.0,
    }
}

/// Ratios are valid: non-negative, sum to 1, zero on unusable batteries.
fn check_valid_discharge(ratios: &[f64], input: &PolicyInput) {
    let sum: f64 = ratios.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    for (r, b) in ratios.iter().zip(&input.batteries) {
        assert!(*r >= 0.0);
        if b.empty {
            assert_eq!(*r, 0.0, "empty battery allocated {r}");
        }
    }
}

/// Every policy's output is a valid ratio tuple whenever it is feasible,
/// for arbitrary battery views.
#[test]
fn policies_produce_valid_ratios() {
    check(512, 0xC0_0001, |g| {
        let input = arb_input(g);
        let usable_discharge = input.batteries.iter().any(|b| !b.empty);
        let usable_charge = input
            .batteries
            .iter()
            .any(|b| !b.full && b.charge_acceptance_a > 0.0);

        for result in [ccb_discharge(&input), rbl_discharge(&input)] {
            match result {
                Ok(r) => {
                    assert!(usable_discharge);
                    check_valid_discharge(&r, &input);
                }
                Err(_) => assert!(!usable_discharge),
            }
        }
        for result in [ccb_charge(&input), rbl_charge(&input)] {
            match result {
                Ok(r) => {
                    assert!(usable_charge);
                    let sum: f64 = r.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-6);
                    for (ratio, b) in r.iter().zip(&input.batteries) {
                        assert!(*ratio >= 0.0);
                        if b.full {
                            assert!(*ratio == 0.0);
                        }
                    }
                }
                Err(_) => assert!(!usable_charge),
            }
        }
    });
}

/// Directive blending is bounded by its endpoints: for any directive
/// value, each battery's blended ratio lies between its CCB and RBL
/// ratios.
#[test]
fn blend_is_convex() {
    check(512, 0xC0_0002, |g| {
        let input = arb_input(g);
        let d = g.f64_range(0.0, 1.0);
        if let (Ok(ccb), Ok(rbl)) = (ccb_discharge(&input), rbl_discharge(&input)) {
            let blended = DischargeDirective::new(d).ratios(&input).unwrap();
            for ((b, &c), &r) in blended.iter().zip(&ccb).zip(&rbl) {
                let lo = c.min(r) - 1e-9;
                let hi = c.max(r) + 1e-9;
                assert!(*b >= lo && *b <= hi, "blend {b} outside [{lo}, {hi}]");
            }
        }
    });
}

/// Directive blending is continuous: sweeping the directive 0 → 1 in
/// small steps keeps every intermediate tuple valid (non-negative, sums
/// to 1) and moves each battery's share by at most the directive step
/// (the blend linearly interpolates two fixed unit-sum endpoints, so it
/// is 1-Lipschitz in the directive) — no discontinuous policy jumps as
/// the OS dials urgency up or down.
#[test]
fn blend_continuous_as_directive_sweeps() {
    check(256, 0xC0_0008, |g| {
        let input = arb_input(g);
        let steps = 64;
        let dd = 1.0 / f64::from(steps);

        if ccb_discharge(&input).is_ok() {
            let mut prev: Option<Vec<f64>> = None;
            for k in 0..=steps {
                let r = DischargeDirective::new(f64::from(k) * dd)
                    .ratios(&input)
                    .expect("feasible at every directive");
                check_valid_discharge(&r, &input);
                if let Some(p) = &prev {
                    for (i, (a, b)) in p.iter().zip(&r).enumerate() {
                        assert!(
                            (a - b).abs() <= dd + 1e-9,
                            "discharge share {i} jumped {a} -> {b} over d-step {dd}"
                        );
                    }
                }
                prev = Some(r);
            }
        }

        if ccb_charge(&input).is_ok() {
            let mut prev: Option<Vec<f64>> = None;
            for k in 0..=steps {
                let r = ChargeDirective::new(f64::from(k) * dd)
                    .ratios(&input)
                    .expect("feasible at every directive");
                let sum: f64 = r.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
                assert!(r.iter().all(|x| *x >= 0.0));
                if let Some(p) = &prev {
                    for (i, (a, b)) in p.iter().zip(&r).enumerate() {
                        assert!(
                            (a - b).abs() <= dd + 1e-9,
                            "charge share {i} jumped {a} -> {b} over d-step {dd}"
                        );
                    }
                }
                prev = Some(r);
            }
        }
    });
}

/// RBL-Discharge monotonicity: strictly raising one battery's resistance
/// never increases its share — in the uncapped regime. (When a current
/// limit binds, redistribution can push load *back* onto the lossier
/// battery, so the property only holds when no cap is active.)
#[test]
fn rbl_share_antimonotone_in_resistance() {
    check(512, 0xC0_0003, |g| {
        let input = arb_input_multi(g);
        let bump = g.f64_range(1.5, 5.0);
        if input.batteries.iter().any(|b| b.empty) {
            return;
        }
        // Keep every battery far from its current limit: even carrying the
        // whole load alone would stay under half the cap.
        let min_ocv = input
            .batteries
            .iter()
            .map(|b| b.ocv_v)
            .fold(f64::INFINITY, f64::min);
        let min_cap = input
            .batteries
            .iter()
            .map(|b| b.max_discharge_a)
            .fold(f64::INFINITY, f64::min);
        if input.load_w / min_ocv >= 0.5 * min_cap {
            return;
        }
        let base = rbl_discharge(&input).unwrap();
        let mut worse = input.clone();
        worse.batteries[0].resistance_ohm *= bump;
        let after = rbl_discharge(&worse).unwrap();
        assert!(
            after[0] <= base[0] + 1e-9,
            "share grew with resistance: {} -> {}",
            base[0],
            after[0]
        );
    });
}

/// CCB-Discharge monotonicity: raising one battery's wear never increases
/// its share.
#[test]
fn ccb_share_antimonotone_in_wear() {
    check(512, 0xC0_0004, |g| {
        let input = arb_input_multi(g);
        let extra = g.f64_range(0.05, 0.5);
        if input.batteries.iter().any(|b| b.empty) {
            return;
        }
        let base = ccb_discharge(&input).unwrap();
        let mut worse = input.clone();
        worse.batteries[0].wear = (worse.batteries[0].wear + extra).min(1.0);
        let after = ccb_discharge(&worse).unwrap();
        assert!(after[0] <= base[0] + 1e-9);
    });
}

/// Directive constructors clamp/validate consistently.
#[test]
fn directive_construction() {
    check(512, 0xC0_0005, |g| {
        let v = g.f64_range(-10.0, 10.0);
        let clamped = DischargeDirective::new(v).value();
        assert!((0.0..=1.0).contains(&clamped));
        let strict = ChargeDirective::try_new(v);
        assert_eq!(strict.is_ok(), (0.0..=1.0).contains(&v));
    });
}

/// The preserve policy always produces a valid split when any battery is
/// usable, for any threshold and load.
#[test]
fn preserve_policy_total_coverage() {
    check(512, 0xC0_0006, |g| {
        let input = arb_input_multi(g);
        let threshold = g.f64_range(0.01, 30.0);
        let p = PreservePolicy::new(0, 1, threshold);
        match p.ratios(&input) {
            Ok(r) => {
                let sum: f64 = r.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6);
                check_valid_discharge(&r, &input);
            }
            Err(_) => {
                assert!(input.batteries[0].empty && input.batteries[1].empty);
            }
        }
    });
}

mod scheduler_props {
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_core::runtime::SdbRuntime;
    use sdb_core::scheduler::{run_trace, SimOptions};
    use sdb_emulator::pack::PackBuilder;
    use sdb_emulator::profile::ProfileKind;
    use sdb_testkit::check;
    use sdb_workloads::traces::Trace;

    /// Full-stack accounting: the simulation result's energy fields agree
    /// with the microcontroller's lifetime totals, and the load is never
    /// over-served, for random load/charge traces under a random
    /// directive.
    #[test]
    fn sim_result_accounts_for_every_joule() {
        check(32, 0xC0_0007, |g| {
            let segments = g.vec_with(1..12, |g| {
                (
                    g.f64_range(0.0, 12.0),
                    g.f64_range(0.0, 25.0),
                    g.f64_range(60.0, 600.0),
                )
            });
            let directive = g.f64_range(0.0, 1.0);
            let start_soc = g.f64_range(0.2, 1.0);
            let mut trace = Trace::new();
            for &(load, ext, dur) in &segments {
                trace.push(load, ext, dur);
            }
            let mut micro = PackBuilder::new()
                .battery_at(
                    BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 3.0),
                    start_soc,
                    ProfileKind::Standard,
                )
                .battery_at(
                    BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 3.0),
                    start_soc,
                    ProfileKind::Fast,
                )
                .build();
            let mut runtime = SdbRuntime::new(2);
            runtime.set_discharge_directive(sdb_core::policy::DischargeDirective::new(directive));
            let result = run_trace(&mut micro, &mut runtime, &trace, &SimOptions::default());

            // Load is fully accounted: supplied + unmet = demanded.
            let demanded: f64 = trace.load_energy_j();
            assert!(
                (result.supplied_j + result.unmet_j - demanded).abs() < 1e-3 * demanded.max(1.0),
                "supplied {} + unmet {} != demanded {}",
                result.supplied_j,
                result.unmet_j,
                demanded
            );
            // No energy creation across the stack.
            let chem_net: f64 = micro
                .cells()
                .iter()
                .map(|c| c.energy_out_j() - c.energy_in_j() + c.heat_j())
                .sum();
            let lhs = result.supplied_j + result.circuit_loss_j + result.cell_heat_j;
            let rhs = chem_net + result.external_j;
            assert!(lhs <= rhs * 1.01 + 1.0, "created energy: {lhs} > {rhs}");
            // Final SoCs are valid.
            for c in micro.cells() {
                assert!((0.0..=1.0).contains(&c.soc()));
            }
        });
    }
}
