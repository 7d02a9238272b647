//! Property-based tests for the power-electronics substrate (sdb-testkit
//! seeded-case harness).

use sdb_power_electronics::circuits::{DischargeCircuit, DischargeTopology};
use sdb_power_electronics::measurement::{SenseChain, ShareChain};
use sdb_power_electronics::regulator::{Regulator, RegulatorKind};
use sdb_testkit::{check, Gen};

fn arb_kind(g: &mut Gen) -> RegulatorKind {
    g.pick(&[
        RegulatorKind::Buck,
        RegulatorKind::BuckBoost,
        RegulatorKind::SynchronousReversibleBuck,
    ])
}

/// Regulator efficiency is always in (0, 1) for positive in-range current.
#[test]
fn efficiency_in_unit_interval() {
    check(256, 0x9E_0001, |g| {
        let kind = arb_kind(g);
        let frac = g.f64_range(0.001, 1.0);
        let v = g.f64_range(2.5, 4.5);
        let r = Regulator::typical(kind, 3.0);
        let eta = r.efficiency(frac * 3.0, v).unwrap();
        assert!(eta > 0.0 && eta < 1.0);
    });
}

/// Transfer never creates energy.
#[test]
fn transfer_is_lossy() {
    check(256, 0x9E_0002, |g| {
        let kind = arb_kind(g);
        let p = g.f64_range(0.1, 10.0);
        let v = g.f64_range(2.5, 4.5);
        let r = Regulator::typical(kind, 3.0);
        if let Ok(out) = r.transfer_w(
            p,
            v,
            sdb_power_electronics::regulator::FlowDirection::Forward,
        ) {
            assert!(out < p);
            assert!(out >= 0.0);
        }
    });
}

/// Discharge loss fraction is positive, finite, and below 100 % over the
/// benchmarked load range.
#[test]
fn loss_fraction_bounded() {
    check(256, 0x9E_0005, |g| {
        let load = g.f64_range(0.05, 20.0);
        let v = g.f64_range(3.0, 4.4);
        for topo in [
            DischargeTopology::NaiveSwitch,
            DischargeTopology::SdbIntegrated,
        ] {
            let c = DischargeCircuit::new(topo, 2);
            let f = c.loss_fraction(load, v).unwrap();
            assert!(f > 0.0 && f < 0.25, "f = {f}");
        }
    });
}

/// Sense-chain absolute error stays within its physical budget (half an
/// LSB of quantization + offset + gain mismatch).
#[test]
fn sense_error_bounded() {
    check(256, 0x9E_0006, |g| {
        let i = g.f64_range(0.05, 4.0);
        let s = SenseChain::prototype_charger();
        let realized = s.realized_current_a(i).unwrap();
        let budget = s.lsb_a() / 2.0 + s.offset_a + s.gain_mismatch * i + 1e-12;
        assert!(
            (realized - i).abs() <= budget,
            "error at {i} A = {}",
            (realized - i).abs()
        );
        // And within the paper's 0.5 % relative bound over its measured
        // sweep (0.2–2.0 A).
        if (0.2..=2.0).contains(&i) {
            let e = s.error_percent(i).unwrap();
            assert!(e < 0.7, "error at {i} A = {e}%");
        }
    });
}

/// Share-chain realized value round-trips within its quantization +
/// mismatch budget.
#[test]
fn share_error_budget() {
    check(256, 0x9E_0007, |g| {
        let p = g.f64_range(0.005, 1.0);
        let c = ShareChain::prototype();
        let realized = c.realized_share(p).unwrap();
        let budget = 0.5 / 16_384.0 + 0.0015 * p + 1e-12;
        assert!((realized - p).abs() <= budget, "p={p} realized={realized}");
    });
}
