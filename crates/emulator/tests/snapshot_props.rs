//! Property tests for the pack snapshot and the SoA fast-forward kernel
//! (sdb-testkit seeded-case harness).
//!
//! Three contracts:
//!
//! * **Byte round-trip**: `PackSnapshot::from_bytes(to_bytes(s)) == s`
//!   bit-for-bit, over arbitrary packs, mutations (ratios, profiles,
//!   throttles, faults, transfers), and step sequences.
//! * **Resume equivalence**: restoring a snapshot into a fresh pack of
//!   the same shape and replaying an identical step sequence produces
//!   bit-identical state to the original — the planner's
//!   snapshot/restore rollouts depend on this.
//! * **Adaptive-timestep bound**: a closed-form multi-tick
//!   [`SoaCohort::advance`] stays within the documented error bound of
//!   the same ticks run through the scalar `Microcontroller::step` path.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_emulator::{PackSnapshot, QuiescenceConfig, SoaCohort};
use sdb_testkit::{check, Gen};

fn arb_chemistry(g: &mut Gen) -> Chemistry {
    g.pick(&[
        Chemistry::Type1LfpPower,
        Chemistry::Type2CoStandard,
        Chemistry::Type3CoPower,
        Chemistry::Type4Bendable,
    ])
}

fn arb_pack(g: &mut Gen) -> Microcontroller {
    let n = g.usize_range(1, 4);
    let mut b = PackBuilder::new();
    for i in 0..n {
        b = b.battery_at(
            BatterySpec::from_chemistry(&format!("p{i}"), arb_chemistry(g), g.f64_range(1.0, 3.0)),
            g.f64_range(0.3, 1.0),
            g.pick(&[ProfileKind::Standard, ProfileKind::Fast]),
        );
    }
    b.build()
}

/// Random state mutations touching every snapshot field family: ratios,
/// charging profiles, gauge faults, cell fault resistance, and transfers.
fn mutate(g: &mut Gen, m: &mut Microcontroller) {
    let n = m.battery_count();
    if g.chance(0.5) {
        let mut ratios: Vec<f64> = (0..n).map(|_| g.f64_range(0.0, 1.0)).collect();
        let sum: f64 = ratios.iter().sum();
        if sum > 0.0 {
            ratios.iter_mut().for_each(|r| *r /= sum);
            let _ = m.set_discharge_ratios(&ratios);
        }
    }
    if g.chance(0.3) {
        let b = g.usize_range(0, n);
        let _ = m.select_profile(b, g.pick(&[ProfileKind::Standard, ProfileKind::Fast]));
    }
    if g.chance(0.2) {
        let b = g.usize_range(0, n);
        let _ = m.set_cell_fault_resistance(b, g.f64_range(1.0, 4.0));
    }
    if n >= 2 && g.chance(0.2) {
        let _ = m.charge_one_from_another(0, 1, g.f64_range(0.1, 1.0), g.f64_range(60.0, 600.0));
    }
}

fn arb_steps(g: &mut Gen) -> Vec<(f64, f64, f64)> {
    g.vec_with(1..40, |g| {
        (
            g.f64_range(0.0, 8.0),
            if g.chance(0.3) {
                g.f64_range(0.0, 12.0)
            } else {
                0.0
            },
            g.f64_range(1.0, 120.0),
        )
    })
}

/// **Byte round-trip**: serialization preserves every field bit-for-bit.
#[test]
fn snapshot_bytes_round_trip_bit_exactly() {
    check(64, 0x5A_0001, |g| {
        let mut m = arb_pack(g);
        mutate(g, &mut m);
        for (load, ext, dt) in arb_steps(g) {
            m.step(load, ext, dt);
        }
        let snap = m.snapshot();
        let bytes = snap.to_bytes();
        let back = PackSnapshot::from_bytes(&bytes).expect("serialized snapshot parses");
        assert_eq!(back, snap, "byte round-trip must be lossless");
        // And the re-serialization is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    });
}

/// **Resume equivalence**: a restored pack is indistinguishable from the
/// original under any further identical step sequence.
#[test]
fn snapshot_restore_resumes_bit_exactly() {
    check(48, 0x5A_0002, |g| {
        let mut live = arb_pack(g);
        let mut fresh = live.clone();
        mutate(g, &mut live);
        for (load, ext, dt) in arb_steps(g) {
            live.step(load, ext, dt);
        }
        let snap = live.snapshot();
        fresh.restore_from(&snap).expect("same-shape pack restores");
        assert_eq!(
            fresh.snapshot(),
            snap,
            "restore must reproduce the snapshot"
        );
        for (load, ext, dt) in arb_steps(g) {
            let a = live.step(load, ext, dt);
            let b = fresh.step(load, ext, dt);
            assert_eq!(a, b, "step reports diverged after restore");
        }
        assert_eq!(
            live.snapshot(),
            fresh.snapshot(),
            "state diverged after identical post-restore steps"
        );
    });
}

/// **Adaptive-timestep bound**: over random chemistries, SoCs, and held
/// loads, a closed-form stretch stays within the documented error bound
/// of the scalar path: per-cell SoC within 1e-5 per stretch (and always
/// within the classifier's hard 0.004 drift budget), RC voltage within
/// 1e-4 V, and delivered energy within 1% relative.
#[test]
fn fast_forward_matches_scalar_within_documented_bounds() {
    check(48, 0x5A_0003, |g| {
        let n = g.usize_range(1, 4);
        let mut b = PackBuilder::new();
        for i in 0..n {
            b = b.battery_at(
                BatterySpec::from_chemistry(
                    &format!("p{i}"),
                    arb_chemistry(g),
                    g.f64_range(1.0, 3.0),
                ),
                g.f64_range(0.4, 1.0),
                ProfileKind::Standard,
            );
        }
        let mut fast = b.build();
        fast.set_observer(sdb_observe::Observer::disabled());
        let dt = g.f64_range(10.0, 120.0);
        let mut soa = SoaCohort::new(&fast, 1, QuiescenceConfig);
        let load = g.f64_range(0.0, soa.max_load_w());
        // Settle the RC transient at the held load, then try to park.
        let mut report = fast.step(load, 0.0, dt);
        for _ in 0..60 {
            report = fast.step(load, 0.0, dt);
        }
        let mut scalar = fast.clone();
        if !soa.try_enter(0, &fast, &report, load, dt) {
            return; // classifier declined (near floor, unsettled, …): fine
        }
        let k = soa.max_ticks(0, load, dt);
        if k == 0 {
            soa.exit(0, &mut fast);
            return;
        }
        soa.advance(0, load, dt, k);
        soa.exit(0, &mut fast);
        for _ in 0..k {
            scalar.step(load, 0.0, dt);
        }
        let a = fast.snapshot();
        let b = scalar.snapshot();
        // The closed form advances the clock as one multiply; the scalar
        // path accumulates k additions. Equal for representable dt (the
        // fleet's 60 s cadence), within float-rounding noise otherwise.
        assert!(
            (a.time_s - b.time_s).abs() <= 1e-9 * b.time_s.max(1.0),
            "clock drifted: {} vs {}",
            a.time_s,
            b.time_s
        );
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert!(
                (ca.soc - cb.soc).abs() <= 1e-5,
                "soc drift {} over a {k}-tick stretch",
                (ca.soc - cb.soc).abs()
            );
            assert!(
                (ca.v_rc - cb.v_rc).abs() <= 1e-4,
                "v_rc drift {} over a {k}-tick stretch",
                (ca.v_rc - cb.v_rc).abs()
            );
        }
        if b.delivered_j > 1.0 {
            let rel = ((a.delivered_j - b.delivered_j) / b.delivered_j).abs();
            assert!(
                rel <= 0.01,
                "delivered_j drift {rel} over a {k}-tick stretch"
            );
        }
    });
}
