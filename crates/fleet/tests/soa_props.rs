//! Property tests for the SoA fleet engine (sdb-testkit seeded-case
//! harness): over random standby populations, the hybrid fast-forward
//! engine must stay thread-count deterministic and inside its documented
//! cross-engine error bound against the scalar engine.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::scheduler::SimOptions;
use sdb_emulator::profile::ProfileKind;
use sdb_fleet::spec::{CohortSpec, FleetSpec, PackTemplate, PolicySpec, WorkloadSpec};
use sdb_fleet::{run_fleet, EngineKind, RunOptions};
use sdb_testkit::{check, Gen};
use sdb_workloads::Trace;
use std::sync::Arc;

/// A random standby cohort: constant shared load low enough that packs
/// never deplete within the horizon, on a random two-cell hybrid pack.
fn arb_standby_spec(g: &mut Gen) -> FleetSpec {
    let chems = [
        Chemistry::Type1LfpPower,
        Chemistry::Type2CoStandard,
        Chemistry::Type3CoPower,
        Chemistry::Type4Bendable,
    ];
    let hours = g.f64_range(1.0, 4.0);
    let load_w = g.f64_range(0.0, 0.4);
    FleetSpec {
        devices: g.usize_range(4, 17),
        master_seed: u64::from(g.u32_range(0, u32::MAX)),
        cohorts: vec![CohortSpec {
            name: "standby".to_owned(),
            weight: 1.0,
            pack: PackTemplate::new(vec![
                (
                    BatterySpec::from_chemistry("a", g.pick(&chems), g.f64_range(1.5, 3.0)),
                    g.f64_range(0.6, 1.0),
                    ProfileKind::Standard,
                ),
                (
                    BatterySpec::from_chemistry("b", g.pick(&chems), g.f64_range(1.5, 3.0)),
                    g.f64_range(0.6, 1.0),
                    ProfileKind::Fast,
                ),
            ]),
            workload: WorkloadSpec::Shared(Arc::new(Trace::constant(load_w, hours * 3600.0))),
            policy: if g.chance(0.5) {
                PolicySpec::Blend(g.f64_range(0.0, 1.0))
            } else {
                PolicySpec::Preserve {
                    efficient: 0,
                    inefficient: 1,
                    threshold_w: g.f64_range(0.1, 0.5),
                }
            },
            update_period_s: 60.0,
        }],
        sim: SimOptions::default(),
    }
}

/// **Thread invariance**: the SoA engine's report is a pure function of
/// `(spec, seed)` — any worker count yields identical bytes.
#[test]
fn soa_reports_are_thread_invariant_on_random_specs() {
    check(12, 0x50A_0001, |g| {
        let spec = arb_standby_spec(g);
        let threads = g.pick(&[2usize, 3, 4]);
        let (r1, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(1)
            },
        )
        .expect("1-thread run");
        let (rn, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(threads)
            },
        )
        .expect("n-thread run");
        assert_eq!(r1.to_json(), rn.to_json(), "report depends on thread count");
    });
}

/// **Cross-engine bound**: on populations that never deplete, the SoA
/// engine agrees with scalar bit-exactly on battery life and brownouts,
/// and within the documented bounds on energy (1% relative) and final
/// SoC (1e-3 absolute mean).
#[test]
fn soa_engine_stays_within_error_bound_of_scalar() {
    check(12, 0x50A_0002, |g| {
        let spec = arb_standby_spec(g);
        let (scalar, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Scalar,
                ..RunOptions::new(2)
            },
        )
        .expect("scalar run");
        let (soa, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(2)
            },
        )
        .expect("soa run");
        assert_eq!(
            scalar.brownout_rate, soa.brownout_rate,
            "brownouts diverged"
        );
        assert_eq!(
            scalar.life_s.mean.to_bits(),
            soa.life_s.mean.to_bits(),
            "non-depleting standby lives must be bit-equal"
        );
        if scalar.supplied_j_total > 1.0 {
            let rel =
                ((soa.supplied_j_total - scalar.supplied_j_total) / scalar.supplied_j_total).abs();
            assert!(rel <= 1e-2, "supplied energy drift {rel}");
        }
        assert!(
            (soa.final_soc.mean - scalar.final_soc.mean).abs() <= 1e-3,
            "final SoC mean drift {}",
            (soa.final_soc.mean - scalar.final_soc.mean).abs()
        );
    });
}
