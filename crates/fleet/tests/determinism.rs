//! The fleet engine's determinism contract, end to end: the merged
//! `FleetReport` — including its canonical JSON rendering — is a pure
//! function of the `FleetSpec`, no matter how many worker threads produced
//! it, and a fleet of one is indistinguishable from calling the
//! single-device simulator directly.

use sdb_core::policy::DischargeDirective;
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::run_trace;
use sdb_fleet::spec::{FleetSpec, PolicySpec};
use sdb_fleet::{run_fleet, EngineKind, RunOptions};

/// A real heterogeneous population (all three cohorts, seeded per-device
/// traces), big enough that every thread count actually interleaves work.
fn population() -> FleetSpec {
    FleetSpec::default_population(48, 0xDE7E_12A1).with_hours(1.0)
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let spec = population();
    let (baseline, stats1, _) = run_fleet(&spec, &RunOptions::new(1)).unwrap();
    assert_eq!(stats1.threads, 1);
    let json = baseline.to_json();
    for threads in [2usize, 3, 8] {
        let (report, stats, _) = run_fleet(&spec, &RunOptions::new(threads)).unwrap();
        assert_eq!(stats.threads, threads);
        // Structural equality covers every f64 via PartialEq…
        assert_eq!(baseline, report, "report diverged at {threads} threads");
        // …and byte equality of the canonical JSON covers formatting.
        assert_eq!(json, report.to_json(), "JSON diverged at {threads} threads");
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let spec = population();
    let (a, _, _) = run_fleet(&spec, &RunOptions::new(4)).unwrap();
    let (b, _, _) = run_fleet(&spec, &RunOptions::new(4)).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn different_master_seeds_give_different_fleets() {
    let (a, _, _) = run_fleet(
        &FleetSpec::default_population(32, 1).with_hours(0.5),
        &RunOptions::new(2),
    )
    .unwrap();
    let (b, _, _) = run_fleet(
        &FleetSpec::default_population(32, 2).with_hours(0.5),
        &RunOptions::new(2),
    )
    .unwrap();
    assert_ne!(a.to_json(), b.to_json());
}

#[test]
fn fleet_of_one_matches_a_direct_run_trace() {
    // Single-cohort spec so the one device's cohort is forced.
    let mut spec = population();
    spec.devices = 1;
    spec.cohorts.truncate(1);
    let cohort_policy = match spec.cohorts[0].policy {
        PolicySpec::Blend(v) => v,
        _ => unreachable!("cohort 0 is the blend phone cohort"),
    };
    let (report, _, _) = run_fleet(&spec, &RunOptions::new(2)).unwrap();

    let cohort = &spec.cohorts[0];
    let mut micro = cohort.pack.instantiate();
    let mut runtime = SdbRuntime::new(micro.battery_count());
    runtime.set_update_period(cohort.update_period_s);
    runtime.set_discharge_directive(DischargeDirective::new(cohort_policy));
    let trace = cohort.workload.build(spec.device_seed(0));
    let direct = run_trace(&mut micro, &mut runtime, &trace, &spec.sim);

    assert_eq!(
        report.life_s.mean.to_bits(),
        direct.battery_life_s().to_bits()
    );
    assert_eq!(
        report.supplied_j_total.to_bits(),
        direct.supplied_j.to_bits()
    );
    assert_eq!(report.unmet_j_total.to_bits(), direct.unmet_j.to_bits());
    assert_eq!(
        report.circuit_loss_j.mean.to_bits(),
        direct.circuit_loss_j.to_bits()
    );
}

#[test]
fn wall_clock_facts_stay_out_of_the_report() {
    // The JSON must not mention threads or wall-clock time: those live in
    // FleetRunStats only.
    let (report, stats, _) = run_fleet(&population(), &RunOptions::new(2)).unwrap();
    let json = report.to_json();
    assert!(!json.contains("threads"));
    assert!(!json.contains("wall"));
    assert!(stats.wall_s > 0.0);
    assert!(stats.devices_per_sec > 0.0);
}

/// The merged counter registry exports the same bytes at any thread
/// count. On SoA with one oracle cohort, some devices register
/// `sdb_policy_replans_total` and others `sdb_fleet_ff_ticks_total` first,
/// so registration order follows which device each worker took first.
#[test]
fn merged_registry_exports_are_identical_across_thread_counts() {
    let mut spec = FleetSpec::default_population(24, 7).with_hours(2.0);
    spec.cohorts[2].policy = PolicySpec::Oracle;
    let export = |threads| {
        let opts = RunOptions {
            engine: EngineKind::Soa,
            ..RunOptions::new(threads)
        };
        let (_, stats, _) = run_fleet(&spec, &opts).unwrap();
        (
            stats.registry.to_prometheus_text(),
            stats.registry.to_json(),
        )
    };
    let one = export(1);
    assert!(one.0.contains("sdb_policy_replans_total"), "{}", one.0);
    assert!(one.0.contains("sdb_fleet_ff_ticks_total"), "{}", one.0);
    for threads in [2, 4, 8] {
        assert!(
            export(threads) == one,
            "registry diverged at {threads} threads"
        );
    }
}
