//! End-to-end contract between the fleet engine and the trace views of
//! `sdb-observe`: the serialized trace of a captured fleet run is
//! byte-identical across thread counts, replaying the JSONL reproduces
//! the analysis exactly, and the health-rule engine surfaces brownout and
//! imbalance findings on a population that is actually failing.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::scheduler::SimOptions;
use sdb_emulator::profile::ProfileKind;
use sdb_fleet::spec::{CohortSpec, FleetSpec, PackTemplate, PolicySpec, WorkloadSpec};
use sdb_fleet::{run_fleet, RunOptions};
use sdb_observe::{analyze, analyze_jsonl, to_chrome, to_jsonl};
use sdb_workloads::traces::Trace;
use std::sync::Arc;

fn population(devices: usize) -> FleetSpec {
    FleetSpec::default_population(devices, 0xBEEF_CAFE).with_hours(1.0)
}

/// A population designed to fail: tiny packs under a sustained load far
/// beyond their capacity, so every device depletes and browns out inside
/// the simulated span.
fn overloaded_spec(devices: usize) -> FleetSpec {
    FleetSpec {
        devices,
        master_seed: 99,
        cohorts: vec![CohortSpec {
            name: "overloaded".to_owned(),
            weight: 1.0,
            pack: PackTemplate::new(vec![
                (
                    BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 0.4),
                    0.9,
                    ProfileKind::Standard,
                ),
                (
                    BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 0.4),
                    0.35,
                    ProfileKind::Fast,
                ),
            ]),
            workload: WorkloadSpec::Shared(Arc::new(Trace::constant(6.0, 3.0 * 3600.0))),
            policy: PolicySpec::Blend(0.8),
            update_period_s: 60.0,
        }],
        sim: SimOptions::default(),
    }
}

#[test]
fn serialized_trace_is_byte_identical_across_thread_counts() {
    let spec = population(24);
    let (_, _, events1) = run_fleet(
        &spec,
        &RunOptions {
            capture_events: true,
            ..RunOptions::new(1)
        },
    )
    .unwrap();
    let events1 = events1.unwrap();
    let jsonl = to_jsonl(&events1);
    let chrome = to_chrome(&events1);
    assert!(!jsonl.is_empty());
    for threads in [2usize, 5] {
        let (_, _, events) = run_fleet(
            &spec,
            &RunOptions {
                capture_events: true,
                ..RunOptions::new(threads)
            },
        )
        .unwrap();
        let events = events.unwrap();
        assert_eq!(
            jsonl,
            to_jsonl(&events),
            "JSONL diverged at {threads} threads"
        );
        assert_eq!(
            chrome,
            to_chrome(&events),
            "Chrome export diverged at {threads} threads"
        );
    }
}

#[test]
fn replayed_trace_reproduces_the_analysis() {
    let spec = overloaded_spec(6);
    let (_, _, events) = run_fleet(
        &spec,
        &RunOptions {
            capture_events: true,
            ..RunOptions::new(3)
        },
    )
    .unwrap();
    let events = events.unwrap();
    let direct = analyze(&events);
    let replayed = analyze_jsonl(&to_jsonl(&events)).unwrap();
    assert_eq!(direct.to_json(), replayed.to_json());
    assert_eq!(direct.summary.devices, 6);
}

#[test]
fn rule_engine_flags_a_failing_population() {
    let spec = overloaded_spec(8);
    let (report, _, events) = run_fleet(
        &spec,
        &RunOptions {
            capture_events: true,
            ..RunOptions::new(2)
        },
    )
    .unwrap();
    assert!(
        report.brownout_rate > 0.0,
        "spec should brown out; rate {}",
        report.brownout_rate
    );
    let analysis = analyze(&events.unwrap());
    let has = |rule: &str| analysis.rules.findings.iter().any(|f| f.rule == rule);
    assert!(has("brownout"), "findings: {:?}", analysis.rules.findings);
    assert!(
        has("ccb-imbalance") || has("soc-sag"),
        "expected an imbalance or sag precursor, findings: {:?}",
        analysis.rules.findings
    );
    // All five default rules saw signal traffic worth evaluating.
    assert!(analysis.rules.rules_evaluated() >= 3);
}
