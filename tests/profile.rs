//! Integration tests of the phase profiler's determinism quarantine:
//! call counts, tree shape, and per-cohort attribution must be
//! byte-identical at any thread count, and enabling the profiler must
//! not perturb the fleet engine's own bit-identical reports.
//!
//! The profiler aggregate is process-global, so every test that
//! profiles in this process serializes on one lock and resets the
//! aggregate around its runs.

use sdb::fleet::{run_fleet, FleetReport, FleetSpec, RunOptions};
use std::sync::Mutex;

static PROF_LOCK: Mutex<()> = Mutex::new(());

/// Runs a profiled fleet and returns the deterministic renders plus the
/// fleet report (the profiler is disabled and reset again afterwards).
fn profiled_fleet_with(spec: &FleetSpec, threads: usize) -> (String, String, String, FleetReport) {
    sdb::prof::reset();
    sdb::prof::enable();
    let (report, _stats, _) = run_fleet(spec, &RunOptions::new(threads)).expect("fleet runs");
    sdb::prof::flush_thread();
    sdb::prof::disable();
    let snap = sdb::prof::snapshot();
    let out = (
        snap.render_counts(),
        snap.render_flame(),
        snap.to_json(),
        report,
    );
    sdb::prof::reset();
    out
}

fn profiled_fleet(devices: usize, threads: usize) -> (String, String, String, FleetReport) {
    let spec = FleetSpec::default_population(devices, 42).with_hours(2.0);
    profiled_fleet_with(&spec, threads)
}

#[test]
fn profile_counts_are_byte_identical_across_thread_counts() {
    let _guard = PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (counts1, flame1, json1, report1) = profiled_fleet(64, 1);
    let (counts4, flame4, json4, report4) = profiled_fleet(64, 4);

    assert_eq!(counts1, counts4, "deterministic count render diverged");
    assert_eq!(flame1, flame4, "collapsed-stack render diverged");
    // The JSON's `deterministic` section must match too; `wall` holds
    // quarantined timings and may differ. Compare the sections directly.
    let det = |json: &str| {
        let v = sdb::trace::json::parse(json).expect("profile json parses");
        format!(
            "{:?}",
            v.get("deterministic").expect("deterministic section")
        )
    };
    assert_eq!(det(&json1), det(&json4), "deterministic JSON diverged");
    // And the fleet's own determinism guarantee holds with the profiler
    // in the loop.
    assert_eq!(report1, report4, "profiling perturbed the fleet report");

    // Sanity on content: the tree carries the hot phases and per-cohort
    // sections the renderers promise.
    for phase in ["fleet_run", "device_run", "micro_step", "curve_eval"] {
        assert!(counts1.contains(phase), "missing phase {phase}:\n{counts1}");
    }
    assert!(counts1.contains("cohort "), "missing cohort attribution");
    assert!(
        flame1.contains("device_run;trace_step;micro_step"),
        "flame lost the stack hierarchy:\n{flame1}"
    );
}

#[test]
fn profiling_does_not_change_the_unprofiled_report() {
    let _guard = PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    sdb::prof::reset();
    sdb::prof::disable();
    let spec = FleetSpec::default_population(32, 7).with_hours(1.0);
    let (plain, _, _) = run_fleet(&spec, &RunOptions::new(2)).expect("fleet runs");
    let (_, _, _, profiled) = profiled_fleet_with(&spec, 2);
    assert_eq!(plain, profiled);
}

/// `sdb profile --scenario campaign` profiles the campaign runner users
/// run, `link_step` under faulted cells included, with counts
/// byte-identical at any thread count.
#[test]
fn campaign_profile_counts_are_byte_identical_across_thread_counts() {
    let counts = |threads: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sdb"))
            .args(["profile", "--scenario", "campaign", "--seed", "42"])
            .args(["--hours", "1", "--format", "counts", "--threads", threads])
            .output()
            .expect("run sdb");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8 counts")
    };
    let one = counts("1");
    assert_eq!(one, counts("4"), "campaign counts diverged");
    for phase in ["campaign_run", "campaign_cell", "link_step", "fast_forward"] {
        assert!(one.contains(phase), "missing phase {phase}:\n{one}");
    }
}

/// The `TraceStep` count of the profiled `run`: one per point that
/// `drive` replayed.
fn trace_steps(run: impl FnOnce()) -> u64 {
    use sdb::prof::Phase;
    sdb::prof::reset();
    sdb::prof::enable();
    run();
    sdb::prof::flush_thread();
    sdb::prof::disable();
    let steps = sdb::prof::snapshot()
        .find_path(&[Phase::TraceStep])
        .map_or(0, |n| n.count);
    sdb::prof::reset();
    steps
}

#[test]
fn paper_scenarios_replay_through_the_profiled_trace_loop() {
    use sdb::core::scenarios::hybrid::{charge_time_curve, HybridConfig};
    use sdb::core::scenarios::two_in_one::{battery_life_s, Strategy};
    use sdb::workloads::traces::tablet_session;
    use sdb::workloads::Activity;
    let _guard = PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    // Figure 14: the 30 s points of the repeated workload, up to the
    // brownout.
    let trace = tablet_session(5, &[Activity::Compute], 300.0, 1800.0);
    for strategy in [Strategy::SimultaneousDraw, Strategy::ChargeThrough] {
        let mut life_s = 0.0;
        let steps = trace_steps(|| life_s = battery_life_s(strategy, &trace, 4.0, 86_400.0));
        let resampled = trace.resampled(30.0);
        let mut elapsed = 0.0;
        let replayed = resampled
            .points()
            .iter()
            .cycle()
            .take_while(|p| {
                let before = elapsed;
                elapsed += p.dur_s;
                before < life_s
            })
            .count();
        assert!(replayed > 100, "{strategy:?} ran {replayed} points");
        assert_eq!(steps, replayed as u64, "{strategy:?}");
    }

    // Figure 11b: 15 s points until the last target.
    let mut curve = None;
    let steps =
        trace_steps(|| curve = Some(charge_time_curve(&HybridConfig::paper_configs()[1], 60.0)));
    let last_min = curve
        .unwrap()
        .minutes
        .last()
        .copied()
        .flatten()
        .expect("85 % reached");
    assert_eq!(steps, (last_min * 60.0 / 15.0).round() as u64);
}
