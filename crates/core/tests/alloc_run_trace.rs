//! Proves the trace driver allocates a fixed amount per run, not per
//! step, in its direct mode and in its SoA fast-forward mode, and at most
//! one allocation per status heartbeat in its linked mode.
//!
//! The test binary installs [`sdb_testkit::CountingAllocator`] as the
//! global allocator; its counters are thread-local, so parallel test
//! threads measure independently. The same 24 h trace is run at two step
//! sizes: a per-step allocation anywhere in the driver (policy input,
//! runtime tick, micro step, lane entry and exit, response draining)
//! would make the finer run allocate more.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, run_trace, Hooks, Linked, SimOptions};
use sdb_emulator::link::Link;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_testkit::alloc_counter;
use sdb_testkit::CountingAllocator;
use sdb_workloads::traces::Trace;
use std::ops::ControlFlow;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn pack() -> Microcontroller {
    PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
            1.0,
            ProfileKind::Standard,
        )
        .battery_at(
            BatterySpec::from_chemistry("b", Chemistry::Type1LfpPower, 2.0),
            1.0,
            ProfileKind::Fast,
        )
        .build()
}

/// A 24 h day of minute-long segments alternating idle and active load,
/// so the runtime re-evaluates and pushes new ratios through the run.
fn day() -> Trace {
    let mut t = Trace::new();
    for minute in 0..24 * 60 {
        let load_w = if minute % 7 < 2 { 1.2 } else { 0.15 };
        t.push(load_w, 0.0, 60.0);
    }
    t
}

/// A 24 h standby day: a phone idling at a constant trickle, which the
/// SoA mode fast-forwards almost entirely.
fn standby_day() -> Trace {
    Trace::constant(0.05, 24.0 * 3600.0)
}

/// Status heartbeat period of the linked mode, seconds.
const STATUS_PERIOD_S: f64 = 30.0;

/// The driver modes measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `run_trace` over the direct transport.
    Direct,
    /// `drive` with the SoA fast-forward hook.
    Soa,
    /// `drive` over an ideal `Link`, resilience enabled, as the campaign
    /// runner drives faulted cells.
    Linked,
}

/// Heap allocations made by one run over `trace` at `max_dt_s` in `mode`
/// (pack, link, runtime and SoA cohort are built outside the count).
fn allocs_of_run(trace: &Trace, max_dt_s: f64, mode: Mode) -> u64 {
    let mut micro = pack();
    let mut runtime = SdbRuntime::new(2);
    let mut cohort = SoaCohort::new(&micro, 1, QuiescenceConfig);
    let mut link = Link::ideal(pack());
    if mode == Mode::Linked {
        runtime.enable_resilience();
    }
    let opts = SimOptions {
        max_dt_s,
        ..SimOptions::default()
    };
    let before = alloc_counter::allocs();
    let result = if mode == Mode::Linked {
        drive(
            &mut Linked::new(&mut link, STATUS_PERIOD_S),
            &mut runtime,
            &trace.runs(max_dt_s),
            &opts,
            Hooks::default(),
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        )
    } else if mode == Mode::Soa {
        let hooks = Hooks {
            soa: Some(&mut cohort),
            ..Hooks::default()
        };
        drive(
            &mut micro,
            &mut runtime,
            &trace.runs(max_dt_s),
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        )
    } else {
        run_trace(&mut micro, &mut runtime, trace, &opts)
    };
    let n = alloc_counter::allocs() - before;
    assert!((result.simulated_s - 24.0 * 3600.0).abs() < 1e-6);
    assert!(result.first_brownout_s.is_none());
    assert_eq!(
        mode == Mode::Soa,
        cohort.ticks_advanced() > 0,
        "only the SoA mode fast-forwards"
    );
    n
}

#[test]
fn run_trace_allocations_do_not_grow_with_step_count() {
    for mode in [Mode::Direct, Mode::Soa] {
        for (name, trace) in [("busy", day()), ("standby", standby_day())] {
            // 1,440 and 5,760 steps over the same simulated day.
            let coarse = allocs_of_run(&trace, 60.0, mode);
            let fine = allocs_of_run(&trace, 15.0, mode);
            assert_eq!(coarse, fine, "{name} day, {mode:?}: allocations grew");
            assert!(coarse <= 32, "{name} day, {mode:?}: {coarse} allocations");
        }
    }
}

#[test]
fn linked_allocations_grow_with_heartbeats_only() {
    // Each status heartbeat's response carries freshly collected status
    // rows: one allocation. Draining responses reuses one buffer, so
    // nothing else may grow with the step count; the constant covers
    // per-run set-up and the ratio pushes, whose number the step size
    // does not change.
    let heartbeats = |max_dt_s: f64| (24.0 * 3600.0 / max_dt_s.max(STATUS_PERIOD_S)) as u64;
    for (name, trace) in [("busy", day()), ("standby", standby_day())] {
        let coarse = allocs_of_run(&trace, 60.0, Mode::Linked);
        let fine = allocs_of_run(&trace, 15.0, Mode::Linked);
        for (n, max_dt_s) in [(coarse, 60.0), (fine, 15.0)] {
            assert!(
                n <= heartbeats(max_dt_s) + 64,
                "{name} day at {max_dt_s} s: {n} allocations for {} heartbeats",
                heartbeats(max_dt_s)
            );
        }
        assert!(
            fine - coarse <= heartbeats(15.0) - heartbeats(60.0),
            "{name} day: {coarse} → {fine} allocations grew faster than heartbeats"
        );
    }
}
