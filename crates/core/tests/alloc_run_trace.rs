//! Proves the trace driver allocates a fixed amount per run, not per
//! step, in its direct mode and in its SoA fast-forward mode.
//!
//! The test binary installs [`sdb_testkit::CountingAllocator`] as the
//! global allocator; its counters are thread-local, so parallel test
//! threads measure independently. The same 24 h trace is run at two step
//! sizes: a per-step allocation anywhere in the driver (policy input,
//! runtime tick, micro step, lane entry and exit) would make the finer
//! run allocate more.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, run_trace, Hooks, SimOptions, SimResult};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_testkit::alloc_counter;
use sdb_testkit::CountingAllocator;
use sdb_workloads::traces::Trace;

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

/// Heap allocations made by one run over `trace` at `max_dt_s`: through
/// `run_trace`, or with `soa` through `drive` in its SoA fast-forward
/// mode (pack, runtime and SoA cohort are built outside the count).
fn allocs_of_run(trace: &Trace, max_dt_s: f64, soa: bool) -> u64 {
    let mut micro = pack();
    let mut runtime = SdbRuntime::new(2);
    let mut cohort = SoaCohort::new(&micro, 1, QuiescenceConfig::default());
    let opts = SimOptions {
        max_dt_s,
        ..SimOptions::default()
    };
    let before = alloc_counter::allocs();
    let result = if soa {
        let points = trace.resampled(max_dt_s);
        let hooks = Hooks {
            soa: Some(&mut cohort),
            ..Hooks::default()
        };
        let result: SimResult = drive(
            &mut micro,
            &mut runtime,
            points.points(),
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| {},
        );
        result
    } else {
        run_trace(&mut micro, &mut runtime, trace, &opts)
    };
    let n = alloc_counter::allocs() - before;
    assert!((result.simulated_s - 24.0 * 3600.0).abs() < 1e-6);
    assert!(result.first_brownout_s.is_none());
    assert_eq!(soa, cohort.ticks_advanced() > 0, "SoA mode fast-forwards");
    n
}

#[test]
fn run_trace_allocations_do_not_grow_with_step_count() {
    for soa in [false, true] {
        for (name, trace) in [("busy", day()), ("standby", standby_day())] {
            // 1,440 and 5,760 steps over the same simulated day.
            let coarse = allocs_of_run(&trace, 60.0, soa);
            let fine = allocs_of_run(&trace, 15.0, soa);
            assert_eq!(coarse, fine, "{name} day, soa {soa}: allocations grew");
            assert!(coarse <= 32, "{name} day, soa {soa}: {coarse} allocations");
        }
    }
}
