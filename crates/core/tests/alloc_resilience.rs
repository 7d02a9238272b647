//! Proves the runtime's graceful-degradation paths allocate nothing once
//! warm: a policy evaluation while a gauge is degraded (guard-band
//! widening), a command retry and a watchdog fallback push.
//!
//! Faulted campaign units take these paths on every step of a fault
//! window, so a per-call allocation here is a per-step allocation there.
//! The test binary installs [`sdb_testkit::CountingAllocator`] as the
//! global allocator; its counters are thread-local.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::api::SdbApi;
use sdb_core::policy::PolicyInput;
use sdb_core::runtime::SdbRuntime;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_fuel_gauge::gauge::BatteryStatus;
use sdb_testkit::alloc_counter;
use sdb_testkit::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn pack() -> Microcontroller {
    PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
            0.8,
            ProfileKind::Standard,
        )
        .battery_at(
            BatterySpec::from_chemistry("b", Chemistry::Type1LfpPower, 2.0),
            0.6,
            ProfileKind::Fast,
        )
        .build()
}

fn status_row(soc: f64) -> BatteryStatus {
    BatteryStatus {
        soc,
        terminal_v: 3.8,
        cycle_count: 0,
        current_a: 1.0,
        remaining_ah: 1.0,
        present: true,
    }
}

/// Heap allocations made while running `f`.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = alloc_counter::allocs();
    f();
    alloc_counter::allocs() - before
}

#[test]
fn degraded_tick_retry_and_fallback_do_not_allocate() {
    let mut micro = pack();
    let mut rt = SdbRuntime::new(2);
    // The runtime's fixed timings: a 10 s ack timeout and a 120 s
    // watchdog.
    rt.enable_resilience();
    // Battery 0's SoC estimate freezes under load: its gauge is degraded.
    for k in 0..6 {
        rt.observe_status(&[status_row(0.5), status_row(0.49 - 0.001 * f64::from(k))]);
    }
    assert!(rt.gauge_degraded(0));
    let light = PolicyInput::from_micro(&micro).with_load(0.5);
    let heavy = PolicyInput::from_micro(&micro).with_load(6.0);

    // Warm up: the first evaluation sizes the scratch and last-ratio
    // buffers (and a Microcontroller with no link never acknowledges, so
    // the push leaves commands outstanding).
    assert!(rt.tick(&mut micro, &light, 60.0).unwrap());

    // Degraded-gauge evaluations, pushing or not.
    let n = allocs_of(|| {
        rt.tick(&mut micro, &heavy, 60.0).unwrap();
        rt.tick(&mut micro, &heavy, 60.0).unwrap();
    });
    assert_eq!(n, 0, "degraded-gauge ticks allocated {n} times");
    let pushed = micro.discharge_ratios().to_vec();

    // A retry re-sends the last ratios after the ack timeout.
    micro.discharge(&[0.9, 0.1]).unwrap();
    let n = allocs_of(|| rt.supervise(&mut micro, 10.0).unwrap());
    assert_eq!(n, 0, "retry allocated {n} times");
    assert_eq!(
        micro.discharge_ratios(),
        &pushed[..],
        "retry re-sent ratios"
    );
    assert!(!rt.watchdog_engaged());

    // Past the watchdog timeout the safe uniform split goes out.
    let n = allocs_of(|| rt.supervise(&mut micro, 110.0).unwrap());
    assert_eq!(n, 0, "watchdog fallback allocated {n} times");
    assert!(rt.watchdog_engaged());
    assert!(micro
        .discharge_ratios()
        .iter()
        .all(|r| (r - 0.5).abs() < 1e-9));
    // The fallback keeps re-asserting itself every ack timeout.
    let n = allocs_of(|| rt.supervise(&mut micro, 10.0).unwrap());
    assert_eq!(n, 0, "repeated fallback allocated {n} times");
}
