//! Fault-injection integration tests: degraded gauges, detach storms,
//! thermal stress, and topology ablations — the system must stay safe and
//! the accounting must stay honest under all of them.

use sdb::battery_model::{BatterySpec, Chemistry};
use sdb::core::policy::PolicyInput;
use sdb::core::runtime::SdbRuntime;
// Invariant-checked drop-in for run_trace (sdb-chaos harness).
use sdb::chaos::checked_run_trace as run_trace;
use sdb::core::scheduler::SimOptions;
use sdb::emulator::micro::ThermalThrottle;
use sdb::emulator::{Microcontroller, PackBuilder, ProfileKind};
use sdb::fuel_gauge::gauge::GaugeConfig;
use sdb::workloads::Trace;

fn pack_with_gauge(gauge: GaugeConfig) -> Microcontroller {
    PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "a",
            Chemistry::Type2CoStandard,
            3.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "b",
            Chemistry::Type3CoPower,
            3.0,
        ))
        .gauge(gauge)
        .build()
}

#[test]
fn badly_drifting_gauge_recovers_at_rest() {
    // A gauge with a large current offset drifts during load, then a rest
    // period lets OCV recalibration pull it back. (The offset must stay
    // below the rest-detection threshold — an offset that large would
    // defeat rest detection entirely, which is a real failure gauges
    // cannot self-heal from.)
    let bad_gauge = GaugeConfig {
        current_lsb_a: 0.002,
        current_offset_a: 0.004, // 80x the prototype's offset
        voltage_lsb_v: 0.002,
        rest_recal_s: 1200.0,
    };
    let mut micro = pack_with_gauge(bad_gauge);
    let mut runtime = SdbRuntime::new(2);
    // Eight hours of light load lets the offset integrate into real error.
    let _ = run_trace(
        &mut micro,
        &mut runtime,
        &Trace::constant(1.0, 8.0 * 3600.0),
        &SimOptions::default(),
    );
    let worst_before: f64 = micro
        .query_battery_status()
        .iter()
        .zip(micro.cells())
        .map(|(s, c)| (s.soc - c.soc()).abs())
        .fold(0.0, f64::max);
    // Rest for an hour (zero load): recalibration kicks in.
    let _ = run_trace(
        &mut micro,
        &mut runtime,
        &Trace::constant(0.0, 3600.0),
        &SimOptions::default(),
    );
    let worst_after: f64 = micro
        .query_battery_status()
        .iter()
        .zip(micro.cells())
        .map(|(s, c)| (s.soc - c.soc()).abs())
        .fold(0.0, f64::max);
    assert!(
        worst_after < worst_before,
        "recal failed: before {worst_before}, after {worst_after}"
    );
    assert!(worst_after < 0.012, "after = {worst_after}");
}

#[test]
fn detach_storm_never_browns_out_while_one_battery_lives() {
    let mut micro = pack_with_gauge(GaugeConfig::default());
    let mut runtime = SdbRuntime::new(2);
    runtime.set_update_period(30.0);
    let mut unmet = 0.0;
    // Toggle battery 1's presence every minute for two hours under load.
    for minute in 0..120 {
        micro.set_battery_present(1, minute % 2 == 0).unwrap();
        let input = PolicyInput::from_micro(&micro).with_load(5.0);
        runtime.tick(&mut micro, &input, 60.0).unwrap();
        let r = micro.step(5.0, 0.0, 60.0);
        unmet += r.unmet_w * 60.0;
    }
    assert!(unmet < 1.0, "unmet = {unmet} J across the storm");
    // Battery 0 carried more than its half.
    let used0 = 1.0 - micro.cells()[0].soc();
    let used1 = 1.0 - micro.cells()[1].soc();
    assert!(used0 > used1, "used0 {used0} vs used1 {used1}");
}

#[test]
fn thermal_throttle_protects_under_sustained_fast_charge() {
    let mut micro = PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("fast", Chemistry::Type3CoPower, 3.0),
            0.0,
            ProfileKind::Fast,
        )
        .ambient_c(35.0)
        .build();
    micro.set_thermal_throttle(Some(ThermalThrottle {
        limit_c: 37.5,
        resume_c: 36.0,
    }));
    micro.set_charge_ratios(&[1.0]).unwrap();
    let mut peak_temp: f64 = 0.0;
    for _ in 0..240 {
        micro.step(0.0, 30.0, 30.0);
        peak_temp = peak_temp.max(micro.cells()[0].temperature_c().unwrap());
    }
    // The throttle bounds the overshoot (limit + one step's worth of rise).
    assert!(peak_temp < 38.5, "peak = {peak_temp}");
    // And the cell still charges to full eventually.
    assert!(
        micro.cells()[0].soc() > 0.95,
        "soc = {}",
        micro.cells()[0].soc()
    );
}

#[test]
fn simulation_is_deterministic() {
    // Two identical runs produce bit-identical results (no hidden global
    // state) — the property the paper's emulator was built for.
    let run = || {
        let mut micro = pack_with_gauge(GaugeConfig::default());
        let mut runtime = SdbRuntime::new(2);
        let sim = run_trace(
            &mut micro,
            &mut runtime,
            &Trace::constant(6.0, 3600.0),
            &SimOptions::default(),
        );
        (
            sim.supplied_j,
            sim.total_loss_j(),
            micro.cells().iter().map(|c| c.soc()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}
