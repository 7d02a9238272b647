//! The Section 8 future-work direction: an EV NAV system hands the SDB
//! Runtime a route hint, and the runtime compiles it into a directive
//! schedule — preserving the efficient pack for the hill it knows is
//! coming.
//!
//! ```text
//! cargo run --release --example ev_route
//! ```

use sdb::battery_model::{BatterySpec, Chemistry};
use sdb::core::hints::RouteHint;
use sdb::core::runtime::SdbRuntime;
use sdb::core::scheduler::{run_trace, SimOptions};
use sdb::emulator::PackBuilder;
use sdb::workloads::Trace;

fn main() {
    // A small EV-ish pack scaled down to simulator-friendly numbers: an
    // efficient NMC pack plus a high-power LFP buffer.
    let mut micro = PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "NMC main",
            Chemistry::OtherNmc,
            40.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "LFP buffer",
            Chemistry::Type1LfpPower,
            20.0,
        ))
        .build();

    // The NAV's route: city driving, a long steep climb, then highway.
    let mut route = RouteHint::new();
    route.push(1200.0, 25.0, 40.0); // city
    route.push(900.0, 90.0, 140.0); // climb
    route.push(1800.0, 45.0, 60.0); // highway
    let schedule = route.compile(0, 1, 100.0);

    println!(
        "route hint compiled into {} schedule entries:",
        schedule.len()
    );
    for e in &schedule {
        println!(
            "  from {:>5.0} s: directive {:.1}, preserve = {}",
            e.from_s,
            e.directive.value(),
            e.preserve.is_some()
        );
    }

    // Drive the route leg by leg: each hinted segment runs under its
    // schedule entry, with demand at the segment's hinted mean.
    let mut runtime = SdbRuntime::new(2);
    runtime.set_update_period(30.0);
    let opts = SimOptions {
        max_dt_s: 30.0,
        ..SimOptions::default()
    };
    for (idx, (entry, seg)) in schedule.iter().zip(route.segments()).enumerate() {
        runtime.set_discharge_directive(entry.directive);
        runtime.set_preserve(entry.preserve);
        println!(
            "t = {:>5.0} s: switched to schedule entry {idx}",
            entry.from_s
        );
        let leg = Trace::constant(seg.expected_w, seg.dur_s);
        let result = run_trace(&mut micro, &mut runtime, &leg, &opts);
        assert!(result.first_brownout_s.is_none(), "route must be drivable");
    }

    let (delivered, circuit, heat, _, _) = micro.energy_totals_j();
    println!("\nroute complete:");
    println!(
        "  delivered {:.2} kWh-equivalent ({:.0} kJ)",
        delivered / 3.6e6,
        delivered / 1e3
    );
    println!(
        "  losses: {:.0} J circuit, {:.0} J cell heat",
        circuit, heat
    );
    for (i, c) in micro.cells().iter().enumerate() {
        println!(
            "  battery {i} ({}) at {:.1}% SoC",
            c.spec().name,
            c.soc() * 100.0
        );
    }
}
