#![allow(missing_docs)]
//! Microbenchmarks of the hot paths: cell stepping, policy allocation,
//! and full emulator steps.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_battery_model::thevenin::TheveninCell;
use sdb_bench::harness::Harness;
use sdb_core::policy::{rbl_discharge, PolicyInput};
use sdb_core::runtime::SdbRuntime;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_observe::QuantileSketch;
use std::hint::black_box;

fn pack() -> Microcontroller {
    PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "a",
            Chemistry::Type2CoStandard,
            4.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "b",
            Chemistry::Type3CoPower,
            4.0,
        ))
        .build()
}

fn fresh_cell() -> TheveninCell {
    TheveninCell::with_soc(
        BatterySpec::from_chemistry("x", Chemistry::Type2CoStandard, 4.0),
        0.8,
    )
}

fn main() {
    let mut h = Harness::from_args();

    h.bench_batched("thevenin_cell_step_current_x100", fresh_cell, |mut cell| {
        for _ in 0..100 {
            black_box(cell.step_current(2.0, 1.0).expect("feasible"));
        }
        cell
    });
    h.bench_batched("thevenin_cell_step_power_x100", fresh_cell, |mut cell| {
        for _ in 0..100 {
            black_box(cell.step_power(5.0, 1.0).expect("feasible"));
        }
        cell
    });

    let micro = pack();
    let input = PolicyInput::from_micro(&micro).with_load(10.0);
    h.bench("rbl_discharge_allocation", || {
        black_box(rbl_discharge(black_box(&input)).expect("feasible"))
    });
    h.bench("policy_input_from_micro", || {
        black_box(PolicyInput::from_micro(black_box(&micro)))
    });

    h.bench_batched(
        "quantile_sketch_insert_x1000",
        QuantileSketch::new,
        |mut s| {
            for i in 0..1000u64 {
                s.insert(black_box(1.0 + (i as f64) * 3.7));
            }
            s
        },
    );
    h.bench_batched(
        "quantile_sketch_merge_1k_buckets",
        || {
            let mut a = QuantileSketch::new();
            let mut b = QuantileSketch::new();
            for i in 0..5000u64 {
                a.insert(0.1 + i as f64);
                b.insert(0.5 + (i as f64) * 2.3);
            }
            (a, b)
        },
        |(mut a, b)| {
            a.merge_from(black_box(&b));
            (a, b)
        },
    );

    h.bench_batched("microcontroller_step_x50", pack, |mut m| {
        for _ in 0..50 {
            black_box(m.step(8.0, 0.0, 1.0));
        }
        m
    });
    h.bench_batched(
        "runtime_tick_plus_step_x50",
        || (pack(), SdbRuntime::new(2)),
        |(mut m, mut rt)| {
            for _ in 0..50 {
                let input = PolicyInput::from_micro(&m).with_load(8.0);
                rt.tick(&mut m, &input, 60.0).expect("accepted");
                black_box(m.step(8.0, 0.0, 60.0));
            }
            (m, rt)
        },
    );

    h.finish();
}
