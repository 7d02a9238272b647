//! Integration tests of the four SDB APIs across the lossy OS link, with
//! failure injection.

use sdb::battery_model::{BatterySpec, Chemistry};
use sdb::core::api::SdbApi;
use sdb::emulator::link::{Command, Link, Response};
use sdb::emulator::{Microcontroller, PackBuilder};

fn pack() -> Microcontroller {
    PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "a",
            Chemistry::Type2CoStandard,
            2.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "b",
            Chemistry::Type3CoPower,
            2.0,
        ))
        .build()
}

/// The responses pending on `link`, drained.
fn take(link: &mut Link) -> Vec<Response> {
    let mut out = Vec::new();
    link.drain_responses_into(&mut out);
    out
}

#[test]
fn four_apis_roundtrip_through_ideal_link() {
    let mut link = Link::ideal(pack());
    link.send(Command::Discharge(vec![0.25, 0.75]));
    link.send(Command::Charge(vec![0.5, 0.5]));
    link.send(Command::QueryBatteryStatus);
    link.step(4.0, 0.0, 60.0);
    let responses = take(&mut link);
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0], Response::Ack);
    assert_eq!(responses[1], Response::Ack);
    match &responses[2] {
        Response::Status(rows) => {
            assert_eq!(rows.len(), 2);
            assert!(rows.iter().all(|r| r.terminal_v > 2.5));
        }
        other => panic!("expected status, got {other:?}"),
    }
    // The ratios took effect on the hardware.
    let ratios = link.micro().discharge_ratios();
    assert!((ratios[0] - 0.25).abs() < 0.01, "{ratios:?}");
}

#[test]
fn charge_one_from_another_through_link() {
    let mut micro = PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "src",
            Chemistry::Type2CoStandard,
            2.0,
        ))
        .battery_at(
            BatterySpec::from_chemistry("dst", Chemistry::Type2CoStandard, 2.0),
            0.3,
            sdb::emulator::ProfileKind::Standard,
        )
        .build();
    micro.set_discharge_ratios(&[1.0, 0.0]).unwrap();
    let mut link = Link::ideal(micro);
    // Invariant-check the transfer: energy books must balance (sdb-chaos).
    let mut checker = sdb::chaos::InvariantChecker::for_micro(link.micro());
    link.send(Command::ChargeOneFromAnother {
        from: 0,
        to: 1,
        power_w: 4.0,
        duration_s: 900.0,
    });
    for i in 0..20 {
        let report = link.step(0.0, 0.0, 60.0);
        checker.check_step(f64::from(i + 1) * 60.0, &report);
        checker.check_micro(f64::from(i + 1) * 60.0, link.micro());
    }
    assert!(checker.is_clean(), "{:?}", checker.violations());
    assert!(
        link.micro().cells()[1].soc() > 0.3,
        "destination gained charge"
    );
    assert!(link.micro().cells()[0].soc() < 1.0, "source paid for it");
}

#[test]
fn dropped_commands_leave_previous_policy_in_force() {
    // A seeded coin-flip drop fault: at seed 14 the first Discharge
    // survives and the second is lost, so battery 0 keeps carrying
    // everything.
    let mut link = Link::ideal(pack());
    link.seed_faults(14);
    link.set_fault_drop_per_mille(500);
    link.send(Command::Discharge(vec![1.0, 0.0])); // delivered
    link.send(Command::Discharge(vec![0.0, 1.0])); // dropped
    for _ in 0..10 {
        link.step(3.0, 0.0, 60.0);
    }
    assert!(link.micro().cells()[0].soc() < 0.99);
    // Battery 1 only self-discharges (the dropped command never arrived).
    assert!(
        link.micro().cells()[1].soc() > 0.9999,
        "dropped command must not take effect"
    );
    let stats = link.stats();
    assert_eq!(stats.dropped, 1);
}

#[test]
fn latency_does_not_reorder_commands() {
    let mut link = Link::ideal(pack());
    link.set_fault_latency(Some(3));
    link.send(Command::Discharge(vec![1.0, 0.0]));
    link.send(Command::Discharge(vec![0.3, 0.7]));
    for _ in 0..6 {
        link.step(2.0, 0.0, 30.0);
    }
    // Both delivered, in order: final ratios are the second command's.
    let ratios = link.micro().discharge_ratios();
    assert!((ratios[0] - 0.3).abs() < 0.01, "{ratios:?}");
    assert_eq!(link.stats().delivered, 2);
}

#[test]
fn malformed_commands_nack_without_corrupting_state() {
    let mut link = Link::ideal(pack());
    link.send(Command::Discharge(vec![0.4, 0.6]));
    link.send(Command::Discharge(vec![2.0, -1.0])); // malformed
    link.send(Command::ChargeOneFromAnother {
        from: 0,
        to: 0,
        power_w: 1.0,
        duration_s: 1.0,
    });
    link.step(2.0, 0.0, 30.0);
    let responses = take(&mut link);
    assert_eq!(responses[0], Response::Ack);
    assert!(matches!(responses[1], Response::Nack(_)));
    assert!(matches!(responses[2], Response::Nack(_)));
    // The valid ratios survive the later garbage.
    let ratios = link.micro().discharge_ratios();
    assert!((ratios[0] - 0.4).abs() < 0.01, "{ratios:?}");
    assert!(!link.micro().transfer_active());
}

#[test]
fn trait_object_api_over_microcontroller_and_link() {
    // Both transports satisfy the same SdbApi the runtime programs
    // against.
    let mut m = pack();
    let mut l = Link::ideal(pack());
    let apis: Vec<&mut dyn SdbApi> = vec![&mut m, &mut l];
    for api in apis {
        assert_eq!(api.battery_count(), 2);
        api.discharge(&[0.5, 0.5]).unwrap();
        assert_eq!(api.query_battery_status().len(), 2);
    }
}
