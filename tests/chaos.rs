//! Chaos-engine integration tests: deterministic fault-injection
//! campaigns, the runtime's graceful-degradation machinery end-to-end
//! through the link scheduler, and energy accounting under injected link
//! faults.

use sdb::battery_model::{BatterySpec, Chemistry};
use sdb::campaign::{run_campaign, CampaignOptions, CampaignReport, CampaignRun, CampaignSpec};
use sdb::chaos::InvariantChecker;
use sdb::core::policy::DischargeDirective;
use sdb::core::runtime::SdbRuntime;
use sdb::core::scheduler::{drive, Hooks, Linked, SimOptions};
use sdb::emulator::link::{Command, Link};
use sdb::emulator::{Microcontroller, PackBuilder, ProfileKind};
use sdb::observe::{Flow, ObsEvent, Observer};
use sdb::workloads::Trace;
use std::ops::ControlFlow;

fn hybrid_pack() -> Microcontroller {
    PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "energy",
            Chemistry::Type2CoStandard,
            3.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "power",
            Chemistry::Type3CoPower,
            3.0,
        ))
        .build()
}

/// A fault sweep: the phone pack on its co/co-power pair under a phone
/// day, at both faulted intensities, each device under its own fault
/// plan on the lossy link.
fn faulted_spec() -> CampaignSpec {
    CampaignSpec {
        scenarios: vec!["phone-day".to_owned()],
        chemistries: vec!["co".to_owned()],
        faults: vec!["moderate".to_owned(), "heavy".to_owned()],
        policies: vec!["greedy".to_owned()],
        engines: vec!["scalar".to_owned()],
        master_seed: 0xC4A0_5EED,
        hours: 0.5,
        devices_per_cell: 3,
    }
}

fn run_faulted(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    let opts = CampaignOptions {
        threads,
        ..CampaignOptions::default()
    };
    match run_campaign(spec, &opts).expect("valid spec") {
        CampaignRun::Complete(report) => *report,
        CampaignRun::Interrupted { .. } => panic!("a run without a budget completes"),
    }
}

/// Acceptance: a fault campaign's rendered reports are byte-identical no
/// matter how many worker threads shard its devices.
#[test]
fn campaign_reports_byte_identical_at_any_thread_count() {
    let spec = faulted_spec();
    let one = run_faulted(&spec, 1);
    for threads in [4, 32] {
        let other = run_faulted(&spec, threads);
        assert_eq!(one.render_text(), other.render_text(), "{threads} threads");
        assert_eq!(one.to_json(), other.to_json(), "{threads} threads");
        assert_eq!(one, other, "{threads} threads");
    }
    // And the campaign actually exercised the fault injectors, with every
    // invariant holding.
    assert!(one.total_faults() > 0, "campaign injected nothing");
    assert_eq!(one.total_violations(), 0, "{}", one.render_text());
}

/// Re-running the same spec is bit-for-bit replayable; changing the seed
/// changes a faulted cell's outcome.
#[test]
fn campaign_is_replayable_and_seed_sensitive() {
    let key = "phone-day/co/heavy/greedy/scalar";
    let digest = |spec: &CampaignSpec| run_faulted(spec, 2).cell(key).expect("cell").digest;
    let spec = faulted_spec();
    assert_eq!(digest(&spec), digest(&spec));
    let reseeded = CampaignSpec {
        master_seed: spec.master_seed ^ 0xDEAD_BEEF,
        ..faulted_spec()
    };
    assert_ne!(digest(&spec), digest(&reseeded), "seed had no effect");
}

/// Acceptance: driven through the linked scheduler, a link that goes
/// completely dark trips the watchdog; after the link is restored the
/// runtime pushes the safe uniform fallback, sees the ack, recovers, and
/// resumes policy control.
#[test]
fn watchdog_falls_back_to_uniform_and_recovers_through_scheduler() {
    let obs = Observer::capturing();

    let mut micro = hybrid_pack();
    micro.set_observer(obs.clone());
    let mut link = Link::ideal(micro);
    let mut runtime = SdbRuntime::new(2);
    runtime.set_observer(obs.clone());
    runtime.set_update_period(60.0);
    runtime.set_discharge_directive(DischargeDirective::new(1.0));
    runtime.enable_resilience();
    // Drives `secs` of an 8 W load over the link, status heartbeat every
    // 30 s.
    let run_linked = |link: &mut Link, runtime: &mut SdbRuntime, secs: f64| {
        let opts = SimOptions::default();
        let runs = Trace::constant(8.0, secs).runs(opts.max_dt_s);
        let _ = drive(
            &mut Linked::new(link, 30.0),
            runtime,
            &runs,
            &opts,
            Hooks::default(),
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        );
    };

    // Phase A: healthy link — the RBL policy lands non-uniform ratios.
    run_linked(&mut link, &mut runtime, 900.0);
    assert!(!runtime.watchdog_engaged());
    let healthy = link.micro().discharge_ratios().to_vec();
    assert!(
        (healthy[0] - 0.5).abs() > 0.01,
        "RBL split should be non-uniform on a heterogeneous pack: {healthy:?}"
    );

    // Phase B: the link goes dark (every command dropped, both ways).
    link.set_fault_drop_per_mille(1000);
    run_linked(&mut link, &mut runtime, 1200.0);
    assert!(runtime.watchdog_engaged(), "silent link must trip watchdog");

    // Phase C: restore the link. The engaged watchdog's uniform fallback
    // is the first command to land; its ack recovers the runtime, which
    // then re-pushes the policy ratios.
    link.set_fault_drop_per_mille(0);
    run_linked(&mut link, &mut runtime, 900.0);
    assert!(!runtime.watchdog_engaged(), "restored link must recover");
    let recovered = link.micro().discharge_ratios().to_vec();
    assert!(
        (recovered[0] - 0.5).abs() > 0.01,
        "policy control resumed after recovery: {recovered:?}"
    );

    // The event stream tells the whole story: engage, uniform fallback
    // landing on the firmware, recovery.
    let dump = obs.drain_events();
    let engaged_at = dump
        .iter()
        .position(|e| matches!(e.event, ObsEvent::WatchdogTransition { engaged: true, .. }))
        .expect("watchdog engagement event");
    let recovered_at = dump
        .iter()
        .position(|e| matches!(e.event, ObsEvent::WatchdogTransition { engaged: false, .. }))
        .expect("watchdog recovery event");
    assert!(engaged_at < recovered_at);
    let uniform_landed = dump[engaged_at..recovered_at + 1].iter().any(|e| {
        matches!(
            &e.event,
            ObsEvent::RatioPush { flow: Flow::Discharge, ratios }
                if ratios.iter().all(|r| (r - 0.5).abs() < 1e-9)
        )
    });
    assert!(
        uniform_landed,
        "uniform fallback never reached the firmware"
    );
}

/// Satellite: `ChargeOneFromAnother(X, Y, W, T)` keeps the energy books
/// balanced over a clean link and over a chaotic one (latency +
/// duplication). The destination's gain never exceeds what the source
/// paid or the commanded power budget.
#[test]
fn charge_one_from_another_accounts_energy_under_clean_and_chaos_links() {
    let transfer_w = 4.0;
    let transfer_s = 900.0;
    let run = |chaos: bool| {
        let mut micro = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "src",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery_at(
                BatterySpec::from_chemistry("dst", Chemistry::Type2CoStandard, 2.0),
                0.3,
                ProfileKind::Standard,
            )
            .build();
        micro.set_discharge_ratios(&[1.0, 0.0]).unwrap();
        let mut link = Link::ideal(micro);
        if chaos {
            link.seed_faults(0x51DE_FA17);
            link.set_fault_latency(Some(3));
            link.set_fault_dup_per_mille(600);
        }
        let mut checker = InvariantChecker::for_micro(link.micro());
        let src_before: f64 = link.micro().cells()[0].energy_out_j();
        let dst_before: f64 = link.micro().cells()[1].energy_in_j();
        link.send(Command::ChargeOneFromAnother {
            from: 0,
            to: 1,
            power_w: transfer_w,
            duration_s: transfer_s,
        });
        for i in 0..40 {
            let report = link.step(0.0, 0.0, 60.0);
            let t = f64::from(i + 1) * 60.0;
            checker.check_step(t, &report);
            checker.check_micro(t, link.micro());
        }
        assert!(checker.is_clean(), "{:?}", checker.violations());
        let moved = link.micro().cells()[1].energy_in_j() - dst_before;
        let paid = link.micro().cells()[0].energy_out_j() - src_before;
        (moved, paid)
    };

    for (label, chaos) in [("clean", false), ("chaos", true)] {
        let (moved, paid) = run(chaos);
        assert!(moved > 0.0, "{label}: destination never gained charge");
        assert!(
            moved <= paid,
            "{label}: transfer created energy (moved {moved:.1} J > paid {paid:.1} J)"
        );
        // Duplicated commands can restart the transfer window, but never
        // more than double the commanded budget.
        assert!(
            moved <= transfer_w * transfer_s * 2.0,
            "{label}: moved {moved:.1} J blew the commanded budget"
        );
    }
}

/// Regression: link fault statistics are counted at the injection site,
/// so they stay accurate with no observer attached.
#[test]
fn link_stats_count_faults_without_an_observer() {
    let mut link = Link::ideal(hybrid_pack());
    link.seed_faults(7);
    link.set_fault_drop_per_mille(500);
    link.set_fault_dup_per_mille(500);
    for _ in 0..40 {
        link.send(Command::Discharge(vec![0.5, 0.5]));
        link.step(1.0, 0.0, 10.0);
    }
    let stats = link.stats();
    assert_eq!(stats.sent, 40);
    assert!(stats.dropped > 0, "nothing dropped at 500 per mille");
    assert!(stats.duplicated > 0, "nothing duplicated at 500 per mille");
    assert_eq!(
        stats.delivered,
        stats.sent - stats.dropped + stats.duplicated,
        "delivery ledger must balance: {stats:?}"
    );

    // Stale-status serving is also counted with nobody watching.
    link.set_fault_stale_status(true);
    link.send(Command::QueryBatteryStatus);
    link.step(1.0, 0.0, 10.0);
    let after = link.stats();
    assert!(
        after.stale_served >= 1 || after.dropped > stats.dropped,
        "stale query neither served from snapshot nor dropped: {after:?}"
    );
}
