//! Observability integration tests: the event capture wired through every
//! layer, the metrics registry exporters, and the events a
//! fault-injection run leaves for post-mortem analysis.

use sdb::battery_model::{BatterySpec, Chemistry};
use sdb::core::runtime::SdbRuntime;
// Invariant-checked drop-in for run_trace (sdb-chaos harness).
use sdb::chaos::checked_run_trace as run_trace;
use sdb::core::scheduler::SimOptions;
use sdb::emulator::micro::ThermalThrottle;
use sdb::emulator::{Microcontroller, PackBuilder, ProfileKind};
use sdb::fuel_gauge::gauge::GaugeConfig;
use sdb::observe::{ObsEvent, Observer};
use sdb::workloads::Trace;

fn hybrid_pack() -> Microcontroller {
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
        .build()
}

/// The acceptance scenario: the flight recording of a 2-battery run, a
/// capturing observer's events, is non-empty and contains at least
/// ratio-push and policy-evaluation events.
#[test]
fn flight_recorder_captures_trace_run() {
    let mut micro = hybrid_pack();
    let mut runtime = SdbRuntime::new(2);
    let obs = Observer::capturing();
    micro.set_observer(obs.clone());
    runtime.set_observer(obs.clone());

    let result = run_trace(
        &mut micro,
        &mut runtime,
        &Trace::constant(4.0, 1800.0),
        &SimOptions::default(),
    );
    assert!(result.unmet_j < 1e-6);

    let dump = obs.drain_events();
    assert!(!dump.is_empty(), "the capture stayed empty");
    assert!(
        dump.iter()
            .any(|e| matches!(e.event, ObsEvent::RatioPush { .. })),
        "no ratio-push events in dump"
    );
    assert!(
        dump.iter()
            .any(|e| matches!(e.event, ObsEvent::PolicyEvaluation { .. })),
        "no policy-evaluation events in dump"
    );
    // Timestamps are the simulation clock, oldest first; one device's
    // sequence numbers are dense.
    assert!(dump.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    assert!(dump.last().unwrap().t_s <= 1800.0);
    assert!(dump.iter().enumerate().all(|(i, e)| e.seq == i as u64));
}

/// Every exporter line must parse as `name{labels} value` (or
/// `name value`), with an integer counter value — checked with a
/// hand-rolled parser, no regex — and the lines carry exactly the
/// counters the emulator and the runtime register, sorted.
#[test]
fn prometheus_export_parses_line_by_line() {
    let mut micro = hybrid_pack();
    let mut runtime = SdbRuntime::new(2);
    let obs = Observer::new();
    micro.set_observer(obs.clone());
    runtime.set_observer(obs.clone());
    let _ = run_trace(
        &mut micro,
        &mut runtime,
        &Trace::constant(4.0, 1800.0),
        &SimOptions::default(),
    );

    let text = obs.registry().unwrap().to_prometheus_text();
    assert!(!text.is_empty());
    let mut names = Vec::new();
    for line in text.lines() {
        // Split metric id from value at the last space.
        let (id, value) = line.rsplit_once(' ').expect("line has no value");
        assert!(!value.is_empty(), "empty value in {line:?}");
        let _: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value {value:?} in {line:?}"));
        let name = match id.split_once('{') {
            Some((name, rest)) => {
                assert!(rest.ends_with('}'), "unclosed label set in {line:?}");
                let labels = &rest[..rest.len() - 1];
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label without =");
                    assert!(!k.is_empty());
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "unquoted label value in {line:?}"
                    );
                }
                name
            }
            None => id,
        };
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name:?}"
        );
        names.push(name.to_string());
    }
    // The run recorded the cross-layer counters, and nothing else.
    names.dedup();
    assert_eq!(
        names,
        [
            "sdb_gauge_recalibrations_total",
            "sdb_micro_brownout_steps_total",
            "sdb_micro_steps_total",
            "sdb_policy_evals_total",
            "sdb_ratio_pushes_total",
            "sdb_runtime_ratio_pushes_total",
            "sdb_safety_clamps_total",
            "sdb_thermal_throttle_transitions_total",
        ],
        "{text}"
    );
}

/// Thermal stress, recorded by `obs`: two hours of sustained fast charge
/// in a warm environment, under a throttle that latches.
fn overheat(obs: &Observer) -> Microcontroller {
    let mut hot = PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("fast", Chemistry::Type3CoPower, 3.0),
            0.05,
            ProfileKind::Fast,
        )
        .ambient_c(35.0)
        .build();
    hot.set_observer(obs.clone());
    hot.set_thermal_throttle(Some(ThermalThrottle {
        limit_c: 37.5,
        resume_c: 36.0,
    }));
    hot.set_charge_ratios(&[1.0]).unwrap();
    for _ in 0..240 {
        hot.step(0.0, 30.0, 30.0);
    }
    hot
}

/// A fault-injection run (thermal stress + drifting gauge, as in
/// `faults.rs`) leaves throttle and recalibration events in the capture
/// for post-mortem analysis.
#[test]
fn fault_injection_run_records_throttle_and_recalibration() {
    let obs = Observer::capturing();
    overheat(&obs);

    // Gauge drift: a large current offset integrates into SoC error under
    // light load, then an hour of rest triggers OCV recalibration.
    let mut drifty = PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "a",
            Chemistry::Type2CoStandard,
            3.0,
        ))
        .gauge(GaugeConfig {
            current_lsb_a: 0.002,
            current_offset_a: 0.004,
            voltage_lsb_v: 0.002,
            rest_recal_s: 1200.0,
        })
        .build();
    drifty.set_observer(obs.clone());
    let mut runtime = SdbRuntime::new(1);
    runtime.set_observer(obs.clone());
    let _ = run_trace(
        &mut drifty,
        &mut runtime,
        &Trace::constant(1.0, 8.0 * 3600.0),
        &SimOptions::default(),
    );
    let _ = run_trace(
        &mut drifty,
        &mut runtime,
        &Trace::constant(0.0, 3600.0),
        &SimOptions::default(),
    );

    let dump = obs.drain_events();
    let throttle_engagements = dump
        .iter()
        .filter(|e| matches!(e.event, ObsEvent::ThermalThrottle { engaged: true, .. }))
        .count();
    assert!(throttle_engagements >= 1, "no throttle events recorded");
    assert!(
        dump.iter()
            .any(|e| matches!(e.event, ObsEvent::GaugeRecalibration { .. })),
        "no gauge-recalibration events recorded"
    );
    // Registry counters agree with the event stream.
    let text = obs.registry().unwrap().to_prometheus_text();
    assert!(text.contains("sdb_gauge_recalibrations_total"));
    assert!(text.contains("sdb_thermal_throttle_transitions_total"));
}

/// Dropped link commands surface as fault-injection events.
#[test]
fn lossy_link_records_fault_injections() {
    use sdb::core::policy::PolicyInput;
    use sdb::emulator::link::Link;

    let obs = Observer::capturing();
    let mut micro = hybrid_pack();
    micro.set_observer(obs.clone());
    // Drop every 2nd command.
    let mut link = Link::new(micro, 0, 2);
    let mut runtime = SdbRuntime::new(2);
    runtime.set_observer(obs.clone());
    runtime.set_update_period(60.0);
    for _ in 0..30 {
        let input = PolicyInput::from_micro(link.micro()).with_load(4.0);
        let _ = runtime.tick(&mut link, &input, 60.0);
        link.step(4.0, 0.0, 60.0);
    }

    assert!(link.stats().dropped >= 1, "link dropped nothing");
    assert!(
        obs.drain_events()
            .iter()
            .any(|e| matches!(e.event, ObsEvent::FaultInjection { .. })),
        "no fault-injection events from the lossy link"
    );
}

/// An instrumented run and an uninstrumented run produce bit-identical
/// physics: observability is observation only.
#[test]
fn observability_does_not_perturb_simulation() {
    let run = |observed: bool| {
        let mut micro = hybrid_pack();
        let mut runtime = SdbRuntime::new(2);
        if observed {
            let obs = Observer::capturing();
            micro.set_observer(obs.clone());
            runtime.set_observer(obs);
        }
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
    assert_eq!(run(false), run(true));
}

/// The events a run captures survive a trace round trip: `sdb analyze`
/// on the JSONL file reports exactly what the live capture holds. The
/// run emits a thermal throttle from the firmware and a stuck-gauge flag
/// (with its named reason) from the runtime.
#[test]
fn captured_events_round_trip_through_a_trace() {
    let obs = Observer::capturing();
    let hot = overheat(&obs);
    let mut runtime = SdbRuntime::new(1);
    runtime.set_observer(obs.clone());
    runtime.enable_resilience();
    // A frozen SoC estimate under load flags the gauge; a moving one
    // clears it.
    let mut row = hot.query_battery_status()[0];
    row.current_a = 1.0;
    for _ in 0..6 {
        runtime.observe_status(&[row]);
    }
    row.soc -= 0.01;
    runtime.observe_status(&[row]);

    let events = obs.drain_events();
    let live = sdb::observe::analyze(&events).render_text(usize::MAX);
    let text = sdb::observe::to_jsonl(&events);
    let replayed = sdb::observe::analyze_jsonl(&text)
        .unwrap_or_else(|e| panic!("{e}: {text}"))
        .render_text(usize::MAX);
    assert_eq!(replayed, live);
    for kind in ["thermal_throttle", "gauge_degraded"] {
        assert!(live.contains(kind), "no {kind} in {live}");
    }
    assert_eq!(
        text.matches("\"reason\":\"stuck-soc\"").count(),
        2,
        "{text}"
    );
}
