//! The parallel fleet driver.
//!
//! Devices are spread over workers by [`sdb_prof::shard_map`], which
//! hands back their outcomes in device order. Nothing is shared between
//! shards on the hot path — each shard has its own [`Observer`] (a
//! registry of exact counters), merged by addition after join. Because every
//! device outcome is a pure function of `(FleetSpec, device index)`, the
//! resulting [`FleetReport`] is bit-identical for any worker count,
//! including 1.

use crate::batch::{EngineKind, SoaScratch};
use crate::report::FleetReport;
use crate::spec::FleetSpec;
use sdb_core::metrics::{ccb, wear_ratios};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, Hooks};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::SoaCohort;
use sdb_observe::{Counter, DeviceEvent, MetricsRegistry, Observer};
use sdb_policy::{warmup_seeds, WARMUP_DAYS};
use std::ops::ControlFlow;
use std::time::Instant;

/// The per-device result the merge aggregates. Everything here is a pure
/// function of `(spec, device)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Device index in `0..spec.devices`.
    pub device: u64,
    /// Index into `spec.cohorts`.
    pub cohort: usize,
    /// Effective battery life: time to first brownout, or the full span.
    pub life_s: f64,
    /// Whether the device browned out before its trace ended.
    pub browned_out: bool,
    /// Simulated span, seconds.
    pub simulated_s: f64,
    /// Energy delivered to the load, joules.
    pub supplied_j: f64,
    /// Load energy that went unserved, joules.
    pub unmet_j: f64,
    /// Circuit (power-electronics) losses, joules.
    pub circuit_loss_j: f64,
    /// Cell resistive heat, joules.
    pub cell_heat_j: f64,
    /// Cycle Count Balance of the pack at end of trace (1.0 = balanced).
    pub wear_ccb: f64,
    /// Mean final state of charge across the pack.
    pub mean_final_soc: f64,
}

/// Wall-clock facts about one fleet run. Deliberately kept out of
/// [`FleetReport`]: everything in here may differ between runs and thread
/// counts.
#[derive(Debug)]
pub struct FleetRunStats {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Device simulations completed per wall-clock second.
    pub devices_per_sec: f64,
    /// The merged per-shard registries: exact counter totals, the same at
    /// any thread count (`--metrics-out` renders it).
    pub registry: MetricsRegistry,
}

/// Builds and runs one device, recording into the shard's observer. With
/// `soa`, the cohort's SoA lane ([`crate::batch`]), quiescent stretches
/// fast-forward; without it, every tick is stepped.
pub(crate) fn run_device(
    spec: &FleetSpec,
    device: u64,
    obs: &Observer,
    mut soa: Option<&mut SoaCohort>,
) -> DeviceOutcome {
    let cohort_idx = spec.cohort_of(device);
    let cohort = &spec.cohorts[cohort_idx];
    let seed = spec.device_seed(device);

    let mut micro = cohort.pack.instantiate();
    micro.set_observer(obs.clone());
    let mut runtime = SdbRuntime::new(micro.battery_count());
    runtime.set_observer(obs.clone());
    // The trace is materialized before the policy because the planner
    // modes need it (the oracle plans over it, and both planners only
    // make sense relative to a concrete workload).
    let trace = cohort.workload.build(seed);
    let history = warmup_seeds(seed, WARMUP_DAYS).map(|d| cohort.workload.build(d));
    let mut planner = cohort
        .policy
        .install(&mut runtime, cohort.update_period_s, &trace, history);
    let ff_before = soa.as_deref().map_or(0, SoaCohort::ticks_advanced);
    let runs = trace.runs(spec.sim.max_dt_s);
    let hooks = Hooks {
        policy: planner.as_mut().map(|p| p as _),
        soa: soa.as_deref_mut(),
        ..Hooks::default()
    };
    let result = drive(
        &mut micro,
        &mut runtime,
        &runs,
        &spec.sim,
        hooks,
        |_, _| {},
        |_, _, _| ControlFlow::Continue(()),
    );
    let ff_ticks = soa.as_deref().map_or(0, SoaCohort::ticks_advanced) - ff_before;
    if ff_ticks > 0 {
        if let Some(reg) = obs.registry() {
            reg.counter("sdb_fleet_ff_ticks_total", &[]).add(ff_ticks);
        }
    }
    outcome_from(&micro, device, cohort_idx, &result)
}

/// Folds a finished device run into its [`DeviceOutcome`].
fn outcome_from(
    micro: &Microcontroller,
    device: u64,
    cohort_idx: usize,
    result: &sdb_core::scheduler::SimResult,
) -> DeviceOutcome {
    let statuses = micro.query_battery_status();
    let cycle_counts: Vec<u32> = statuses.iter().map(|s| s.cycle_count).collect();
    let specs: Vec<&sdb_battery_model::spec::BatterySpec> =
        micro.cells().iter().map(|c| c.spec()).collect();
    let wear = wear_ratios(&cycle_counts, &specs);
    let n = result.final_soc.len().max(1) as f64;

    DeviceOutcome {
        device,
        cohort: cohort_idx,
        life_s: result.battery_life_s(),
        browned_out: result.first_brownout_s.is_some(),
        simulated_s: result.simulated_s,
        supplied_j: result.supplied_j,
        unmet_j: result.unmet_j,
        circuit_loss_j: result.circuit_loss_j,
        cell_heat_j: result.cell_heat_j,
        wear_ccb: ccb(&wear),
        mean_final_soc: result.final_soc.iter().sum::<f64>() / n,
    }
}

/// How [`run_fleet`] runs a fleet. Only `engine` can change the
/// [`FleetReport`]; the rest change wall time and what else is returned.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (0 and 1 both mean one).
    pub threads: usize,
    /// The tick-by-tick scalar reference, or the SoA fast path
    /// ([`EngineKind::Soa`]) that fast-forwards quiescent devices within a
    /// documented bound. Either engine's report is bit-identical at any
    /// thread count.
    pub engine: EngineKind,
    /// Capture the full device-tagged event stream. Every shard observer
    /// is [`Observer::capturing`]; each device's events are tagged
    /// `(device, seq)` and the returned stream concatenates them in
    /// device order, so the serialized trace is byte-identical for any
    /// thread count. Capture keeps every event in memory: budget roughly
    /// one `StepSample` per simulation step per device. It requires the
    /// scalar engine, since fast-forwarded ticks emit no step events.
    pub capture_events: bool,
}

impl RunOptions {
    /// Scalar engine, no capture, on `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// [`run_fleet`] with only a thread count and an engine, returning the
/// report and stats. Kept as a one-line wrapper for callers built
/// against this signature.
///
/// # Errors
///
/// As [`run_fleet`].
pub fn run_fleet_with_engine(
    spec: &FleetSpec,
    threads: usize,
    engine: EngineKind,
) -> Result<(FleetReport, FleetRunStats), String> {
    run_fleet(
        spec,
        &RunOptions {
            engine,
            ..RunOptions::new(threads)
        },
    )
    .map(|(r, s, _)| (r, s))
}

/// One worker's state: its observer (capturing events, if asked), its
/// devices-done counter, and its SoA lane arrays, reused across the
/// shard's devices.
struct Shard {
    obs: Observer,
    devices_done: Counter,
    soa_scratch: Option<SoaScratch>,
}

/// Runs the fleet on [`sdb_prof::shard_map`] and merges the outcomes into
/// a deterministic [`FleetReport`] plus wall-clock [`FleetRunStats`], and
/// the captured event stream if [`RunOptions::capture_events`] is set.
/// Every device outcome is a pure function of `(spec, device index)` and
/// the shards' registries merge commutatively, so the report
/// is bit-identical for any worker count, including 1.
///
/// # Errors
///
/// Returns the spec validation error, a message if event capture is asked
/// of the SoA engine, or a message if a worker panicked.
pub fn run_fleet(
    spec: &FleetSpec,
    opts: &RunOptions,
) -> Result<(FleetReport, FleetRunStats, Option<Vec<DeviceEvent>>), String> {
    let RunOptions {
        threads,
        engine,
        capture_events,
    } = *opts;
    spec.validate()?;
    if capture_events && engine == EngineKind::Soa {
        return Err(
            "event capture requires the scalar engine (--engine scalar): fast-forwarded \
             ticks emit no step events"
                .to_owned(),
        );
    }
    let threads = threads.max(1);
    let start = Instant::now();
    // Main-thread orchestration scope; worker device trees flush into the
    // same global aggregate as sibling roots (device work is parallel to
    // the orchestrator, not "inside" its wall time).
    let prof_run = sdb_prof::scope(sdb_prof::Phase::FleetRun);

    let new_shard = |_| {
        let obs = if capture_events {
            Observer::capturing()
        } else {
            Observer::new()
        };
        let devices_done = obs
            .registry()
            .expect("fresh observer has a registry")
            .counter("sdb_fleet_devices_total", &[]);
        Shard {
            obs,
            devices_done,
            soa_scratch: (engine == EngineKind::Soa).then(|| SoaScratch::new(spec.cohorts.len())),
        }
    };
    let run_one = |shard: &mut Shard, i: usize| {
        shard.obs.set_device(i as u64);
        // The observer is shared across this shard's devices; reset the
        // sim clock so a device's pre-step events (t = 0 ratio pushes)
        // aren't stamped with the previous device's end time — which
        // would differ by shard layout and break trace determinism.
        shard.obs.set_clock(0.0);
        // The device scope resets the sampling gate (hot ticks are a
        // function of the device, not the worker) and flushes this
        // device's phase tree on drop, tagged with shard + cohort.
        let prof_dev = if sdb_prof::enabled() {
            let name = &spec.cohorts[spec.cohort_of(i as u64)].name;
            sdb_prof::device_scope(sdb_prof::cohort_id(name))
        } else {
            sdb_prof::device_scope(0)
        };
        let soa = shard
            .soa_scratch
            .as_mut()
            .and_then(|scratch| scratch.lane(spec, i as u64));
        let outcome = run_device(spec, i as u64, &shard.obs, soa);
        drop(prof_dev);
        shard.devices_done.inc();
        Ok((outcome, shard.obs.drain_events()))
    };
    let (shards, results) = sdb_prof::shard_map(threads, spec.devices, new_shard, run_one)?;

    // Deterministic merge: outcomes and each device's events come back in
    // device order; registries merge commutatively.
    let prof_merge = sdb_prof::scope(sdb_prof::Phase::ReportMerge);
    let merged = MetricsRegistry::default();
    for shard in shards {
        if let Some(reg) = shard.obs.registry() {
            merged.merge_from(reg);
        }
    }
    let (outcomes, device_events): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let events = capture_events.then(|| device_events.into_iter().flatten().collect());

    let report = FleetReport::from_outcomes(spec, &outcomes, &merged);
    drop(prof_merge);
    drop(prof_run);
    if sdb_prof::enabled() {
        sdb_prof::flush_thread();
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = FleetRunStats {
        threads,
        wall_s,
        devices_per_sec: spec.devices as f64 / wall_s.max(1e-9),
        registry: merged,
    };
    Ok((report, stats, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CohortSpec, PackTemplate, PolicySpec, WorkloadSpec};
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_core::policy::DischargeDirective;
    use sdb_core::scheduler::{run_trace, SimOptions};
    use sdb_emulator::profile::ProfileKind;
    use sdb_workloads::traces::Trace;
    use std::sync::Arc;

    fn tiny_spec(devices: usize) -> FleetSpec {
        FleetSpec {
            devices,
            master_seed: 77,
            cohorts: vec![CohortSpec {
                name: "tiny".to_owned(),
                weight: 1.0,
                pack: PackTemplate::new(vec![
                    (
                        BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                        1.0,
                        ProfileKind::Standard,
                    ),
                    (
                        BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                        1.0,
                        ProfileKind::Fast,
                    ),
                ]),
                workload: WorkloadSpec::Shared(Arc::new(Trace::constant(5.0, 1800.0))),
                policy: PolicySpec::Blend(0.9),
                update_period_s: 60.0,
            }],
            sim: SimOptions::default(),
        }
    }

    #[test]
    fn engine_runs_every_device_exactly_once() {
        let (report, stats, _) = run_fleet(&tiny_spec(17), &RunOptions::new(4)).unwrap();
        assert_eq!(report.devices, 17);
        assert_eq!(stats.threads, 4);
        // The merged fleet counter saw each device once.
        let totals = stats.registry.counter_totals();
        let fleet = totals
            .iter()
            .find(|(name, _)| name == "sdb_fleet_devices_total")
            .expect("fleet counter present");
        assert_eq!(fleet.1, 17);
    }

    #[test]
    fn zero_devices_is_an_error() {
        assert!(run_fleet(&tiny_spec(0), &RunOptions::new(2)).is_err());
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let spec = tiny_spec(12);
        let (r1, _, _) = run_fleet(&spec, &RunOptions::new(1)).unwrap();
        let (r3, _, _) = run_fleet(&spec, &RunOptions::new(3)).unwrap();
        assert_eq!(r1, r3);
        assert_eq!(r1.to_json(), r3.to_json());
    }

    #[test]
    fn planner_policies_are_thread_invariant() {
        // Planner cohorts do rollout work inside run_device; the report
        // (and the captured event stream, which now carries plan_commit
        // events) must still be bit-identical for any worker count.
        for policy in [
            PolicySpec::Planned {
                horizon_s: 1800.0,
                replan_s: 600.0,
            },
            PolicySpec::Oracle,
        ] {
            let spec = tiny_spec(8).with_policy(policy);
            let (r1, _, e1) = run_fleet(
                &spec,
                &RunOptions {
                    capture_events: true,
                    ..RunOptions::new(1)
                },
            )
            .unwrap();
            let (r4, _, e4) = run_fleet(
                &spec,
                &RunOptions {
                    capture_events: true,
                    ..RunOptions::new(4)
                },
            )
            .unwrap();
            assert_eq!(r1, r4);
            assert_eq!(r1.to_json(), r4.to_json());
            assert_eq!(e1, e4);
            let events = e1.unwrap();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.event, sdb_observe::ObsEvent::PlanCommit { .. })),
                "planner cohorts must emit plan_commit events"
            );
        }
    }

    #[test]
    fn captured_events_are_device_sorted_and_thread_invariant() {
        let spec = tiny_spec(9);
        let (_, _, e1) = run_fleet(
            &spec,
            &RunOptions {
                capture_events: true,
                ..RunOptions::new(1)
            },
        )
        .unwrap();
        let (_, _, e4) = run_fleet(
            &spec,
            &RunOptions {
                capture_events: true,
                ..RunOptions::new(4)
            },
        )
        .unwrap();
        let e1 = e1.unwrap();
        let e4 = e4.unwrap();
        assert!(!e1.is_empty());
        assert_eq!(e1, e4);
        // Sorted by (device, seq) with seq restarting at 0 per device.
        for w in e1.windows(2) {
            assert!((w[0].device, w[0].seq) < (w[1].device, w[1].seq));
        }
        let devices: std::collections::BTreeSet<u64> = e1.iter().map(|e| e.device).collect();
        assert_eq!(devices.len(), 9);
        // Without capture, no events and no collector overhead.
        let (_, _, none) = run_fleet(&spec, &RunOptions::new(2)).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn outcomes_match_a_direct_single_device_run() {
        // Fleet of one, shared trace: identical to calling run_trace directly.
        let spec = tiny_spec(1);
        let (report, _, _) = run_fleet(&spec, &RunOptions::new(2)).unwrap();

        let cohort = &spec.cohorts[0];
        let mut micro = cohort.pack.instantiate();
        let mut rt = SdbRuntime::new(2);
        rt.set_discharge_directive(DischargeDirective::new(0.9));
        rt.set_update_period(60.0);
        let trace = cohort.workload.build(spec.device_seed(0));
        let direct = run_trace(&mut micro, &mut rt, &trace, &spec.sim);

        assert_eq!(
            report.life_s.mean.to_bits(),
            direct.battery_life_s().to_bits()
        );
        assert_eq!(
            report.supplied_j_total.to_bits(),
            direct.supplied_j.to_bits()
        );
    }
}
