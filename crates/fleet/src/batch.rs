//! The SoA fleet engine: hybrid scalar / fast-forward device driver.
//!
//! The scalar engine ([`crate::engine`]) steps every device tick by tick.
//! Fleet populations spend most of those ticks on devices that are doing
//! nothing — a phone idling through the night at a fraction of a watt.
//! This module drives such stretches through [`SoaCohort`]: after a real
//! scalar tick establishes a sync point, the quiescence classifier parks
//! the device's state in the cohort's structure-of-arrays lanes and the
//! closed-form kernel fast-forwards whole runs of identical trace points
//! in one call, re-syncing exactly at every boundary (load change,
//! external power, drift budget, gauge recalibration crossing, SoC floor).
//!
//! Determinism contract: like the scalar engine, every device outcome is
//! a pure function of `(FleetSpec, device index)` — the SoA report is
//! bit-identical at any thread count. Across *engines* the outcomes agree
//! within the documented fast-forward bound (DESIGN.md §14), not bit-for-
//! bit; the cross-engine property tests pin the bound.
//!
//! Planner cohorts ([`PolicySpec::Planned`] / [`PolicySpec::Oracle`])
//! commit plans at times the classifier cannot see ahead of, so their
//! devices transparently fall back to the scalar driver, as do packs
//! with thermal simulation enabled.

use crate::engine::DeviceOutcome;
use crate::spec::{CohortSpec, FleetSpec, PolicySpec};
use sdb_core::policy::{DischargeDirective, PolicyInput, PreservePolicy};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{SimOptions, SimResult};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_observe::{Observer, SpanName};
use sdb_workloads::traces::{Trace, TracePoint};

/// Which per-device driver the fleet engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Tick-by-tick emulation of every device (the reference engine).
    #[default]
    Scalar,
    /// Structure-of-arrays fast path: quiescent devices park in SoA
    /// lanes and fast-forward idle stretches with the closed-form
    /// kernel. Within the documented bound of the scalar engine.
    Soa,
}

impl EngineKind {
    /// Parses `scalar` / `soa`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(Self::Scalar),
            "soa" => Ok(Self::Soa),
            other => Err(format!("unknown engine `{other}` (expected scalar|soa)")),
        }
    }

    /// The CLI/JSON name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Soa => "soa",
        }
    }
}

/// Minimum run of identical upcoming trace points worth the
/// snapshot-in/snapshot-out cost of parking a lane.
const MIN_STRETCH_POINTS: usize = 4;

/// One shard's lazily-built SoA lanes, one slot per cohort. Lanes are
/// reused across the shard's devices, so array and snapshot buffers are
/// allocated once per (shard, cohort), not per device.
pub(crate) struct SoaScratch {
    slots: Vec<SlotState>,
}

enum SlotState {
    Unbuilt,
    /// Planner policy or thermal pack: this cohort runs the scalar driver.
    Ineligible,
    Ready(Box<SoaCohort>),
}

impl SoaScratch {
    pub(crate) fn new(cohorts: usize) -> Self {
        Self {
            slots: (0..cohorts).map(|_| SlotState::Unbuilt).collect(),
        }
    }

    /// The cohort's SoA lane, built on first use; `None` when the cohort
    /// must run the scalar driver.
    fn lane(&mut self, idx: usize, cohort: &CohortSpec) -> Option<&mut SoaCohort> {
        if matches!(self.slots[idx], SlotState::Unbuilt) {
            self.slots[idx] = build_slot(cohort);
        }
        match &mut self.slots[idx] {
            SlotState::Ready(soa) => Some(soa),
            _ => None,
        }
    }
}

fn build_slot(cohort: &CohortSpec) -> SlotState {
    if !matches!(
        cohort.policy,
        PolicySpec::Blend(_) | PolicySpec::Preserve { .. }
    ) {
        return SlotState::Ineligible;
    }
    let template = build_pack(cohort);
    if template.cells().iter().any(|c| c.temperature_c().is_some()) {
        return SlotState::Ineligible;
    }
    SlotState::Ready(Box::new(SoaCohort::new(
        &template,
        1,
        QuiescenceConfig::default(),
    )))
}

fn build_pack(cohort: &CohortSpec) -> Microcontroller {
    let mut builder = PackBuilder::new();
    for slot in &cohort.pack.batteries {
        builder = builder.battery_at(slot.spec.clone(), slot.initial_soc, slot.profile);
    }
    builder.build()
}

/// [`crate::engine::run_device`] on the SoA fast path. Cohorts without a
/// lane (planner policies, thermal packs) take the scalar driver.
pub(crate) fn run_device_soa(
    spec: &FleetSpec,
    device: u64,
    obs: &Observer,
    scratch: &mut SoaScratch,
) -> DeviceOutcome {
    let cohort_idx = spec.cohort_of(device);
    let cohort = &spec.cohorts[cohort_idx];
    if scratch.lane(cohort_idx, cohort).is_none() {
        return crate::engine::run_device(spec, device, obs);
    }
    let seed = spec.device_seed(device);
    let mut micro = build_pack(cohort);
    micro.set_observer(obs.clone());
    let mut runtime = SdbRuntime::new(micro.battery_count());
    runtime.set_observer(obs.clone());
    runtime.set_update_period(cohort.update_period_s);
    let trace = cohort.workload.build(seed);
    let soa = scratch
        .lane(cohort_idx, cohort)
        .expect("slot was just Ready");
    let (result, ff_ticks) = match cohort.policy {
        PolicySpec::Blend(v) => {
            runtime.set_discharge_directive(DischargeDirective::new(v));
            run_trace_soa(&mut micro, &mut runtime, &trace, &spec.sim, soa)
        }
        PolicySpec::Preserve {
            efficient,
            inefficient,
            threshold_w,
        } => {
            runtime.set_preserve(Some(PreservePolicy::new(
                efficient,
                inefficient,
                threshold_w,
            )));
            run_trace_soa(&mut micro, &mut runtime, &trace, &spec.sim, soa)
        }
        PolicySpec::Planned { .. } | PolicySpec::Oracle => {
            unreachable!("planner cohorts have no SoA lane")
        }
    };
    if ff_ticks > 0 {
        if let Some(reg) = obs.registry() {
            reg.counter("sdb_fleet_ff_ticks_total", &[]).add(ff_ticks);
        }
    }
    crate::engine::outcome_from(&micro, device, cohort_idx, &result)
}

/// The hybrid trace driver: scalar sync ticks interleaved with SoA
/// fast-forward over runs of identical quiescent trace points. Returns
/// the run result and the number of fast-forwarded ticks.
///
/// The scalar ticks execute the exact `tick → step` instruction sequence
/// of [`sdb_core::scheduler::run_trace`]; only the fast-forwarded
/// stretches deviate, within the documented kernel bound. Skipped work
/// stays accounted: the pack's step counter and the runtime's policy-eval
/// clock are credited for every fast-forwarded tick
/// ([`Microcontroller::credit_skipped_steps`] /
/// [`SdbRuntime::note_fast_forward`]).
///
/// # Panics
///
/// Panics if the emulated hardware rejects a runtime push (fatal in
/// simulation, as in `run_trace`).
pub fn run_trace_soa(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    soa: &mut SoaCohort,
) -> (SimResult, u64) {
    let n = micro.battery_count();
    let start = micro.time_s();
    let (d0, cl0, ch0, u0, e0) = micro.energy_totals_j();
    let obs = runtime.observer().clone();

    let mut first_brownout = None;
    let mut battery_empty: Vec<Option<f64>> = vec![None; n];
    let mut hourly_loss = Vec::new();
    let mut hourly_load = Vec::new();
    let mut elapsed = 0.0f64;
    let mut ff_ticks = 0u64;

    let mut input = PolicyInput::from_micro(micro);

    let resampled = trace.resampled(opts.max_dt_s);
    let points = resampled.points();
    let mut i = 0usize;
    let mut run_end = 0usize;
    'outer: while i < points.len() {
        let p = &points[i];
        // Scalar sync tick: the same instruction sequence as `run_trace`.
        let report = {
            let _span = obs.span(SpanName::TraceStep);
            let _prof = sdb_prof::step(sdb_prof::Phase::SoaStep);
            input.refill_from_micro(micro);
            input.load_w = p.load_w;
            input.external_w = p.external_w;
            {
                let _prof = sdb_prof::sub(sdb_prof::Phase::RuntimeTick);
                runtime
                    .tick(micro, &input, p.dur_s)
                    .expect("runtime push rejected by emulated hardware");
            }
            micro.step(p.load_w, p.external_w, p.dur_s)
        };
        bucket(
            &mut hourly_loss,
            &mut hourly_load,
            elapsed,
            p.dur_s,
            report.circuit_loss_w + report.cell_heat_w,
            report.load_w,
        );
        elapsed += p.dur_s;
        for (ci, cell) in micro.cells().iter().enumerate() {
            if battery_empty[ci].is_none() && cell.is_empty() {
                battery_empty[ci] = Some(elapsed);
            }
        }
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.stop_on_brownout {
                break 'outer;
            }
        }
        i += 1;

        // Fast-forward: how many upcoming points replay this one exactly?
        if p.external_w != 0.0 {
            continue;
        }
        let run = replay_run(points, i, &mut run_end);
        if run < MIN_STRETCH_POINTS || !soa.try_enter(0, micro, &report, p.load_w, p.dur_s) {
            continue;
        }
        let mut remaining = u32::try_from(run).unwrap_or(u32::MAX);
        let mut skipped = 0u64;
        while remaining > 0 {
            let k = soa.max_ticks(0, p.load_w, p.dur_s).min(remaining);
            if k == 0 {
                break;
            }
            let totals = {
                let _prof = sdb_prof::step(sdb_prof::Phase::FastForward);
                soa.advance(0, p.load_w, p.dur_s, k)
            };
            let span_s = f64::from(k) * p.dur_s;
            bucket(
                &mut hourly_loss,
                &mut hourly_load,
                elapsed,
                span_s,
                (totals.circuit_loss_j + totals.cell_heat_j) / span_s,
                p.load_w,
            );
            elapsed += span_s;
            runtime.note_fast_forward(p.dur_s, u64::from(k));
            skipped += u64::from(k);
            remaining -= k;
            i += k as usize;
        }
        soa.exit(0, micro);
        if skipped > 0 {
            micro.credit_skipped_steps(skipped);
            ff_ticks += skipped;
        }
    }

    let (d1, cl1, ch1, u1, e1) = micro.energy_totals_j();
    let result = SimResult {
        simulated_s: micro.time_s() - start,
        supplied_j: d1 - d0,
        unmet_j: u1 - u0,
        circuit_loss_j: cl1 - cl0,
        cell_heat_j: ch1 - ch0,
        external_j: e1 - e0,
        first_brownout_s: first_brownout,
        battery_empty_s: battery_empty,
        hourly_loss_j: hourly_loss,
        hourly_load_j: hourly_load,
        final_soc: micro.cells().iter().map(|c| c.soc()).collect(),
    };
    (result, ff_ticks)
}

/// How many of `points[i..]` replay `points[i - 1]` exactly: same load
/// and step bits, no external power. `points[i - 1]` must carry no
/// external power, and `i` must grow from call to call. `run_end` keeps
/// the end of the last scan: every point before it replays the same
/// point, so a cursor short of it needs no rescan, and finding runs
/// costs O(points) per trace.
fn replay_run(points: &[TracePoint], i: usize, run_end: &mut usize) -> usize {
    if i >= *run_end {
        let p = &points[i - 1];
        *run_end = i + points[i..]
            .iter()
            .take_while(|q| {
                q.load_w.to_bits() == p.load_w.to_bits()
                    && q.external_w == 0.0
                    && q.dur_s.to_bits() == p.dur_s.to_bits()
            })
            .count();
    }
    *run_end - i
}

/// Apportions a constant-rate span across the hour buckets it straddles
/// (identical arithmetic to the scalar driver's inline loop).
fn bucket(
    hourly_loss: &mut Vec<f64>,
    hourly_load: &mut Vec<f64>,
    start_s: f64,
    dur_s: f64,
    loss_w: f64,
    load_w: f64,
) {
    let mut t = start_s;
    let mut remaining = dur_s;
    while remaining > 1e-9 {
        let hour = (t / 3600.0) as usize;
        let take = remaining.min((hour + 1) as f64 * 3600.0 - t);
        if hourly_loss.len() <= hour {
            hourly_loss.resize(hour + 1, 0.0);
            hourly_load.resize(hour + 1, 0.0);
        }
        hourly_loss[hour] += loss_w * take;
        hourly_load[hour] += load_w * take;
        t += take;
        remaining -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_fleet, run_fleet_with_engine};
    use crate::spec::{CohortSpec, PackTemplate, WorkloadSpec};
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_core::scheduler::run_trace;
    use sdb_emulator::profile::ProfileKind;
    use std::sync::Arc;

    fn idle_spec(devices: usize) -> FleetSpec {
        FleetSpec {
            devices,
            master_seed: 11,
            cohorts: vec![CohortSpec {
                name: "idle".to_owned(),
                weight: 1.0,
                pack: PackTemplate::new(vec![
                    (
                        BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                        0.9,
                        ProfileKind::Standard,
                    ),
                    (
                        BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                        0.8,
                        ProfileKind::Fast,
                    ),
                ]),
                workload: WorkloadSpec::Shared(Arc::new(Trace::constant(0.05, 4.0 * 3600.0))),
                policy: PolicySpec::Blend(0.5),
                update_period_s: 60.0,
            }],
            sim: SimOptions::default(),
        }
    }

    #[test]
    fn engine_kind_parses() {
        assert_eq!(EngineKind::parse("soa").unwrap(), EngineKind::Soa);
        assert_eq!(EngineKind::parse("scalar").unwrap(), EngineKind::Scalar);
        assert!(EngineKind::parse("warp").is_err());
        assert_eq!(EngineKind::Soa.name(), "soa");
    }

    #[test]
    fn soa_report_is_thread_invariant() {
        let spec = FleetSpec::default_population(16, 42).with_hours(3.0);
        let (r1, _) = run_fleet_with_engine(&spec, 1, EngineKind::Soa).unwrap();
        let (r4, _) = run_fleet_with_engine(&spec, 4, EngineKind::Soa).unwrap();
        assert_eq!(r1, r4);
        assert_eq!(r1.to_json(), r4.to_json());
    }

    #[test]
    fn soa_fast_forwards_idle_fleets() {
        let (_, stats) = run_fleet_with_engine(&idle_spec(6), 2, EngineKind::Soa).unwrap();
        let totals = stats.registry.counter_totals();
        let ff = totals
            .iter()
            .find(|(name, _)| name == "sdb_fleet_ff_ticks_total")
            .map_or(0, |(_, v)| *v);
        // 6 devices × 4 h × 60 s ticks = 1440 ticks; the bulk must have
        // been fast-forwarded for the engine to be worth anything.
        assert!(ff > 700, "fast-forwarded only {ff} of ~1440 ticks");
    }

    #[test]
    fn soa_matches_scalar_within_bounds() {
        let spec = idle_spec(5);
        let (scalar, _) = run_fleet(&spec, 2).unwrap();
        let (soa, _) = run_fleet_with_engine(&spec, 2, EngineKind::Soa).unwrap();
        assert_eq!(scalar.devices, soa.devices);
        assert_eq!(scalar.brownout_rate, soa.brownout_rate);
        // No brownout on an idle fleet: life equals the full span exactly.
        assert_eq!(scalar.life_s.mean.to_bits(), soa.life_s.mean.to_bits());
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1e-9);
        assert!(
            rel(scalar.supplied_j_total, soa.supplied_j_total) < 1e-2,
            "supplied {} vs {}",
            scalar.supplied_j_total,
            soa.supplied_j_total
        );
        assert!(
            (scalar.final_soc.mean - soa.final_soc.mean).abs() < 1e-3,
            "final soc {} vs {}",
            scalar.final_soc.mean,
            soa.final_soc.mean
        );
    }

    #[test]
    fn planner_cohorts_fall_back_to_scalar_bit_exactly() {
        let spec = FleetSpec {
            cohorts: vec![CohortSpec {
                policy: PolicySpec::Oracle,
                ..idle_spec(4).cohorts.remove(0)
            }],
            ..idle_spec(4)
        };
        let (scalar, _) = run_fleet(&spec, 2).unwrap();
        let (soa, _) = run_fleet_with_engine(&spec, 2, EngineKind::Soa).unwrap();
        // Fallback means the engines are the same code path: bit-identical.
        assert_eq!(scalar, soa);
        assert_eq!(scalar.to_json(), soa.to_json());
    }

    /// The reference run count: a fresh scan from every query.
    fn rescan_run(points: &[TracePoint], i: usize) -> usize {
        let p = &points[i - 1];
        points[i..]
            .iter()
            .take_while(|q| {
                q.load_w.to_bits() == p.load_w.to_bits()
                    && q.external_w == 0.0
                    && q.dur_s.to_bits() == p.dur_s.to_bits()
            })
            .count()
    }

    #[test]
    fn replay_run_matches_a_fresh_rescan_at_every_query() {
        sdb_testkit::check(512, 0x5db_f00d, |g| {
            let max_dt_s = g.pick(&[60.0, 45.0, 7.5]);
            // Few distinct loads, so adjacent segments often repeat one;
            // durations off the `max_dt_s` grid leave remainder pieces.
            let mut trace = Trace::new();
            for _ in 0..g.usize_range(1, 10) {
                let load_w = g.pick(&[0.05, 0.05, 0.3, 2.0]);
                let external_w = if g.chance(0.2) { 5.0 } else { 0.0 };
                let whole = g.usize_range(0, 120) as f64;
                let dur_s = whole * max_dt_s + g.f64_range(0.5, max_dt_s);
                trace.push(load_w, external_w, dur_s);
            }
            let resampled = trace.resampled(max_dt_s);
            let points = resampled.points();
            // Move the cursor as `run_trace_soa` does: one sync tick, a
            // query unless the point has external power, then a stretch
            // the classifier may refuse or a lane may leave mid-run.
            let mut run_end = 0;
            let mut i = 0;
            while i < points.len() {
                i += 1;
                if points[i - 1].external_w != 0.0 {
                    continue;
                }
                let run = replay_run(points, i, &mut run_end);
                assert_eq!(run, rescan_run(points, i), "query at {i}");
                if run >= MIN_STRETCH_POINTS && g.chance(0.8) {
                    i += if g.chance(0.5) {
                        run
                    } else {
                        g.usize_range(0, run)
                    };
                }
            }
        });
    }

    #[test]
    fn hybrid_driver_matches_run_trace_on_busy_traces() {
        // A trace that never qualifies for quiescence (heavy load) takes
        // the scalar tick path on every point: bit-identical results.
        let cohort = &idle_spec(1).cohorts[0];
        let trace = Trace::constant(8.0, 2.0 * 3600.0);
        let opts = SimOptions::default();

        let mut m1 = build_pack(cohort);
        let mut rt1 = SdbRuntime::new(2);
        rt1.set_discharge_directive(DischargeDirective::new(0.5));
        rt1.set_update_period(60.0);
        let full = run_trace(&mut m1, &mut rt1, &trace, &opts);

        let mut m2 = build_pack(cohort);
        let mut rt2 = SdbRuntime::new(2);
        rt2.set_discharge_directive(DischargeDirective::new(0.5));
        rt2.set_update_period(60.0);
        let mut soa = SoaCohort::new(&m2, 1, QuiescenceConfig::default());
        let (hybrid, ff) = run_trace_soa(&mut m2, &mut rt2, &trace, &opts, &mut soa);
        assert_eq!(ff, 0, "an 8 W load must never fast-forward");
        assert_eq!(full, hybrid);
    }
}
