//! The fleet workloads and their traced path.
//!
//! The untraced call is what `sdb fleet` runs:
//! `run_fleet_with_engine` and [`FleetReport::to_json`]. The traced
//! path drives the same population one device at a time on one shard,
//! issuing the library loop's public calls in its documented order
//! (resample, then per point: plan, `tick`, `step`) with a span around
//! each, and must reproduce the untraced report byte for byte.

use crate::spans::{Name, Recorder};
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::metrics::{ccb, wear_ratios};
use sdb_core::policy::{DischargeDirective, PolicyInput, PreservePolicy};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::SimOptions;
use sdb_core::LookaheadPolicy;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_fleet::spec::{CohortSpec, FleetSpec, PackTemplate, PolicySpec, WorkloadSpec};
use sdb_fleet::{DeviceOutcome, EngineKind, FleetReport};
use sdb_observe::{MetricsRegistry, Observer, SpanName};
use sdb_policy::{HistoryForecaster, Planner, PlannerConfig};
use sdb_rng::{derive_seed, DetRng};
use sdb_workloads::traces::Trace;
use std::sync::Arc;

/// Devices per `fleet-day` call.
pub const DAY_DEVICES: usize = 256;
/// Devices per `fleet-planned` call.
pub const PLANNED_DEVICES: usize = 8;
/// Devices per `fleet-standby-soa` call.
pub const STANDBY_DEVICES: usize = 1024;
/// Cohorts in the seed-drawn standby population.
const STANDBY_COHORTS: usize = 128;

/// `sdb fleet --policy planned`: 8 h horizon, 30 min re-plan.
pub const PLANNED: PolicySpec = PolicySpec::Planned {
    horizon_s: 8.0 * 3600.0,
    replan_s: 1800.0,
};

// Mirrors of the fleet engine's private constants (planner history
// warm-up and the SoA stretch threshold). The byte-identity check
// between traced and untraced reports fails if they drift.
const PLANNER_HISTORY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const PLANNER_HISTORY_DAYS: u64 = 7;
const MIN_STRETCH_POINTS: usize = 4;

/// One fleet workload instance: the specs a timed call runs.
pub struct FleetBench {
    /// The population, as one or more specs run back to back.
    pub parts: Vec<FleetSpec>,
    /// Scalar or SoA engine.
    pub engine: EngineKind,
    /// Simulated device-hours one call completes.
    pub sim_hours: f64,
}

impl FleetBench {
    /// Wraps the specs, validating them and generating every device's
    /// trace once to count the simulated device-hours exactly.
    ///
    /// # Errors
    ///
    /// Returns the first spec validation error.
    pub fn new(parts: Vec<FleetSpec>, engine: EngineKind) -> Result<Self, String> {
        let mut sim_s = 0.0;
        for spec in &parts {
            spec.validate()?;
            sim_s += (0..spec.devices as u64)
                .map(|d| {
                    let cohort = &spec.cohorts[spec.cohort_of(d)];
                    cohort.workload.build(spec.device_seed(d)).duration_s()
                })
                .sum::<f64>();
        }
        Ok(Self {
            parts,
            engine,
            sim_hours: sim_s / 3600.0,
        })
    }

    /// Devices one call simulates.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.parts.iter().map(|p| p.devices).sum()
    }
}

/// Splits a population into one single-cohort spec per cohort, with
/// device counts in exact proportion to the cohort weights (largest
/// remainder) and each part seeded from the master seed. A plain spec
/// draws each device's cohort at random, so a fleet of a few devices
/// would change its cohort mix — and so its cost per simulated hour —
/// with the seed; the split keeps the mix fixed and leaves the seed to
/// draw each device's day.
#[must_use]
pub fn stratify(spec: &FleetSpec) -> Vec<FleetSpec> {
    let total: f64 = spec.cohorts.iter().map(|c| c.weight).sum();
    let exact: Vec<f64> = spec
        .cohorts
        .iter()
        .map(|c| c.weight / total * spec.devices as f64)
        .collect();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..exact.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = spec.devices - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    spec.cohorts
        .iter()
        .zip(counts)
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(i, (cohort, devices))| FleetSpec {
            devices,
            master_seed: derive_seed(spec.master_seed, i as u64),
            cohorts: vec![cohort.clone()],
            sim: spec.sim,
        })
        .collect()
}

/// `sdb fleet` defaults: the three-cohort default population, 24 h, as
/// one spec.
#[must_use]
pub fn day_spec(seed: u64, devices: usize) -> Vec<FleetSpec> {
    vec![FleetSpec::default_population(devices, seed)]
}

/// The default population under the lookahead planner, split per cohort.
#[must_use]
pub fn planned_spec(seed: u64, devices: usize) -> Vec<FleetSpec> {
    stratify(&FleetSpec::default_population(devices, seed).with_policy(PLANNED))
}

/// A seed-drawn standby population: two-cell hybrid packs at drawn
/// initial SoC, each cohort holding a drawn constant trickle of tens of
/// mW for 24 h on a trace shared by the whole cohort.
#[must_use]
pub fn standby_spec(seed: u64, devices: usize) -> Vec<FleetSpec> {
    const PAIRS: [(Chemistry, Chemistry); 4] = [
        (Chemistry::Type2CoStandard, Chemistry::Type3CoPower),
        (Chemistry::Type1LfpPower, Chemistry::Type3CoPower),
        (Chemistry::OtherNmc, Chemistry::OtherLto),
        (Chemistry::Type2CoStandard, Chemistry::Type4Bendable),
    ];
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED_57A9_DB1E_0000);
    let cohorts = (0..STANDBY_COHORTS)
        .map(|i| {
            let (a, b) = PAIRS[rng.index(PAIRS.len())];
            let load_w = rng.f64_range(0.02, 0.08);
            CohortSpec {
                name: format!("standby-{i}"),
                weight: 1.0,
                pack: PackTemplate::new(vec![
                    (
                        BatterySpec::from_chemistry("a", a, rng.f64_range(1.5, 3.0)),
                        rng.f64_range(0.6, 1.0),
                        ProfileKind::Standard,
                    ),
                    (
                        BatterySpec::from_chemistry("b", b, rng.f64_range(1.5, 3.0)),
                        rng.f64_range(0.6, 1.0),
                        ProfileKind::Fast,
                    ),
                ]),
                workload: WorkloadSpec::Shared(Arc::new(Trace::constant(load_w, 24.0 * 3600.0))),
                policy: PolicySpec::Blend(rng.f64_range(0.0, 1.0)),
                update_period_s: 60.0,
            }
        })
        .collect();
    vec![FleetSpec {
        devices,
        master_seed: seed,
        cohorts,
        sim: SimOptions::default(),
    }]
}

/// What the traced path learns beyond the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedFacts {
    /// `plan()` invocations.
    pub plan_calls: u64,
    /// `plan()` invocations that committed a plan.
    pub plan_commits: u64,
    /// Ticks fast-forwarded by the SoA lanes.
    pub ff_ticks: u64,
    /// Scalar ticks (every tick that was not fast-forwarded).
    pub scalar_ticks: u64,
    /// Simulated seconds summed over devices.
    pub simulated_s: f64,
}

/// Runs `bench` one device at a time on a single shard with spans
/// around every public call. Returns the report JSON (each part's
/// rendering, one per line, as the untraced call joins them) and the
/// facts. Spans carry a device index running across the parts.
#[must_use]
pub fn run_traced(bench: &FleetBench, rec: &mut Recorder) -> (String, TracedFacts) {
    let mut facts = TracedFacts::default();
    let mut jsons = Vec::with_capacity(bench.parts.len());
    let mut first_device = 0u64;
    for spec in &bench.parts {
        let obs = Observer::new();
        let devices_done = obs
            .registry()
            .expect("fresh observer has a registry")
            .counter("sdb_fleet_devices_total", &[]);
        let mut lanes: Vec<Option<Option<SoaCohort>>> =
            (0..spec.cohorts.len()).map(|_| None).collect();
        let mut outcomes = Vec::with_capacity(spec.devices);
        for device in 0..spec.devices as u64 {
            rec.set_device(first_device + device);
            obs.set_clock(0.0);
            let span = obs.span(SpanName::FleetDevice);
            rec.open(Name::FleetDevice);
            let outcome = traced_device(
                spec,
                bench.engine,
                device,
                &obs,
                &mut lanes,
                rec,
                &mut facts,
            );
            rec.close();
            drop(span);
            outcomes.push(outcome);
            devices_done.inc();
        }
        first_device += spec.devices as u64;
        rec.set_device(u64::MAX);
        let report = rec.time(Name::ReportMerge, || {
            let merged = MetricsRegistry::new();
            merged.merge_from(obs.registry().expect("enabled observer"));
            FleetReport::from_outcomes(spec, &outcomes, &merged)
        });
        jsons.push(rec.time(Name::FleetRender, || report.to_json()));
    }
    (jsons.join("\n"), facts)
}

/// `PackBuilder::build` of a pack template, as the fleet and campaign
/// engines build each device's pack.
#[must_use]
pub fn build_pack(template: &PackTemplate) -> Microcontroller {
    let mut pack = PackBuilder::new();
    for slot in &template.batteries {
        pack = pack.battery_at(slot.spec.clone(), slot.initial_soc, slot.profile);
    }
    pack.build()
}

/// The cohort's SoA lane, or `None` when the engine would run it scalar
/// (scalar engine, planner policies, thermal packs).
fn lane<'a>(
    spec: &FleetSpec,
    engine: EngineKind,
    lanes: &'a mut [Option<Option<SoaCohort>>],
    idx: usize,
) -> Option<&'a mut SoaCohort> {
    if engine != EngineKind::Soa {
        return None;
    }
    let cohort = &spec.cohorts[idx];
    lanes[idx]
        .get_or_insert_with(|| {
            let greedy = matches!(
                cohort.policy,
                PolicySpec::Blend(_) | PolicySpec::Preserve { .. }
            );
            let template = build_pack(&cohort.pack);
            let thermal = template.cells().iter().any(|c| c.temperature_c().is_some());
            (greedy && !thermal).then(|| SoaCohort::new(&template, 1, QuiescenceConfig::default()))
        })
        .as_mut()
}

fn traced_device(
    spec: &FleetSpec,
    engine: EngineKind,
    device: u64,
    obs: &Observer,
    lanes: &mut [Option<Option<SoaCohort>>],
    rec: &mut Recorder,
    facts: &mut TracedFacts,
) -> DeviceOutcome {
    let cohort_idx = spec.cohort_of(device);
    let cohort = &spec.cohorts[cohort_idx];
    let seed = spec.device_seed(device);

    let mut micro = rec.time(Name::PackBuild, || build_pack(&cohort.pack));
    micro.set_observer(obs.clone());
    let mut runtime = SdbRuntime::new(micro.battery_count());
    runtime.set_observer(obs.clone());
    runtime.set_update_period(cohort.update_period_s);
    let trace = rec.time(Name::TraceBuild, || cohort.workload.build(seed));

    let mut planner = match cohort.policy {
        PolicySpec::Blend(v) => {
            runtime.set_discharge_directive(DischargeDirective::new(v));
            None
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
            None
        }
        PolicySpec::Planned {
            horizon_s,
            replan_s,
        } => {
            rec.open(Name::ForecasterBuild);
            let history: Vec<Arc<Trace>> = (1..=PLANNER_HISTORY_DAYS)
                .map(|k| {
                    let day_seed = seed.wrapping_add(k.wrapping_mul(PLANNER_HISTORY_SALT));
                    rec.time(Name::TraceBuild, || cohort.workload.build(day_seed))
                })
                .collect();
            let forecaster = HistoryForecaster::from_history(history.iter().map(Arc::as_ref), 0.3);
            rec.close();
            let cfg = PlannerConfig {
                horizon_s,
                replan_period_s: replan_s,
                update_period_s: cohort.update_period_s,
                ..PlannerConfig::default()
            };
            Some(Planner::new(cfg, Box::new(forecaster)))
        }
        PolicySpec::Oracle => {
            let cfg = PlannerConfig {
                candidates: 17,
                update_period_s: cohort.update_period_s,
                ..PlannerConfig::default()
            };
            Some(Planner::oracle(cfg, Arc::clone(&trace)))
        }
    };

    let ff_before = facts.ff_ticks;
    rec.open(Name::Scheduler);
    let start = micro.time_s();
    let (d0, cl0, ch0, u0, _) = micro.energy_totals_j();
    let first_brownout = match lane(spec, engine, lanes, cohort_idx) {
        Some(soa) => drive_soa(&mut micro, &mut runtime, &trace, &spec.sim, soa, rec, facts),
        None => drive_scalar(
            &mut micro,
            &mut runtime,
            &trace,
            &spec.sim,
            planner.as_mut(),
            rec,
            facts,
        ),
    };
    rec.close();
    let ff_ticks = facts.ff_ticks - ff_before;
    if ff_ticks > 0 {
        if let Some(reg) = obs.registry() {
            reg.counter("sdb_fleet_ff_ticks_total", &[]).add(ff_ticks);
        }
    }

    // The fleet engine's outcome fold.
    let (d1, cl1, ch1, u1, _) = micro.energy_totals_j();
    let simulated_s = micro.time_s() - start;
    facts.simulated_s += simulated_s;
    let statuses = micro.query_battery_status();
    let cycle_counts: Vec<u32> = statuses.iter().map(|s| s.cycle_count).collect();
    let specs: Vec<&BatterySpec> = micro.cells().iter().map(|c| c.spec()).collect();
    let wear = wear_ratios(&cycle_counts, &specs);
    let final_soc: Vec<f64> = micro.cells().iter().map(|c| c.soc()).collect();
    let n = final_soc.len().max(1) as f64;
    DeviceOutcome {
        device,
        cohort: cohort_idx,
        life_s: first_brownout.unwrap_or(simulated_s),
        browned_out: first_brownout.is_some(),
        simulated_s,
        supplied_j: d1 - d0,
        unmet_j: u1 - u0,
        circuit_loss_j: cl1 - cl0,
        cell_heat_j: ch1 - ch0,
        wear_ccb: ccb(&wear),
        mean_final_soc: final_soc.iter().sum::<f64>() / n,
    }
}

/// The scalar scheduler loop (`run_trace` / `run_trace_planned`), one
/// span per public call. Returns the first brownout time.
fn drive_scalar(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    mut planner: Option<&mut Planner>,
    rec: &mut Recorder,
    facts: &mut TracedFacts,
) -> Option<f64> {
    let obs = runtime.observer().clone();
    let resampled = rec.time(Name::Resample, || trace.resampled(opts.max_dt_s));
    let mut first_brownout = None;
    let mut elapsed = 0.0f64;
    for p in resampled.points() {
        let _span = obs.span(SpanName::TraceStep);
        let input = PolicyInput::from_micro(micro)
            .with_load(p.load_w)
            .with_external(p.external_w);
        if let Some(planner) = planner.as_deref_mut() {
            rec.open(Name::Plan);
            facts.plan_calls += 1;
            if let Some(plan) = planner.plan(elapsed, micro, &input) {
                facts.plan_commits += 1;
                runtime.commit_plan(&plan);
            }
            rec.close();
        }
        rec.open(Name::RuntimeTick);
        runtime
            .tick(micro, &input, p.dur_s)
            .expect("runtime push rejected by emulated hardware");
        rec.close();
        let report = rec.time(Name::MicroStep, || {
            micro.step(p.load_w, p.external_w, p.dur_s)
        });
        facts.scalar_ticks += 1;
        if let Some(planner) = planner.as_deref_mut() {
            planner.observe_step(elapsed + p.dur_s, p.dur_s, p.load_w);
        }
        elapsed += p.dur_s;
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.stop_on_brownout {
                break;
            }
        }
    }
    first_brownout
}

/// The hybrid SoA loop (`run_trace_soa`): scalar sync ticks, then
/// fast-forward over runs of identical quiescent points.
fn drive_soa(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    soa: &mut SoaCohort,
    rec: &mut Recorder,
    facts: &mut TracedFacts,
) -> Option<f64> {
    let obs = runtime.observer().clone();
    let resampled = rec.time(Name::Resample, || trace.resampled(opts.max_dt_s));
    let points = resampled.points();
    let mut first_brownout = None;
    let mut elapsed = 0.0f64;
    let mut i = 0usize;
    while i < points.len() {
        let p = &points[i];
        let report = {
            let _span = obs.span(SpanName::TraceStep);
            let input = PolicyInput::from_micro(micro)
                .with_load(p.load_w)
                .with_external(p.external_w);
            rec.open(Name::RuntimeTick);
            runtime
                .tick(micro, &input, p.dur_s)
                .expect("runtime push rejected by emulated hardware");
            rec.close();
            rec.time(Name::MicroStep, || {
                micro.step(p.load_w, p.external_w, p.dur_s)
            })
        };
        facts.scalar_ticks += 1;
        elapsed += p.dur_s;
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.stop_on_brownout {
                break;
            }
        }
        i += 1;

        if p.external_w != 0.0 {
            continue;
        }
        let run = points[i..]
            .iter()
            .take_while(|q| {
                q.load_w.to_bits() == p.load_w.to_bits()
                    && q.external_w == 0.0
                    && q.dur_s.to_bits() == p.dur_s.to_bits()
            })
            .count();
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
            rec.time(Name::FastForward, || soa.advance(0, p.load_w, p.dur_s, k));
            elapsed += f64::from(k) * p.dur_s;
            runtime.note_fast_forward(p.dur_s, u64::from(k));
            skipped += u64::from(k);
            remaining -= k;
            i += k as usize;
        }
        soa.exit(0, micro);
        if skipped > 0 {
            micro.credit_skipped_steps(skipped);
            facts.ff_ticks += skipped;
        }
    }
    first_brownout
}

/// Scalar-reference numbers a SoA report must stay within the
/// documented bounds of (DESIGN.md §14): equal brownout rate and
/// bit-equal mean life on non-depleting standby, supplied energy within
/// 1 % relative, mean final SoC within 1e-3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarReference {
    /// Mean battery life, seconds.
    pub life_mean_s: f64,
    /// Fraction of devices that browned out.
    pub brownout_rate: f64,
    /// Total delivered energy, joules.
    pub supplied_j: f64,
    /// Mean of per-device mean final SoC.
    pub final_soc_mean: f64,
}

impl ScalarReference {
    /// The reference numbers of a scalar report.
    #[must_use]
    pub fn of(report: &FleetReport) -> Self {
        Self {
            life_mean_s: report.life_s.mean,
            brownout_rate: report.brownout_rate,
            supplied_j: report.supplied_j_total,
            final_soc_mean: report.final_soc.mean,
        }
    }

    /// Whether a SoA report is within bounds; `Err` names the first
    /// violated bound.
    ///
    /// # Errors
    ///
    /// Returns which bound the report violates.
    pub fn check(&self, soa: &FleetReport) -> Result<(), String> {
        if soa.brownout_rate != self.brownout_rate {
            return Err(format!(
                "brownout rate {} vs scalar {}",
                soa.brownout_rate, self.brownout_rate
            ));
        }
        if soa.life_s.mean.to_bits() != self.life_mean_s.to_bits() {
            return Err(format!(
                "mean life {} vs scalar {}",
                soa.life_s.mean, self.life_mean_s
            ));
        }
        let rel = ((soa.supplied_j_total - self.supplied_j) / self.supplied_j).abs();
        if rel.is_nan() || rel > 1e-2 {
            return Err(format!("supplied energy drift {rel} > 1e-2"));
        }
        let soc = (soa.final_soc.mean - self.final_soc_mean).abs();
        if soc.is_nan() || soc > 1e-3 {
            return Err(format!("final SoC drift {soc} > 1e-3"));
        }
        Ok(())
    }
}
