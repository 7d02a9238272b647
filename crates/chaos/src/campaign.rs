//! Sharded chaos campaigns.
//!
//! A campaign runs `devices` independent chaos simulations — each a pure
//! function of `(spec, device index)`: the device's fault plan, link
//! fault RNG, and workload all derive from `derive_seed(master_seed,
//! device)`. Devices are spread over workers by
//! [`sdb_prof::shard_map`], which returns their outcomes in device order,
//! so the report — text and JSON — is byte-identical for any thread
//! count.

use crate::invariant::InvariantChecker;
use crate::plan::{FaultPlan, PlanExecutor, FAULT_CLASSES};
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::runtime::{ResilienceConfig, SdbRuntime};
use sdb_core::scheduler::{drive, Hooks, Linked, SimOptions, SimResult};
use sdb_emulator::link::Link;
use sdb_emulator::pack::PackBuilder;
use sdb_observe::{EventSink, MetricsRegistry, ObsEvent, Observer};
use sdb_rng::derive_seed;
use sdb_workloads::traces::Trace;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

/// Parameters of one chaos campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Independent devices to simulate.
    pub devices: usize,
    /// Master seed; every per-device seed derives from it.
    pub master_seed: u64,
    /// Fault intensity in `[0, 1]` (see [`FaultPlan::generate`]).
    pub intensity: f64,
    /// Simulated span per device, seconds.
    pub horizon_s: f64,
    /// Constant device load, watts.
    pub load_w: f64,
    /// Status heartbeat period over the link, seconds.
    pub status_period_s: f64,
    /// Graceful-degradation configuration for every device runtime.
    pub resilience: ResilienceConfig,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            devices: 50,
            master_seed: 0xC4A0_5EED,
            intensity: 0.7,
            horizon_s: 2.0 * 3600.0,
            load_w: 5.0,
            status_period_s: 30.0,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Per-device campaign result (pure function of `(spec, device)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Device index in `0..spec.devices`.
    pub device: u64,
    /// Fault activations over the run.
    pub faults_injected: u64,
    /// Activations per fault class ([`FAULT_CLASSES`] order).
    pub faults_per_class: [u64; FAULT_CLASSES.len()],
    /// Invariant violations observed.
    pub violation_count: u64,
    /// First violation, if any (for triage without re-running).
    pub first_violation: Option<String>,
    /// Whether load went unserved at any point.
    pub browned_out: bool,
    /// Unserved load energy, joules.
    pub unmet_j: f64,
    /// Mean final state of charge.
    pub mean_final_soc: f64,
    /// Watchdog engagements (link went dark and the runtime fell back).
    pub watchdog_engagements: u64,
    /// Command retries issued.
    pub command_retries: u64,
    /// Gauge-degraded flags raised.
    pub gauge_degradations: u64,
}

/// Event sink counting the runtime's resilience transitions.
#[derive(Debug, Default)]
struct ResilienceCounters {
    watchdog_engagements: u64,
    command_retries: u64,
    gauge_degradations: u64,
}

impl EventSink for ResilienceCounters {
    fn record(&mut self, _t_s: f64, event: &ObsEvent) {
        match event {
            ObsEvent::WatchdogTransition { engaged: true, .. } => self.watchdog_engagements += 1,
            ObsEvent::CommandRetry { .. } => self.command_retries += 1,
            ObsEvent::GaugeDegraded { degraded: true, .. } => self.gauge_degradations += 1,
            _ => {}
        }
    }
}

/// Builds and runs one chaos device. With `registry`, the device's
/// observer registers its counters there (shared across devices and
/// threads; atomic sums keep totals deterministic) for `--metrics-out`.
fn run_device(
    spec: &CampaignSpec,
    device: u64,
    registry: Option<&MetricsRegistry>,
) -> ChaosOutcome {
    let seed = derive_seed(spec.master_seed, device);
    let micro = PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "energy",
            Chemistry::Type2CoStandard,
            2.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "power",
            Chemistry::Type3CoPower,
            2.0,
        ))
        .build();
    let mut link = Link::ideal(micro);
    link.seed_faults(derive_seed(seed, 1));

    let counters = Arc::new(Mutex::new(ResilienceCounters::default()));
    let obs = match registry {
        Some(r) => Observer::with_registry(r.clone()),
        None => Observer::new(),
    };
    obs.add_sink(Box::new(Arc::clone(&counters)));
    link.micro_mut().set_observer(obs.clone());
    let mut runtime = SdbRuntime::new(2);
    runtime.set_observer(obs);
    runtime.enable_resilience(spec.resilience);

    let plan = FaultPlan::generate(derive_seed(seed, 2), spec.horizon_s, spec.intensity, 2);
    let mut exec = PlanExecutor::new(plan);
    let mut checker = InvariantChecker::for_micro(link.micro());

    let opts = SimOptions::default();
    let runs = Trace::constant(spec.load_w, spec.horizon_s).runs(opts.max_dt_s);
    let result: SimResult = drive(
        &mut Linked::new(&mut link, spec.status_period_s),
        &mut runtime,
        &runs,
        &opts,
        Hooks::default(),
        |t, l| exec.apply(t, l.link),
        |t, l, report| {
            checker.check_step(t, report);
            checker.check_micro(t, l.link.micro());
            ControlFlow::Continue(())
        },
    );

    let tally = checker.finish();
    let c = counters.lock().expect("counter lock");
    let n = result.final_soc.len().max(1) as f64;
    ChaosOutcome {
        device,
        faults_injected: exec.injected(),
        faults_per_class: exec.injected_per_class(),
        violation_count: tally.violation_count,
        first_violation: tally.violations.first().map(ToString::to_string),
        browned_out: result.first_brownout_s.is_some(),
        unmet_j: result.unmet_j,
        mean_final_soc: result.final_soc.iter().sum::<f64>() / n,
        watchdog_engagements: c.watchdog_engagements,
        command_retries: c.command_retries,
        gauge_degradations: c.gauge_degradations,
    }
}

/// Per-fault-class aggregate row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRow {
    /// Fault class name.
    pub class: &'static str,
    /// Total activations across the fleet.
    pub activations: u64,
    /// Devices that saw at least one activation of this class.
    pub devices_hit: u64,
    /// Invariant violations on devices hit by this class (a device with
    /// several fault classes counts toward each; see the report docs).
    pub violations: u64,
    /// Brownouts on devices hit by this class.
    pub brownouts: u64,
}

/// Aggregated campaign result. Everything in here is a deterministic
/// function of the [`CampaignSpec`], independent of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Devices simulated.
    pub devices: u64,
    /// The campaign's master seed.
    pub master_seed: u64,
    /// Fault intensity used.
    pub intensity: f64,
    /// Per-device horizon, seconds.
    pub horizon_s: f64,
    /// Total fault activations.
    pub total_faults: u64,
    /// Total invariant violations (should be zero).
    pub total_violations: u64,
    /// Devices that browned out.
    pub brownouts: u64,
    /// Total watchdog engagements.
    pub watchdog_engagements: u64,
    /// Total command retries.
    pub command_retries: u64,
    /// Total gauge-degraded flags raised.
    pub gauge_degradations: u64,
    /// Per-fault-class aggregates; violations/brownouts attribute a
    /// device's outcome to *every* class that hit it.
    pub per_class: Vec<ClassRow>,
    /// Per-device outcomes, sorted by device index.
    pub outcomes: Vec<ChaosOutcome>,
}

impl CampaignReport {
    fn from_outcomes(spec: &CampaignSpec, outcomes: Vec<ChaosOutcome>) -> Self {
        let mut per_class: Vec<ClassRow> = FAULT_CLASSES
            .iter()
            .map(|class| ClassRow {
                class,
                activations: 0,
                devices_hit: 0,
                violations: 0,
                brownouts: 0,
            })
            .collect();
        let mut total_faults = 0;
        let mut total_violations = 0;
        let mut brownouts = 0;
        let mut watchdog_engagements = 0;
        let mut command_retries = 0;
        let mut gauge_degradations = 0;
        for o in &outcomes {
            total_faults += o.faults_injected;
            total_violations += o.violation_count;
            brownouts += u64::from(o.browned_out);
            watchdog_engagements += o.watchdog_engagements;
            command_retries += o.command_retries;
            gauge_degradations += o.gauge_degradations;
            for (row, &hits) in per_class.iter_mut().zip(&o.faults_per_class) {
                row.activations += hits;
                if hits > 0 {
                    row.devices_hit += 1;
                    row.violations += o.violation_count;
                    row.brownouts += u64::from(o.browned_out);
                }
            }
        }
        Self {
            devices: outcomes.len() as u64,
            master_seed: spec.master_seed,
            intensity: spec.intensity,
            horizon_s: spec.horizon_s,
            total_faults,
            total_violations,
            brownouts,
            watchdog_engagements,
            command_retries,
            gauge_degradations,
            per_class,
            outcomes,
        }
    }

    /// Fixed-format text rendering (byte-identical across thread counts).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos campaign: {} devices, seed {:#x}, intensity {:.2}, horizon {:.0} s",
            self.devices, self.master_seed, self.intensity, self.horizon_s
        );
        let _ = writeln!(
            s,
            "faults injected: {}   invariant violations: {}   brownouts: {}",
            self.total_faults, self.total_violations, self.brownouts
        );
        let _ = writeln!(
            s,
            "watchdog engagements: {}   command retries: {}   gauge degradations: {}",
            self.watchdog_engagements, self.command_retries, self.gauge_degradations
        );
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>8} {:>11} {:>10}",
            "fault class", "events", "devices", "violations", "brownouts"
        );
        for row in &self.per_class {
            let _ = writeln!(
                s,
                "{:<20} {:>8} {:>8} {:>11} {:>10}",
                row.class, row.activations, row.devices_hit, row.violations, row.brownouts
            );
        }
        if self.total_violations > 0 {
            let _ = writeln!(s);
            let _ = writeln!(s, "first violations:");
            for o in self
                .outcomes
                .iter()
                .filter(|o| o.violation_count > 0)
                .take(10)
            {
                if let Some(v) = &o.first_violation {
                    let _ = writeln!(s, "  device {}: {}", o.device, v);
                }
            }
        }
        s
    }

    /// Deterministic JSON rendering (summary plus per-class table).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"devices\":{},\"master_seed\":{},\"intensity\":{},\"horizon_s\":{},\
             \"total_faults\":{},\"total_violations\":{},\"brownouts\":{},\
             \"watchdog_engagements\":{},\"command_retries\":{},\"gauge_degradations\":{},\
             \"per_class\":[",
            self.devices,
            self.master_seed,
            self.intensity,
            self.horizon_s,
            self.total_faults,
            self.total_violations,
            self.brownouts,
            self.watchdog_engagements,
            self.command_retries,
            self.gauge_degradations
        );
        for (i, row) in self.per_class.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"class\":\"{}\",\"events\":{},\"devices\":{},\"violations\":{},\"brownouts\":{}}}",
                row.class, row.activations, row.devices_hit, row.violations, row.brownouts
            );
        }
        s.push_str("]}");
        s
    }
}

/// Runs the campaign on [`sdb_prof::shard_map`] across `threads`
/// workers. With a `registry`, every device observer registers into it,
/// so campaign counters (fault injections via events, span timings,
/// `sdb_dropped_events_total` from any attached recorder) land in one
/// registry. Counter totals are commutative atomic sums,
/// so the [`CampaignReport`] stays byte-identical at any thread count
/// either way.
///
/// # Errors
///
/// Returns an error for an empty campaign, invalid intensity/horizon, or
/// if a worker panicked.
pub fn run_campaign(
    spec: &CampaignSpec,
    threads: usize,
    registry: Option<&MetricsRegistry>,
) -> Result<CampaignReport, String> {
    if spec.devices == 0 {
        return Err("campaign needs at least one device".to_owned());
    }
    if !(0.0..=1.0).contains(&spec.intensity) {
        return Err(format!("intensity {} outside [0, 1]", spec.intensity));
    }
    if spec.horizon_s <= 0.0 || spec.horizon_s.is_nan() {
        return Err(format!("horizon {} s must be positive", spec.horizon_s));
    }
    let prof_run = sdb_prof::scope(sdb_prof::Phase::ChaosRun);
    let (_, outcomes) = sdb_prof::shard_map(
        threads,
        spec.devices,
        |_| sdb_prof::enabled().then(|| sdb_prof::cohort_id("chaos")),
        |prof_cohort, i| {
            let _prof_dev = sdb_prof::device_scope(prof_cohort.unwrap_or(0));
            Ok(run_device(spec, i as u64, registry))
        },
    )?;
    let report = CampaignReport::from_outcomes(spec, outcomes);
    drop(prof_run);
    if sdb_prof::enabled() {
        sdb_prof::flush_thread();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignSpec {
        CampaignSpec {
            devices: 6,
            horizon_s: 1800.0,
            intensity: 1.0,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let spec = tiny();
        let r1 = run_campaign(&spec, 1, None).unwrap();
        let r3 = run_campaign(&spec, 3, None).unwrap();
        assert_eq!(r1, r3);
        assert_eq!(r1.render_text(), r3.render_text());
        assert_eq!(r1.to_json(), r3.to_json());
    }

    #[test]
    fn campaign_injects_faults_and_upholds_invariants() {
        let report = run_campaign(&tiny(), 2, None).unwrap();
        assert_eq!(report.devices, 6);
        assert!(report.total_faults > 0, "full intensity must inject");
        assert_eq!(
            report.total_violations,
            0,
            "invariants must hold under chaos:\n{}",
            report.render_text()
        );
        let table_events: u64 = report.per_class.iter().map(|r| r.activations).sum();
        assert_eq!(table_events, report.total_faults);
    }

    #[test]
    fn observed_campaign_matches_and_populates_the_registry() {
        let spec = tiny();
        let plain = run_campaign(&spec, 2, None).unwrap();
        let registry = MetricsRegistry::new();
        let observed = run_campaign(&spec, 2, Some(&registry)).unwrap();
        assert_eq!(plain, observed);
        assert_eq!(plain.to_json(), observed.to_json());
        // The shared registry accumulated counters across all devices.
        let totals = registry.counter_totals();
        assert!(
            !totals.is_empty(),
            "observed campaign should register counters"
        );
        // Counter totals are thread-count invariant too.
        let reg1 = MetricsRegistry::new();
        run_campaign(&spec, 1, Some(&reg1)).unwrap();
        assert_eq!(reg1.counter_totals(), registry.counter_totals());
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = tiny();
        s.devices = 0;
        assert!(run_campaign(&s, 1, None).is_err());
        let mut s = tiny();
        s.intensity = 1.5;
        assert!(run_campaign(&s, 1, None).is_err());
    }
}
