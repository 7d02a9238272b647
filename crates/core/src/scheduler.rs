//! Simulation driver: runtime + emulator + workload traces.
//!
//! This is the equivalent of the paper's emulator harness (Section 4.3):
//! measured power traces are fed into the battery emulation while the SDB
//! Runtime adjusts ratios, and the driver books energy, losses, and
//! depletion times for the Section 5 analyses.

use crate::lookahead::LookaheadPolicy;
use crate::policy::PolicyInput;
use crate::runtime::SdbRuntime;
use sdb_emulator::link::{Command, Link};
use sdb_emulator::micro::Microcontroller;
use sdb_workloads::traces::{Trace, TracePoint};

/// Options for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Maximum simulation step, seconds.
    pub max_dt_s: f64,
    /// Stop as soon as load goes unserved.
    pub stop_on_brownout: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_dt_s: 60.0,
            stop_on_brownout: false,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Wall-clock simulated, seconds.
    pub simulated_s: f64,
    /// Energy delivered to the load, joules.
    pub supplied_j: f64,
    /// Load energy that went unserved, joules.
    pub unmet_j: f64,
    /// Circuit losses, joules.
    pub circuit_loss_j: f64,
    /// Cell resistive heat, joules.
    pub cell_heat_j: f64,
    /// External energy consumed, joules.
    pub external_j: f64,
    /// Time of first unserved load, if any, seconds.
    pub first_brownout_s: Option<f64>,
    /// Per-battery time of first emptiness, seconds.
    pub battery_empty_s: Vec<Option<f64>>,
    /// Per-hour total losses (circuit + cell heat), joules.
    pub hourly_loss_j: Vec<f64>,
    /// Per-hour load energy, joules.
    pub hourly_load_j: Vec<f64>,
    /// Final per-battery SoC.
    pub final_soc: Vec<f64>,
}

impl SimResult {
    /// Total losses, joules.
    #[must_use]
    pub fn total_loss_j(&self) -> f64 {
        self.circuit_loss_j + self.cell_heat_j
    }

    /// Effective battery life: time until the first brownout, or the full
    /// simulated span if the load was always served, seconds.
    #[must_use]
    pub fn battery_life_s(&self) -> f64 {
        self.first_brownout_s.unwrap_or(self.simulated_s)
    }
}

/// Runs `trace` against the pack, letting `runtime` steer the ratios.
#[must_use]
pub fn run_trace(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
) -> SimResult {
    run_trace_observed(micro, runtime, trace, opts, |_, _| {})
}

/// As [`run_trace`], additionally invoking `observer` after every step
/// with the elapsed time and the step report (telemetry capture, live
/// plotting, custom bookkeeping).
pub fn run_trace_observed<F>(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    observer: F,
) -> SimResult
where
    F: FnMut(f64, &sdb_emulator::micro::StepReport),
{
    run_trace_inner(micro, runtime, trace, opts, None, observer)
}

/// As [`run_trace`], with a [`LookaheadPolicy`] in the loop: before every
/// trace point the policy may commit a [`crate::lookahead::PlanUpdate`]
/// (applied via [`SdbRuntime::commit_plan`], which forces the runtime to
/// re-evaluate immediately), and after every step the realized load is
/// fed back through [`LookaheadPolicy::observe_step`]. With a policy that
/// never plans this is byte-identical to [`run_trace`].
#[must_use]
pub fn run_trace_planned(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    policy: &mut dyn LookaheadPolicy,
) -> SimResult {
    run_trace_inner(micro, runtime, trace, opts, Some(policy), |_, _| {})
}

/// Shared driver body: the greedy path (`policy == None`) executes exactly
/// the instruction sequence the pre-planner driver did, preserving
/// bit-identical results for every existing caller.
fn run_trace_inner<F>(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    mut policy: Option<&mut dyn LookaheadPolicy>,
    mut observer: F,
) -> SimResult
where
    F: FnMut(f64, &sdb_emulator::micro::StepReport),
{
    let n = micro.battery_count();
    let start = micro.time_s();
    let (d0, cl0, ch0, u0, e0) = micro.energy_totals_j();
    // Clone of the runtime's observer handle for span timing (shares the
    // same registry; cheap `Option<Arc>` clone).
    let obs = runtime.observer().clone();

    let mut first_brownout = None;
    let mut battery_empty: Vec<Option<f64>> = vec![None; n];
    let mut hourly_loss = Vec::new();
    let mut hourly_load = Vec::new();
    let mut elapsed = 0.0f64;

    // One policy-input buffer per run, refilled in place every step.
    let mut input = PolicyInput::from_micro(micro);

    let resampled = trace.resampled(opts.max_dt_s);
    'outer: for p in resampled.points() {
        let _span = obs.span(sdb_observe::SpanName::TraceStep);
        // The scheduler step is the profiler's sampling gate: it advances
        // the per-device tick, and the plan/tick sub-phases plus the
        // nested micro step inherit its hot/cold decision.
        let _prof = sdb_prof::step(sdb_prof::Phase::TraceStep);
        input.refill_from_micro(micro);
        input.load_w = p.load_w;
        input.external_w = p.external_w;
        if let Some(policy) = policy.as_deref_mut() {
            let _prof = sdb_prof::sub(sdb_prof::Phase::PolicyPlan);
            if let Some(plan) = policy.plan(elapsed, micro, &input) {
                runtime.commit_plan(&plan);
            }
        }
        {
            // Runtime failures (hardware rejection) are fatal in
            // simulation.
            let _prof = sdb_prof::sub(sdb_prof::Phase::RuntimeTick);
            runtime
                .tick(micro, &input, p.dur_s)
                .expect("runtime push rejected by emulated hardware");
        }
        let report = micro.step(p.load_w, p.external_w, p.dur_s);
        if let Some(policy) = policy.as_deref_mut() {
            policy.observe_step(elapsed + p.dur_s, p.dur_s, p.load_w);
        }

        // Apportion the step's energy across hour buckets it straddles.
        let loss_w = report.circuit_loss_w + report.cell_heat_w;
        let mut t = elapsed;
        let mut remaining = p.dur_s;
        while remaining > 1e-9 {
            let hour = (t / 3600.0) as usize;
            let take = remaining.min((hour + 1) as f64 * 3600.0 - t);
            if hourly_loss.len() <= hour {
                hourly_loss.resize(hour + 1, 0.0);
                hourly_load.resize(hour + 1, 0.0);
            }
            hourly_loss[hour] += loss_w * take;
            hourly_load[hour] += report.load_w * take;
            t += take;
            remaining -= take;
        }

        elapsed += p.dur_s;
        observer(elapsed, &report);
        for (i, cell) in micro.cells().iter().enumerate() {
            if battery_empty[i].is_none() && cell.is_empty() {
                battery_empty[i] = Some(elapsed);
            }
        }
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.stop_on_brownout {
                break 'outer;
            }
        }
    }

    let (d1, cl1, ch1, u1, e1) = micro.energy_totals_j();
    SimResult {
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
    }
}

/// The scalar subset of [`SimResult`] that rollout scoring consumes —
/// `Copy`, so [`run_trace_prepared`] returns without heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreparedResult {
    /// Wall-clock simulated, seconds.
    pub simulated_s: f64,
    /// Energy delivered to the load, joules.
    pub supplied_j: f64,
    /// Load energy that went unserved, joules.
    pub unmet_j: f64,
    /// Circuit losses, joules.
    pub circuit_loss_j: f64,
    /// Cell resistive heat, joules.
    pub cell_heat_j: f64,
    /// External energy consumed, joules.
    pub external_j: f64,
    /// Time of first unserved load, if any, seconds.
    pub first_brownout_s: Option<f64>,
}

impl PreparedResult {
    /// Total losses, joules.
    #[must_use]
    pub fn total_loss_j(&self) -> f64 {
        self.circuit_loss_j + self.cell_heat_j
    }

    /// As [`SimResult::battery_life_s`].
    #[must_use]
    pub fn battery_life_s(&self) -> f64 {
        self.first_brownout_s.unwrap_or(self.simulated_s)
    }
}

/// The allocation-free rollout driver: runs pre-resampled `points`
/// against the pack, reusing the caller's [`PolicyInput`] buffer.
///
/// Planner rollouts call this thousands of times per plan cycle; it
/// executes the same `tick → step` instruction sequence as [`run_trace`]
/// (so scores are bit-identical to a [`run_trace`] rollout over the same
/// resampled points) but skips the per-call trace resample and all
/// per-run bookkeeping vectors. The caller resamples once with
/// `trace.resampled(opts.max_dt_s)` and reuses the points across
/// candidates.
///
/// # Panics
///
/// Panics if the emulated hardware rejects a runtime push (fatal in
/// simulation, as in [`run_trace`]).
pub fn run_trace_prepared(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    points: &[TracePoint],
    opts: &SimOptions,
    input: &mut PolicyInput,
) -> PreparedResult {
    let start = micro.time_s();
    let (d0, cl0, ch0, u0, e0) = micro.energy_totals_j();
    let mut first_brownout = None;
    let mut elapsed = 0.0f64;
    for p in points {
        let _prof = sdb_prof::step(sdb_prof::Phase::TraceStep);
        input.refill_from_micro(micro);
        input.load_w = p.load_w;
        input.external_w = p.external_w;
        {
            let _prof = sdb_prof::sub(sdb_prof::Phase::RuntimeTick);
            runtime
                .tick(micro, input, p.dur_s)
                .expect("runtime push rejected by emulated hardware");
        }
        let report = micro.step(p.load_w, p.external_w, p.dur_s);
        elapsed += p.dur_s;
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.stop_on_brownout {
                break;
            }
        }
    }
    let (d1, cl1, ch1, u1, e1) = micro.energy_totals_j();
    PreparedResult {
        simulated_s: micro.time_s() - start,
        supplied_j: d1 - d0,
        unmet_j: u1 - u0,
        circuit_loss_j: cl1 - cl0,
        cell_heat_j: ch1 - ch0,
        external_j: e1 - e0,
        first_brownout_s: first_brownout,
    }
}

/// Options for a linked (lossy-transport) simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkedSimOptions {
    /// The underlying simulation options.
    pub sim: SimOptions,
    /// Period of the status heartbeat (`QueryBatteryStatus`) the driver
    /// sends over the link — the responses feed the runtime's watchdog and
    /// stuck-gauge detector, seconds.
    pub status_period_s: f64,
}

impl Default for LinkedSimOptions {
    fn default() -> Self {
        Self {
            sim: SimOptions::default(),
            status_period_s: 30.0,
        }
    }
}

/// As [`run_trace`], but driving the pack through the lossy [`Link`]
/// instead of touching the firmware directly: commands can be dropped,
/// delayed, or duplicated, responses arrive asynchronously and are fed
/// back into the runtime's graceful-degradation layer
/// ([`SdbRuntime::observe_responses`] / [`SdbRuntime::supervise`]).
#[must_use]
pub fn run_trace_linked(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
) -> SimResult {
    run_trace_linked_with(link, runtime, trace, opts, |_, _| {}, |_, _, _| {})
}

/// As [`run_trace_linked`], with two hooks: `pre_step` runs before each
/// point (fault-plan application gets mutable link access), `on_step`
/// after it with ground-truth link access (telemetry capture, invariant
/// checking over the step report).
pub fn run_trace_linked_with<P, F>(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
    pre_step: P,
    on_step: F,
) -> SimResult
where
    P: FnMut(f64, &mut Link),
    F: FnMut(f64, &Link, &sdb_emulator::micro::StepReport),
{
    run_trace_linked_inner(link, runtime, trace, opts, None, pre_step, on_step)
}

/// As [`run_trace_linked_with`], with a [`LookaheadPolicy`] in the loop —
/// the linked counterpart of [`run_trace_planned`], so planner-steered
/// runtimes can be exercised under lossy transport and fault injection
/// (planner-aware chaos). Before every point the policy may commit a plan
/// (committed host-side via [`SdbRuntime::commit_plan`]; the resulting
/// directive still travels over the lossy link like any other push), and
/// after every step the realized load is fed back through
/// [`LookaheadPolicy::observe_step`]. With `policy == None` semantics this
/// driver is [`run_trace_linked_with`]: the no-policy instruction sequence
/// is preserved bit-for-bit.
pub fn run_trace_linked_planned_with<P, F>(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
    policy: &mut dyn LookaheadPolicy,
    pre_step: P,
    on_step: F,
) -> SimResult
where
    P: FnMut(f64, &mut Link),
    F: FnMut(f64, &Link, &sdb_emulator::micro::StepReport),
{
    run_trace_linked_inner(link, runtime, trace, opts, Some(policy), pre_step, on_step)
}

/// Shared linked-driver body. With `policy == None` this executes exactly
/// the instruction sequence the pre-planner linked driver did (the policy
/// input is a pure read of the micro, so hoisting its construction above
/// the response drain does not change its value), preserving bit-identical
/// results for every existing caller.
fn run_trace_linked_inner<P, F>(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
    mut policy: Option<&mut dyn LookaheadPolicy>,
    mut pre_step: P,
    mut on_step: F,
) -> SimResult
where
    P: FnMut(f64, &mut Link),
    F: FnMut(f64, &Link, &sdb_emulator::micro::StepReport),
{
    let n = link.micro().battery_count();
    let start = link.micro().time_s();
    let (d0, cl0, ch0, u0, e0) = link.micro().energy_totals_j();
    let obs = runtime.observer().clone();

    let mut first_brownout = None;
    let mut battery_empty: Vec<Option<f64>> = vec![None; n];
    let mut hourly_loss = Vec::new();
    let mut hourly_load = Vec::new();
    let mut elapsed = 0.0f64;
    // Force a status heartbeat on the very first point.
    let mut since_status_s = f64::INFINITY;

    let mut input = PolicyInput::from_micro(link.micro());

    let resampled = trace.resampled(opts.sim.max_dt_s);
    'outer: for p in resampled.points() {
        let _span = obs.span(sdb_observe::SpanName::TraceStep);
        let _prof = sdb_prof::step(sdb_prof::Phase::TraceStep);
        pre_step(elapsed, link);
        input.refill_from_micro(link.micro());
        input.load_w = p.load_w;
        input.external_w = p.external_w;
        if let Some(policy) = policy.as_deref_mut() {
            let _prof = sdb_prof::sub(sdb_prof::Phase::PolicyPlan);
            if let Some(plan) = policy.plan(elapsed, link.micro(), &input) {
                runtime.commit_plan(&plan);
            }
        }
        {
            // Link traffic: response drain, runtime tick + supervision
            // over the lossy transport, and the status heartbeat.
            let _prof = sdb_prof::sub(sdb_prof::Phase::LinkStep);
            runtime.observe_responses(&link.take_responses());
            runtime
                .tick(link, &input, p.dur_s)
                .expect("link send is local and infallible");
            runtime
                .supervise(link, p.dur_s)
                .expect("link send is local and infallible");
            since_status_s += p.dur_s;
            if since_status_s >= opts.status_period_s {
                since_status_s = 0.0;
                link.send(Command::QueryBatteryStatus);
                runtime.note_command_sent();
            }
        }
        let report = link.step(p.load_w, p.external_w, p.dur_s);
        if let Some(policy) = policy.as_deref_mut() {
            policy.observe_step(elapsed + p.dur_s, p.dur_s, p.load_w);
        }

        let loss_w = report.circuit_loss_w + report.cell_heat_w;
        let mut t = elapsed;
        let mut remaining = p.dur_s;
        while remaining > 1e-9 {
            let hour = (t / 3600.0) as usize;
            let take = remaining.min((hour + 1) as f64 * 3600.0 - t);
            if hourly_loss.len() <= hour {
                hourly_loss.resize(hour + 1, 0.0);
                hourly_load.resize(hour + 1, 0.0);
            }
            hourly_loss[hour] += loss_w * take;
            hourly_load[hour] += report.load_w * take;
            t += take;
            remaining -= take;
        }

        elapsed += p.dur_s;
        on_step(elapsed, &*link, &report);
        for (i, cell) in link.micro().cells().iter().enumerate() {
            if battery_empty[i].is_none() && cell.is_empty() {
                battery_empty[i] = Some(elapsed);
            }
        }
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.sim.stop_on_brownout {
                break 'outer;
            }
        }
    }
    runtime.observe_responses(&link.take_responses());

    let (d1, cl1, ch1, u1, e1) = link.micro().energy_totals_j();
    SimResult {
        simulated_s: link.micro().time_s() - start,
        supplied_j: d1 - d0,
        unmet_j: u1 - u0,
        circuit_loss_j: cl1 - cl0,
        cell_heat_j: ch1 - ch0,
        external_j: e1 - e0,
        first_brownout_s: first_brownout,
        battery_empty_s: battery_empty,
        hourly_loss_j: hourly_loss,
        hourly_load_j: hourly_load,
        final_soc: link.micro().cells().iter().map(|c| c.soc()).collect(),
    }
}

/// Charges the pack from `external_w` at idle until the pack's total
/// stored charge reaches each fraction in `targets` (of total rated
/// capacity), or `max_s` elapses. Returns the time each target was reached.
///
/// # Panics
///
/// Panics if `targets` is not sorted ascending.
#[must_use]
pub fn run_charge_session(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    external_w: f64,
    targets: &[f64],
    max_s: f64,
    dt_s: f64,
) -> Vec<Option<f64>> {
    assert!(
        targets.windows(2).all(|w| w[0] <= w[1]),
        "targets must be ascending"
    );
    let total_cap_ah: f64 = micro.cells().iter().map(|c| c.spec().capacity_ah).sum();
    let mut reached: Vec<Option<f64>> = vec![None; targets.len()];
    let mut elapsed = 0.0;
    while elapsed < max_s {
        let input = PolicyInput::from_micro(micro).with_external(external_w);
        runtime
            .tick(micro, &input, dt_s)
            .expect("runtime push rejected by emulated hardware");
        micro.step(0.0, external_w, dt_s);
        elapsed += dt_s;
        let stored_ah: f64 = micro
            .cells()
            .iter()
            .map(|c| c.soc() * c.spec().capacity_ah)
            .sum();
        let frac = stored_ah / total_cap_ah;
        for (i, &t) in targets.iter().enumerate() {
            if reached[i].is_none() && frac >= t {
                reached[i] = Some(elapsed);
            }
        }
        if reached.last().is_some_and(Option::is_some) {
            break;
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DischargeDirective;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;
    use sdb_emulator::profile::ProfileKind;

    fn pack(soc: f64) -> Microcontroller {
        PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                soc,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                soc,
                ProfileKind::Fast,
            )
            .build()
    }

    #[test]
    fn constant_load_served() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(4.0, 3600.0),
            &SimOptions::default(),
        );
        assert!((result.simulated_s - 3600.0).abs() < 1e-6);
        assert!(result.unmet_j < 1e-6);
        assert!((result.supplied_j - 4.0 * 3600.0).abs() / (4.0 * 3600.0) < 0.01);
        assert!(result.first_brownout_s.is_none());
        assert_eq!(result.hourly_load_j.len(), 1);
    }

    #[test]
    fn depletion_detected() {
        // Two 2 Ah cells ≈ 15 Wh total; a 20 W load kills them in ~40 min.
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        rt.set_discharge_directive(DischargeDirective::new(1.0));
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(20.0, 4.0 * 3600.0),
            &SimOptions::default(),
        );
        let life = result.battery_life_s();
        assert!(result.first_brownout_s.is_some());
        assert!(life > 30.0 * 60.0 && life < 80.0 * 60.0, "life = {life}");
        // Brownout occurs when the pack can no longer *supply the power*,
        // which can precede exact coulomb-emptiness; both cells must be
        // nearly drained though.
        assert!(
            result.final_soc.iter().all(|&s| s < 0.10),
            "{:?}",
            result.final_soc
        );
        assert!(result.unmet_j > 0.0);
    }

    #[test]
    fn stop_on_brownout_truncates() {
        let mut m = pack(0.05);
        let mut rt = SdbRuntime::new(2);
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(10.0, 3600.0),
            &SimOptions {
                stop_on_brownout: true,
                ..SimOptions::default()
            },
        );
        assert!(result.simulated_s < 3600.0);
        assert!(result.first_brownout_s.is_some());
    }

    #[test]
    fn hourly_bookkeeping_sums_to_totals() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(5.0, 2.5 * 3600.0),
            &SimOptions::default(),
        );
        assert_eq!(result.hourly_load_j.len(), 3);
        let hourly_sum: f64 = result.hourly_loss_j.iter().sum();
        assert!((hourly_sum - result.total_loss_j()).abs() / result.total_loss_j() < 0.01);
    }

    #[test]
    fn per_step_spans_are_sampled_and_counters_stay_exact() {
        use sdb_observe::{Observer, SpanName, SAMPLE_EVERY};
        let obs = Observer::new();
        let mut m = pack(1.0);
        m.set_observer(obs.clone());
        let mut rt = SdbRuntime::new(2);
        rt.set_observer(obs.clone());
        // A 60 s update period at 60 s steps: every tick fires.
        let steps = 2 * SAMPLE_EVERY + 1;
        let trace = Trace::constant(1.0, steps as f64 * 60.0);
        let _ = run_trace(&mut m, &mut rt, &trace, &SimOptions::default());
        for _ in 0..steps {
            drop(obs.span(SpanName::FleetDevice));
        }
        let text = obs.registry().unwrap().to_prometheus_text();
        for line in [
            "sdb_micro_step_ns_count 3",
            "sdb_policy_eval_ns_count 3",
            "sdb_trace_step_ns_count 3",
            "sdb_micro_steps_total 257",
            "sdb_policy_evals_total 257",
            "sdb_fleet_device_ns_count 257",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line}:\n{text}");
        }
    }

    #[test]
    fn prepared_matches_run_trace_bit_exactly() {
        let trace = Trace::constant(6.0, 2.0 * 3600.0);
        let opts = SimOptions {
            stop_on_brownout: true,
            ..SimOptions::default()
        };
        let mut m1 = pack(0.6);
        let mut rt1 = SdbRuntime::new(2);
        let full = run_trace(&mut m1, &mut rt1, &trace, &opts);

        let mut m2 = pack(0.6);
        let mut rt2 = SdbRuntime::new(2);
        let resampled = trace.resampled(opts.max_dt_s);
        let mut input = PolicyInput::from_micro(&m2);
        let lean = run_trace_prepared(&mut m2, &mut rt2, resampled.points(), &opts, &mut input);

        assert_eq!(full.simulated_s.to_bits(), lean.simulated_s.to_bits());
        assert_eq!(full.supplied_j.to_bits(), lean.supplied_j.to_bits());
        assert_eq!(full.unmet_j.to_bits(), lean.unmet_j.to_bits());
        assert_eq!(full.circuit_loss_j.to_bits(), lean.circuit_loss_j.to_bits());
        assert_eq!(full.cell_heat_j.to_bits(), lean.cell_heat_j.to_bits());
        assert_eq!(full.first_brownout_s, lean.first_brownout_s);
        // The packs themselves evolved identically.
        assert_eq!(
            m1.cells()
                .iter()
                .map(|c| c.soc().to_bits())
                .collect::<Vec<_>>(),
            m2.cells()
                .iter()
                .map(|c| c.soc().to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn linked_ideal_matches_direct() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let trace = Trace::constant(4.0, 3600.0);
        let direct = run_trace(&mut m, &mut rt, &trace, &SimOptions::default());

        let mut link = Link::ideal(pack(1.0));
        let mut rt2 = SdbRuntime::new(2);
        let linked = run_trace_linked(&mut link, &mut rt2, &trace, &LinkedSimOptions::default());
        // A perfect zero-latency link is physically equivalent to driving
        // the firmware directly.
        assert!((direct.supplied_j - linked.supplied_j).abs() < 1e-9);
        assert!((direct.total_loss_j() - linked.total_loss_j()).abs() < 1e-9);
        assert_eq!(direct.final_soc, linked.final_soc);
    }

    #[test]
    fn linked_survives_lossy_link() {
        use crate::runtime::ResilienceConfig;
        let mut link = Link::ideal(pack(1.0));
        link.seed_faults(11);
        link.set_fault_drop_per_mille(300);
        let mut rt = SdbRuntime::new(2);
        rt.enable_resilience(ResilienceConfig::default());
        let result = run_trace_linked(
            &mut link,
            &mut rt,
            &Trace::constant(4.0, 3600.0),
            &LinkedSimOptions::default(),
        );
        assert!((result.simulated_s - 3600.0).abs() < 1e-6);
        assert!(
            result.unmet_j < 1e-6,
            "load went unserved: {}",
            result.unmet_j
        );
        assert!(link.stats().dropped > 0);
    }

    #[test]
    fn linked_planned_with_inert_policy_matches_plain_linked() {
        use crate::lookahead::{LookaheadPolicy, PlanUpdate};
        struct Never;
        impl LookaheadPolicy for Never {
            fn plan(
                &mut self,
                _t_s: f64,
                _micro: &Microcontroller,
                _input: &crate::policy::PolicyInput,
            ) -> Option<PlanUpdate> {
                None
            }
            fn observe_step(&mut self, _t_s: f64, _dt_s: f64, _load_w: f64) {}
        }
        let trace = Trace::constant(4.0, 3600.0);
        let mut link = Link::ideal(pack(1.0));
        let mut rt = SdbRuntime::new(2);
        let plain = run_trace_linked(&mut link, &mut rt, &trace, &LinkedSimOptions::default());

        let mut link2 = Link::ideal(pack(1.0));
        let mut rt2 = SdbRuntime::new(2);
        let mut policy = Never;
        let planned = run_trace_linked_planned_with(
            &mut link2,
            &mut rt2,
            &trace,
            &LinkedSimOptions::default(),
            &mut policy,
            |_, _| {},
            |_, _, _| {},
        );
        // A policy that never plans leaves the linked instruction sequence
        // untouched: bit-identical results.
        assert_eq!(plain, planned);
    }

    #[test]
    fn charge_session_reaches_targets_in_order() {
        let mut m = pack(0.0);
        let mut rt = SdbRuntime::new(2);
        rt.set_update_period(30.0);
        let times = run_charge_session(&mut m, &mut rt, 30.0, &[0.2, 0.5, 0.8], 8.0 * 3600.0, 30.0);
        assert!(times.iter().all(Option::is_some), "{times:?}");
        assert!(times[0].unwrap() < times[1].unwrap());
        assert!(times[1].unwrap() < times[2].unwrap());
    }

    #[test]
    fn charge_session_times_out_gracefully() {
        let mut m = pack(0.0);
        let mut rt = SdbRuntime::new(2);
        // 1 W external cannot reach 80 % in one simulated hour.
        let times = run_charge_session(&mut m, &mut rt, 1.0, &[0.8], 3600.0, 60.0);
        assert_eq!(times, vec![None]);
    }
}
