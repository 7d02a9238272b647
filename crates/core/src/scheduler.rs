//! Simulation driver: runtime + emulator + workload traces.
//!
//! This is the equivalent of the paper's emulator harness (Section 4.3):
//! measured power traces are fed into the battery emulation while the SDB
//! Runtime adjusts ratios, and the driver books energy and losses for the
//! Section 5 analyses.
//!
//! One loop, [`drive`], replays every trace, over either [`Transport`]:
//! the firmware itself or the lossy [`Link`] ([`Linked`]). Step hooks
//! and [`Hooks`] pick the rest: what a caller books beyond the energy
//! totals of [`SimResult`], it notes in `post_step` ([`ChargeTargets`],
//! [`EmptyTimes`]).

use crate::lookahead::LookaheadPolicy;
use crate::policy::PolicyInput;
use crate::runtime::SdbRuntime;
use sdb_emulator::link::{Command, Link, Response};
use sdb_emulator::micro::{Microcontroller, StepReport};
use sdb_emulator::SoaCohort;
use sdb_prof::Phase;
use sdb_workloads::traces::{charging_session, Trace, TracePoint};
use std::ops::ControlFlow;

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

/// Result of a simulation run: the energy totals and the first
/// brownout. `Copy`, so a [`drive`] returns without heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// How the runtime reaches the pack during a [`drive`].
pub trait Transport {
    /// The pack's ground truth.
    fn micro(&self) -> &Microcontroller;
    /// The pack, mutably (SoA lane entry and exit).
    fn micro_mut(&mut self) -> &mut Microcontroller;
    /// Lets `runtime` re-evaluate for the coming `dt_s` and push ratios.
    /// Panics if a push fails: a hardware rejection is fatal in
    /// simulation, and a link send is local and cannot fail.
    fn tick(&mut self, runtime: &mut SdbRuntime, input: &PolicyInput, dt_s: f64);
    /// Steps the pack.
    fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport;
    /// Runs once after the last point.
    fn finish(&mut self, _runtime: &mut SdbRuntime) {}
}

/// Direct transport: the runtime touches the firmware itself.
impl Transport for Microcontroller {
    fn micro(&self) -> &Microcontroller {
        self
    }

    fn micro_mut(&mut self) -> &mut Microcontroller {
        self
    }

    fn tick(&mut self, runtime: &mut SdbRuntime, input: &PolicyInput, dt_s: f64) {
        let _prof = sdb_prof::sub(Phase::RuntimeTick);
        runtime
            .tick(self, input, dt_s)
            .expect("runtime push rejected by emulated hardware");
    }

    fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport {
        Microcontroller::step(self, load_w, external_w, dt_s)
    }
}

/// Linked transport: drives the pack through the lossy [`Link`], where
/// commands can be dropped, delayed or duplicated and responses arrive
/// asynchronously. Each tick drains the responses into the runtime's
/// graceful-degradation layer (`SdbRuntime::observe_responses` /
/// [`SdbRuntime::supervise`]) and sends the status heartbeat when due.
pub struct Linked<'a> {
    /// The link driven.
    pub link: &'a mut Link,
    status_period_s: f64,
    since_status_s: f64,
    /// Responses drained this tick; reused so draining does not allocate.
    responses: Vec<Response>,
}

impl<'a> Linked<'a> {
    /// Drives `link`, with a status heartbeat every `status_period_s`
    /// seconds, the first one on the first point.
    pub fn new(link: &'a mut Link, status_period_s: f64) -> Self {
        Self {
            link,
            status_period_s,
            since_status_s: f64::INFINITY,
            responses: Vec::new(),
        }
    }

    /// Drains the link's pending responses into the runtime.
    fn deliver_responses(&mut self, runtime: &mut SdbRuntime) {
        self.responses.clear();
        self.link.drain_responses_into(&mut self.responses);
        runtime.observe_responses(&self.responses);
    }
}

impl Transport for Linked<'_> {
    fn micro(&self) -> &Microcontroller {
        self.link.micro()
    }

    fn micro_mut(&mut self) -> &mut Microcontroller {
        self.link.micro_mut()
    }

    fn tick(&mut self, runtime: &mut SdbRuntime, input: &PolicyInput, dt_s: f64) {
        let _prof = sdb_prof::sub(Phase::LinkStep);
        self.deliver_responses(runtime);
        runtime
            .tick(self.link, input, dt_s)
            .expect("link send is local and infallible");
        runtime
            .supervise(self.link, dt_s)
            .expect("link send is local and infallible");
        self.since_status_s += dt_s;
        if self.since_status_s >= self.status_period_s {
            self.since_status_s = 0.0;
            self.link.send(Command::QueryBatteryStatus);
            runtime.note_command_sent();
        }
    }

    fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport {
        self.link.step(load_w, external_w, dt_s)
    }

    fn finish(&mut self, runtime: &mut SdbRuntime) {
        self.deliver_responses(runtime);
    }
}

/// The optional parts of a [`drive`] run besides its step hooks.
#[derive(Default)]
pub struct Hooks<'a> {
    /// A planner in the loop: before every point it may commit a
    /// [`crate::lookahead::PlanUpdate`] (applied through
    /// [`SdbRuntime::commit_plan`], which forces an immediate
    /// re-evaluation), and after every step it sees the realized load
    /// through [`LookaheadPolicy::observe_step`].
    pub policy: Option<&'a mut dyn LookaheadPolicy>,
    /// Fast-forward through lane 0 of this cohort: after a scalar sync
    /// tick, the rest of its run (when four or more points) advances in
    /// closed form while the quiescence classifier allows, within the
    /// kernel's documented bound. Skipped ticks stay counted in the pack,
    /// runtime and cohort.
    pub soa: Option<&'a mut SoaCohort>,
    /// A policy-input buffer to refill instead of allocating one.
    pub input: Option<&'a mut PolicyInput>,
}

/// Runs `trace` against the pack, letting `runtime` steer the ratios.
#[must_use]
pub fn run_trace(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
) -> SimResult {
    drive(
        micro,
        runtime,
        &trace.runs(opts.max_dt_s),
        opts,
        Hooks::default(),
        |_, _| {},
        |_, _, _| ControlFlow::Continue(()),
    )
}

/// Replays `runs` (typically [`Trace::runs`] at `opts.max_dt_s`: each
/// point with the number of times it repeats) against the pack behind
/// `transport`. Per replayed point: `pre_step` with mutable transport
/// access (fault plans), input refill, planner, runtime tick, step,
/// planner feedback, `post_step` with the elapsed time, the transport and
/// the step report (telemetry, invariant checks, running sums, empty
/// times); then, with an SoA cohort, fast-forward over the rest of the
/// run. Stops at the first brownout when `opts.stop_on_brownout`, and
/// after any point whose `post_step` returns [`ControlFlow::Break`].
/// Unused step hooks are no-op closures, which compile to nothing.
///
/// Profiling: each replayed point is a `TraceStep` gating step (`SoaStep`
/// with an SoA cohort, each fast-forward its own `FastForward` step).
///
/// # Panics
///
/// Panics if the transport's tick fails (see [`Transport::tick`]).
pub fn drive<T, Pre, Post>(
    transport: &mut T,
    runtime: &mut SdbRuntime,
    runs: &[(TracePoint, usize)],
    opts: &SimOptions,
    mut hooks: Hooks<'_>,
    mut pre_step: Pre,
    mut post_step: Post,
) -> SimResult
where
    T: Transport,
    Pre: FnMut(f64, &mut T),
    Post: FnMut(f64, &T, &StepReport) -> ControlFlow<()>,
{
    let start = transport.micro().time_s();
    let (d0, cl0, ch0, u0, e0) = transport.micro().energy_totals_j();
    let mut own_input = None;
    let input = match hooks.input {
        Some(input) => input,
        None => own_input.insert(PolicyInput::from_micro(transport.micro())),
    };
    let step_phase = if hooks.soa.is_some() {
        Phase::SoaStep
    } else {
        Phase::TraceStep
    };
    // A certified box belongs to the pack it was certified on.
    runtime.forget_box();
    let mut first_brownout = None;
    let mut elapsed = 0.0f64;
    'runs: for &(p, n) in runs {
        // Points of this run not yet replayed.
        let mut left = n;
        while left > 0 {
            left -= 1;
            // The scheduler step is the profiler's sampling gate: the
            // plan/tick sub-phases and the nested micro step inherit its
            // hot/cold decision.
            let prof = sdb_prof::step(step_phase);
            pre_step(elapsed, transport);
            // A tick inside the runtime's certified box reads no view of
            // the discharge side; the charge side, a planner and debug
            // builds' shadow checks still read the input.
            let boxed = hooks.policy.is_none()
                && runtime.enter_box(transport.micro(), p.load_w, p.dur_s, left);
            if !boxed || runtime.charge_evaluation() || cfg!(debug_assertions) {
                input.refill_from_micro(transport.micro(), runtime.charge_evaluation());
            }
            input.load_w = p.load_w;
            input.external_w = p.external_w;
            if let Some(policy) = hooks.policy.as_deref_mut() {
                let _prof = sdb_prof::sub(Phase::PolicyPlan);
                if let Some(plan) = policy.plan(elapsed, transport.micro(), input) {
                    runtime.commit_plan(&plan);
                }
            }
            transport.tick(runtime, input, p.dur_s);
            let report = transport.step(p.load_w, p.external_w, p.dur_s);
            if let Some(policy) = hooks.policy.as_deref_mut() {
                policy.observe_step(elapsed + p.dur_s, p.dur_s, p.load_w);
            }
            elapsed += p.dur_s;
            let flow = post_step(elapsed, transport, &report);
            if report.unmet_w > 1e-9 && first_brownout.is_none() {
                first_brownout = Some(elapsed);
                if opts.stop_on_brownout {
                    break 'runs;
                }
            }
            if flow.is_break() {
                break 'runs;
            }
            // Fast-forward steps are siblings of the sync tick's step.
            drop(prof);

            // Fast-forward over the rest of the run: those points replay
            // this one exactly (runs are maximal, and a run without
            // external power holds its 0.0 bit for bit).
            let Some(soa) = hooks.soa.as_deref_mut() else {
                continue;
            };
            if p.external_w != 0.0 {
                continue;
            }
            let micro = transport.micro_mut();
            if left < MIN_STRETCH_POINTS || !soa.try_enter(0, micro, &report, p.load_w, p.dur_s) {
                continue;
            }
            let mut remaining = u32::try_from(left).unwrap_or(u32::MAX);
            let mut skipped = 0u64;
            while remaining > 0 {
                let k = soa.max_ticks(0, p.load_w, p.dur_s).min(remaining);
                if k == 0 {
                    break;
                }
                {
                    let _prof = sdb_prof::step(Phase::FastForward);
                    soa.advance(0, p.load_w, p.dur_s, k);
                }
                elapsed += f64::from(k) * p.dur_s;
                runtime.note_fast_forward(p.dur_s, u64::from(k));
                skipped += u64::from(k);
                remaining -= k;
                left -= k as usize;
            }
            soa.exit(0, micro);
            if skipped > 0 {
                micro.credit_skipped_steps(skipped);
            }
        }
    }
    transport.finish(runtime);

    let micro = transport.micro();
    let (d1, cl1, ch1, u1, e1) = micro.energy_totals_j();
    SimResult {
        simulated_s: micro.time_s() - start,
        supplied_j: d1 - d0,
        unmet_j: u1 - u0,
        circuit_loss_j: cl1 - cl0,
        cell_heat_j: ch1 - ch0,
        external_j: e1 - e0,
        first_brownout_s: first_brownout,
    }
}

/// Minimum run of identical upcoming trace points worth the
/// snapshot-in/snapshot-out cost of parking a lane.
const MIN_STRETCH_POINTS: usize = 4;

/// Charges the pack from `external_w` at idle until the pack's total
/// stored charge reaches each fraction in `targets` (of total rated
/// capacity), or `max_s` elapses. Returns the time each target was reached.
///
/// # Panics
///
/// Panics if `targets` is not ascending, `external_w` negative or not
/// finite, `dt_s` not positive and finite or `max_s` not finite
/// ([`charging_session`]).
#[must_use]
pub fn run_charge_session(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    external_w: f64,
    targets: &[f64],
    max_s: f64,
    dt_s: f64,
) -> Vec<Option<f64>> {
    let mut session = ChargeTargets::new(micro, targets);
    let _ = drive(
        micro,
        runtime,
        &[charging_session(external_w, max_s, dt_s)],
        &SimOptions::default(),
        Hooks::default(),
        |_, _| {},
        |t, micro, _| session.note(t, micro),
    );
    session.reached
}

/// The targets of a charge session, noted by a [`drive`] `post_step`.
#[derive(Debug)]
pub struct ChargeTargets<'a> {
    targets: &'a [f64],
    total_cap_ah: f64,
    /// When each target was first reached (`None`: not yet).
    pub reached: Vec<Option<f64>>,
}

impl<'a> ChargeTargets<'a> {
    /// `targets`, ascending fractions of `micro`'s total rated capacity.
    #[must_use]
    pub fn new(micro: &Microcontroller, targets: &'a [f64]) -> Self {
        assert!(
            targets.windows(2).all(|w| w[0] <= w[1]),
            "targets must be ascending"
        );
        Self {
            targets,
            total_cap_ah: micro.cells().iter().map(|c| c.spec().capacity_ah).sum(),
            reached: vec![None; targets.len()],
        }
    }

    /// Notes the targets `micro` holds at `t_s`; breaks at the last one.
    pub fn note(&mut self, t_s: f64, micro: &Microcontroller) -> ControlFlow<()> {
        let stored_ah: f64 = micro
            .cells()
            .iter()
            .map(|c| c.soc() * c.spec().capacity_ah)
            .sum();
        let frac = stored_ah / self.total_cap_ah;
        for (reached, &t) in self.reached.iter_mut().zip(self.targets) {
            if reached.is_none() && frac >= t {
                *reached = Some(t_s);
            }
        }
        match self.reached.last() {
            Some(Some(_)) => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        }
    }
}

/// When each battery of a pack first read empty, noted by a [`drive`]
/// `post_step`.
#[derive(Debug)]
pub struct EmptyTimes {
    /// Per battery, when it first read empty (`None`: not yet).
    pub at_s: Vec<Option<f64>>,
}

impl EmptyTimes {
    /// No battery of `micro` noted empty yet.
    #[must_use]
    pub fn new(micro: &Microcontroller) -> Self {
        Self {
            at_s: vec![None; micro.battery_count()],
        }
    }

    /// Notes the batteries of `micro` that are empty at `t_s`.
    pub fn note(&mut self, t_s: f64, micro: &Microcontroller) {
        for (at_s, cell) in self.at_s.iter_mut().zip(micro.cells()) {
            if at_s.is_none() && cell.is_empty() {
                *at_s = Some(t_s);
            }
        }
    }
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

    fn soc(m: &Microcontroller) -> Vec<f64> {
        m.cells().iter().map(|c| c.soc()).collect()
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
        assert!(m.cells().iter().all(|c| c.soc() < 0.10), "{:?}", soc(&m));
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
    fn per_step_spans_are_sampled_and_counters_stay_exact() {
        use sdb_observe::Observer;
        use sdb_prof::SAMPLE_EVERY;
        let obs = Observer::new();
        let mut m = pack(1.0);
        m.set_observer(obs.clone());
        let mut rt = SdbRuntime::new(2);
        rt.set_observer(obs.clone());
        // A 60 s update period at 60 s steps: every tick fires.
        let steps = 2 * SAMPLE_EVERY + 1;
        let trace = Trace::constant(1.0, steps as f64 * 60.0);
        // No other test in this binary enables the process-global
        // profiler, and this thread's collector starts fresh.
        sdb_prof::reset();
        sdb_prof::enable();
        let _ = run_trace(&mut m, &mut rt, &trace, &SimOptions::default());
        sdb_prof::flush_thread();
        sdb_prof::disable();
        let snap = sdb_prof::snapshot();
        sdb_prof::reset();
        // The profiler's per-step phases count every step and time 1 in
        // SAMPLE_EVERY, the first included.
        for path in [
            &[Phase::TraceStep][..],
            &[Phase::TraceStep, Phase::RuntimeTick],
            &[Phase::TraceStep, Phase::MicroStep],
        ] {
            let node = snap.find_path(path).expect("phase recorded");
            assert_eq!((node.count, node.timed), (steps, 3), "{path:?}");
        }
        // The observer's counters are exact.
        let text = obs.registry().unwrap().to_prometheus_text();
        for line in ["sdb_micro_steps_total 257", "sdb_policy_evals_total 257"] {
            assert!(text.lines().any(|l| l == line), "missing {line}:\n{text}");
        }
    }

    /// `trace` over an ideal-or-lossy `link`, heartbeat every 30 s.
    fn run_linked(
        link: &mut Link,
        rt: &mut SdbRuntime,
        trace: &Trace,
        policy: Option<&mut dyn LookaheadPolicy>,
    ) -> SimResult {
        let opts = SimOptions::default();
        let runs = trace.runs(opts.max_dt_s);
        drive(
            &mut Linked::new(link, 30.0),
            rt,
            &runs,
            &opts,
            Hooks {
                policy,
                ..Hooks::default()
            },
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        )
    }

    #[test]
    fn linked_ideal_matches_direct() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let trace = Trace::constant(4.0, 3600.0);
        let direct = run_trace(&mut m, &mut rt, &trace, &SimOptions::default());

        let mut link = Link::ideal(pack(1.0));
        let mut rt2 = SdbRuntime::new(2);
        let linked = run_linked(&mut link, &mut rt2, &trace, None);
        // A perfect zero-latency link is physically equivalent to driving
        // the firmware directly.
        assert!((direct.supplied_j - linked.supplied_j).abs() < 1e-9);
        assert!((direct.total_loss_j() - linked.total_loss_j()).abs() < 1e-9);
        assert_eq!(soc(&m), soc(link.micro()));
    }

    #[test]
    fn linked_survives_lossy_link() {
        let mut link = Link::ideal(pack(1.0));
        link.seed_faults(11);
        link.set_fault_drop_per_mille(300);
        let mut rt = SdbRuntime::new(2);
        rt.enable_resilience();
        let result = run_linked(&mut link, &mut rt, &Trace::constant(4.0, 3600.0), None);
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
        use crate::lookahead::PlanUpdate;
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
        let plain = run_linked(&mut link, &mut rt, &trace, None);

        let mut link2 = Link::ideal(pack(1.0));
        let mut rt2 = SdbRuntime::new(2);
        let planned = run_linked(&mut link2, &mut rt2, &trace, Some(&mut Never));
        // A policy that never plans leaves the linked instruction sequence
        // untouched: bit-identical results.
        assert_eq!(plain, planned);
    }

    /// Resampling as one pushed point per piece: the reference the runs
    /// must expand to.
    fn pieces(trace: &Trace, max_dt_s: f64) -> Vec<TracePoint> {
        let mut out = Vec::new();
        for p in trace.points() {
            let mut remaining = p.dur_s;
            while remaining > 1e-9 {
                let dt = remaining.min(max_dt_s);
                out.push(TracePoint { dur_s: dt, ..*p });
                remaining -= dt;
            }
        }
        out
    }

    /// The reference replay length: a fresh scan from every query.
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
    fn runs_expand_to_the_pieces_and_count_what_a_fresh_rescan_finds() {
        sdb_testkit::check(512, 0x5db_f00d, |g| {
            let max_dt_s = g.pick(&[60.0, 45.0, 7.5]);
            // Few distinct loads, so adjacent segments often repeat one;
            // durations on the `max_dt_s` grid join them into one run,
            // durations off it leave remainder pieces.
            let mut trace = Trace::new();
            for _ in 0..g.usize_range(1, 10) {
                let load_w = g.pick(&[0.05, 0.05, 0.3, 2.0]);
                let external_w = g.pick(&[0.0, 0.0, -0.0, 5.0]);
                let whole = g.usize_range(0, 120) as f64;
                let dur_s = if g.chance(0.4) {
                    (whole + 1.0) * max_dt_s
                } else {
                    whole * max_dt_s + g.f64_range(0.5, max_dt_s)
                };
                trace.push(load_w, external_w, dur_s);
            }
            let runs = trace.runs(max_dt_s);
            let reference = pieces(&trace, max_dt_s);
            let expanded: Vec<TracePoint> = runs
                .iter()
                .flat_map(|&(p, n)| std::iter::repeat_n(p, n))
                .collect();
            let bits = |p: &TracePoint| {
                (
                    p.dur_s.to_bits(),
                    p.load_w.to_bits(),
                    p.external_w.to_bits(),
                )
            };
            assert_eq!(
                trace
                    .resampled(max_dt_s)
                    .points()
                    .iter()
                    .map(bits)
                    .collect::<Vec<_>>(),
                expanded.iter().map(bits).collect::<Vec<_>>()
            );
            // Bit for bit, but for the sign of a zero external.
            assert_eq!(expanded.len(), reference.len());
            for (p, q) in expanded.iter().zip(&reference) {
                assert_eq!(p.dur_s.to_bits(), q.dur_s.to_bits());
                assert_eq!(p.load_w.to_bits(), q.load_w.to_bits());
                assert_eq!(p.external_w, q.external_w);
                assert!(!p.external_w.is_sign_negative());
            }
            // Runs are maximal.
            for w in runs.windows(2) {
                assert_ne!(bits(&w[0].0), bits(&w[1].0));
            }
            // At every cursor position `drive` can stand at (just after
            // replaying a point without external power), the rest of the
            // run is what a fresh rescan of the pieces finds.
            let mut i = 0;
            for &(p, n) in &runs {
                for left in (0..n).rev() {
                    i += 1;
                    if p.external_w == 0.0 {
                        assert_eq!(left, rescan_run(&reference, i), "query at {i}");
                    }
                }
            }
        });
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
