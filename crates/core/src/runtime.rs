//! The SDB Runtime loop.
//!
//! "The SDB runtime calculates these power values at coarse granular time
//! steps and updates the ratios" (Section 3.3). The runtime holds the two
//! directive parameters set by the rest of the OS, consults the policies,
//! and pushes ratio changes through the [`crate::api::SdbApi`] only when
//! they changed materially (avoiding needless bus traffic).

use crate::api::SdbApi;
use crate::error::SdbError;
use crate::policy::{
    materially_different, BatteryView, ChargeDirective, DischargeDirective, PolicyInput,
    PolicyScratch, PreservePolicy, ViewBox,
};
use sdb_battery_model::thevenin::TheveninCell;
use sdb_emulator::link::Response;
use sdb_emulator::micro::Microcontroller;
use sdb_fuel_gauge::gauge::BatteryStatus;
use sdb_observe::{Counter, Flow, ObsEvent, Observer};
use sdb_prof::Phase;

// Settings of the graceful-degradation layer (`enable_resilience`).

/// Time to wait for any link response before re-sending the last pushed
/// ratios (and the re-send period of the watchdog's fallback), seconds.
const ACK_TIMEOUT_S: f64 = 10.0;
/// Retries before recovery is left to the watchdog.
const MAX_RETRIES: u32 = 3;
/// Exponential growth factor of the retry backoff.
const BACKOFF_FACTOR: f64 = 2.0;
/// Silent-link time (commands outstanding, no responses) after which the
/// watchdog engages and falls back to safe uniform ratios, seconds.
const WATCHDOG_TIMEOUT_S: f64 = 120.0;
/// Blend weight toward the uniform split applied to policy ratios while
/// any gauge is flagged degraded (guard-band widening), `[0, 1]`.
const GUARD_WIDEN: f64 = 0.5;
/// Consecutive bit-identical SoC samples under load before a gauge is
/// flagged stuck.
const STUCK_SAMPLES: u32 = 5;
/// Minimum reported |current| for stuck detection to apply, amps (a
/// resting cell's frozen SoC is legitimate).
const STUCK_CURRENT_A: f64 = 0.05;

/// Mutable state of the graceful-degradation layer.
#[derive(Debug, Clone)]
struct ResilienceState {
    /// Commands sent whose responses have not yet been observed.
    outstanding: u64,
    /// Time since the last send (or last response), for retry pacing.
    since_send_s: f64,
    /// Time the link has been silent with commands outstanding.
    silent_s: f64,
    /// Retries already spent on the current silence.
    retries: u32,
    /// Whether the watchdog is currently engaged.
    engaged: bool,
    /// Time since the last uniform fallback push while engaged.
    since_fallback_s: f64,
    /// Per-battery bit pattern of the last reported SoC.
    last_soc_bits: Vec<Option<u64>>,
    /// Per-battery count of consecutive identical SoC reports under load.
    stuck_counts: Vec<u32>,
    /// Per-battery degraded flags.
    degraded: Vec<bool>,
    /// The safe uniform split the watchdog pushes while engaged.
    uniform: Vec<f64>,
}

impl ResilienceState {
    /// A quiet link and trusted gauges over `n` batteries.
    fn new(n: usize) -> Self {
        Self {
            outstanding: 0,
            since_send_s: 0.0,
            silent_s: 0.0,
            retries: 0,
            engaged: false,
            since_fallback_s: 0.0,
            last_soc_bits: vec![None; n],
            stuck_counts: vec![0; n],
            degraded: vec![false; n],
            uniform: vec![1.0 / n as f64; n],
        }
    }
}

/// The first SoC above the empty threshold (`TheveninCell::is_empty`):
/// a box whose intervals start here holds no empty cell.
const NON_EMPTY_SOC: f64 = f64::from_bits(1e-9f64.to_bits() + 1);

/// Bounds on how many ticks a new certified box is sized to last.
const BOX_REACH_TICKS: [f64; 2] = [2.0, 1024.0];

/// Ticks after a box fails to certify before the next attempt: near a
/// push, where boxes fail, the ticks certify their own inputs instead.
const BOX_RETRY_TICKS: u32 = 4;

/// The last box of pack states the no-push certificate covered, kept by
/// the runtime between ticks (DESIGN.md §9). A tick at the box's load,
/// with the directive and discharge split of its certificate still in
/// force, whose pack lies inside the box, cannot push: its evaluation
/// and its certificate are skipped, and `drive` skips the input refill.
#[derive(Debug, Clone)]
struct CertifiedBox {
    /// Whether `cells` holds a certified box.
    valid: bool,
    /// The load the box was certified at, as bits.
    load_bits: u64,
    /// Per cell, its SoC interval and the state the box holds fixed.
    cells: Vec<BoxedCell>,
    /// How many ticks a new box is sized to last: doubled after the pack
    /// drains out of a box at its load, halved after a box fails to
    /// certify.
    reach_ticks: f64,
    /// Ticks left before the next box may be certified.
    retry_in: u32,
    /// Whether the tick about to run lies inside the box.
    covers_tick: bool,
}

/// One cell of a [`CertifiedBox`]: inside while its SoC lies in `soc`
/// and the rest of what its view depends on is as certified. Wear,
/// capacity fade and the aging resistance multiplier change only when a
/// charge cycle completes, so an unchanged cycle count fixes all three.
#[derive(Debug, Clone, Copy)]
struct BoxedCell {
    soc: [f64; 2],
    present: bool,
    cycles: u32,
    fault_bits: u64,
}

impl BoxedCell {
    fn holds(&self, cell: &TheveninCell, present: bool) -> bool {
        let soc = cell.soc();
        self.soc[0] <= soc
            && soc <= self.soc[1]
            && self.present == present
            && self.cycles == cell.cycle_count()
            && self.fault_bits == cell.fault_resistance_mult().to_bits()
    }
}

/// Metric handles the tick path updates without touching the registry
/// lock (registered once in [`SdbRuntime::set_observer`]).
#[derive(Debug, Clone)]
struct RuntimeMetrics {
    policy_evals: Counter,
    pushes: Counter,
}

/// The SDB Runtime.
#[derive(Debug, Clone)]
pub struct SdbRuntime {
    n: usize,
    charge_directive: ChargeDirective,
    discharge_directive: DischargeDirective,
    /// Optional workload-aware override for discharge (the watch policy).
    preserve: Option<PreservePolicy>,
    /// Seconds between policy re-evaluations.
    update_period_s: f64,
    since_update_s: f64,
    last_discharge: Vec<f64>,
    last_charge: Vec<f64>,
    /// Ratio pushes actually sent to the hardware.
    pushes: u64,
    /// Observability hook (no-op unless an observer is installed).
    observer: Observer,
    /// Cached metric handles (present only when the observer has a
    /// registry).
    metrics: Option<RuntimeMetrics>,
    /// Graceful-degradation layer (absent until
    /// [`SdbRuntime::enable_resilience`]).
    resilience: Option<ResilienceState>,
    /// Reusable policy-evaluation buffers, keeping the tick path
    /// allocation-free (planner rollouts hammer this).
    scratch: PolicyScratch,
    /// Whether [`SdbRuntime::tick`] evaluates and pushes charge ratios.
    charge_evaluation: bool,
    /// Per-battery views the discharge certificate bounds.
    views: Vec<ViewBox>,
    /// The last certified box of pack states.
    cert_box: CertifiedBox,
}

impl SdbRuntime {
    /// A runtime for an `n`-battery pack with neutral directives and a
    /// 60-second update period.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one battery");
        Self {
            n,
            charge_directive: ChargeDirective::new(0.5),
            discharge_directive: DischargeDirective::new(0.5),
            preserve: None,
            update_period_s: 60.0,
            since_update_s: f64::MAX, // due on the first tick of a finite period
            last_discharge: Vec::new(),
            last_charge: Vec::new(),
            pushes: 0,
            observer: Observer::disabled(),
            metrics: None,
            resilience: None,
            scratch: PolicyScratch::new(),
            charge_evaluation: true,
            views: Vec::with_capacity(n),
            cert_box: CertifiedBox {
                valid: false,
                load_bits: 0,
                cells: Vec::with_capacity(n),
                reach_ticks: 16.0,
                retry_in: 0,
                covers_tick: false,
            },
        }
    }

    /// Installs the observability hook. Pass [`Observer::disabled`] to turn
    /// instrumentation off again. New runtimes start disabled.
    pub fn set_observer(&mut self, observer: Observer) {
        self.metrics = observer.registry().map(|reg| RuntimeMetrics {
            policy_evals: reg.counter("sdb_policy_evals_total", &[]),
            pushes: reg.counter("sdb_runtime_ratio_pushes_total", &[]),
        });
        self.observer = observer;
    }

    /// The installed observability hook.
    #[must_use]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Sets the charging directive parameter (0 = longevity, 1 = fast
    /// useful charge).
    pub fn set_charge_directive(&mut self, d: ChargeDirective) {
        self.charge_directive = d;
    }

    /// Sets the discharging directive parameter (0 = longevity, 1 =
    /// maximize instantaneous battery life).
    pub fn set_discharge_directive(&mut self, d: DischargeDirective) {
        self.discharge_directive = d;
        self.forget_box();
    }

    /// Installs (or clears) the workload-aware preserve policy.
    pub fn set_preserve(&mut self, p: Option<PreservePolicy>) {
        self.preserve = p;
        self.forget_box();
    }

    /// Sets the policy re-evaluation period. With `f64::INFINITY` the
    /// runtime never evaluates on its own, not even on the first tick:
    /// only [`SdbRuntime::force_policy_refresh`] makes it push.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive.
    pub fn set_update_period(&mut self, period_s: f64) {
        assert!(period_s > 0.0, "period must be positive");
        self.update_period_s = period_s;
    }

    /// Turns the charge side of [`SdbRuntime::tick`] on (the default) or
    /// off. With it off, a tick skips CCB-Charge, RBL-Charge, the blend
    /// and the charge push. The pack reads charge ratios only while
    /// external power exceeds the load, so a run whose trace carries no
    /// external power evolves bit-identically either way. Only for a
    /// disposable runtime whose pushes, events and `last_charge` nobody
    /// observes (the planner's rollout scratch): in a live run the
    /// charge ratios appear in snapshots, events and metrics, and the
    /// last pushed charge split feeds later push decisions.
    pub fn set_charge_evaluation(&mut self, on: bool) {
        self.charge_evaluation = on;
    }

    /// Whether [`SdbRuntime::tick`] evaluates the charge side.
    #[must_use]
    pub(crate) fn charge_evaluation(&self) -> bool {
        self.charge_evaluation
    }

    /// The discharging directive currently in force.
    #[must_use]
    pub fn discharge_directive(&self) -> DischargeDirective {
        self.discharge_directive
    }

    /// Number of ratio updates pushed to the hardware.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Forces the next [`SdbRuntime::tick`] to re-evaluate policies and
    /// push fresh ratios regardless of the update-period rate limit (the
    /// same reset the watchdog performs on link recovery). Lookahead
    /// planners call this through [`SdbRuntime::commit_plan`] so a new
    /// plan takes effect immediately instead of waiting out the period.
    pub fn force_policy_refresh(&mut self) {
        self.since_update_s = f64::INFINITY;
        self.last_discharge.clear();
        self.last_charge.clear();
        self.forget_box();
    }

    /// Drops the certified box: the next tick certifies from its input.
    /// Every change to what a box certificate assumed (the directive, the
    /// policy, a cleared split in force, the pack driven) calls it. A push
    /// needs none: it comes from a tick outside the box, and
    /// [`SdbRuntime::enter_box`] has dropped a box the pack left.
    pub(crate) fn forget_box(&mut self) {
        self.cert_box.valid = false;
        self.cert_box.covers_tick = false;
    }

    /// Called by `drive` before the tick of `dt_s` at `load_w` over
    /// `micro`, with `run_left` more points at this load to follow:
    /// whether that tick lies inside the certified box, so that its
    /// discharge evaluation cannot push. If the pack has left the box (or
    /// there is none) and the run is long enough to reuse one, certifies
    /// a new box that reaches from each cell's SoC down to where the
    /// split in force would take it in a few ticks. The box's reach adapts
    /// within the run's own sequence of ticks, so it is deterministic.
    ///
    /// Boxes are used only by a tick that evaluates the discharge policy
    /// under the certificate's conditions: no preserve policy, no
    /// resilience layer (whose guard-band widening and forced refreshes
    /// happen inside the tick), a split in force, and no thermal model
    /// (temperature moves the resistance every step).
    pub(crate) fn enter_box(
        &mut self,
        micro: &Microcontroller,
        load_w: f64,
        dt_s: f64,
        run_left: usize,
    ) -> bool {
        let n = micro.battery_count();
        let bx = &mut self.cert_box;
        bx.covers_tick = false;
        let due = self.since_update_s + dt_s >= self.update_period_s;
        if !due
            || self.preserve.is_some()
            || self.resilience.is_some()
            || self.last_discharge.len() != n
        {
            return false;
        }
        let cells = micro.cells();
        let same_load = bx.valid && bx.load_bits == load_w.to_bits();
        if same_load
            && (bx.cells.iter().zip(cells).enumerate())
                .all(|(i, (b, cell))| b.holds(cell, micro.battery_present(i)))
        {
            bx.covers_tick = true;
            return true;
        }
        let [min_reach, max_reach] = BOX_REACH_TICKS;
        if same_load {
            // The pack drained out of the box at its load: size the next
            // one to last longer.
            bx.reach_ticks = (bx.reach_ticks * 2.0).min(max_reach);
        }
        bx.valid = false;
        if bx.retry_in > 0 {
            bx.retry_in -= 1;
            return false;
        }
        if run_left < 2 || cells.iter().any(|c| c.temperature_c().is_some()) {
            return false;
        }
        let reach = bx.reach_ticks.min(run_left as f64 + 1.0);
        bx.cells.clear();
        self.views.clear();
        for (i, cell) in cells.iter().enumerate() {
            let present = micro.battery_present(i);
            let soc = cell.soc();
            let interval = if !present {
                [f64::NEG_INFINITY, f64::INFINITY]
            } else if cell.is_empty() {
                [f64::NEG_INFINITY, 1e-9]
            } else {
                // The SoC the split in force drains per tick (the load
                // over the rest voltage, with a quarter for sag and
                // circuit loss) plus self-discharge, over `reach` ticks.
                let capacity_as =
                    3600.0 * cell.spec().capacity_ah * cell.aging().capacity_fraction();
                let drain = self.last_discharge[i] * load_w * 1.25 / (cell.ocv() * capacity_as)
                    + soc * TheveninCell::SELF_DISCHARGE_PER_S;
                [(soc - reach * dt_s * drain).max(NON_EMPTY_SOC), soc]
            };
            bx.cells.push(BoxedCell {
                soc: interval,
                present,
                cycles: cell.cycle_count(),
                fault_bits: cell.fault_resistance_mult().to_bits(),
            });
            let [lo, hi] = if present { interval } else { [soc, soc] };
            self.views
                .push(ViewBox::over(cell, present, lo.max(0.0), hi));
        }
        let certified = self.discharge_directive.cannot_push(
            &self.views,
            load_w,
            &self.last_discharge,
            &mut self.scratch,
        );
        if !certified {
            bx.reach_ticks = (bx.reach_ticks / 2.0).max(min_reach);
            bx.retry_in = BOX_RETRY_TICKS;
        }
        bx.valid = certified;
        bx.load_bits = load_w.to_bits();
        bx.covers_tick = certified;
        certified
    }

    /// Applies a plan committed by a [`crate::lookahead::LookaheadPolicy`]:
    /// installs the plan's directives, forces an immediate policy refresh,
    /// counts the re-plan in `sdb_policy_replans_total`, and emits a
    /// [`ObsEvent::PlanCommit`] (directive, horizon and forecast error) so
    /// traces and health rules see the re-plan.
    pub fn commit_plan(&mut self, plan: &crate::lookahead::PlanUpdate) {
        self.set_discharge_directive(plan.discharge);
        if let Some(c) = plan.charge {
            self.set_charge_directive(c);
        }
        self.force_policy_refresh();
        if let Some(reg) = self.observer.registry() {
            reg.counter("sdb_policy_replans_total", &[]).inc();
        }
        self.observer.emit(ObsEvent::PlanCommit {
            discharge_directive: plan.discharge.value(),
            horizon_s: plan.horizon_s,
            forecast_mae_w: plan.forecast_mae_w,
        });
    }

    /// Turns on the graceful-degradation layer: command retry with
    /// exponential backoff ([`SdbRuntime::supervise`]), a watchdog that
    /// falls back to safe uniform ratios when the link goes dark, and
    /// stuck-gauge detection that widens the policy guard bands.
    pub fn enable_resilience(&mut self) {
        self.resilience = Some(ResilienceState::new(self.n));
        self.forget_box();
    }

    /// Whether the link watchdog is currently engaged (safe uniform
    /// fallback ratios in force).
    #[must_use]
    pub fn watchdog_engaged(&self) -> bool {
        self.resilience.as_ref().is_some_and(|r| r.engaged)
    }

    /// Whether battery `i`'s gauge is currently flagged degraded.
    #[must_use]
    pub fn gauge_degraded(&self, i: usize) -> bool {
        self.resilience
            .as_ref()
            .is_some_and(|r| r.degraded.get(i).copied().unwrap_or(false))
    }

    /// Notes a command sent to the link outside [`SdbRuntime::tick`] (for
    /// example a status heartbeat), so the watchdog expects its response.
    pub(crate) fn note_command_sent(&mut self) {
        if let Some(r) = &mut self.resilience {
            r.outstanding += 1;
            r.since_send_s = 0.0;
        }
    }

    /// Feeds link responses back into the degradation layer. Any response
    /// proves the link is alive — retries reset, and an engaged watchdog
    /// disengages (forcing a policy re-push on the next tick). Status rows
    /// additionally feed the stuck-gauge detector.
    pub(crate) fn observe_responses(&mut self, responses: &[Response]) {
        if responses.is_empty() || self.resilience.is_none() {
            return;
        }
        for response in responses {
            if let Response::Status(rows) = response {
                self.observe_status(rows);
            }
        }
        let observer = self.observer.clone();
        let res = self.resilience.as_mut().expect("checked above");
        res.outstanding = res.outstanding.saturating_sub(responses.len() as u64);
        res.retries = 0;
        res.since_send_s = 0.0;
        let silent_s = res.silent_s;
        res.silent_s = 0.0;
        if res.engaged {
            res.engaged = false;
            observer.emit(ObsEvent::WatchdogTransition {
                engaged: false,
                silent_s,
            });
            // The fallback ratios are on the wire; force the next tick to
            // re-evaluate policies and push fresh ratios immediately.
            self.force_policy_refresh();
        }
    }

    /// Feeds gauge status rows to the stuck-gauge detector: a SoC estimate
    /// that stays bit-identical across `STUCK_SAMPLES` (5) consecutive
    /// reports while meaningful current flows marks the gauge
    /// degraded; any change in the estimate clears the flag.
    pub fn observe_status(&mut self, rows: &[BatteryStatus]) {
        let Some(res) = &mut self.resilience else {
            return;
        };
        let observer = self.observer.clone();
        for (i, row) in rows.iter().enumerate().take(res.last_soc_bits.len()) {
            let bits = row.soc.to_bits();
            let under_load = row.current_a.abs() >= STUCK_CURRENT_A;
            if res.last_soc_bits[i] == Some(bits) {
                if under_load {
                    res.stuck_counts[i] = res.stuck_counts[i].saturating_add(1);
                    if res.stuck_counts[i] >= STUCK_SAMPLES && !res.degraded[i] {
                        res.degraded[i] = true;
                        observer.emit(ObsEvent::GaugeDegraded {
                            battery: i,
                            degraded: true,
                            reason: "stuck-soc",
                        });
                    }
                }
                // A resting cell neither accumulates suspicion nor clears
                // it — a frozen SoC at rest is legitimate.
            } else {
                res.last_soc_bits[i] = Some(bits);
                res.stuck_counts[i] = 0;
                if res.degraded[i] {
                    res.degraded[i] = false;
                    observer.emit(ObsEvent::GaugeDegraded {
                        battery: i,
                        degraded: false,
                        reason: "stuck-soc",
                    });
                }
            }
        }
    }

    /// Advances the degradation layer's clocks and performs recovery
    /// actions: re-sends the last ratios with exponential backoff while the
    /// link is silent, and past `WATCHDOG_TIMEOUT_S` (120 s) engages the
    /// watchdog, pushing safe uniform ratios until a response arrives.
    ///
    /// No-op unless [`SdbRuntime::enable_resilience`] was called.
    ///
    /// # Errors
    ///
    /// Propagates hardware rejections from the API.
    pub fn supervise<A: SdbApi + ?Sized>(
        &mut self,
        api: &mut A,
        dt_s: f64,
    ) -> Result<(), SdbError> {
        let observer = self.observer.clone();
        let Some(res) = &mut self.resilience else {
            return Ok(());
        };
        if res.outstanding == 0 && !res.engaged {
            res.silent_s = 0.0;
            return Ok(());
        }
        res.silent_s += dt_s;
        res.since_send_s += dt_s;
        if res.engaged {
            // Keep re-asserting the safe split in case pushes are lost.
            res.since_fallback_s += dt_s;
            if res.since_fallback_s >= ACK_TIMEOUT_S {
                res.since_fallback_s = 0.0;
                api.discharge(&res.uniform)?;
                api.charge(&res.uniform)?;
                res.outstanding += 2;
            }
            return Ok(());
        }
        if res.silent_s >= WATCHDOG_TIMEOUT_S {
            res.engaged = true;
            // First fallback push happens immediately.
            res.since_fallback_s = f64::INFINITY;
            observer.emit(ObsEvent::WatchdogTransition {
                engaged: true,
                silent_s: res.silent_s,
            });
            return self.supervise(api, 0.0);
        }
        if res.retries < MAX_RETRIES {
            let backoff_s = ACK_TIMEOUT_S * BACKOFF_FACTOR.powi(res.retries as i32);
            if res.since_send_s >= backoff_s {
                res.retries += 1;
                res.since_send_s = 0.0;
                let attempt = res.retries;
                observer.emit(ObsEvent::CommandRetry { attempt, backoff_s });
                if !self.last_discharge.is_empty() {
                    api.discharge(&self.last_discharge)?;
                    res.outstanding += 1;
                }
                if !self.last_charge.is_empty() {
                    api.charge(&self.last_charge)?;
                    res.outstanding += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs one runtime tick: if the update period has elapsed, re-evaluate
    /// policies on `input` and push changed ratios through `api`. Returns
    /// whether anything was pushed.
    ///
    /// Infeasible allocations (all batteries empty / full) are not errors
    /// at this level — the runtime simply leaves the previous ratios in
    /// force, as the hardware must keep operating.
    ///
    /// # Errors
    ///
    /// Propagates hardware rejections from the API.
    pub fn tick<A: SdbApi + ?Sized>(
        &mut self,
        api: &mut A,
        input: &PolicyInput,
        dt_s: f64,
    ) -> Result<bool, SdbError> {
        let covered = std::mem::take(&mut self.cert_box.covers_tick);
        self.since_update_s += dt_s;
        if self.since_update_s < self.update_period_s {
            return Ok(false);
        }
        if self.watchdog_engaged() {
            // The watchdog owns the wire: policy pushes are suppressed
            // until a response proves the link is alive again (the ratios
            // re-push immediately on disengagement).
            return Ok(false);
        }
        self.since_update_s = 0.0;
        if let Some(m) = &self.metrics {
            m.policy_evals.inc();
        }
        // Guard-band widening: while any gauge is degraded its SoC data is
        // suspect, so blend the policy output toward the safe uniform split
        // over the batteries still usable for that direction.
        let widen = self
            .resilience
            .as_ref()
            .and_then(|r| (r.degraded.iter().any(|d| *d)).then_some(GUARD_WIDEN));
        let mut pushed = false;

        // Both directions evaluate into the reusable scratch buffers and
        // copy into `last_*` on push, so a steady-state tick (and every
        // planner rollout tick) allocates nothing. A discharge evaluation
        // the certificate proves could not push is skipped: on a tick
        // inside the certified box without even certifying its input
        // (which `drive` then need not refill). Debug builds check that a
        // covered tick's input certifies too, and run the evaluation on
        // every skipped tick to check that it would not have pushed.
        debug_assert!(
            !covered || self.point_certified(input),
            "a tick inside the certified box failed its own certificate"
        );
        let certified =
            covered || (self.preserve.is_none() && widen.is_none() && self.point_certified(input));
        debug_assert!(
            !certified
                || !self.evaluate_discharge(input)
                || !materially_different(self.scratch.ratios(), &self.last_discharge),
            "a certified no-push tick would have pushed {:?} over {:?}",
            self.scratch.ratios(),
            self.last_discharge
        );
        let discharge_ok = !certified && {
            let _prof = sdb_prof::sub(Phase::PolicySolve);
            self.evaluate_discharge(input)
        };
        if discharge_ok {
            if let Some(g) = widen {
                widen_toward_uniform(self.scratch.ratios_mut(), &input.batteries, |b| !b.empty, g);
            }
            pushed |= self.push_if_changed(api, Flow::Discharge)?;
        }

        if self.charge_evaluation
            && self
                .charge_directive
                .ratios_into(input, &mut self.scratch)
                .is_ok()
        {
            if let Some(g) = widen {
                let usable = |b: &BatteryView| !b.full && b.charge_acceptance_a > 0.0;
                widen_toward_uniform(self.scratch.ratios_mut(), &input.batteries, usable, g);
            }
            pushed |= self.push_if_changed(api, Flow::Charge)?;
        }
        if self.observer.wants_events() {
            self.observer.emit(ObsEvent::PolicyEvaluation {
                pushed,
                charge_directive: self.charge_directive.value(),
                discharge_directive: self.discharge_directive.value(),
            });
        }
        Ok(pushed)
    }

    /// Pushes the scratch ratios for `flow` through `api` when they differ
    /// materially from the last ones pushed, and books the push: the copy
    /// into `last_*`, the push count and metric, and the resilience
    /// layer's outstanding command and send clock. Returns whether it
    /// pushed.
    fn push_if_changed<A: SdbApi + ?Sized>(
        &mut self,
        api: &mut A,
        flow: Flow,
    ) -> Result<bool, SdbError> {
        let ratios = self.scratch.ratios();
        let last = match flow {
            Flow::Discharge => &mut self.last_discharge,
            Flow::Charge => &mut self.last_charge,
        };
        if !materially_different(ratios, last) {
            return Ok(false);
        }
        match flow {
            Flow::Discharge => api.discharge(ratios)?,
            Flow::Charge => api.charge(ratios)?,
        }
        last.clear();
        last.extend_from_slice(ratios);
        self.pushes += 1;
        if let Some(m) = &self.metrics {
            m.pushes.inc();
        }
        if let Some(r) = &mut self.resilience {
            r.outstanding += 1;
            r.since_send_s = 0.0;
        }
        Ok(true)
    }

    /// The no-push certificate on `input` alone (the box of width 0).
    fn point_certified(&mut self, input: &PolicyInput) -> bool {
        self.views.clear();
        self.views
            .extend(input.batteries.iter().map(ViewBox::point));
        self.discharge_directive.cannot_push(
            &self.views,
            input.load_w,
            &self.last_discharge,
            &mut self.scratch,
        )
    }

    /// Evaluates the discharge policy in force into the scratch buffers;
    /// `false` when it is infeasible.
    fn evaluate_discharge(&mut self, input: &PolicyInput) -> bool {
        match &self.preserve {
            Some(p) => p.ratios_into(input, &mut self.scratch).is_ok(),
            None => self
                .discharge_directive
                .ratios_into(input, &mut self.scratch)
                .is_ok(),
        }
    }

    /// Accounts for `ticks` runtime ticks of `dt_s` that the SoA engine
    /// fast-forwarded past without calling [`SdbRuntime::tick`]: replays
    /// the update-period clock exactly and credits the skipped policy
    /// evaluations to the metrics, keeping counters engine-invariant.
    /// (The quiescence classifier guarantees those evaluations could not
    /// have pushed new ratios.) Returns the number of evaluations
    /// credited.
    ///
    /// O(1) when the period is at most `dt_s`: the clock never runs
    /// negative, so every skipped tick reaches the period and evaluates.
    pub fn note_fast_forward(&mut self, dt_s: f64, ticks: u64) -> u64 {
        let mut evals = 0u64;
        if self.update_period_s <= dt_s && self.since_update_s >= 0.0 {
            if ticks > 0 {
                self.since_update_s = 0.0;
                evals = ticks;
            }
        } else {
            for _ in 0..ticks {
                self.since_update_s += dt_s;
                if self.since_update_s >= self.update_period_s {
                    self.since_update_s = 0.0;
                    evals += 1;
                }
            }
        }
        if evals > 0 {
            if let Some(m) = &self.metrics {
                m.policy_evals.add(evals);
            }
        }
        evals
    }
}

/// Blends `ratios` toward the uniform split over `usable` batteries with
/// weight `g`, renormalizing so the result still sums to 1.
fn widen_toward_uniform(
    ratios: &mut [f64],
    batteries: &[BatteryView],
    usable: fn(&BatteryView) -> bool,
    g: f64,
) {
    let g = g.clamp(0.0, 1.0);
    let n_usable = batteries.iter().filter(|b| usable(b)).count();
    let mut sum = 0.0;
    for (i, r) in ratios.iter_mut().enumerate() {
        let uniform = if n_usable > 0 {
            if batteries.get(i).is_some_and(usable) {
                1.0 / n_usable as f64
            } else {
                0.0
            }
        } else {
            1.0 / batteries.len().max(1) as f64
        };
        *r = (1.0 - g) * *r + g * uniform;
        sum += *r;
    }
    if sum > 0.0 {
        for r in ratios.iter_mut() {
            *r /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyInput;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::micro::Microcontroller;
    use sdb_emulator::pack::PackBuilder;

    fn micro() -> Microcontroller {
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

    #[test]
    fn first_tick_pushes() {
        let mut m = micro();
        let mut rt = SdbRuntime::new(2);
        let input = PolicyInput::from_micro(&m).with_load(4.0);
        let pushed = rt.tick(&mut m, &input, 1.0).unwrap();
        assert!(pushed);
        assert!(rt.pushes() >= 1);
    }

    #[test]
    fn updates_rate_limited() {
        let mut m = micro();
        let mut rt = SdbRuntime::new(2);
        rt.set_update_period(60.0);
        let input = PolicyInput::from_micro(&m).with_load(4.0);
        rt.tick(&mut m, &input, 1.0).unwrap();
        let pushes_after_first = rt.pushes();
        // 30 seconds of ticks: no re-evaluation.
        for _ in 0..30 {
            assert!(!rt.tick(&mut m, &input, 1.0).unwrap());
        }
        assert_eq!(rt.pushes(), pushes_after_first);
    }

    #[test]
    fn unchanged_ratios_not_repushed() {
        let mut m = micro();
        let mut rt = SdbRuntime::new(2);
        rt.set_update_period(1.0);
        let input = PolicyInput::from_micro(&m).with_load(4.0);
        rt.tick(&mut m, &input, 2.0).unwrap();
        let pushes = rt.pushes();
        // Same input again after the period: ratios identical, no push.
        assert!(!rt.tick(&mut m, &input, 2.0).unwrap());
        assert_eq!(rt.pushes(), pushes);
    }

    #[test]
    fn charge_evaluation_off_pushes_the_same_discharge_split_only() {
        let half = || {
            let mut m = micro();
            m.step(8.0, 0.0, 1800.0);
            m
        };
        let input = PolicyInput::from_micro(&half())
            .with_load(4.0)
            .with_external(10.0);
        let (mut on, mut off) = (half(), half());
        let mut rt_on = SdbRuntime::new(2);
        let mut rt_off = SdbRuntime::new(2);
        rt_off.set_charge_evaluation(false);
        rt_on.tick(&mut on, &input, 1.0).unwrap();
        rt_off.tick(&mut off, &input, 1.0).unwrap();
        assert_eq!(on.discharge_ratios(), off.discharge_ratios());
        assert_eq!(off.charge_ratios(), half().charge_ratios());
        assert_eq!((rt_on.pushes(), rt_off.pushes()), (2, 1));
    }

    #[test]
    fn preserve_policy_overrides_discharge() {
        let mut m = micro();
        let mut rt = SdbRuntime::new(2);
        rt.set_preserve(Some(crate::policy::PreservePolicy::new(0, 1, 1.0)));
        let input = PolicyInput::from_micro(&m).with_load(0.2);
        rt.tick(&mut m, &input, 1.0).unwrap();
        // Light load: battery 1 (inefficient) carries nearly everything.
        assert!(m.discharge_ratios()[1] > 0.9);
    }

    fn status_row(soc: f64, current_a: f64) -> BatteryStatus {
        BatteryStatus {
            soc,
            terminal_v: 3.8,
            cycle_count: 0,
            current_a,
            remaining_ah: 1.0,
            present: true,
        }
    }

    #[test]
    fn watchdog_engages_on_silent_link_and_recovers() {
        use sdb_emulator::link::Link;
        let mut link = Link::ideal(micro());
        link.seed_faults(7);
        link.set_fault_drop_per_mille(1000); // the link goes completely dark
        let mut rt = SdbRuntime::new(2);
        rt.enable_resilience();
        let input = PolicyInput::from_micro(link.micro()).with_load(4.0);
        rt.tick(&mut link, &input, 1.0).unwrap();
        assert!(rt.pushes() >= 1);
        for _ in 0..(WATCHDOG_TIMEOUT_S as usize + 10) {
            link.step(1.0, 2.0, 60.0);
            rt.observe_responses(&link.take_responses());
            rt.supervise(&mut link, 1.0).unwrap();
        }
        assert!(
            rt.watchdog_engaged(),
            "watchdog should engage after {WATCHDOG_TIMEOUT_S} s silent"
        );
        // Restore the link: a fallback push gets through, the Ack comes
        // back, and the watchdog disengages.
        link.set_fault_drop_per_mille(0);
        for _ in 0..(2 * ACK_TIMEOUT_S as usize) {
            rt.supervise(&mut link, 1.0).unwrap();
            link.step(1.0, 2.0, 60.0);
            rt.observe_responses(&link.take_responses());
        }
        assert!(
            !rt.watchdog_engaged(),
            "watchdog should recover once acks flow"
        );
        // The safe uniform split reached the firmware while engaged.
        let r = link.micro().discharge_ratios().to_vec();
        assert!((r[0] - 0.5).abs() < 1e-9 && (r[1] - 0.5).abs() < 1e-9);
        // And the next tick re-pushes policy ratios immediately.
        assert!(rt.tick(&mut link, &input, 0.0).unwrap());
    }

    #[test]
    fn command_retry_resends_last_ratios() {
        use sdb_emulator::link::Link;
        let mut link = Link::ideal(micro());
        link.seed_faults(3);
        link.set_fault_drop_per_mille(1000);
        let mut rt = SdbRuntime::new(2);
        rt.enable_resilience();
        let input = PolicyInput::from_micro(link.micro()).with_load(4.0);
        rt.tick(&mut link, &input, 1.0).unwrap();
        let sent_before = link.stats().sent;
        // Past the first backoff, well short of the watchdog.
        for _ in 0..(ACK_TIMEOUT_S as usize + 2) {
            rt.supervise(&mut link, 1.0).unwrap();
        }
        // One retry after ACK_TIMEOUT_S re-sends both tuples.
        assert!(link.stats().sent > sent_before);
    }

    #[test]
    fn stuck_gauge_flags_and_clears() {
        let mut rt = SdbRuntime::new(2);
        rt.enable_resilience();
        for k in 0..6 {
            rt.observe_status(&[
                status_row(0.5, 1.0),
                status_row(0.49 - 0.001 * f64::from(k), 1.0),
            ]);
        }
        assert!(rt.gauge_degraded(0));
        assert!(!rt.gauge_degraded(1));
        // The estimate moves again: suspicion clears.
        rt.observe_status(&[status_row(0.501, 1.0), status_row(0.4, 1.0)]);
        assert!(!rt.gauge_degraded(0));
    }

    #[test]
    fn resting_cell_not_flagged_stuck() {
        let mut rt = SdbRuntime::new(1);
        rt.enable_resilience();
        for _ in 0..10 {
            rt.observe_status(&[status_row(0.5, 0.0)]);
        }
        assert!(!rt.gauge_degraded(0));
    }

    #[test]
    fn degraded_gauge_widens_toward_uniform() {
        let mut m = micro();
        let mut rt = SdbRuntime::new(2);
        rt.set_discharge_directive(DischargeDirective::new(1.0));
        rt.enable_resilience();
        for k in 0..6 {
            rt.observe_status(&[
                status_row(0.5, 1.0),
                status_row(0.49 - 0.001 * f64::from(k), 1.0),
            ]);
        }
        assert!(rt.gauge_degraded(0));
        let input = PolicyInput::from_micro(&m).with_load(4.0);
        rt.tick(&mut m, &input, 1.0).unwrap();
        // With both batteries usable, widening commands the policy split
        // moved exactly GUARD_WIDEN of the way to uniform.
        let mut policy = PolicyScratch::new();
        DischargeDirective::new(1.0)
            .ratios_into(&input, &mut policy)
            .unwrap();
        assert!((policy.ratios()[0] - 0.5).abs() > 0.05, "policy is uniform");
        let widened: Vec<f64> = policy
            .ratios()
            .iter()
            .map(|r| (1.0 - GUARD_WIDEN) * r + GUARD_WIDEN * 0.5)
            .collect();
        let mut expected = micro();
        expected.set_discharge_ratios(&widened).unwrap();
        let r = m.discharge_ratios().to_vec();
        assert!(
            (r[0] - expected.discharge_ratios()[0]).abs() < 1e-9,
            "widened ratio {} not {}",
            r[0],
            expected.discharge_ratios()[0]
        );
    }

    #[test]
    fn all_empty_keeps_previous_ratios() {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.0,
                sdb_emulator::profile::ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type2CoStandard, 2.0),
                0.0,
                sdb_emulator::profile::ProfileKind::Standard,
            )
            .build();
        let mut rt = SdbRuntime::new(2);
        let input = PolicyInput::from_micro(&m).with_load(4.0);
        // Infeasible discharge (both empty) — tick succeeds, pushes only
        // the charge ratios (both cells accept charge when empty).
        let r = rt.tick(&mut m, &input, 1.0);
        assert!(r.is_ok());
    }

    /// Through a phone's day at fixed directives, the no-push certificate
    /// spares the solver nearly every evaluation; each certified tick's
    /// debug check confirms that it would not have pushed.
    #[test]
    fn certificate_skips_most_evaluations_of_a_phone_day() {
        use sdb_emulator::pack::PackTemplate;
        use sdb_workloads::traces::phone_day;
        let runs = phone_day(7).runs(60.0);
        let (mut evals, mut certified) = (0u32, 0u32);
        for d in [0.0, 0.5, 1.0] {
            let mut m = PackTemplate::named("phone", 1.0).unwrap().instantiate();
            let mut rt = SdbRuntime::new(m.battery_count());
            rt.set_discharge_directive(DischargeDirective::new(d));
            let mut input = PolicyInput::from_micro(&m);
            let mut probe = PolicyScratch::new();
            for &(p, n) in &runs {
                for _ in 0..n {
                    input.refill_from_micro(&m, true);
                    input.load_w = p.load_w;
                    input.external_w = p.external_w;
                    evals += 1;
                    let views: Vec<ViewBox> = input.batteries.iter().map(ViewBox::point).collect();
                    let last = &rt.last_discharge;
                    let dir = rt.discharge_directive;
                    if dir.cannot_push(&views, input.load_w, last, &mut probe) {
                        certified += 1;
                    }
                    rt.tick(&mut m, &input, p.dur_s).unwrap();
                    m.step(p.load_w, p.external_w, p.dur_s);
                }
            }
        }
        assert_eq!(evals, 3 * 1440);
        let share = f64::from(certified) / f64::from(evals);
        assert!(share > 0.95, "certified {certified} of {evals} evaluations");
    }

    /// Through a phone's day in hourly means (the shape of a history
    /// forecast), driven the way a planner rollout drives it (charge side
    /// off, each point told how many repeats follow), the certified box
    /// covers most ticks, which then skip the refill and the certificate.
    /// In debug builds each covered tick checks that its own input
    /// certifies and that its evaluation would not push.
    #[test]
    fn certified_boxes_cover_most_ticks_of_a_phone_day() {
        use sdb_emulator::pack::PackTemplate;
        use sdb_workloads::traces::{phone_day, Trace};
        let mut hourly = Trace::new();
        let mut energy_j = [0.0; 24];
        let mut t = 0.0;
        for p in phone_day(7).points() {
            energy_j[((t / 3600.0) as usize).min(23)] += p.load_w * p.dur_s;
            t += p.dur_s;
        }
        for e in energy_j {
            hourly.push(e / 3600.0, 0.0, 3600.0);
        }
        let runs = hourly.runs(60.0);
        let (mut ticks, mut covered) = (0u32, 0u32);
        for d in [0.0, 0.5, 1.0] {
            let mut m = PackTemplate::named("phone", 1.0).unwrap().instantiate();
            let mut rt = SdbRuntime::new(m.battery_count());
            rt.set_discharge_directive(DischargeDirective::new(d));
            rt.set_charge_evaluation(false);
            let mut input = PolicyInput::from_micro(&m);
            for &(p, n) in runs.iter().filter(|(p, _)| p.external_w == 0.0) {
                for left in (0..n).rev() {
                    ticks += 1;
                    covered += u32::from(rt.enter_box(&m, p.load_w, p.dur_s, left));
                    input.refill_from_micro(&m, false);
                    input.load_w = p.load_w;
                    rt.tick(&mut m, &input, p.dur_s).unwrap();
                    m.step(p.load_w, 0.0, p.dur_s);
                }
            }
        }
        let share = f64::from(covered) / f64::from(ticks);
        assert!(share > 0.75, "boxes covered {covered} of {ticks} ticks");
    }

    #[test]
    fn fast_forward_credit_matches_the_per_tick_clock() {
        // The per-tick clock the closed form must reproduce.
        fn per_tick(since_s: &mut f64, period_s: f64, dt_s: f64, ticks: u64) -> u64 {
            let mut evals = 0;
            for _ in 0..ticks {
                *since_s += dt_s;
                if *since_s >= period_s {
                    *since_s = 0.0;
                    evals += 1;
                }
            }
            evals
        }
        for dt_s in [60.0, 45.0, 7.5, 0.1] {
            for period_s in [dt_s / 3.0, dt_s, dt_s * 2.5, 60.0, f64::INFINITY] {
                for since_s in [0.0, period_s / 2.0, f64::MAX] {
                    for ticks in [0, 1, 2, 59, 60, 1_000] {
                        let mut rt = SdbRuntime::new(2);
                        rt.set_update_period(period_s);
                        rt.since_update_s = since_s;
                        let mut reference = since_s;
                        let want = per_tick(&mut reference, period_s, dt_s, ticks);
                        let got = rt.note_fast_forward(dt_s, ticks);
                        let case = format!("dt {dt_s} period {period_s} since {since_s} x{ticks}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(rt.since_update_s.to_bits(), reference.to_bits(), "{case}");
                    }
                }
            }
        }
    }
}
