//! The SDB microcontroller.
//!
//! "A microcontroller interfaces between this power distribution circuitry
//! and the mobile device OS to control the charging and discharging of
//! batteries" (Section 3.1). Policies live in the OS; the microcontroller
//! only *enforces* the ratios it is handed (Section 3.1: "we only implement
//! the mechanisms in hardware, and all policies are managed and set by the
//! OS"). This module implements those mechanisms over the simulated cells
//! and circuits, with full energy accounting.

use crate::pack::PackConfig;
use crate::profile::{ChargingProfile, ProfileKind};
use crate::snapshot::{PackSnapshot, TransferSnapshot};
use sdb_battery_model::error::BatteryError;
use sdb_battery_model::thevenin::TheveninCell;
use sdb_fuel_gauge::gauge::{BatteryStatus, FuelGauge};
use sdb_observe::{Counter, Flow, ObsEvent, Observer};
use sdb_power_electronics::circuits::{
    ChargeCircuit, ChargeTopology, DischargeCircuit, DischargeTopology,
};
use sdb_power_electronics::error::{check_ratios, PowerError};
use sdb_power_electronics::measurement::ShareChain;

/// Counter handles the firmware hot paths update without touching the
/// registry lock (registered once in [`Microcontroller::set_observer`]).
#[derive(Debug, Clone)]
struct MicroMetrics {
    steps: Counter,
    brownout_steps: Counter,
    safety_clamps: Counter,
    ratio_pushes_charge: Counter,
    ratio_pushes_discharge: Counter,
    throttle_transitions: Counter,
}

/// Firmware thermal charge-throttle: when a charging cell exceeds
/// `limit_c`, the microcontroller drops it to the gentle profile until it
/// cools below `resume_c` ("the SDB microcontroller dynamically selects
/// the appropriate charging profile", Section 3.2.2; temperature is one of
/// the paper's policy triggers, Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalThrottle {
    /// Temperature at which charging throttles, °C.
    pub limit_c: f64,
    /// Temperature below which full-rate charging resumes, °C.
    pub resume_c: f64,
}

/// An in-flight `ChargeOneFromAnother(X, Y, W, T)` order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    from: usize,
    to: usize,
    power_w: f64,
    remaining_s: f64,
}

/// Per-battery information for one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryStepInfo {
    /// Current drawn from (positive) or pushed into (negative) the cell,
    /// amps.
    pub current_a: f64,
    /// Terminal voltage, volts.
    pub terminal_v: f64,
    /// State of charge after the step.
    pub soc: f64,
    /// Heat dissipated in the cell this step, watts.
    pub(crate) heat_w: f64,
}

/// Outcome of one emulation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Emulation time after the step, seconds.
    pub(crate) time_s: f64,
    /// Load requested, watts.
    pub load_w: f64,
    /// Load actually supplied, watts.
    pub supplied_w: f64,
    /// Unserved load (brownout), watts.
    pub unmet_w: f64,
    /// Power lost in the switching/charging circuits, watts.
    pub circuit_loss_w: f64,
    /// Heat dissipated inside all cells, watts.
    pub cell_heat_w: f64,
    /// External supply power consumed, watts.
    pub(crate) external_used_w: f64,
    /// Power delivered *into* cells while charging, watts.
    pub(crate) charged_w: f64,
    /// Per-battery detail.
    pub batteries: BatterySteps,
}

/// Per-battery step details for a [`StepReport`].
///
/// Behaves like a boxed slice of [`BatteryStepInfo`] (it derefs to
/// `[BatteryStepInfo]`, so indexing, `iter()`, `len()`, and `for` loops
/// all work), but stores up to [`BatterySteps::INLINE`] entries inline:
/// reporting a step for a typical pack (the paper's devices have 2–4
/// batteries) performs no heap allocation. Larger packs spill to a `Vec`.
#[derive(Clone)]
pub struct BatterySteps {
    len: usize,
    inline: [BatteryStepInfo; Self::INLINE],
    spill: Vec<BatteryStepInfo>,
}

impl BatterySteps {
    /// Maximum entry count stored without a heap allocation.
    pub const INLINE: usize = 8;

    const EMPTY: BatteryStepInfo = BatteryStepInfo {
        current_a: 0.0,
        terminal_v: 0.0,
        soc: 0.0,
        heat_w: 0.0,
    };

    /// `n` zeroed entries, inline up to [`BatterySteps::INLINE`] and
    /// spilled to one heap allocation beyond.
    #[must_use]
    fn zeroed(n: usize) -> Self {
        Self {
            len: n,
            inline: [Self::EMPTY; Self::INLINE],
            spill: if n > Self::INLINE {
                vec![Self::EMPTY; n]
            } else {
                Vec::new()
            },
        }
    }

    /// The entries as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[BatteryStepInfo] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// The entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [BatteryStepInfo] {
        if self.len <= Self::INLINE {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl std::ops::Deref for BatterySteps {
    type Target = [BatteryStepInfo];
    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl std::ops::DerefMut for BatterySteps {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for BatterySteps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for BatterySteps {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a BatterySteps {
    type Item = &'a BatteryStepInfo;
    type IntoIter = std::slice::Iter<'a, BatteryStepInfo>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut BatterySteps {
    type Item = &'a mut BatteryStepInfo;
    type IntoIter = std::slice::IterMut<'a, BatteryStepInfo>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// Per-battery working buffers for [`Microcontroller::step`], sized to
/// the pack once at construction.
///
/// The step loop is the simulation's innermost hot path (one call per
/// device per trace point across a whole fleet, and ~99% of a planned
/// fleet's steps run inside planner rollouts). A step overwrites every
/// entry it reads, so the buffers are never cleared, resized or moved,
/// and a steady-state step performs zero heap allocations.
#[derive(Debug, Clone)]
struct StepBuffers {
    /// Per-battery deliverable-power ceiling for the planning pass.
    p_max: Box<[f64]>,
    /// Per-battery planned power allocation.
    alloc: Box<[f64]>,
    /// Working copy of the discharge ratios (zeroed as cells saturate).
    shares: Box<[f64]>,
    /// Whether each battery served its full allotment (top-up pass).
    full_served: Box<[bool]>,
}

impl StepBuffers {
    fn new(n: usize) -> Self {
        Self {
            p_max: vec![0.0; n].into(),
            alloc: vec![0.0; n].into(),
            shares: vec![0.0; n].into(),
            full_served: vec![false; n].into(),
        }
    }
}

/// The emulated SDB microcontroller and its pack.
#[derive(Debug, Clone)]
pub struct Microcontroller {
    cells: Vec<TheveninCell>,
    gauges: Vec<FuelGauge>,
    profiles: Vec<ChargingProfile>,
    discharge_ratios: Vec<f64>,
    charge_ratios: Vec<f64>,
    discharge_circuit: DischargeCircuit,
    charge_circuit: ChargeCircuit,
    share_chain: ShareChain,
    transfer: Option<Transfer>,
    /// Physical presence per battery (detachable packs may be absent).
    present: Vec<bool>,
    /// Optional firmware thermal throttle for charging.
    thermal_throttle: Option<ThermalThrottle>,
    /// Per-battery throttle latch.
    throttled: Vec<bool>,
    time_s: f64,
    delivered_j: f64,
    circuit_loss_j: f64,
    cell_heat_j: f64,
    unmet_j: f64,
    external_in_j: f64,
    /// Observability hook (no-op unless an observer is installed).
    observer: Observer,
    /// Cached metric handles (present only when the observer has a
    /// registry).
    metrics: Option<MicroMetrics>,
    /// Per-battery step working buffers (see [`StepBuffers`]).
    buffers: StepBuffers,
    /// Events staged during a step, flushed in one batch.
    staged: Vec<(f64, ObsEvent)>,
    /// Whether each step samples the fuel gauges (configuration, like the
    /// observer: kept by `clone`, outside [`PackSnapshot`]).
    gauge_sampling: bool,
}

impl Microcontroller {
    /// Builds the controller from a pack configuration.
    ///
    /// # Panics
    ///
    /// Panics if the pack has no slots (checked by the builder).
    #[must_use]
    pub(crate) fn new(config: PackConfig) -> Self {
        let n = config.slots.len();
        assert!(n > 0, "a pack needs at least one battery");
        let mut cells = Vec::with_capacity(n);
        let mut gauges = Vec::with_capacity(n);
        let mut profiles = Vec::with_capacity(n);
        let max_charge_a = config
            .slots
            .iter()
            .map(|s| s.spec.max_charge_a)
            .fold(0.0f64, f64::max);
        for slot in config.slots {
            profiles.push(ChargingProfile::for_spec(slot.profile, &slot.spec));
            // The gauge and the cell share the slot's Arc'd spec — an Arc
            // clone, not a deep copy of the curve tables.
            gauges.push(FuelGauge::new(
                std::sync::Arc::clone(&slot.spec),
                slot.initial_soc,
                config.gauge,
            ));
            let capacity_ah = slot.spec.capacity_ah;
            let mut cell = TheveninCell::with_soc(slot.spec, slot.initial_soc);
            if let Some(ambient) = config.ambient_c {
                cell = cell.with_thermal(
                    sdb_battery_model::thermal::ThermalModel::for_capacity_at(capacity_ah, ambient),
                );
            }
            cells.push(cell);
        }
        Self {
            cells,
            gauges,
            profiles,
            discharge_ratios: vec![1.0 / n as f64; n],
            charge_ratios: vec![1.0 / n as f64; n],
            discharge_circuit: DischargeCircuit::new(DischargeTopology::SdbIntegrated, n),
            charge_circuit: ChargeCircuit::new(
                ChargeTopology::SdbReversible,
                n,
                max_charge_a.max(1.0),
            ),
            share_chain: ShareChain::prototype(),
            transfer: None,
            present: vec![true; n],
            thermal_throttle: None,
            throttled: vec![false; n],
            time_s: 0.0,
            delivered_j: 0.0,
            circuit_loss_j: 0.0,
            cell_heat_j: 0.0,
            unmet_j: 0.0,
            external_in_j: 0.0,
            observer: Observer::disabled(),
            metrics: None,
            buffers: StepBuffers::new(n),
            staged: Vec::with_capacity(2 * n + 4),
            gauge_sampling: true,
        }
    }

    /// Installs the observability hook on the firmware and every fuel
    /// gauge. Pass [`Observer::disabled`] to turn instrumentation off
    /// again. New controllers start disabled.
    pub fn set_observer(&mut self, observer: Observer) {
        self.metrics = observer.registry().map(|reg| MicroMetrics {
            steps: reg.counter("sdb_micro_steps_total", &[]),
            brownout_steps: reg.counter("sdb_micro_brownout_steps_total", &[]),
            safety_clamps: reg.counter("sdb_safety_clamps_total", &[]),
            ratio_pushes_charge: reg.counter("sdb_ratio_pushes_total", &[("flow", "charge")]),
            ratio_pushes_discharge: reg.counter("sdb_ratio_pushes_total", &[("flow", "discharge")]),
            throttle_transitions: reg.counter("sdb_thermal_throttle_transitions_total", &[]),
        });
        for (i, gauge) in self.gauges.iter_mut().enumerate() {
            gauge.set_observer(observer.clone(), i);
        }
        self.observer = observer;
    }

    /// The installed observability hook.
    #[must_use]
    pub(crate) fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Turns per-step fuel-gauge sampling on (the default) or off. With
    /// it off, [`Microcontroller::step`] still relaxes idle cells but
    /// leaves the gauges where they are. Gauges feed nothing back into
    /// the physics, so the cells, ratios, energy totals and transfer
    /// evolve bit-identically either way. For a disposable pack that
    /// reloads its gauges from a [`PackSnapshot`] before each use and
    /// never reads them in between (the planner's rollout scratch).
    /// [`Microcontroller::restore_from`] leaves the setting alone.
    pub fn set_gauge_sampling(&mut self, on: bool) {
        self.gauge_sampling = on;
    }

    /// Turns the cells' discharge-side C-rate accumulators on (the
    /// default) or off. They are read only when a charge cycle completes,
    /// so a pack that completes none (no external power, no transfer)
    /// before it is restored from a [`PackSnapshot`] evolves
    /// bit-identically either way. For the planner's rollout scratch,
    /// like [`Microcontroller::set_gauge_sampling`];
    /// [`Microcontroller::restore_from`] leaves the setting alone.
    pub fn set_discharge_rate_tracking(&mut self, on: bool) {
        for cell in &mut self.cells {
            cell.set_discharge_rate_tracking(on);
        }
    }

    /// Number of batteries in the pack.
    #[must_use]
    pub fn battery_count(&self) -> usize {
        self.cells.len()
    }

    /// `Discharge(d1, ..., dN)`: sets the discharge power ratios. The
    /// hardware realizes each ratio through the share chain (duty
    /// quantization + sensor mismatch) and renormalizes.
    ///
    /// # Errors
    ///
    /// [`PowerError::WrongChannelCount`] / [`PowerError::InvalidRatios`]
    /// for malformed tuples.
    pub fn set_discharge_ratios(&mut self, ratios: &[f64]) -> Result<(), PowerError> {
        self.check_ratio_tuple(ratios)?;
        realize_into(&self.share_chain, ratios, &mut self.discharge_ratios);
        if let Some(m) = &self.metrics {
            m.ratio_pushes_discharge.inc();
        }
        if self.observer.wants_events() {
            self.observer.emit(ObsEvent::RatioPush {
                flow: Flow::Discharge,
                ratios: self.discharge_ratios.clone(),
            });
        }
        Ok(())
    }

    /// `Charge(c1, ..., cN)`: sets the charge power ratios.
    ///
    /// # Errors
    ///
    /// As [`Microcontroller::set_discharge_ratios`].
    pub fn set_charge_ratios(&mut self, ratios: &[f64]) -> Result<(), PowerError> {
        self.check_ratio_tuple(ratios)?;
        realize_into(&self.share_chain, ratios, &mut self.charge_ratios);
        if let Some(m) = &self.metrics {
            m.ratio_pushes_charge.inc();
        }
        if self.observer.wants_events() {
            self.observer.emit(ObsEvent::RatioPush {
                flow: Flow::Charge,
                ratios: self.charge_ratios.clone(),
            });
        }
        Ok(())
    }

    fn check_ratio_tuple(&self, ratios: &[f64]) -> Result<(), PowerError> {
        if ratios.len() != self.cells.len() {
            return Err(PowerError::WrongChannelCount {
                expected: self.cells.len(),
                got: ratios.len(),
            });
        }
        check_ratios(ratios)
    }

    /// Credits `n` emulation steps that the SoA engine fast-forwarded
    /// past, keeping the step counters engine-invariant.
    pub fn credit_skipped_steps(&self, n: u64) {
        if let Some(m) = &self.metrics {
            m.steps.add(n);
        }
    }

    /// `ChargeOneFromAnother(X, Y, W, T)`: charge battery `to` from battery
    /// `from` with `power_w` watts for `duration_s` seconds.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for bad indices, self-transfer, or
    /// non-positive power/duration.
    pub fn charge_one_from_another(
        &mut self,
        from: usize,
        to: usize,
        power_w: f64,
        duration_s: f64,
    ) -> Result<(), PowerError> {
        if from >= self.cells.len() || to >= self.cells.len() || from == to {
            return Err(PowerError::InvalidParameter {
                name: "battery index",
                value: to as f64,
            });
        }
        if !power_w.is_finite() || power_w <= 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "power_w",
                value: power_w,
            });
        }
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return Err(PowerError::InvalidParameter {
                name: "duration_s",
                value: duration_s,
            });
        }
        self.transfer = Some(Transfer {
            from,
            to,
            power_w,
            remaining_s: duration_s,
        });
        Ok(())
    }

    /// Attaches or detaches a battery (e.g. a 2-in-1 keyboard base being
    /// undocked). An absent battery supplies no power, accepts no charge,
    /// and aborts any transfer it participates in.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for an out-of-range index.
    pub fn set_battery_present(&mut self, battery: usize, present: bool) -> Result<(), PowerError> {
        if battery >= self.cells.len() {
            return Err(PowerError::InvalidParameter {
                name: "battery index",
                value: battery as f64,
            });
        }
        if self.present[battery] != present {
            self.observer
                .emit(ObsEvent::BatteryPresence { battery, present });
        }
        self.present[battery] = present;
        if !present {
            if let Some(t) = self.transfer {
                if t.from == battery || t.to == battery {
                    self.transfer = None;
                }
            }
        }
        Ok(())
    }

    /// Whether a battery is physically attached.
    ///
    /// # Panics
    ///
    /// Panics if `battery` is out of range.
    #[must_use]
    pub fn battery_present(&self, battery: usize) -> bool {
        self.present[battery]
    }

    /// Installs (or with `None` clears) a measurement fault on one
    /// battery's fuel gauge (chaos testing).
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for an out-of-range index.
    pub fn set_gauge_fault(
        &mut self,
        battery: usize,
        fault: Option<sdb_fuel_gauge::gauge::GaugeFault>,
    ) -> Result<(), PowerError> {
        let Some(gauge) = self.gauges.get_mut(battery) else {
            return Err(PowerError::InvalidParameter {
                name: "battery index",
                value: battery as f64,
            });
        };
        gauge.set_fault(fault);
        Ok(())
    }

    /// The active fault on one battery's gauge, if any.
    ///
    /// # Panics
    ///
    /// Panics if `battery` is out of range.
    #[must_use]
    pub fn gauge_fault(&self, battery: usize) -> Option<sdb_fuel_gauge::gauge::GaugeFault> {
        self.gauges[battery].fault()
    }

    /// Installs (or with `1.0` clears) a fault resistance multiplier on
    /// one cell, emulating sudden DCIR growth (chaos testing).
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] for an out-of-range index.
    pub fn set_cell_fault_resistance(
        &mut self,
        battery: usize,
        mult: f64,
    ) -> Result<(), PowerError> {
        let Some(cell) = self.cells.get_mut(battery) else {
            return Err(PowerError::InvalidParameter {
                name: "battery index",
                value: battery as f64,
            });
        };
        cell.set_fault_resistance_mult(mult);
        Ok(())
    }

    /// Installs (or clears) the firmware thermal charge-throttle. Only
    /// effective on packs built with thermal simulation enabled
    /// ([`crate::pack::PackBuilder::ambient_c`]).
    pub fn set_thermal_throttle(&mut self, throttle: Option<ThermalThrottle>) {
        self.thermal_throttle = throttle;
        if throttle.is_none() {
            self.throttled.iter_mut().for_each(|t| *t = false);
        }
    }

    /// The installed thermal throttle, if any.
    #[must_use]
    pub fn thermal_throttle(&self) -> Option<ThermalThrottle> {
        self.thermal_throttle
    }

    /// Whether a battery-to-battery transfer is in flight.
    #[must_use]
    pub fn transfer_active(&self) -> bool {
        self.transfer.is_some()
    }

    /// `QueryBatteryStatus()`: per-battery gauge rows (absent batteries are
    /// flagged).
    #[must_use]
    pub fn query_battery_status(&self) -> Vec<BatteryStatus> {
        self.gauges
            .iter()
            .zip(&self.present)
            .map(|(g, &present)| {
                let mut s = g.status();
                s.present = present;
                s
            })
            .collect()
    }

    /// The charge current battery `battery` can currently accept under its
    /// selected profile and rating, amps.
    ///
    /// # Panics
    ///
    /// Panics if `battery` is out of range.
    #[must_use]
    pub fn charge_acceptance_a(&self, battery: usize) -> f64 {
        let cell = &self.cells[battery];
        if !self.present[battery] || cell.is_full() {
            0.0
        } else {
            self.profiles[battery]
                .current_at(cell.soc())
                .min(cell.spec().max_charge_a)
        }
    }

    /// Ground-truth cell access (the emulator's "oracle"; scenario code and
    /// metrics use it, the OS runtime must go through the gauges).
    #[must_use]
    pub fn cells(&self) -> &[TheveninCell] {
        &self.cells
    }

    /// The fuel-gauge front-end configuration (identical across slots).
    #[must_use]
    pub(crate) fn gauge_config(&self) -> sdb_fuel_gauge::gauge::GaugeConfig {
        self.gauges[0].config()
    }

    /// Current discharge ratios as realized by the hardware.
    #[must_use]
    pub fn discharge_ratios(&self) -> &[f64] {
        &self.discharge_ratios
    }

    /// Current charge ratios as realized by the hardware.
    #[must_use]
    pub fn charge_ratios(&self) -> &[f64] {
        &self.charge_ratios
    }

    /// Emulation time, seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Lifetime accounting: `(delivered, circuit_loss, cell_heat, unmet,
    /// external_in)`, joules.
    #[must_use]
    pub fn energy_totals_j(&self) -> (f64, f64, f64, f64, f64) {
        (
            self.delivered_j,
            self.circuit_loss_j,
            self.cell_heat_j,
            self.unmet_j,
            self.external_in_j,
        )
    }

    /// Advances the emulation by `dt_s` seconds with a system load of
    /// `load_w` watts and `external_w` watts of external supply available.
    ///
    /// Semantics: external power first serves the load (bypassing the
    /// batteries); the surplus charges batteries per the charge ratios and
    /// their profiles; any load not covered by external power is drawn from
    /// the batteries per the discharge ratios. A battery that cannot supply
    /// its allotted share (empty / power-infeasible) has its share
    /// redistributed to the others; anything still unserved is reported as
    /// unmet.
    ///
    /// The per-battery report is written in place from zeroed entries:
    /// every cell's entry is set by its discharge, its charge or, when it
    /// carried no current, its rest. The discharge phase works on the
    /// fixed `StepBuffers`; a discharge-only step (no surplus external
    /// power, no transfer) touches nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s`, `load_w` or `external_w` are negative or
    /// non-finite.
    // Index loops are deliberate: the discharge phase walks several
    // per-battery buffers in step with the cells.
    #[allow(clippy::needless_range_loop)]
    pub fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport {
        assert!(dt_s.is_finite() && dt_s > 0.0, "bad dt: {dt_s}");
        assert!(load_w.is_finite() && load_w >= 0.0, "bad load: {load_w}");
        assert!(
            external_w.is_finite() && external_w >= 0.0,
            "bad external: {external_w}"
        );
        self.observer.set_clock(self.time_s);
        // Sampling-gate profiling scope: counts every step, wall-clock
        // times 1-in-N (inheriting the scheduler's gate when nested under
        // a TraceStep). The `hot_sub` guards below are a single branch on
        // cold steps, keeping profiler overhead within the ≤5 % budget
        // the micro-step bench asserts.
        let prof_step = sdb_prof::step(sdb_prof::Phase::MicroStep);

        let n = self.cells.len();
        // Firmware housekeeping: refresh the thermal-throttle latches.
        if self.thermal_throttle.is_some() {
            for i in 0..n {
                self.update_throttle_latch(i);
            }
        }
        let mut info = BatterySteps::zeroed(n);

        let mut circuit_loss_w = 0.0;
        let mut cell_heat_w = 0.0;
        let mut supplied_w = 0.0;
        let mut unmet_w = 0.0;
        let mut external_used_w = 0.0;
        let mut charged_w = 0.0;

        // 1. External power covers the load first.
        let load_from_external = load_w.min(external_w);
        supplied_w += load_from_external;
        external_used_w += load_from_external;
        let battery_load_w = load_w - load_from_external;
        let surplus_external_w = external_w - load_from_external;

        // 2. Battery discharge for the remaining load.
        if battery_load_w > 0.0 {
            let Self {
                cells,
                present,
                discharge_ratios,
                discharge_circuit,
                buffers,
                staged,
                metrics,
                observer,
                ..
            } = self;
            let StepBuffers {
                p_max,
                alloc,
                shares,
                full_served,
            } = buffers;
            let metrics = metrics.as_ref();
            let prof_curve = prof_step.hot_sub(sdb_prof::Phase::CurveEval);
            // Mean rest terminal voltage across non-empty cells (for the
            // circuit loss estimate).
            let mean_v = {
                let (sum, count) = cells
                    .iter()
                    .filter(|c| !c.is_empty())
                    .fold((0.0, 0usize), |(s, k), c| {
                        (s + c.terminal_voltage(0.0), k + 1)
                    });
                if count == 0 {
                    3.7
                } else {
                    sum / count as f64
                }
            };
            let loss_w = discharge_circuit
                .loss_w(battery_load_w, mean_v)
                .unwrap_or(0.0);
            let total_draw_w = battery_load_w + loss_w;

            // Plan first, then apply: allocate power across batteries
            // without touching cell state, capping each at what it can
            // physically deliver this step (current limit, quadratic power
            // ceiling, and remaining energy), redistributing the excess.
            // Each cell is then stepped exactly once, so gauges, thermal
            // state, and per-cell current limits all see the real combined
            // draw.
            for i in 0..n {
                p_max[i] = if !present[i] || cells[i].is_empty() {
                    0.0
                } else {
                    // Current-cap, quadratic, and remaining-energy bounds
                    // in one query (one OCV/DCIR lookup instead of five).
                    cells[i].plan_discharge_cap_w(dt_s)
                };
            }
            drop(prof_curve);
            let prof_rc = prof_step.hot_sub(sdb_prof::Phase::RcState);

            for i in 0..n {
                alloc[i] = 0.0;
                shares[i] = if p_max[i] <= 0.0 {
                    0.0
                } else {
                    discharge_ratios[i]
                };
            }
            let mut remaining_w = total_draw_w;
            for _round in 0..n {
                let sum: f64 = shares.iter().sum();
                if sum <= 0.0 || remaining_w <= 1e-12 {
                    break;
                }
                let mut next_remaining = 0.0;
                for i in 0..n {
                    let share = shares[i] / sum;
                    if share <= 0.0 {
                        continue;
                    }
                    let want = remaining_w * share;
                    let headroom = (p_max[i] - alloc[i]).max(0.0);
                    let take = want.min(headroom);
                    alloc[i] += take;
                    if take < want - 1e-12 {
                        // Saturated: drop from future rounds.
                        shares[i] = 0.0;
                        next_remaining += want - take;
                    }
                }
                if next_remaining <= 1e-12 {
                    break;
                }
                remaining_w = next_remaining;
            }

            // Apply: one step per allocated battery.
            let mut served = 0.0f64;
            for i in 0..n {
                full_served[i] = false;
                if alloc[i] <= 0.0 {
                    continue;
                }
                match discharge_cell(&mut cells[i], i, alloc[i], dt_s, metrics, observer, staged) {
                    Ok((out, time_frac, power_frac)) => {
                        info[i] = out;
                        // Heat is a rate over the time actually simulated.
                        cell_heat_w += out.heat_w * time_frac;
                        served += alloc[i] * time_frac * power_frac;
                        full_served[i] = time_frac * power_frac > 1.0 - 1e-9;
                    }
                    Err(_) => {
                        // Planned-feasible but failed (e.g. emptied by a
                        // concurrent transfer): counts as unserved.
                    }
                }
            }
            // Top-up pass: a cell that emptied mid-step leaves a small
            // truncation shortfall the energy bound could not foresee.
            // Offer it once to the cells that served their full allotment
            // and still have headroom (they get a second, small draw this
            // step — the per-battery report keeps the main draw).
            let mut shortfall = (total_draw_w - served).max(0.0);
            if shortfall > 1e-9 {
                for i in 0..n {
                    if shortfall <= 1e-9 {
                        break;
                    }
                    if !full_served[i] {
                        continue;
                    }
                    let headroom = (p_max[i] - alloc[i]).max(0.0);
                    let extra = shortfall.min(headroom);
                    if extra <= 1e-9 {
                        continue;
                    }
                    if let Ok((out, time_frac, power_frac)) =
                        discharge_cell(&mut cells[i], i, extra, dt_s, metrics, observer, staged)
                    {
                        cell_heat_w += out.heat_w * time_frac;
                        let got = extra * time_frac * power_frac;
                        served += got;
                        shortfall -= got;
                        // Merge into the per-battery record so the gauges
                        // integrate the cell's *combined* current.
                        info[i].current_a += out.current_a * time_frac;
                        info[i].heat_w += out.heat_w * time_frac;
                        info[i].terminal_v = out.terminal_v;
                        info[i].soc = out.soc;
                    }
                }
            }
            let served = served.min(total_draw_w);
            let actual_loss = loss_w * (served / total_draw_w.max(f64::EPSILON));
            circuit_loss_w += actual_loss;
            let served_load = (served - actual_loss).max(0.0);
            supplied_w += served_load;
            unmet_w += battery_load_w - served_load;
            drop(prof_rc);
        }

        let prof_xfer = prof_step.hot_sub(sdb_prof::Phase::ChargeTransfer);
        // 3. Surplus external power charges batteries per charge ratios.
        if surplus_external_w > 0.0 {
            for i in 0..n {
                let share = self.charge_ratios[i];
                if share <= 0.0 || self.cells[i].is_full() || !self.present[i] {
                    continue;
                }
                let v_batt = self.cells[i].terminal_voltage(0.0);
                // The channel regulator caps how much of the surplus this
                // battery can take.
                let allotted_w = (surplus_external_w * share)
                    .min(self.charge_circuit.max_channel_power_w(v_batt));
                let after_reg_w = self
                    .charge_circuit
                    .external_charge_w(allotted_w, v_batt)
                    .unwrap_or(0.0);
                let (used_w, into_cell_w, heat, outcome) =
                    self.try_charge(i, after_reg_w, dt_s, allotted_w);
                external_used_w += used_w;
                // Regulator loss is what left the supply but never reached
                // the cell's terminals (cell-internal heat is part of the
                // terminal power and is booked under cell heat).
                circuit_loss_w += (used_w - into_cell_w).max(0.0);
                charged_w += into_cell_w;
                cell_heat_w += heat;
                if let Some(out) = outcome {
                    info[i] = out;
                }
            }
        }

        // 4. Battery-to-battery transfer.
        if let Some(mut t) = self.transfer.take() {
            let run_s = dt_s.min(t.remaining_s);
            if run_s > 0.0
                && self.present[t.from]
                && self.present[t.to]
                && !self.cells[t.from].is_empty()
                && !self.cells[t.to].is_full()
            {
                let v_src = self.cells[t.from].terminal_voltage(0.0);
                let v_dst = self.cells[t.to].terminal_voltage(0.0);
                // Cap at the channel regulator rating; average over the
                // step when the transfer ends mid-step.
                let power_w = t
                    .power_w
                    .min(self.charge_circuit.max_channel_power_w(v_src));
                // Don't draw more from the source than the destination can
                // accept (plus conversion losses): estimate the path
                // efficiency and the destination's acceptance power, and
                // cap the source draw accordingly.
                let accept_w = self.charge_acceptance_a(t.to) * v_dst.max(0.1);
                let eta_est = (self
                    .charge_circuit
                    .battery_to_battery_w(power_w.max(0.1), v_src, v_dst)
                    .unwrap_or(0.0)
                    / power_w.max(0.1))
                .clamp(0.1, 1.0);
                let power_w = power_w.min(accept_w / eta_est);
                let scaled = power_w * (run_s / dt_s);
                if let Ok((out_from, src_time_frac, src_power_frac)) = discharge_cell(
                    &mut self.cells[t.from],
                    t.from,
                    scaled,
                    dt_s,
                    self.metrics.as_ref(),
                    &self.observer,
                    &mut self.staged,
                ) {
                    // The source may empty mid-step: only the fraction it
                    // actually supplied moves across.
                    let src_frac = src_time_frac * src_power_frac;
                    let moved_w = power_w * (run_s / dt_s) * src_frac;
                    cell_heat_w += out_from.heat_w * src_time_frac;
                    // The source may also be serving load this step: merge
                    // the transfer draw into its record (gauges integrate
                    // the combined current).
                    info[t.from].current_a += out_from.current_a * src_time_frac;
                    info[t.from].heat_w += out_from.heat_w * src_time_frac;
                    info[t.from].terminal_v = out_from.terminal_v;
                    info[t.from].soc = out_from.soc;
                    let reachable_w = self
                        .charge_circuit
                        .battery_to_battery_w(moved_w, v_src, v_dst)
                        .unwrap_or(0.0);
                    let (_, into_cell_w, heat, outcome) =
                        self.try_charge(t.to, reachable_w, dt_s, reachable_w);
                    // Conversion loss: source terminal power that never
                    // reached the destination's terminals (both cells'
                    // internal heats are booked separately).
                    circuit_loss_w += (moved_w - into_cell_w).max(0.0);
                    charged_w += into_cell_w;
                    cell_heat_w += heat;
                    if let Some(out) = outcome {
                        // Merge: the destination may also have been charged
                        // from the external supply this step.
                        info[t.to].current_a += out.current_a;
                        info[t.to].heat_w += out.heat_w;
                        info[t.to].terminal_v = out.terminal_v;
                        info[t.to].soc = out.soc;
                    }
                }
            }
            t.remaining_s -= run_s;
            if t.remaining_s > 1e-9 {
                self.transfer = Some(t);
            }
        }
        drop(prof_xfer);

        // Flush the events staged during phases 1–4 in one batch (one
        // capture lock per step instead of one per slot), in stage order and with
        // their original timestamps. This must happen before the gauges
        // sample: gauges emit recalibration events directly, and the trace
        // byte-order must match per-slot emission.
        if !self.staged.is_empty() {
            let _prof_emit = prof_step.hot_sub(sdb_prof::Phase::ObserverEmit);
            self.observer.emit_staged(&mut self.staged);
        }

        // 5. Idle cells relax; gauges sample every cell (unless sampling
        // is off).
        {
            let _prof_gauge = prof_step.hot_sub(sdb_prof::Phase::GaugeUpdate);
            for (i, b) in info.iter_mut().enumerate() {
                if b.current_a == 0.0 {
                    self.cells[i].rest(dt_s);
                    b.terminal_v = self.cells[i].terminal_voltage(0.0);
                    b.soc = self.cells[i].soc();
                }
                if self.gauge_sampling {
                    self.gauges[i].sample(b.terminal_v, b.current_a, dt_s);
                }
            }
        }

        self.time_s += dt_s;
        self.delivered_j += supplied_w * dt_s;
        self.circuit_loss_j += circuit_loss_w * dt_s;
        self.cell_heat_j += cell_heat_w * dt_s;
        self.unmet_j += unmet_w * dt_s;
        self.external_in_j += external_used_w * dt_s;

        // Advance the shared clock so events emitted between steps (policy
        // ticks, ratio pushes) carry the post-step time.
        self.observer.set_clock(self.time_s);
        if let Some(m) = &self.metrics {
            m.steps.inc();
            if unmet_w > 1e-9 {
                m.brownout_steps.inc();
            }
        }
        if self.observer.wants_events() {
            let _prof_emit = prof_step.hot_sub(sdb_prof::Phase::ObserverEmit);
            self.observer.emit_at(
                self.time_s,
                ObsEvent::StepSample {
                    load_w,
                    supplied_w,
                    loss_w: circuit_loss_w + cell_heat_w,
                    soc: info.iter().map(|b| b.soc).collect(),
                    current_a: info.iter().map(|b| b.current_a).collect(),
                },
            );
        }

        StepReport {
            time_s: self.time_s,
            load_w,
            supplied_w,
            unmet_w,
            circuit_loss_w,
            cell_heat_w,
            external_used_w,
            charged_w,
            batteries: info,
        }
    }

    /// Updates the per-battery thermal-throttle latch from the cell's
    /// present temperature.
    fn update_throttle_latch(&mut self, i: usize) {
        let Some(throttle) = self.thermal_throttle else {
            return;
        };
        let Some(temp) = self.cells[i].temperature_c() else {
            return;
        };
        if self.throttled[i] {
            if temp < throttle.resume_c {
                self.throttled[i] = false;
                self.note_throttle_transition(i, false, temp);
            }
        } else if temp > throttle.limit_c {
            self.throttled[i] = true;
            self.note_throttle_transition(i, true, temp);
        }
    }

    fn note_throttle_transition(&mut self, battery: usize, engaged: bool, temperature_c: f64) {
        if let Some(m) = &self.metrics {
            m.throttle_transitions.inc();
        }
        stage_event(
            &self.observer,
            &mut self.staged,
            ObsEvent::ThermalThrottle {
                battery,
                engaged,
                temperature_c,
            },
        );
    }

    /// Attempts to push `power_w` into battery `i`'s terminals for `dt_s`,
    /// capped by the selected charging profile and the cell's charge
    /// current limit. Returns `(external power consumed, power into cell,
    /// cell heat, per-battery info)`.
    fn try_charge(
        &mut self,
        i: usize,
        power_w: f64,
        dt_s: f64,
        allotted_w: f64,
    ) -> (f64, f64, f64, Option<BatteryStepInfo>) {
        if power_w <= 0.0 {
            return (0.0, 0.0, 0.0, None);
        }
        let (cap_i, hard_cap_binds) = {
            let cell = &self.cells[i];
            let profile_cap = if self.throttled[i] {
                ChargingProfile::for_spec(ProfileKind::Gentle, cell.spec()).current_at(cell.soc())
            } else {
                self.profiles[i].current_at(cell.soc())
            };
            let hard_cap = cell.spec().max_charge_a;
            (profile_cap.min(hard_cap), hard_cap < profile_cap)
        };
        let cell = &mut self.cells[i];
        let v_est = cell.terminal_voltage(-cap_i * 0.5).max(0.1);
        let want_i = power_w / v_est;
        let use_i = want_i.min(cap_i);
        if use_i <= 0.0 {
            return (0.0, 0.0, 0.0, None);
        }
        // The profile taper shaping charge current is normal operation; only
        // the cell's hard current rating binding is a safety clamp.
        if hard_cap_binds && use_i < want_i * (1.0 - 1e-9) {
            if let Some(m) = &self.metrics {
                m.safety_clamps.inc();
            }
            stage_event(
                &self.observer,
                &mut self.staged,
                ObsEvent::SafetyClamp {
                    battery: i,
                    flow: Flow::Charge,
                    requested_a: want_i,
                    applied_a: use_i,
                },
            );
        }
        match cell.step_current(-use_i, dt_s) {
            Ok(out) => {
                // Scale by both the current derating and any step
                // truncation at full: only energy actually absorbed counts.
                let time_frac = if dt_s > 0.0 {
                    out.dt_used_s / dt_s
                } else {
                    1.0
                };
                let into_cell_w = -out.delivered_w * time_frac; // positive
                let frac = (use_i / want_i).min(1.0) * time_frac;
                (
                    allotted_w * frac,
                    into_cell_w,
                    out.heat_w * time_frac,
                    Some(BatteryStepInfo {
                        current_a: out.current_a,
                        terminal_v: out.terminal_v,
                        soc: out.soc,
                        heat_w: out.heat_w,
                    }),
                )
            }
            Err(_) => (0.0, 0.0, 0.0, None),
        }
    }
}

/// Attempts to discharge `cell` (battery `i`) at `power_w` for `dt_s`,
/// capping at the cell's current limit. Returns the step info plus
/// `(time_frac, power_frac)`: the fraction of the step actually
/// simulated (< 1 when the cell emptied mid-step) and the fraction of
/// the requested power deliverable under the current cap.
fn discharge_cell(
    cell: &mut TheveninCell,
    i: usize,
    power_w: f64,
    dt_s: f64,
    metrics: Option<&MicroMetrics>,
    observer: &Observer,
    staged: &mut Vec<(f64, ObsEvent)>,
) -> Result<(BatteryStepInfo, f64, f64), BatteryError> {
    let current = cell.current_for_power(power_w)?;
    let capped = current.min(cell.spec().max_discharge_a);
    if capped < current * (1.0 - 1e-9) {
        if let Some(m) = metrics {
            m.safety_clamps.inc();
        }
        stage_event(
            observer,
            staged,
            ObsEvent::SafetyClamp {
                battery: i,
                flow: Flow::Discharge,
                requested_a: current,
                applied_a: capped,
            },
        );
    }
    let out = cell.step_current(capped, dt_s)?;
    // Fraction of the requested energy actually served: the step may
    // truncate at empty, and the current limit may cap power below the
    // request. Only a genuinely binding current limit counts as a
    // shortfall (long steps sag slightly below the request as the cell
    // drains; that drift is not redistributable power).
    let time_frac = if dt_s > 0.0 {
        out.dt_used_s / dt_s
    } else {
        1.0
    };
    let power_frac = if power_w > 0.0 && capped < current * (1.0 - 1e-9) {
        (out.delivered_w / power_w).clamp(0.0, 1.0)
    } else {
        1.0
    };
    Ok((
        BatteryStepInfo {
            current_a: out.current_a,
            terminal_v: out.terminal_v,
            soc: out.soc,
            heat_w: out.heat_w,
        },
        time_frac,
        power_frac,
    ))
}

/// Stages an event for the end-of-step batched flush, stamped with the
/// observer's current clock (identical to what a direct `emit` would
/// have stamped — the step clock is constant across phases 1–4).
/// Events are dropped when the observer does not capture, exactly like
/// `emit`.
fn stage_event(observer: &Observer, staged: &mut Vec<(f64, ObsEvent)>, event: ObsEvent) {
    if observer.wants_events() {
        staged.push((observer.clock_s(), event));
    }
}

/// Snapshot/restore: see [`crate::snapshot::PackSnapshot`]. Implemented
/// here because it reaches into the controller's private state.
impl Microcontroller {
    /// Captures the pack's full mutable state into a fresh snapshot.
    #[must_use]
    pub fn snapshot(&self) -> PackSnapshot {
        let mut snap = PackSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures the pack's full mutable state into `snap`, reusing its
    /// buffers (no allocation once the buffers have grown to pack size).
    pub fn snapshot_into(&self, snap: &mut PackSnapshot) {
        snap.time_s = self.time_s;
        snap.delivered_j = self.delivered_j;
        snap.circuit_loss_j = self.circuit_loss_j;
        snap.cell_heat_j = self.cell_heat_j;
        snap.unmet_j = self.unmet_j;
        snap.external_in_j = self.external_in_j;
        snap.discharge_ratios.clear();
        snap.discharge_ratios
            .extend_from_slice(&self.discharge_ratios);
        snap.charge_ratios.clear();
        snap.charge_ratios.extend_from_slice(&self.charge_ratios);
        snap.present.clear();
        snap.present.extend_from_slice(&self.present);
        snap.throttled.clear();
        snap.throttled.extend_from_slice(&self.throttled);
        snap.profile_kinds.clear();
        snap.profile_kinds
            .extend(self.profiles.iter().map(|p| p.kind));
        snap.thermal_throttle = self.thermal_throttle;
        snap.transfer = self.transfer.map(|t| TransferSnapshot {
            from: t.from,
            to: t.to,
            power_w: t.power_w,
            remaining_s: t.remaining_s,
        });
        snap.cells.clear();
        snap.cells
            .extend(self.cells.iter().map(TheveninCell::export_state));
        snap.gauges.clear();
        snap.gauges
            .extend(self.gauges.iter().map(FuelGauge::export_state));
    }

    /// Restores state captured by [`Microcontroller::snapshot`] into this
    /// pack. The pack must have been built from the same template (same
    /// battery count; specs and circuits are configuration and are
    /// unchecked). After a restore the pack behaves bit-identically to a
    /// clone taken at the capture point: ratios are written back verbatim
    /// (not re-realized through the share chain), and the only heap work
    /// is rebuilding a charging profile whose selection changed.
    ///
    /// # Errors
    ///
    /// [`PowerError::WrongChannelCount`] when the snapshot's battery count
    /// does not match the pack's.
    pub fn restore_from(&mut self, snap: &PackSnapshot) -> Result<(), PowerError> {
        let n = self.cells.len();
        if snap.battery_count() != n
            || snap.gauges.len() != n
            || snap.discharge_ratios.len() != n
            || snap.charge_ratios.len() != n
            || snap.present.len() != n
            || snap.throttled.len() != n
            || snap.profile_kinds.len() != n
        {
            return Err(PowerError::WrongChannelCount {
                expected: n,
                got: snap.battery_count(),
            });
        }
        self.time_s = snap.time_s;
        self.delivered_j = snap.delivered_j;
        self.circuit_loss_j = snap.circuit_loss_j;
        self.cell_heat_j = snap.cell_heat_j;
        self.unmet_j = snap.unmet_j;
        self.external_in_j = snap.external_in_j;
        self.discharge_ratios
            .copy_from_slice(&snap.discharge_ratios);
        self.charge_ratios.copy_from_slice(&snap.charge_ratios);
        self.present.copy_from_slice(&snap.present);
        self.throttled.copy_from_slice(&snap.throttled);
        for i in 0..n {
            if self.profiles[i].kind != snap.profile_kinds[i] {
                self.profiles[i] =
                    ChargingProfile::for_spec(snap.profile_kinds[i], self.cells[i].spec());
            }
            self.cells[i].import_state(&snap.cells[i]);
            self.gauges[i].import_state(&snap.gauges[i]);
        }
        self.thermal_throttle = snap.thermal_throttle;
        self.transfer = snap.transfer.map(|t| Transfer {
            from: t.from,
            to: t.to,
            power_w: t.power_w,
            remaining_s: t.remaining_s,
        });
        Ok(())
    }
}

/// Realizes a requested ratio tuple through the measured share chain and
/// renormalizes, writing into `out` without allocating (capacity is
/// reused), so ratio pushes stay allocation-free on the rollout hot path.
fn realize_into(chain: &ShareChain, ratios: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(ratios.iter().map(|&r| {
        if r > 0.0 {
            chain.realized_share(r).unwrap_or(r)
        } else {
            0.0
        }
    }));
    let sum: f64 = out.iter().sum();
    if sum > 0.0 {
        out.iter_mut().for_each(|r| *r /= sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::PackBuilder;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;

    fn two_battery_pack() -> Microcontroller {
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
    fn discharge_splits_by_ratio() {
        let mut m = two_battery_pack();
        m.set_discharge_ratios(&[0.25, 0.75]).unwrap();
        let r = m.step(4.0, 0.0, 60.0);
        assert!(r.unmet_w < 1e-9);
        let p0 = r.batteries[0].current_a * r.batteries[0].terminal_v;
        let p1 = r.batteries[1].current_a * r.batteries[1].terminal_v;
        let share0 = p0 / (p0 + p1);
        assert!((share0 - 0.25).abs() < 0.02, "share0 = {share0}");
    }

    #[test]
    fn exclusive_ratio_drains_one_battery() {
        let mut m = two_battery_pack();
        m.set_discharge_ratios(&[1.0, 0.0]).unwrap();
        let r = m.step(3.0, 0.0, 60.0);
        assert!(r.batteries[0].current_a > 0.0);
        assert!(r.batteries[1].current_a.abs() < 1e-12);
        assert!(m.cells()[1].is_full());
    }

    #[test]
    fn empty_battery_share_redistributes() {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.0,
                ProfileKind::Standard,
            )
            .battery(BatterySpec::from_chemistry(
                "b",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .build();
        m.set_discharge_ratios(&[0.5, 0.5]).unwrap();
        let r = m.step(3.0, 0.0, 60.0);
        // Battery 0 is empty: battery 1 carries everything, no brownout.
        assert!(r.unmet_w < 1e-9, "unmet = {}", r.unmet_w);
        assert!(r.batteries[1].current_a > 0.0);
    }

    #[test]
    fn brownout_reported_when_all_empty() {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.0,
                ProfileKind::Standard,
            )
            .build();
        let r = m.step(3.0, 0.0, 60.0);
        assert!((r.unmet_w - 3.0).abs() < 1e-9);
        assert_eq!(r.supplied_w, 0.0);
    }

    #[test]
    fn external_power_covers_load_first() {
        let mut m = two_battery_pack();
        let soc_before: Vec<f64> = m.cells().iter().map(|c| c.soc()).collect();
        let r = m.step(3.0, 10.0, 60.0);
        assert!((r.supplied_w - 3.0).abs() < 1e-9);
        // Batteries were full, so surplus is unused; SoC unchanged modulo
        // self-discharge.
        for (c, s) in m.cells().iter().zip(&soc_before) {
            assert!((c.soc() - s).abs() < 1e-6);
        }
    }

    #[test]
    fn surplus_external_charges_batteries() {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.3,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                0.3,
                ProfileKind::Fast,
            )
            .build();
        m.set_charge_ratios(&[0.5, 0.5]).unwrap();
        let r = m.step(1.0, 15.0, 60.0);
        assert!(r.charged_w > 0.0);
        assert!(m.cells()[0].soc() > 0.3);
        assert!(m.cells()[1].soc() > 0.3);
        assert!(r.external_used_w <= 15.0 + 1e-9);
    }

    #[test]
    fn charge_respects_profile_taper() {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.95,
                ProfileKind::Standard,
            )
            .build();
        m.set_charge_ratios(&[1.0]).unwrap();
        let r = m.step(0.0, 20.0, 60.0);
        // Deep in the taper: charge current far below the CC value.
        let i = -r.batteries[0].current_a;
        let profile = ChargingProfile::for_spec(ProfileKind::Standard, m.cells()[0].spec());
        assert!(i > 0.0 && i < profile.cc_current_a * 0.5, "i = {i}");
    }

    #[test]
    fn transfer_moves_charge_with_losses() {
        let mut m = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "src",
                Chemistry::Type2CoStandard,
                4.0,
            ))
            .battery_at(
                BatterySpec::from_chemistry("dst", Chemistry::Type2CoStandard, 4.0),
                0.2,
                ProfileKind::Standard,
            )
            .build();
        m.charge_one_from_another(0, 1, 5.0, 1800.0).unwrap();
        assert!(m.transfer_active());
        for _ in 0..30 {
            m.step(0.0, 0.0, 60.0);
        }
        assert!(
            !m.transfer_active(),
            "transfer should complete after 1800 s"
        );
        let src = &m.cells()[0];
        let dst = &m.cells()[1];
        assert!(src.soc() < 1.0);
        assert!(dst.soc() > 0.2);
        // Conservation at the terminals: the energy the source delivered
        // exceeds what reached the destination (regulator losses), but the
        // path is still reasonably efficient.
        let src_out_j = src.energy_out_j();
        let dst_in_j = dst.energy_in_j();
        assert!(
            src_out_j > dst_in_j,
            "src {src_out_j} J vs dst {dst_in_j} J"
        );
        assert!(
            dst_in_j > 0.80 * src_out_j,
            "transfer too lossy: {dst_in_j} / {src_out_j}"
        );
    }

    #[test]
    fn transfer_api_validates() {
        let mut m = two_battery_pack();
        assert!(m.charge_one_from_another(0, 0, 5.0, 10.0).is_err());
        assert!(m.charge_one_from_another(0, 5, 5.0, 10.0).is_err());
        assert!(m.charge_one_from_another(0, 1, -5.0, 10.0).is_err());
        assert!(m.charge_one_from_another(0, 1, 5.0, 0.0).is_err());
    }

    #[test]
    fn ratio_api_validates() {
        let mut m = two_battery_pack();
        assert!(m.set_discharge_ratios(&[0.5]).is_err());
        assert!(m.set_discharge_ratios(&[0.7, 0.7]).is_err());
        assert!(m.set_charge_ratios(&[-0.5, 1.5]).is_err());
        assert!(m.set_discharge_ratios(&[0.3, 0.7]).is_ok());
    }

    #[test]
    fn status_tracks_discharge() {
        let mut m = two_battery_pack();
        m.set_discharge_ratios(&[0.5, 0.5]).unwrap();
        for _ in 0..60 {
            m.step(4.0, 0.0, 60.0);
        }
        let status = m.query_battery_status();
        for s in &status {
            assert!(s.soc < 1.0);
            assert!(s.terminal_v > 3.0);
        }
        // Gauge estimate close to ground truth.
        for (s, c) in status.iter().zip(m.cells()) {
            assert!((s.soc - c.soc()).abs() < 0.02);
        }
    }

    #[test]
    fn energy_accounting_totals() {
        let mut m = two_battery_pack();
        for _ in 0..30 {
            m.step(5.0, 0.0, 60.0);
        }
        let (delivered, circuit_loss, cell_heat, unmet, _) = m.energy_totals_j();
        assert!(delivered > 0.0);
        assert!(circuit_loss > 0.0);
        assert!(cell_heat > 0.0);
        assert_eq!(unmet, 0.0);
        // Loss is a small fraction of delivered energy.
        assert!(circuit_loss < 0.05 * delivered);
    }

    #[test]
    fn absent_battery_supplies_nothing() {
        let mut m = two_battery_pack();
        m.set_battery_present(1, false).unwrap();
        let r = m.step(3.0, 0.0, 60.0);
        assert!(r.unmet_w < 1e-9, "battery 0 covers the load alone");
        assert!(r.batteries[1].current_a.abs() < 1e-12);
        assert!(m.cells()[1].is_full());
        // Status reports absence.
        assert!(!m.query_battery_status()[1].present);
        assert_eq!(m.charge_acceptance_a(1), 0.0);
    }

    #[test]
    fn absent_battery_accepts_no_charge() {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.3,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type2CoStandard, 2.0),
                0.3,
                ProfileKind::Standard,
            )
            .build();
        m.set_battery_present(1, false).unwrap();
        m.step(0.0, 10.0, 600.0);
        assert!(m.cells()[0].soc() > 0.3);
        // Battery 1 only self-discharges.
        assert!((m.cells()[1].soc() - 0.3).abs() < 1e-5);
    }

    #[test]
    fn detach_aborts_transfer() {
        let mut m = two_battery_pack();
        m.charge_one_from_another(0, 1, 3.0, 600.0).unwrap();
        assert!(m.transfer_active());
        m.set_battery_present(0, false).unwrap();
        assert!(!m.transfer_active());
        assert!(m.set_battery_present(9, false).is_err());
    }

    #[test]
    fn reattach_restores_service() {
        let mut m = two_battery_pack();
        m.set_battery_present(0, false).unwrap();
        m.set_discharge_ratios(&[1.0, 0.0]).unwrap();
        // Only battery 0 is selected but it is absent: brownout.
        let r = m.step(3.0, 0.0, 60.0);
        assert!(r.unmet_w > 1.0);
        m.set_battery_present(0, true).unwrap();
        let r = m.step(3.0, 0.0, 60.0);
        assert!(r.unmet_w < 1e-9);
    }

    #[test]
    fn thermal_throttle_latches_and_releases() {
        // A thermally simulated pack fast-charging in a warm environment;
        // the throttle window sits between the idle temperature (35 C)
        // and the fast-charge steady state (~38.5 C).
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("hot", Chemistry::Type3CoPower, 3.0),
                0.05,
                ProfileKind::Fast,
            )
            .ambient_c(35.0)
            .build();
        m.set_thermal_throttle(Some(ThermalThrottle {
            limit_c: 37.5,
            resume_c: 36.0,
        }));
        m.set_charge_ratios(&[1.0]).unwrap();
        assert!(!m.throttled[0]);
        // Fast charge until the cell crosses the limit.
        let mut throttled_seen = false;
        let gentle = ChargingProfile::for_spec(ProfileKind::Gentle, m.cells()[0].spec());
        for _ in 0..240 {
            let r = m.step(0.0, 30.0, 30.0);
            if m.throttled[0] {
                throttled_seen = true;
                // While throttled, charge current is gentle-profile bound.
                assert!(
                    -r.batteries[0].current_a <= gentle.cc_current_a + 1e-6,
                    "i = {}",
                    r.batteries[0].current_a
                );
                break;
            }
        }
        assert!(throttled_seen, "temp = {:?}", m.cells()[0].temperature_c());
        // Resting (no charging) cools it below the resume point, and the
        // latch releases.
        for _ in 0..240 {
            m.step(0.0, 0.0, 60.0);
        }
        assert!(m.cells()[0].temperature_c().unwrap() < 36.0);
        m.step(0.0, 30.0, 30.0);
        assert!(!m.throttled[0], "temp = {:?}", m.cells()[0].temperature_c());
    }

    #[test]
    fn cold_pack_is_less_efficient() {
        let build = |ambient: f64| {
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
                .ambient_c(ambient)
                .build()
        };
        let mut cold = build(-5.0);
        let mut warm = build(25.0);
        for _ in 0..60 {
            cold.step(8.0, 0.0, 60.0);
            warm.step(8.0, 0.0, 60.0);
        }
        let (_, _, cold_heat, _, _) = cold.energy_totals_j();
        let (_, _, warm_heat, _, _) = warm.energy_totals_j();
        assert!(
            cold_heat > 1.3 * warm_heat,
            "cold {cold_heat} vs warm {warm_heat}"
        );
    }

    #[test]
    fn gauge_sees_combined_load_and_transfer_current() {
        // Battery 0 serves the load *and* sources a transfer in the same
        // steps; the gauge must integrate the combined current, not just
        // the last phase's.
        let mut m = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "src",
                Chemistry::Type2CoStandard,
                4.0,
            ))
            .battery_at(
                BatterySpec::from_chemistry("dst", Chemistry::Type2CoStandard, 4.0),
                0.2,
                ProfileKind::Standard,
            )
            .build();
        m.set_discharge_ratios(&[1.0, 0.0]).unwrap();
        m.charge_one_from_another(0, 1, 4.0, 1800.0).unwrap();
        for _ in 0..30 {
            m.step(5.0, 0.0, 60.0);
        }
        let status = m.query_battery_status();
        for (s, c) in status.iter().zip(m.cells()) {
            assert!(
                (s.soc - c.soc()).abs() < 0.02,
                "{}: gauge {} vs truth {}",
                c.spec().name,
                s.soc,
                c.soc()
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad dt")]
    fn step_rejects_zero_dt() {
        let mut m = two_battery_pack();
        let _ = m.step(1.0, 0.0, 0.0);
    }

    #[test]
    fn observer_records_ratio_pushes_and_step_samples() {
        let mut m = two_battery_pack();
        let obs = Observer::capturing();
        m.set_observer(obs.clone());
        m.set_discharge_ratios(&[0.5, 0.5]).unwrap();
        m.step(4.0, 0.0, 60.0);
        let text = obs.registry().unwrap().to_prometheus_text();
        assert!(text.contains("sdb_micro_steps_total 1"), "{text}");
        assert!(
            text.contains("sdb_ratio_pushes_total{flow=\"discharge\"} 1"),
            "{text}"
        );
        let dump = obs.drain_events();
        assert!(dump.iter().any(|e| matches!(
            e.event,
            ObsEvent::RatioPush {
                flow: Flow::Discharge,
                ..
            }
        )));
        let sample = dump
            .iter()
            .find(|e| matches!(e.event, ObsEvent::StepSample { .. }))
            .expect("step sample recorded");
        assert_eq!(sample.t_s, 60.0);
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let mut m = two_battery_pack();
        m.set_observer(Observer::disabled());
        m.set_discharge_ratios(&[0.5, 0.5]).unwrap();
        m.step(4.0, 0.0, 60.0);
        assert!(!m.observer().enabled());
    }

    /// The snapshot without its gauges: everything gauge sampling must
    /// leave untouched.
    fn physics(m: &Microcontroller) -> PackSnapshot {
        PackSnapshot {
            gauges: Vec::new(),
            ..m.snapshot()
        }
    }

    #[test]
    fn gauge_sampling_off_leaves_the_physics_bit_identical() {
        let chems = [
            Chemistry::Type1LfpPower,
            Chemistry::Type2CoStandard,
            Chemistry::Type3CoPower,
            Chemistry::Type4Bendable,
            Chemistry::OtherNmc,
            Chemistry::OtherLto,
        ];
        let unit_sum = |mut v: Vec<f64>| {
            let sum: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= sum);
            v
        };
        sdb_testkit::check(48, 0xE1_0001, |g| {
            let mut b = PackBuilder::new();
            let n = g.usize_range(2, 4);
            for i in 0..n {
                // Some cells start nearly empty so they run dry mid-trace.
                let soc = if g.chance(0.4) {
                    g.f64_range(0.0, 0.05)
                } else {
                    g.f64_range(0.1, 1.0)
                };
                let spec = BatterySpec::from_chemistry(
                    &format!("b{i}"),
                    g.pick(&chems),
                    g.f64_range(0.2, 3.0),
                );
                b = b.battery_at(
                    spec,
                    soc,
                    g.pick(&[ProfileKind::Standard, ProfileKind::Fast]),
                );
            }
            let mut on = b.build();
            on.set_observer(Observer::disabled());
            let mut off = on.clone();
            off.set_gauge_sampling(false);
            for _ in 0..g.usize_range(20, 120) {
                if g.chance(0.1) {
                    let ratios = unit_sum(g.vec_f64(0.01, 1.0, n..n + 1));
                    on.set_discharge_ratios(&ratios).unwrap();
                    off.set_discharge_ratios(&ratios).unwrap();
                }
                if g.chance(0.1) {
                    let ratios = unit_sum(g.vec_f64(0.01, 1.0, n..n + 1));
                    on.set_charge_ratios(&ratios).unwrap();
                    off.set_charge_ratios(&ratios).unwrap();
                }
                if g.chance(0.05) {
                    let (from, to) = (g.usize_range(0, n), g.usize_range(0, n));
                    let (w, s) = (g.f64_range(0.1, 5.0), g.f64_range(30.0, 1800.0));
                    assert_eq!(
                        on.charge_one_from_another(from, to, w, s).is_ok(),
                        off.charge_one_from_another(from, to, w, s).is_ok()
                    );
                }
                let load_w = g.f64_range(0.0, 12.0);
                let external_w = if g.chance(0.3) {
                    g.f64_range(0.0, 15.0)
                } else {
                    0.0
                };
                let dt_s = g.f64_range(1.0, 120.0);
                let r_on = on.step(load_w, external_w, dt_s);
                let r_off = off.step(load_w, external_w, dt_s);
                assert_eq!(r_on, r_off);
                assert_eq!(physics(&on), physics(&off));
            }
            // The gauges really were left alone: the pack that sampled
            // moved its gauges, the other kept its initial ones.
            assert_ne!(on.snapshot().gauges, off.snapshot().gauges);
        });
    }

    #[test]
    fn gauge_sampling_is_configuration_not_state() {
        let mut live = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery(BatterySpec::from_chemistry(
                "b",
                Chemistry::Type3CoPower,
                1.0,
            ))
            .build();
        let mut quiet = live.clone();
        quiet.set_gauge_sampling(false);
        live.step(2.0, 0.0, 60.0);
        // A restore reloads the gauges but keeps sampling off, and a
        // clone keeps the setting too.
        quiet.restore_from(&live.snapshot()).unwrap();
        assert_eq!(quiet.snapshot(), live.snapshot());
        let mut copy = quiet.clone();
        let gauges = quiet.snapshot().gauges;
        quiet.step(2.0, 0.0, 60.0);
        copy.step(2.0, 0.0, 60.0);
        assert_eq!(quiet.snapshot().gauges, gauges);
        assert_eq!(copy.snapshot().gauges, gauges);
    }
}
