//! The production 1-RC Thevenin cell model (paper Figure 8a).
//!
//! The paper's emulator models each cell with four learned parameters:
//! open-circuit potential (vs SoC), internal resistance (vs SoC),
//! concentration resistance, and plate capacitance. This module implements
//! that model as a discrete-time simulation:
//!
//! ```text
//!        R0(SoC)        Rc
//!   OCV ─/\/\/─┬────┬─/\/\/─┬────o  A (terminal +)
//!   (SoC)      │    └──||───┘
//!              │        Cp
//!              o  B (terminal −)
//! ```
//!
//! Terminal voltage under load current `I` (positive = discharge):
//! `V = OCV(SoC) − I·R0(SoC)·age − Vrc`, where the RC branch voltage evolves
//! as `dVrc/dt = (I·Rc − Vrc) / (Rc·Cp)`.

use crate::aging::AgingState;
use crate::curves::CurveCursor;
use crate::error::BatteryError;
use crate::spec::BatterySpec;
use crate::thermal::{resistance_multiplier_at, ThermalModel};
use std::sync::Arc;

/// Result of one simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Current actually drawn (positive = discharge), amps.
    pub current_a: f64,
    /// Terminal voltage at the step midpoint (trapezoidal accounting),
    /// volts.
    pub terminal_v: f64,
    /// Power delivered to (positive) or absorbed from (negative) the
    /// external circuit, watts.
    pub delivered_w: f64,
    /// Resistive heat dissipated inside the cell, watts.
    pub heat_w: f64,
    /// State of charge after the step.
    pub soc: f64,
    /// Charge cycles completed during this step.
    pub(crate) cycles_completed: u32,
    /// Time actually simulated, seconds — less than the requested `dt_s`
    /// when the step was truncated at an SoC boundary. Callers crediting
    /// energy per step MUST scale by `dt_used_s / dt_s`.
    pub dt_used_s: f64,
}

/// A simulated battery cell with Thevenin dynamics, aging, and energy
/// accounting.
#[derive(Debug, Clone)]
pub struct TheveninCell {
    /// Shared, immutable cell parameterization. `Arc` so a fleet of cells
    /// built from one template shares a single copy of the curve tables.
    spec: Arc<BatterySpec>,
    soc: f64,
    /// RC-branch (concentration) voltage, volts. Positive during discharge.
    v_rc: f64,
    /// Segment memo for OCP curve lookups (SoC drifts slowly per step).
    ocp_cur: CurveCursor,
    /// Segment memo for DCIR curve lookups.
    dcir_cur: CurveCursor,
    aging: AgingState,
    /// Total energy delivered to the load over the cell's life, joules.
    energy_out_j: f64,
    /// Total energy absorbed while charging, joules.
    energy_in_j: f64,
    /// Total resistive heat dissipated, joules.
    heat_j: f64,
    /// Optional lumped thermal model; when attached, the cell's heat feeds
    /// it and the ohmic resistance follows the Arrhenius temperature
    /// dependence.
    thermal: Option<ThermalModel>,
    /// Memo key for [`Self::rc_alpha`]: the bit pattern of the last `dt`
    /// the RC relaxation factor was computed for (τ is fixed by the spec,
    /// and simulations step with a fixed `dt`, so one entry suffices).
    rc_alpha_dt_bits: u64,
    /// Memoized `exp(-dt/τ)` for the `dt` above.
    rc_alpha: f64,
    /// Fault-injection multiplier on the ohmic resistance (sudden DCIR
    /// growth). 1.0 when healthy; `x * 1.0` is bit-identical to `x`, so
    /// the healthy path costs nothing and changes no results.
    fault_r_mult: f64,
}

impl TheveninCell {
    /// Creates a fully charged cell from a spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation; construct specs through
    /// [`BatterySpec::from_chemistry`] or validate them first.
    #[must_use]
    pub fn new(spec: impl Into<Arc<BatterySpec>>) -> Self {
        let spec = spec.into();
        spec.validate().expect("invalid battery spec");
        Self {
            aging: AgingState::new(&spec),
            spec,
            soc: 1.0,
            v_rc: 0.0,
            ocp_cur: CurveCursor::new(),
            dcir_cur: CurveCursor::new(),
            energy_out_j: 0.0,
            energy_in_j: 0.0,
            heat_j: 0.0,
            thermal: None,
            rc_alpha_dt_bits: f64::NAN.to_bits(),
            rc_alpha: 1.0,
            fault_r_mult: 1.0,
        }
    }

    /// `exp(-dt/τ)` with a one-entry memo keyed on the `dt` bit pattern.
    /// Bit-identical to recomputing: equal input bits give an equal `exp`.
    fn rc_alpha(&mut self, dt: f64, tau: f64) -> f64 {
        if dt.to_bits() != self.rc_alpha_dt_bits {
            self.rc_alpha_dt_bits = dt.to_bits();
            self.rc_alpha = (-dt / tau).exp();
        }
        self.rc_alpha
    }

    /// Attaches a lumped thermal model: the cell's resistive heat drives
    /// its temperature, and the ohmic resistance follows the Arrhenius
    /// temperature dependence (cold cells are more resistive).
    #[must_use]
    pub fn with_thermal(mut self, model: ThermalModel) -> Self {
        self.thermal = Some(model);
        self
    }

    /// Cell temperature in °C, if a thermal model is attached.
    #[must_use]
    pub fn temperature_c(&self) -> Option<f64> {
        self.thermal.as_ref().map(ThermalModel::temperature_c)
    }

    /// Exports the cell's full mutable state for bit-exact snapshotting.
    /// The spec (curve tables, ratings) is shared immutable configuration;
    /// the curve cursors and the RC-α memo are value-neutral caches (equal
    /// inputs give equal outputs regardless of cursor position) and are
    /// not captured.
    #[must_use]
    pub fn export_state(&self) -> CellStateSnapshot {
        CellStateSnapshot {
            soc: self.soc,
            v_rc: self.v_rc,
            energy_out_j: self.energy_out_j,
            energy_in_j: self.energy_in_j,
            heat_j: self.heat_j,
            fault_r_mult: self.fault_r_mult,
            aging: self.aging.export_state(),
            thermal: self.thermal,
        }
    }

    /// Restores state captured by [`TheveninCell::export_state`]. The
    /// restored cell is bit-identical in behavior to the exported one: the
    /// memo caches left untouched re-key on first use.
    pub fn import_state(&mut self, snap: &CellStateSnapshot) {
        self.soc = snap.soc;
        self.v_rc = snap.v_rc;
        self.energy_out_j = snap.energy_out_j;
        self.energy_in_j = snap.energy_in_j;
        self.heat_j = snap.heat_j;
        self.fault_r_mult = snap.fault_r_mult;
        self.aging.import_state(&snap.aging);
        self.thermal = snap.thermal;
    }

    /// Creates a cell at a given initial state of charge.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or `soc` is outside `[0, 1]`.
    #[must_use]
    pub fn with_soc(spec: impl Into<Arc<BatterySpec>>, soc: f64) -> Self {
        assert!((0.0..=1.0).contains(&soc), "soc out of range: {soc}");
        let mut cell = Self::new(spec);
        cell.soc = soc;
        cell
    }

    /// The cell's static parameters.
    #[must_use]
    pub fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    /// State of charge in `[0, 1]`.
    #[must_use]
    pub fn soc(&self) -> f64 {
        self.soc
    }

    /// Open-circuit voltage at the present SoC.
    #[must_use]
    pub fn ocv(&self) -> f64 {
        self.spec.ocp.eval_cached(&self.ocp_cur, self.soc)
    }

    /// Effective ohmic resistance at the present SoC including age growth
    /// and (when a thermal model is attached) temperature dependence.
    #[must_use]
    pub(crate) fn resistance_ohm(&self) -> f64 {
        let temp_mult = self
            .thermal
            .as_ref()
            .map_or(1.0, |t| resistance_multiplier_at(t.temperature_c()));
        self.spec.dcir.eval_cached(&self.dcir_cur, self.soc)
            * self.aging.resistance_multiplier()
            * temp_mult
            * self.fault_r_mult
    }

    /// Installs (or with `1.0` clears) a fault multiplier on the ohmic
    /// resistance, emulating sudden DCIR growth from e.g. a cracked weld
    /// or lost electrode contact.
    ///
    /// # Panics
    ///
    /// Panics unless `mult` is finite and positive.
    pub fn set_fault_resistance_mult(&mut self, mult: f64) {
        assert!(
            mult.is_finite() && mult > 0.0,
            "bad fault resistance multiplier: {mult}"
        );
        self.fault_r_mult = mult;
    }

    /// The installed fault resistance multiplier (1.0 when healthy).
    #[must_use]
    pub fn fault_resistance_mult(&self) -> f64 {
        self.fault_r_mult
    }

    /// The cell's resistance (exactly as `resistance_ohm` computes it) and
    /// its DCIR slope in SoC, scaled the same way, from one curve-segment
    /// search; policy code that needs both per cell per evaluation should
    /// prefer this.
    #[must_use]
    pub fn resistance_and_dcir_slope(&self) -> (f64, f64) {
        let temp_mult = self
            .thermal
            .as_ref()
            .map_or(1.0, |t| resistance_multiplier_at(t.temperature_c()));
        let (r, s) = self
            .spec
            .dcir
            .value_and_slope_cached(&self.dcir_cur, self.soc);
        let age = self.aging.resistance_multiplier();
        (
            r * age * temp_mult * self.fault_r_mult,
            s * age * self.fault_r_mult,
        )
    }

    /// Bounds on what [`TheveninCell::ocv`] and
    /// [`TheveninCell::resistance_and_dcir_slope`] return at any SoC in
    /// `[soc_lo, soc_hi]`, every other part of the state held (aging,
    /// temperature, fault multiplier). Each bound is the curve's interval
    /// bound (`Curve::bounds`, `Curve::slope_bounds`) carried through the
    /// same positive multipliers in the same order: rounded
    /// multiplication by a positive factor is monotone. The slope bound
    /// is on its magnitude, which the policies read.
    #[must_use]
    pub fn view_bounds(&self, soc_lo: f64, soc_hi: f64) -> ViewBounds {
        let temp_mult = self
            .thermal
            .as_ref()
            .map_or(1.0, |t| resistance_multiplier_at(t.temperature_c()));
        let age = self.aging.resistance_multiplier();
        let (r_lo, r_hi) = self.spec.dcir.bounds(soc_lo, soc_hi);
        let (s_lo, s_hi) = self.spec.dcir.slope_bounds(soc_lo, soc_hi);
        let (s_lo, s_hi) = (
            s_lo * age * self.fault_r_mult,
            s_hi * age * self.fault_r_mult,
        );
        let slope_abs = if s_lo >= 0.0 {
            [s_lo, s_hi]
        } else if s_hi <= 0.0 {
            [-s_hi, -s_lo]
        } else {
            [0.0, s_hi.max(-s_lo)]
        };
        let (v_lo, v_hi) = self.spec.ocp.bounds(soc_lo, soc_hi);
        ViewBounds {
            ocv_v: [v_lo, v_hi],
            resistance_ohm: [
                r_lo * age * temp_mult * self.fault_r_mult,
                r_hi * age * temp_mult * self.fault_r_mult,
            ],
            dcir_slope: slope_abs,
        }
    }

    /// Present usable capacity in amp-hours (rated capacity × fade).
    #[must_use]
    pub(crate) fn effective_capacity_ah(&self) -> f64 {
        self.spec.capacity_ah * self.aging.capacity_fraction()
    }

    /// Remaining charge in amp-hours.
    #[must_use]
    pub(crate) fn remaining_ah(&self) -> f64 {
        self.soc * self.effective_capacity_ah()
    }

    /// Estimate of remaining deliverable energy in watt-hours, integrating
    /// the OCP curve from 0 to the present SoC (ignores load-dependent
    /// resistive losses; the RBL metric accounts for those separately).
    #[must_use]
    pub fn remaining_energy_wh(&self) -> f64 {
        let cap = self.effective_capacity_ah();
        let n = 32;
        let mut wh = 0.0;
        let step = self.soc / n as f64;
        if step <= 0.0 {
            return 0.0;
        }
        for k in 0..n {
            let mid = (k as f64 + 0.5) * step;
            // Ascending sweep: the cursor turns 32 binary searches into
            // 32 adjacent-segment probes.
            wh += self.spec.ocp.eval_cached(&self.ocp_cur, mid) * step * cap;
        }
        wh
    }

    /// Terminal voltage the cell would show under load current `i`
    /// (positive = discharge) without advancing time.
    #[must_use]
    pub fn terminal_voltage(&self, current_a: f64) -> f64 {
        if current_a == 0.0 {
            // Skip the resistance lookup: `ocv - 0.0·r - v_rc` is
            // bit-identical to `ocv - v_rc` for any finite `r`.
            return self.ocv() - self.v_rc;
        }
        self.ocv() - current_a * self.resistance_ohm() - self.v_rc
    }

    /// Maximum power a discharge planner may allocate to this cell for a
    /// step of `dt_s` seconds: the minimum of the power at the rated
    /// current cap, the quadratic deliverable maximum
    /// ([`TheveninCell::max_power_w`]), and what the remaining charge can
    /// sustain for the whole step. Computes the OCV and resistance once;
    /// the result is bit-identical to composing the three public queries.
    #[must_use]
    pub fn plan_discharge_cap_w(&self, dt_s: f64) -> f64 {
        let v0 = self.ocv();
        let r0 = self.resistance_ohm();
        let i_max = self.spec.max_discharge_a;
        // Power at the rated current (terminal voltage is linear in I, so
        // this is exact at the cap).
        let p_at_imax = ((v0 - i_max * r0 - self.v_rc) * i_max).max(0.0);
        let v_eff = v0 - self.v_rc;
        let i_peak = (v_eff / (2.0 * r0)).min(i_max);
        let p_quad = i_peak * (v_eff - i_peak * r0);
        // Energy bound: no more than the charge left can sustain.
        let p_energy = self.remaining_ah() * 3600.0 * v0 / dt_s;
        p_at_imax.min(p_quad).min(p_energy)
    }

    /// Aging bookkeeping (cycles, capacity fraction, wear ratio).
    #[must_use]
    pub fn aging(&self) -> &AgingState {
        &self.aging
    }

    /// Turns the discharge-side C-rate accumulators of the aging model on
    /// (the default) or off; see the aging model's
    /// `set_discharge_rate_tracking`. Off is exact only for a cell that
    /// completes no charge cycle before its state is restored or
    /// discarded. [`TheveninCell::import_state`] leaves the setting alone.
    pub fn set_discharge_rate_tracking(&mut self, on: bool) {
        self.aging.set_discharge_rate_tracking(on);
    }

    /// Completed charge cycles.
    #[must_use]
    pub fn cycle_count(&self) -> u32 {
        self.aging.cycles()
    }

    /// Wear ratio `λ = cc / χ` (Section 3.3).
    #[must_use]
    pub fn wear_ratio(&self) -> f64 {
        self.aging.wear_ratio(self.spec.tolerable_cycles)
    }

    /// Lifetime energy delivered to loads, joules.
    #[must_use]
    pub fn energy_out_j(&self) -> f64 {
        self.energy_out_j
    }

    /// Lifetime energy absorbed while charging, joules.
    #[must_use]
    pub fn energy_in_j(&self) -> f64 {
        self.energy_in_j
    }

    /// Lifetime resistive heat, joules.
    #[must_use]
    pub fn heat_j(&self) -> f64 {
        self.heat_j
    }

    /// Whether the cell is effectively empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.soc <= 1e-9
    }

    /// Whether the cell is effectively full (within one part per million —
    /// a freshly topped cell stays "full" through short rests despite
    /// self-discharge).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.soc >= 1.0 - 1e-6
    }

    /// Steady-state heat-loss fraction when discharging at C-rate `c`:
    /// `I·(R0+Rc)/OCV` — the Figure 1(c) quantity ("% of energy turned into
    /// heat" at a given drain rate).
    #[must_use]
    pub fn heat_loss_fraction_at_c_rate(&self, c_rate: f64) -> f64 {
        let i = c_rate * self.spec.capacity_ah;
        let r = self.resistance_ohm() + self.spec.concentration_r_ohm;
        (i * r / self.ocv()).min(1.0)
    }

    /// Advances the cell by `dt_s` seconds at fixed current `current_a`
    /// (positive = discharge, negative = charge).
    ///
    /// The step is truncated if the cell empties (discharge) or fills
    /// (charge) before `dt_s` elapses; the outcome reports the charge
    /// actually moved via `current_a` and the truncated step's final state.
    ///
    /// # Errors
    ///
    /// * [`BatteryError::InvalidTimeStep`] / [`BatteryError::InvalidLoad`]
    ///   for non-finite inputs.
    /// * [`BatteryError::CurrentLimit`] if `|current_a|` exceeds the rated
    ///   charge/discharge limit.
    /// * [`BatteryError::Empty`] / [`BatteryError::Full`] if no charge can
    ///   be moved at all in the requested direction.
    pub fn step_current(&mut self, current_a: f64, dt_s: f64) -> Result<StepOutcome, BatteryError> {
        if !dt_s.is_finite() || dt_s < 0.0 {
            return Err(BatteryError::InvalidTimeStep { dt_s });
        }
        if !current_a.is_finite() {
            return Err(BatteryError::InvalidLoad { value: current_a });
        }
        let limit = if current_a >= 0.0 {
            self.spec.max_discharge_a
        } else {
            self.spec.max_charge_a
        };
        if current_a.abs() > limit * (1.0 + 1e-9) {
            return Err(BatteryError::CurrentLimit {
                requested_a: current_a.abs(),
                limit_a: limit,
            });
        }
        if current_a > 0.0 && self.is_empty() {
            return Err(BatteryError::Empty);
        }
        if current_a < 0.0 && self.is_full() {
            return Err(BatteryError::Full);
        }

        let cap_ah = self.effective_capacity_ah();
        // Truncate the step at the SoC boundary.
        let full_delta_soc = current_a * dt_s / 3600.0 / cap_ah;
        let (dt_used, delta_soc) = if current_a > 0.0 && full_delta_soc > self.soc {
            (self.soc * cap_ah * 3600.0 / current_a, self.soc)
        } else if current_a < 0.0 && self.soc - full_delta_soc > 1.0 {
            (
                (1.0 - self.soc) * cap_ah * 3600.0 / (-current_a),
                -(1.0 - self.soc),
            )
        } else {
            (dt_s, full_delta_soc)
        };

        // RC branch relaxation toward I·Rc with time constant Rc·Cp.
        let tau = self.spec.concentration_r_ohm * self.spec.plate_c_f;
        let target = current_a * self.spec.concentration_r_ohm;
        let v_rc_before = self.v_rc;
        if tau > 0.0 {
            if dt_used > 0.0 {
                let alpha = self.rc_alpha(dt_used, tau);
                self.v_rc = target + (self.v_rc - target) * alpha;
            }
            // dt_used == 0: no time passes, the branch voltage holds.
        } else {
            self.v_rc = target;
        }

        let soc_before = self.soc;
        self.soc = (self.soc - delta_soc).clamp(0.0, 1.0);
        let cycles_completed = self.aging.step(current_a, dt_used, self.spec.capacity_ah);

        // Energy accounting at the step midpoint (trapezoidal): with a
        // fixed current and a moving operating point, begin- or end-state
        // bookkeeping systematically mis-credits energy on steep parts of
        // the OCP/DCIR curves.
        let soc_mid = 0.5 * (soc_before + self.soc);
        let v_rc_mid = 0.5 * (v_rc_before + self.v_rc);
        let temp_mult = self
            .thermal
            .as_ref()
            .map_or(1.0, |t| resistance_multiplier_at(t.temperature_c()));
        let r0 = self.spec.dcir.eval_cached(&self.dcir_cur, soc_mid)
            * self.aging.resistance_multiplier()
            * temp_mult;
        let terminal_v =
            self.spec.ocp.eval_cached(&self.ocp_cur, soc_mid) - current_a * r0 - v_rc_mid;
        let heat_w = current_a * current_a * r0
            + v_rc_mid * v_rc_mid / self.spec.concentration_r_ohm.max(f64::EPSILON);
        let delivered_w = terminal_v * current_a;
        if delivered_w >= 0.0 {
            self.energy_out_j += delivered_w * dt_used;
        } else {
            self.energy_in_j += -delivered_w * dt_used;
        }
        self.heat_j += heat_w * dt_used;
        if let Some(thermal) = &mut self.thermal {
            // Heat flows only for the time actually simulated; a step
            // truncated at an SoC boundary must not keep heating.
            thermal.step(heat_w, dt_used);
            if dt_s > dt_used {
                thermal.step(0.0, dt_s - dt_used);
            }
        }

        Ok(StepOutcome {
            current_a,
            terminal_v,
            delivered_w,
            heat_w,
            soc: self.soc,
            cycles_completed,
            dt_used_s: dt_used,
        })
    }

    /// Advances the cell by `dt_s` seconds at fixed terminal power `power_w`
    /// (positive = discharge), solving the quadratic
    /// `P = I·(OCV − Vrc) − I²·R0` for the load current.
    ///
    /// # Errors
    ///
    /// As [`TheveninCell::step_current`], plus
    /// [`BatteryError::PowerInfeasible`] when the requested discharge power
    /// exceeds the cell's deliverable maximum at its present state.
    pub fn step_power(&mut self, power_w: f64, dt_s: f64) -> Result<StepOutcome, BatteryError> {
        let current = self.current_for_power(power_w)?;
        self.step_current(current, dt_s)
    }

    /// Solves for the load current that produces terminal power `power_w`
    /// at the cell's present state (positive = discharge).
    ///
    /// # Errors
    ///
    /// [`BatteryError::InvalidLoad`] for non-finite power;
    /// [`BatteryError::PowerInfeasible`] when the discharge power exceeds
    /// the deliverable maximum.
    pub fn current_for_power(&self, power_w: f64) -> Result<f64, BatteryError> {
        if !power_w.is_finite() {
            return Err(BatteryError::InvalidLoad { value: power_w });
        }
        if power_w == 0.0 {
            return Ok(0.0);
        }
        let v_eff = self.ocv() - self.v_rc;
        let r0 = self.resistance_ohm();
        let disc = v_eff * v_eff - 4.0 * r0 * power_w;
        if disc < 0.0 {
            return Err(BatteryError::PowerInfeasible {
                requested_w: power_w,
                max_w: v_eff * v_eff / (4.0 * r0),
            });
        }
        // The physical branch is the smaller-|I| root.
        Ok((v_eff - disc.sqrt()) / (2.0 * r0))
    }

    /// Maximum instantaneous discharge power at the present state, watts.
    #[must_use]
    pub fn max_power_w(&self) -> f64 {
        let v_eff = self.ocv() - self.v_rc;
        let r0 = self.resistance_ohm();
        let i_peak = (v_eff / (2.0 * r0)).min(self.spec.max_discharge_a);
        i_peak * (v_eff - i_peak * r0)
    }

    /// Fractional charge lost to self-discharge per second (≈2.5 % per
    /// month at room temperature — Li-ion shelf behavior). Public so
    /// batched engines advancing SoC out-of-band apply the identical law.
    pub const SELF_DISCHARGE_PER_S: f64 = 0.025 / (30.0 * 86_400.0);

    /// Lets the RC branch relax (and the cell cool) with no load for
    /// `dt_s` seconds. Long rests also lose a little charge to
    /// self-discharge.
    pub fn rest(&mut self, dt_s: f64) {
        let tau = self.spec.concentration_r_ohm * self.spec.plate_c_f;
        if tau > 0.0 {
            if dt_s > 0.0 {
                self.v_rc *= self.rc_alpha(dt_s, tau);
            }
            // dt_s <= 0: no time passes, the branch voltage holds.
        } else {
            self.v_rc = 0.0;
        }
        if dt_s > 0.0 {
            self.soc = (self.soc * (1.0 - Self::SELF_DISCHARGE_PER_S * dt_s)).clamp(0.0, 1.0);
        }
        if let Some(thermal) = &mut self.thermal {
            thermal.step(0.0, dt_s.max(0.0));
        }
    }
}

/// Bounds, `[lo, hi]`, on a cell's policy view over an SoC interval
/// (see [`TheveninCell::view_bounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewBounds {
    /// Open-circuit voltage, volts.
    pub ocv_v: [f64; 2],
    /// Ohmic resistance, ohms: the first value of
    /// [`TheveninCell::resistance_and_dcir_slope`].
    pub resistance_ohm: [f64; 2],
    /// Magnitude of the scaled DCIR slope: the second value of
    /// [`TheveninCell::resistance_and_dcir_slope`], unsigned.
    pub dcir_slope: [f64; 2],
}

/// Plain-data capture of one cell's mutable state (see
/// [`TheveninCell::export_state`]). The spec is shared immutable
/// configuration and is referenced, not copied, on restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStateSnapshot {
    /// State of charge in `[0, 1]`.
    pub soc: f64,
    /// RC-branch (concentration) voltage, volts.
    pub v_rc: f64,
    /// Lifetime energy delivered, joules.
    pub energy_out_j: f64,
    /// Lifetime energy absorbed while charging, joules.
    pub energy_in_j: f64,
    /// Lifetime resistive heat, joules.
    pub heat_j: f64,
    /// Fault-injection multiplier on the ohmic resistance.
    pub fault_r_mult: f64,
    /// Mutable aging state.
    pub aging: crate::aging::AgingStateSnapshot,
    /// Thermal model (carries its temperature state), when attached.
    pub thermal: Option<ThermalModel>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chemistry::Chemistry;

    fn cell() -> TheveninCell {
        TheveninCell::new(BatterySpec::from_chemistry(
            "t",
            Chemistry::Type2CoStandard,
            2.0,
        ))
    }

    #[test]
    fn starts_full() {
        let c = cell();
        assert!(c.is_full());
        assert!(!c.is_empty());
        assert!((c.remaining_ah() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn discharge_reduces_soc_by_coulombs() {
        let mut c = cell();
        // 1 A for 36 s = 0.01 Ah = 0.5 % of 2 Ah.
        c.step_current(1.0, 36.0).unwrap();
        assert!((c.soc() - 0.995).abs() < 1e-9);
    }

    #[test]
    fn charge_increases_soc() {
        let mut c = TheveninCell::with_soc(
            BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0),
            0.5,
        );
        c.step_current(-1.0, 36.0).unwrap();
        assert!((c.soc() - 0.505).abs() < 1e-9);
    }

    #[test]
    fn terminal_voltage_sags_under_load() {
        let mut c = cell();
        let v_rest = c.terminal_voltage(0.0);
        let out = c.step_current(2.0, 1.0).unwrap();
        assert!(out.terminal_v < v_rest);
        assert!(out.heat_w > 0.0);
    }

    #[test]
    fn charging_raises_terminal_voltage_above_ocv() {
        let mut c = TheveninCell::with_soc(
            BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0),
            0.5,
        );
        let ocv = c.ocv();
        let out = c.step_current(-1.0, 1.0).unwrap();
        assert!(out.terminal_v > ocv);
    }

    #[test]
    fn step_truncates_at_empty() {
        let mut c = TheveninCell::with_soc(
            BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0),
            0.01,
        );
        // 2 A for an hour would remove 1 Ah but only 0.02 Ah remains.
        let out = c.step_current(2.0, 3600.0).unwrap();
        assert!(out.soc.abs() < 1e-9);
        assert!(c.is_empty());
        // Further discharge errors.
        assert_eq!(c.step_current(1.0, 1.0), Err(BatteryError::Empty));
    }

    #[test]
    fn step_truncates_at_full() {
        let mut c = TheveninCell::with_soc(
            BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0),
            0.99,
        );
        let out = c.step_current(-1.4, 3600.0).unwrap();
        assert!((out.soc - 1.0).abs() < 1e-9);
        assert_eq!(c.step_current(-1.0, 1.0), Err(BatteryError::Full));
    }

    #[test]
    fn rejects_over_limit_current() {
        let mut c = cell();
        // Type 2 max discharge = 2C = 4 A on a 2 Ah cell.
        let err = c.step_current(10.0, 1.0).unwrap_err();
        assert!(matches!(err, BatteryError::CurrentLimit { .. }));
        // Charge limit = 0.7C = 1.4 A.
        let err = c.step_current(-3.0, 1.0).unwrap_err();
        assert!(matches!(err, BatteryError::CurrentLimit { .. }));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut c = cell();
        assert!(matches!(
            c.step_current(1.0, -1.0),
            Err(BatteryError::InvalidTimeStep { .. })
        ));
        assert!(matches!(
            c.step_current(f64::NAN, 1.0),
            Err(BatteryError::InvalidLoad { .. })
        ));
        assert!(matches!(
            c.current_for_power(f64::INFINITY),
            Err(BatteryError::InvalidLoad { .. })
        ));
    }

    #[test]
    fn power_step_delivers_requested_power() {
        let mut c = cell();
        let out = c.step_power(5.0, 1.0).unwrap();
        assert!(
            (out.delivered_w - 5.0).abs() < 0.05,
            "got {}",
            out.delivered_w
        );
        assert!(out.current_a > 0.0);
    }

    #[test]
    fn negative_power_charges() {
        let mut c = TheveninCell::with_soc(
            BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0),
            0.5,
        );
        let out = c.step_power(-4.0, 1.0).unwrap();
        assert!(out.current_a < 0.0);
        assert!((out.delivered_w + 4.0).abs() < 0.05);
    }

    #[test]
    fn infeasible_power_reports_max() {
        let c = cell();
        let max = c.max_power_w();
        let err = c.current_for_power(1e6).unwrap_err();
        match err {
            BatteryError::PowerInfeasible { max_w, .. } => {
                // The theoretical quadratic max is ≥ the limit-capped max.
                assert!(max_w >= max * 0.99);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rc_branch_builds_and_relaxes() {
        let mut c = cell();
        for _ in 0..600 {
            c.step_current(2.0, 1.0).unwrap();
        }
        let sagged = c.terminal_voltage(0.0);
        let ocv = c.ocv();
        assert!(sagged < ocv, "RC branch should hold a voltage after load");
        c.rest(3600.0);
        let rested = c.terminal_voltage(0.0);
        assert!(rested > sagged);
        assert!((rested - ocv).abs() < 1e-3);
    }

    #[test]
    fn energy_accounting_consistent() {
        let mut c = cell();
        for _ in 0..360 {
            c.step_current(2.0, 1.0).unwrap();
        }
        assert!(c.energy_out_j() > 0.0);
        assert!(c.heat_j() > 0.0);
        // Delivered + heat ≈ chemical energy drawn (OCV integral), within a
        // few percent tolerance from the RC transient.
        let chem_j_approx = c.energy_out_j() + c.heat_j();
        let drawn_ah = 2.0 * 360.0 / 3600.0;
        let chem_j_expected = drawn_ah * 3600.0 * 4.2; // near-full OCV ≈ 4.2 V
        assert!((chem_j_approx / chem_j_expected - 1.0).abs() < 0.1);
    }

    #[test]
    fn heat_loss_fraction_matches_figure_1c_shapes() {
        let t2 = TheveninCell::new(BatterySpec::from_chemistry(
            "t2",
            Chemistry::Type2CoStandard,
            1.0,
        ));
        let t3 = TheveninCell::new(BatterySpec::from_chemistry(
            "t3",
            Chemistry::Type3CoPower,
            1.0,
        ));
        let t4 = TheveninCell::new(BatterySpec::from_chemistry(
            "t4",
            Chemistry::Type4Bendable,
            1.0,
        ));
        let f2 = t2.heat_loss_fraction_at_c_rate(2.0);
        let f3 = t3.heat_loss_fraction_at_c_rate(2.0);
        let f4 = t4.heat_loss_fraction_at_c_rate(2.0);
        // Figure 1c: Type 4 ≫ Type 2 > Type 3; Type 4 around 30 % at 2C.
        assert!(f4 > f2 && f2 > f3, "f4={f4} f2={f2} f3={f3}");
        assert!(f4 > 0.22 && f4 < 0.38, "f4={f4}");
        assert!(f2 < 0.10);
        // Loss grows with C-rate.
        assert!(t4.heat_loss_fraction_at_c_rate(2.0) > t4.heat_loss_fraction_at_c_rate(0.5));
    }

    #[test]
    fn remaining_energy_scales_with_soc() {
        let spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        let full = TheveninCell::with_soc(spec.clone(), 1.0);
        let half = TheveninCell::with_soc(spec, 0.5);
        assert!(full.remaining_energy_wh() > half.remaining_energy_wh() * 1.8);
        assert!(half.remaining_energy_wh() > 0.0);
    }

    #[test]
    fn cycling_ages_the_cell() {
        let mut c = cell();
        // 20 full-ish cycles at 1C.
        for _ in 0..20 {
            while !c.is_empty() {
                c.step_current(2.0, 60.0).unwrap();
            }
            while !c.is_full() {
                c.step_current(-1.4, 60.0).unwrap();
            }
        }
        assert!(c.cycle_count() >= 20);
        assert!(c.effective_capacity_ah() < 2.0);
        assert!(c.wear_ratio() > 0.0);
    }

    #[test]
    fn self_discharge_over_a_month() {
        let mut c = cell();
        // 30 days of rest: ~2.5 % lost.
        for _ in 0..30 {
            c.rest(86_400.0);
        }
        assert!(c.soc() < 0.98 && c.soc() > 0.96, "soc = {}", c.soc());
        // A short rest is negligible.
        let mut c = cell();
        c.rest(600.0);
        assert!(c.soc() > 0.999_99);
    }

    #[test]
    fn cold_cell_is_more_resistive() {
        use crate::thermal::ThermalModel;
        let spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        let warm = TheveninCell::new(spec.clone());
        let cold =
            TheveninCell::new(spec.clone()).with_thermal(ThermalModel::new(0.0, 10.0, 100.0));
        let hot = TheveninCell::new(spec).with_thermal(ThermalModel::new(40.0, 10.0, 100.0));
        assert!(cold.resistance_ohm() > 1.3 * warm.resistance_ohm());
        assert!(hot.resistance_ohm() < warm.resistance_ohm());
        assert_eq!(cold.temperature_c(), Some(0.0));
        assert_eq!(warm.temperature_c(), None);
    }

    #[test]
    fn sustained_load_self_heats_and_softens_resistance() {
        use crate::thermal::ThermalModel;
        let spec = BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 2.0);
        // A cold cell under sustained 1.5C load warms up, and its
        // resistance drops back toward the warm value.
        let mut cell = TheveninCell::new(spec).with_thermal(ThermalModel::new(0.0, 20.0, 50.0));
        let r_cold = cell.resistance_ohm();
        for _ in 0..1800 {
            cell.step_current(3.0, 1.0).unwrap();
        }
        assert!(cell.temperature_c().unwrap() > 2.0, "self-heating happened");
        // Compare at the same SoC: rebuild a cold cell at this SoC.
        let r_now = cell.resistance_ohm();
        let reference = TheveninCell::with_soc(cell.spec().clone(), cell.soc())
            .with_thermal(ThermalModel::new(0.0, 20.0, 50.0));
        let r_ref_cold = reference.resistance_ohm();
        assert!(r_now < r_ref_cold, "warming lowered resistance");
        let _ = r_cold;
        // Resting cools the cell back down.
        cell.rest(36_000.0);
        assert!(cell.temperature_c().unwrap() < 1.0);
    }

    #[test]
    fn zero_current_step_is_inert() {
        let mut c = cell();
        let before = c.soc();
        let out = c.step_current(0.0, 3600.0).unwrap();
        assert_eq!(c.soc(), before);
        assert!(out.heat_w.abs() < 1e-12);
    }
}
