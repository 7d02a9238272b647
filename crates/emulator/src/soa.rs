//! Structure-of-arrays cohort state with quiescence fast-forward.
//!
//! The fleet engine spends most of its time stepping devices that are
//! doing *nothing interesting*: a watch on a nightstand, a phone idling
//! in a pocket. [`SoaCohort`] lets a shard park such devices' state in
//! parallel `Vec<f64>` arrays — SoC, RC-branch voltage, OCV, DCIR, gauge
//! accumulators, one slot per cell, one device per cohort —
//! and advance them with a closed-form multi-step kernel instead of the
//! full per-tick emulation. Curve evaluation goes through
//! [`CurveLut`] tables built once per cohort, so the refresh pass is a
//! branch-light array sweep.
//!
//! ## Lifecycle
//!
//! A device is *entered* right after a real (scalar) tick established a
//! sync point: the quiescence classifier ([`SoaCohort::try_enter`])
//! checks load, directive stability (via an SoC-drift budget that keeps
//! any would-be policy push below the runtime's `materially_different`
//! threshold), and RC-transient settledness. While parked, the driver
//! calls [`SoaCohort::max_ticks`] (how far the device may fast-forward
//! before a boundary: drift budget, stretch cap, SoC floor, gauge
//! recalibration crossing) and [`SoaCohort::advance`] (the kernel).
//! [`SoaCohort::exit`] re-materializes the device bit-exactly through a
//! [`PackSnapshot`] and the pack resumes scalar stepping — exactly at
//! directive/fault/plan-commit boundaries, which all force an exit.
//!
//! ## Exactness
//!
//! A single-tick advance (`ticks == 1`) applies bit-for-bit the same
//! SoC/RC update formulas as the scalar path, so a fast-forwarded idle
//! device with zero measured current matches per-tick stepping exactly
//! on `soc` and `v_rc`. Multi-tick advances use closed forms (`αᵏ`
//! geometric RC sums, linear SoC drain) and LUT curve reads, so terminal
//! voltage, energy, and heat accounting deviate within a small bound
//! that the property tests measure and DESIGN.md §14 documents.

use crate::micro::{Microcontroller, StepReport};
use crate::snapshot::PackSnapshot;
use sdb_battery_model::curves::CurveLut;
use sdb_battery_model::thevenin::TheveninCell;

/// Number of grid cells for the per-cohort curve tables.
const LUT_CELLS: usize = 256;

/// Quiescence classifier thresholds. They are fixed: every cohort uses
/// the same values, so the type carries none. It stays as the argument
/// of [`SoaCohort::new`] for the perfbench harness, which builds cohorts
/// with `QuiescenceConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuiescenceConfig;

/// Load threshold as a C-rate on the pack's total rated capacity: a
/// device is quiescence-eligible only while its load stays below
/// `MAX_LOAD_C_RATE × Σ capacity_ah × 3.7 V` watts.
const MAX_LOAD_C_RATE: f64 = 0.05;
/// RC transient threshold: a device may only enter quiescence when every
/// cell's `|v_rc − I·Rc|` is below this, volts.
const RC_SETTLE_V: f64 = 2e-3;
/// Per-stretch SoC drift budget. Keeping this well below the runtime's
/// 0.01 `materially_different` push threshold guarantees a skipped policy
/// evaluation could not have pushed new ratios.
const MAX_SOC_DRIFT: f64 = 0.004;
/// Hard cap on fast-forwarded ticks per stretch before a re-sync.
const MAX_STRETCH_TICKS: u32 = 60;
/// SoC floor: devices wake before any cell could approach empty.
const MIN_SOC: f64 = 0.05;

/// Structure-of-arrays state for one parked device.
///
/// All per-cell state is stored flat, one slot per cell, so the kernel
/// and the LUT refresh sweep contiguous memory.
#[derive(Debug)]
pub struct SoaCohort {
    n: usize,
    // Per-cell configuration.
    cap_ah: Vec<f64>,
    rc_r: Vec<f64>,
    tau: Vec<f64>,
    lut_ocv: Vec<CurveLut>,
    lut_dcir: Vec<CurveLut>,
    rest_thresh_a: Vec<f64>,
    alpha_dt_bits: Vec<u64>,
    alpha: Vec<f64>,
    g_lsb_a: f64,
    g_offset_a: f64,
    g_vlsb_v: f64,
    g_recal_s: f64,
    max_load_w: f64,
    // Per-cell state of the parked device.
    soc: Vec<f64>,
    v_rc: Vec<f64>,
    tv: Vec<f64>,
    k_apw: Vec<f64>,
    res_mult: Vec<f64>,
    cap_eff: Vec<f64>,
    age_capfrac: Vec<f64>,
    age_crate_accum: Vec<f64>,
    age_crate_weight: Vec<f64>,
    energy_out_j: Vec<f64>,
    heat_j: Vec<f64>,
    g_soc: Vec<f64>,
    g_cap_ah: Vec<f64>,
    g_rest_s: Vec<f64>,
    g_net_c: Vec<f64>,
    g_disch_c: Vec<f64>,
    g_last_i: Vec<f64>,
    // Pack-level bookkeeping of the parked device.
    occupied: bool,
    advanced: bool,
    held_load_w: f64,
    loss_frac: f64,
    stretch_ticks: u32,
    drift_used: f64,
    time_s: f64,
    delivered_j: f64,
    circuit_loss_j: f64,
    cell_heat_j: f64,
    parked: PackSnapshot,
    ticks_advanced: u64,
}

/// Panics unless `lane` is 0: a cohort holds one device.
fn check_lane(lane: usize) {
    assert_eq!(lane, 0, "an SoA cohort holds one device, in lane 0");
}

impl SoaCohort {
    /// Builds cohort arrays for packs shaped like `template`, hosting one
    /// device. `lanes` must be 1 and `cfg` is the fixed
    /// [`QuiescenceConfig`]; both arguments, like the `lane` argument of
    /// the other methods (always 0), are kept for the perfbench harness.
    ///
    /// # Panics
    ///
    /// Panics if `lanes != 1`, or if the template pack has thermal
    /// simulation enabled (such cohorts must run the scalar engine; the
    /// classifier would refuse every device anyway).
    #[must_use]
    pub fn new(template: &Microcontroller, lanes: usize, _cfg: QuiescenceConfig) -> Self {
        assert_eq!(lanes, 1, "an SoA cohort holds one device");
        let n = template.battery_count();
        let cells = template.cells();
        let mut cap_ah = Vec::with_capacity(n);
        let mut rc_r = Vec::with_capacity(n);
        let mut tau = Vec::with_capacity(n);
        let mut lut_ocv = Vec::with_capacity(n);
        let mut lut_dcir = Vec::with_capacity(n);
        let mut rest_thresh_a = Vec::with_capacity(n);
        for cell in cells {
            assert!(
                cell.temperature_c().is_none(),
                "SoA cohorts require thermal simulation off"
            );
            let spec = cell.spec();
            cap_ah.push(spec.capacity_ah);
            rc_r.push(spec.concentration_r_ohm);
            tau.push(spec.concentration_r_ohm * spec.plate_c_f);
            lut_ocv.push(spec.ocp.to_lut(LUT_CELLS));
            lut_dcir.push(spec.dcir.to_lut(LUT_CELLS));
            rest_thresh_a.push(0.002 * spec.capacity_ah);
        }
        let gauge_cfg = template.gauge_config();
        let total_cap: f64 = cap_ah.iter().sum();
        let max_load_w = MAX_LOAD_C_RATE * total_cap * 3.7;
        Self {
            n,
            cap_ah,
            rc_r,
            tau,
            lut_ocv,
            lut_dcir,
            rest_thresh_a,
            alpha_dt_bits: vec![f64::NAN.to_bits(); n],
            alpha: vec![0.0; n],
            g_lsb_a: gauge_cfg.current_lsb_a,
            g_offset_a: gauge_cfg.current_offset_a,
            g_vlsb_v: gauge_cfg.voltage_lsb_v,
            g_recal_s: gauge_cfg.rest_recal_s,
            max_load_w,
            soc: vec![0.0; n],
            v_rc: vec![0.0; n],
            tv: vec![0.0; n],
            k_apw: vec![0.0; n],
            res_mult: vec![0.0; n],
            cap_eff: vec![0.0; n],
            age_capfrac: vec![0.0; n],
            age_crate_accum: vec![0.0; n],
            age_crate_weight: vec![0.0; n],
            energy_out_j: vec![0.0; n],
            heat_j: vec![0.0; n],
            g_soc: vec![0.0; n],
            g_cap_ah: vec![0.0; n],
            g_rest_s: vec![0.0; n],
            g_net_c: vec![0.0; n],
            g_disch_c: vec![0.0; n],
            g_last_i: vec![0.0; n],
            occupied: false,
            advanced: false,
            held_load_w: 0.0,
            loss_frac: 0.0,
            stretch_ticks: 0,
            drift_used: 0.0,
            time_s: 0.0,
            delivered_j: 0.0,
            circuit_loss_j: 0.0,
            cell_heat_j: 0.0,
            parked: PackSnapshot::default(),
            ticks_advanced: 0,
        }
    }

    /// The load threshold (watts) below which devices are
    /// quiescence-eligible.
    #[must_use]
    pub fn max_load_w(&self) -> f64 {
        self.max_load_w
    }

    /// Ticks [`SoaCohort::advance`] has fast-forwarded, over all devices
    /// since the cohort was built.
    #[must_use]
    pub fn ticks_advanced(&self) -> u64 {
        self.ticks_advanced
    }

    /// The quantized current the gauge would measure for a true current
    /// (no fault path — faulted gauges never enter quiescence).
    fn measure(&self, current_a: f64) -> f64 {
        let with_offset = current_a + self.g_offset_a;
        if self.g_lsb_a > 0.0 {
            (with_offset / self.g_lsb_a).round() * self.g_lsb_a
        } else {
            with_offset
        }
    }

    fn alpha_for(&mut self, c: usize, dt_s: f64) -> f64 {
        if dt_s.to_bits() != self.alpha_dt_bits[c] {
            self.alpha_dt_bits[c] = dt_s.to_bits();
            self.alpha[c] = if self.tau[c] > 0.0 && dt_s > 0.0 {
                (-dt_s / self.tau[c]).exp()
            } else if self.tau[c] > 0.0 {
                1.0
            } else {
                0.0
            };
        }
        self.alpha[c]
    }

    /// Quiescence classifier + entry. Call immediately after a real
    /// scalar tick (the sync point) with that tick's report and load.
    /// Returns `false` (leaving the cohort empty and the pack untouched)
    /// when the device does not qualify: load above threshold, any
    /// charging/external/transfer/unmet activity, an unsettled RC
    /// transient, a cell near the SoC floor, thermal simulation or gauge
    /// faults active, or a gauge about to cross its rest-recalibration
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `lane != 0` or the cohort already holds a device.
    pub fn try_enter(
        &mut self,
        lane: usize,
        micro: &Microcontroller,
        report: &StepReport,
        load_w: f64,
        dt_s: f64,
    ) -> bool {
        check_lane(lane);
        assert!(!self.occupied, "cohort already holds a device");
        assert_eq!(micro.battery_count(), self.n, "pack shape mismatch");
        if load_w > self.max_load_w
            || report.unmet_w != 0.0
            || report.external_used_w != 0.0
            || report.charged_w != 0.0
            || micro.transfer_active()
        {
            return false;
        }
        let floor = MIN_SOC + MAX_SOC_DRIFT;
        for (c, b) in report.batteries.iter().enumerate() {
            if b.current_a < 0.0 {
                return false;
            }
            if b.soc <= floor {
                return false;
            }
            let target = b.current_a * self.rc_r[c];
            let cell = &micro.cells()[c];
            if (cell_v_rc(cell) - target).abs() > RC_SETTLE_V {
                return false;
            }
        }
        // Capture the sync-point state; the remaining checks read it.
        let mut parked = std::mem::take(&mut self.parked);
        micro.snapshot_into(&mut parked);
        let ok = parked.thermal_throttle.is_none()
            && parked.transfer.is_none()
            && parked.cells.iter().all(|c| c.thermal.is_none())
            && parked
                .gauges
                .iter()
                .all(|g| g.fault.is_none() && g.rest_s + dt_s < self.g_recal_s);
        if !ok {
            self.parked = parked;
            return false;
        }
        // Load the arrays from the snapshot + sync report.
        for c in 0..self.n {
            let cs = &parked.cells[c];
            let gs = &parked.gauges[c];
            let cell = &micro.cells()[c];
            self.soc[c] = cs.soc;
            self.v_rc[c] = cs.v_rc;
            self.tv[c] = report.batteries[c].terminal_v;
            self.k_apw[c] = if load_w > 0.0 {
                report.batteries[c].current_a / load_w
            } else {
                0.0
            };
            self.res_mult[c] = cell.aging().resistance_multiplier() * cell.fault_resistance_mult();
            self.age_capfrac[c] = cs.aging.capacity_fraction;
            self.cap_eff[c] = self.cap_ah[c] * cs.aging.capacity_fraction;
            self.age_crate_accum[c] = cs.aging.crate_accum;
            self.age_crate_weight[c] = cs.aging.crate_weight;
            self.energy_out_j[c] = cs.energy_out_j;
            self.heat_j[c] = cs.heat_j;
            self.g_soc[c] = gs.soc_estimate;
            self.g_cap_ah[c] = gs.learned_capacity_ah;
            self.g_rest_s[c] = gs.rest_s;
            self.g_net_c[c] = gs.net_c;
            self.g_disch_c[c] = gs.discharged_c;
            self.g_last_i[c] = gs.last_i;
        }
        self.occupied = true;
        self.advanced = false;
        self.held_load_w = load_w;
        self.loss_frac = if load_w > 0.0 {
            report.circuit_loss_w / load_w
        } else {
            0.0
        };
        self.stretch_ticks = 0;
        self.drift_used = 0.0;
        self.time_s = parked.time_s;
        self.delivered_j = parked.delivered_j;
        self.circuit_loss_j = parked.circuit_loss_j;
        self.cell_heat_j = parked.cell_heat_j;
        self.parked = parked;
        true
    }

    /// How many ticks the parked device may fast-forward at `load_w`
    /// before hitting a boundary (0 = must exit and re-sync through the
    /// scalar path). Boundaries: load above threshold, a load appearing
    /// on a device held at zero, the stretch cap, the SoC drift budget,
    /// the SoC floor, and a gauge rest-recalibration crossing.
    ///
    /// # Panics
    ///
    /// Panics if `lane != 0`.
    #[must_use]
    pub fn max_ticks(&self, lane: usize, load_w: f64, dt_s: f64) -> u32 {
        check_lane(lane);
        if !self.occupied || load_w > self.max_load_w {
            return 0;
        }
        if load_w > 0.0 && self.held_load_w == 0.0 {
            return 0;
        }
        let mut ticks = MAX_STRETCH_TICKS.saturating_sub(self.stretch_ticks);
        let drift_left = (MAX_SOC_DRIFT - self.drift_used).max(0.0);
        for c in 0..self.n {
            let i_a = self.k_apw[c] * load_w;
            // Per-tick SoC movement: drain for loaded cells,
            // self-discharge for resting ones.
            let per_tick = if i_a > 0.0 {
                i_a * dt_s / 3600.0 / self.cap_eff[c]
            } else {
                self.soc[c] * TheveninCell::SELF_DISCHARGE_PER_S * dt_s
            };
            if per_tick > 0.0 {
                let by_drift = (drift_left / per_tick).floor();
                ticks = ticks.min(cap_u32(by_drift));
                let headroom = (self.soc[c] - MIN_SOC).max(0.0);
                ticks = ticks.min(cap_u32((headroom / per_tick).floor()));
            }
            // Rest-recalibration crossing: never let rest_s reach the
            // recal threshold inside a stretch.
            let measured = self.measure(i_a);
            if measured.abs() < self.rest_thresh_a[c] && dt_s > 0.0 {
                let until = ((self.g_recal_s - self.g_rest_s[c]) / dt_s).ceil() - 1.0;
                ticks = ticks.min(cap_u32(until));
            }
        }
        ticks
    }

    /// The fast-forward kernel: advances the parked device by `ticks` steps of
    /// `dt_s` at constant `load_w`, entirely in the arrays.
    ///
    /// With `ticks == 1` the SoC/RC updates are bit-identical to the
    /// scalar per-tick formulas; multi-tick calls use the closed forms
    /// (`αᵏ` RC decay with geometric sums for the energy integrals,
    /// linear SoC drain, `(1−σ·dt)ᵏ` self-discharge). The caller must
    /// keep `ticks ≤ max_ticks(lane, load_w, dt_s)`.
    ///
    /// # Panics
    ///
    /// Panics if `lane != 0`, the cohort holds no device or `ticks == 0`.
    pub fn advance(&mut self, lane: usize, load_w: f64, dt_s: f64, ticks: u32) {
        check_lane(lane);
        assert!(ticks > 0, "advance needs at least one tick");
        assert!(self.occupied, "cohort holds no device");
        let k = f64::from(ticks);
        let span_s = k * dt_s;
        let loss_w = self.loss_frac * load_w;
        let mut heat_w_sum = 0.0f64;
        let mut max_drift = 0.0f64;
        for c in 0..self.n {
            let alpha = self.alpha_for(c, dt_s);
            let i_a = self.k_apw[c] * load_w;
            if i_a > 0.0 {
                // Loaded cell: linear drain + geometric RC relaxation.
                let delta = i_a * dt_s / 3600.0 / self.cap_eff[c];
                let soc0 = self.soc[c];
                let soc_k = (soc0 - k * delta).max(0.0);
                let soc_mid = 0.5 * (soc0 + soc_k);
                let target = i_a * self.rc_r[c];
                let d0 = self.v_rc[c] - target;
                let ak = alpha.powi(ticks.cast_signed());
                let v_rc_k = target + d0 * ak;
                // Σ_{t=1..k} v_rc_t and Σ v_rc_t² in closed form.
                let (s1, s2) = geometric_sums(alpha, ak, k);
                let sum_v_rc = k * target + d0 * s1;
                let sum_v_rc_sq = k * target * target + 2.0 * target * d0 * s1 + d0 * d0 * s2;
                // Mid-stretch curve reads (the batched LUT pass).
                let ocv_mid = self.lut_ocv[c].eval(soc_mid);
                let res_mid = self.lut_dcir[c].eval(soc_mid) * self.res_mult[c];
                let energy = i_a * dt_s * (k * (ocv_mid - i_a * res_mid) - sum_v_rc);
                let heat_j = i_a * i_a * res_mid * span_s
                    + sum_v_rc_sq * dt_s / self.rc_r[c].max(f64::EPSILON);
                self.energy_out_j[c] += energy.max(0.0);
                self.heat_j[c] += heat_j;
                heat_w_sum += heat_j / span_s;
                // Aging stress bookkeeping (identical to AgingState::step
                // under pure discharge: no cycles complete).
                let c_rate = i_a / self.cap_ah[c];
                self.age_crate_accum[c] += c_rate * (k * delta);
                self.age_crate_weight[c] += k * delta;
                self.soc[c] = soc_k;
                self.v_rc[c] = v_rc_k;
                // Final-state refresh for the classifier/exit.
                let ocv_k = self.lut_ocv[c].eval(soc_k);
                let res_k = self.lut_dcir[c].eval(soc_k) * self.res_mult[c];
                self.tv[c] = ocv_k - i_a * res_k - v_rc_k;
                max_drift = max_drift.max(k * delta);
            } else {
                // Resting cell: exact rest() law per tick.
                let sdf = 1.0 - TheveninCell::SELF_DISCHARGE_PER_S * dt_s;
                let soc0 = self.soc[c];
                let soc_k = if ticks == 1 {
                    (soc0 * sdf).clamp(0.0, 1.0)
                } else {
                    (soc0 * sdf.powi(ticks.cast_signed())).clamp(0.0, 1.0)
                };
                self.soc[c] = soc_k;
                self.v_rc[c] = if ticks == 1 {
                    self.v_rc[c] * alpha
                } else {
                    self.v_rc[c] * alpha.powi(ticks.cast_signed())
                };
                self.tv[c] = self.lut_ocv[c].eval(soc_k) - self.v_rc[c];
                max_drift = max_drift.max(soc0 - soc_k);
            }
            // Gauge: quantized integration against learned capacity.
            let measured = self.measure(i_a);
            let dsoc = measured * span_s / 3600.0 / self.g_cap_ah[c];
            self.g_soc[c] = (self.g_soc[c] - dsoc).clamp(0.0, 1.0);
            let dq = measured * span_s;
            self.g_net_c[c] += dq;
            // Pure discharge: `dq ≥ 0` (the sense offset is positive), so
            // the charge-direction counter never moves here.
            self.g_disch_c[c] += dq;
            self.g_last_i[c] = measured;
            if measured.abs() < self.rest_thresh_a[c] {
                self.g_rest_s[c] += span_s;
            } else {
                self.g_rest_s[c] = 0.0;
            }
        }
        self.ticks_advanced += u64::from(ticks);
        self.advanced = true;
        self.stretch_ticks += ticks;
        self.drift_used += max_drift;
        self.time_s += span_s;
        self.delivered_j += load_w * span_s;
        self.circuit_loss_j += loss_w * span_s;
        self.cell_heat_j += heat_w_sum * span_s;
    }

    /// Re-materializes the parked device into `micro` (which must be the same
    /// device that entered) and empties the cohort. The restore
    /// flows through the parked [`PackSnapshot`], updated with the
    /// array-evolved fields.
    ///
    /// # Panics
    ///
    /// Panics if `lane != 0`, the cohort holds no device or the pack shape
    /// mismatches.
    pub fn exit(&mut self, lane: usize, micro: &mut Microcontroller) {
        check_lane(lane);
        assert!(self.occupied, "cohort holds no device");
        // Split-borrow: move the snapshot out while writing arrays back.
        let mut parked = std::mem::take(&mut self.parked);
        parked.time_s = self.time_s;
        parked.delivered_j = self.delivered_j;
        parked.circuit_loss_j = self.circuit_loss_j;
        parked.cell_heat_j = self.cell_heat_j;
        for c in 0..self.n {
            let cs = &mut parked.cells[c];
            cs.soc = self.soc[c];
            cs.v_rc = self.v_rc[c];
            cs.energy_out_j = self.energy_out_j[c];
            cs.heat_j = self.heat_j[c];
            cs.aging.crate_accum = self.age_crate_accum[c];
            cs.aging.crate_weight = self.age_crate_weight[c];
            let gs = &mut parked.gauges[c];
            gs.soc_estimate = self.g_soc[c];
            gs.rest_s = self.g_rest_s[c];
            gs.net_c = self.g_net_c[c];
            gs.discharged_c = self.g_disch_c[c];
            if self.advanced {
                gs.last_i = self.g_last_i[c];
                gs.last_v = if self.g_vlsb_v > 0.0 {
                    (self.tv[c] / self.g_vlsb_v).round() * self.g_vlsb_v
                } else {
                    self.tv[c]
                };
            }
        }
        micro
            .restore_from(&parked)
            .expect("cohort/pack shape invariant");
        self.parked = parked;
        self.occupied = false;
        self.advanced = false;
    }
}

/// `v_rc` is private to the cell; recover it from public queries:
/// `terminal_voltage(0) = ocv − v_rc`.
fn cell_v_rc(cell: &TheveninCell) -> f64 {
    cell.ocv() - cell.terminal_voltage(0.0)
}

/// `(Σ_{t=1..k} αᵗ, Σ_{t=1..k} α²ᵗ)` — geometric sums for the RC decay
/// integrals, exact at `k == 1` (`(1−α)/(1−α)` is exactly 1).
fn geometric_sums(alpha: f64, alpha_k: f64, k: f64) -> (f64, f64) {
    if alpha >= 1.0 {
        return (k, k);
    }
    if alpha <= 0.0 {
        return (0.0, 0.0);
    }
    let s1 = alpha * (1.0 - alpha_k) / (1.0 - alpha);
    let a2 = alpha * alpha;
    let s2 = a2 * (1.0 - alpha_k * alpha_k) / (1.0 - a2);
    (s1, s2)
}

fn cap_u32(x: f64) -> u32 {
    if x <= 0.0 {
        0
    } else if x >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        // Truncation is the intent: a partial tick does not count.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            x as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::PackBuilder;
    use crate::profile::ProfileKind;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;

    fn pack() -> Microcontroller {
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                0.8,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 1.5),
                0.7,
                ProfileKind::Standard,
            )
            .build();
        m.set_observer(sdb_observe::Observer::disabled());
        m
    }

    #[test]
    fn classifier_rejects_heavy_load() {
        let mut m = pack();
        let mut soa = SoaCohort::new(&m, 1, QuiescenceConfig);
        let heavy = soa.max_load_w() * 20.0;
        let report = m.step(heavy, 0.0, 60.0);
        assert!(!soa.try_enter(0, &m, &report, heavy, 60.0));
    }

    #[test]
    fn classifier_rejects_charging() {
        let mut m = pack();
        let mut soa = SoaCohort::new(&m, 1, QuiescenceConfig);
        let report = m.step(0.05, 10.0, 60.0);
        assert!(!soa.try_enter(0, &m, &report, 0.05, 60.0));
    }

    #[test]
    fn enter_exit_without_advance_is_identity() {
        let mut m = pack();
        m.step(0.05, 0.0, 60.0);
        let reference = m.clone();
        let mut soa = SoaCohort::new(&m, 1, QuiescenceConfig);
        let report = m.step(0.05, 0.0, 60.0);
        let mut fast = m.clone();
        assert!(soa.try_enter(0, &m, &report, 0.05, 60.0));
        soa.exit(0, &mut fast);
        // The lane round-trip must be a no-op: identical snapshots.
        drop(reference);
        assert_eq!(m.snapshot(), fast.snapshot());
    }

    #[test]
    fn single_tick_advance_matches_scalar_rest_exactly() {
        // A truly idle pack (zero load): the kernel's rest branch applies
        // the identical per-tick law, so SoC and v_rc stay bit-equal.
        let mut scalar = pack();
        let mut fast = pack();
        // Sync step on both.
        scalar.step(0.0, 0.0, 60.0);
        let report = fast.step(0.0, 0.0, 60.0);
        let mut soa = SoaCohort::new(&fast, 1, QuiescenceConfig);
        assert!(soa.try_enter(0, &fast, &report, 0.0, 60.0));
        // Stay under the gauge's rest-recalibration boundary (the driver
        // enforces this through max_ticks; here we step manually).
        let k = soa.max_ticks(0, 0.0, 60.0).min(25);
        assert!(k >= 20, "expected a long idle stretch, got {k}");
        for _ in 0..k {
            scalar.step(0.0, 0.0, 60.0);
            soa.advance(0, 0.0, 60.0, 1);
        }
        soa.exit(0, &mut fast);
        let lut_err_v = fast
            .cells()
            .iter()
            .map(|c| c.spec().ocp.to_lut(LUT_CELLS).max_abs_error(&c.spec().ocp))
            .fold(0.0, f64::max);
        let a = scalar.snapshot();
        let b = fast.snapshot();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.soc.to_bits(), cb.soc.to_bits(), "soc must be bit-equal");
            assert_eq!(
                ca.v_rc.to_bits(),
                cb.v_rc.to_bits(),
                "v_rc must be bit-equal"
            );
        }
        for (ga, gb) in a.gauges.iter().zip(&b.gauges) {
            assert_eq!(ga.soc_estimate.to_bits(), gb.soc_estimate.to_bits());
            assert_eq!(ga.rest_s.to_bits(), gb.rest_s.to_bits());
            // last_v goes through the LUT: bounded, not bit-equal.
            assert!((ga.last_v - gb.last_v).abs() <= lut_err_v + 1e-3);
        }
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
    }

    #[test]
    fn closed_form_matches_sequential_ticks() {
        // advance(k) vs k × advance(1) on a small constant load: the
        // closed forms must agree with sequential application tightly.
        let mut m1 = pack();
        let mut m2 = pack();
        let load = 0.08;
        let r1 = m1.step(load, 0.0, 60.0);
        let r2 = m2.step(load, 0.0, 60.0);
        let mut soa1 = SoaCohort::new(&m1, 1, QuiescenceConfig);
        let mut soa2 = SoaCohort::new(&m2, 1, QuiescenceConfig);
        assert!(soa1.try_enter(0, &m1, &r1, load, 60.0));
        assert!(soa2.try_enter(0, &m2, &r2, load, 60.0));
        let k = soa1.max_ticks(0, load, 60.0).min(12);
        assert!(k >= 4, "expected a usable stretch, got {k}");
        soa1.advance(0, load, 60.0, k);
        for _ in 0..k {
            soa2.advance(0, load, 60.0, 1);
        }
        soa1.exit(0, &mut m1);
        soa2.exit(0, &mut m2);
        let a = m1.snapshot();
        let b = m2.snapshot();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert!(
                (ca.soc - cb.soc).abs() < 1e-9,
                "soc {} vs {}",
                ca.soc,
                cb.soc
            );
            assert!((ca.v_rc - cb.v_rc).abs() < 1e-9);
            let rel = (ca.energy_out_j - cb.energy_out_j).abs() / cb.energy_out_j.abs().max(1e-6);
            assert!(rel < 1e-3, "energy drift {rel}");
        }
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
    }

    #[test]
    fn fast_forward_tracks_scalar_within_bound() {
        // The adaptive-timestep equivalence property at unit level: a
        // quiescent constant-load stretch fast-forwarded in one call
        // matches per-tick scalar stepping within the documented bound.
        let load = 0.06;
        let mut scalar = pack();
        let mut fast = pack();
        let _ = scalar.step(load, 0.0, 60.0);
        let report = fast.step(load, 0.0, 60.0);
        let mut soa = SoaCohort::new(&fast, 1, QuiescenceConfig);
        assert!(soa.try_enter(0, &fast, &report, load, 60.0));
        let k = soa.max_ticks(0, load, 60.0).min(30);
        assert!(k >= 10, "expected a stretch of at least 10 ticks, got {k}");
        for _ in 0..k {
            scalar.step(load, 0.0, 60.0);
        }
        soa.advance(0, load, 60.0, k);
        soa.exit(0, &mut fast);
        let a = scalar.snapshot();
        let b = fast.snapshot();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            // Documented bound: SoC within 1e-6 absolute per stretch.
            assert!(
                (ca.soc - cb.soc).abs() < 1e-6,
                "soc diverged: {} vs {}",
                ca.soc,
                cb.soc
            );
            assert!((ca.v_rc - cb.v_rc).abs() < 1e-4);
        }
        // Pack-level energy accounting within 1 % relative.
        let rel = (a.delivered_j - b.delivered_j).abs() / a.delivered_j.max(1e-9);
        assert!(rel < 0.01, "delivered_j drift {rel}");
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
    }
}
