//! Charging and discharging policies (Section 3.3).
//!
//! "It is possible to derive charging and discharging algorithms that (in
//! isolation!) optimize the CCB and the instantaneous RBL metric. We use
//! these four 'optimal' algorithms (CCB-Charge, RBL-Charge, CCB-Discharge,
//! and RBL-Discharge) and weigh them by means of two parameters — Charging
//! and Discharging Directive Parameter — handed to the SDB Runtime by the
//! rest of the OS."
//!
//! The RBL-Discharge allocation follows the paper's Lagrangian balance: it
//! splits the load current `y1..yN` so the *effective* marginal resistances
//! `R'i = Ri + δi·yi` are equalized (δi being the DCIR-vs-SoC slope,
//! discretized over a short planning horizon), which minimizes total
//! resistive loss for the instantaneous load.

use crate::error::SdbError;
use sdb_emulator::micro::Microcontroller;

/// Per-battery view the policies consume. Built either from ground truth
/// (emulation) or from gauge statuses + manufacturer curves (production).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryView {
    /// State of charge `[0, 1]`.
    pub soc: f64,
    /// Open-circuit voltage at this SoC, volts.
    pub ocv_v: f64,
    /// Ohmic + concentration resistance at this SoC, ohms.
    pub resistance_ohm: f64,
    /// Magnitude of the DCIR-vs-SoC slope at this SoC (the paper's `δi`),
    /// ohms per unit SoC.
    pub dcir_slope: f64,
    /// Wear ratio `λi = cci / χi`.
    pub wear: f64,
    /// Rated capacity, amp-hours.
    pub capacity_ah: f64,
    /// Maximum discharge current, amps.
    pub max_discharge_a: f64,
    /// Charge current the battery can accept right now (profile-limited),
    /// amps.
    pub charge_acceptance_a: f64,
    /// Whether the battery is empty.
    pub empty: bool,
    /// Whether the battery is full.
    pub full: bool,
}

/// Input snapshot for one policy decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyInput {
    /// Per-battery views.
    pub batteries: Vec<BatteryView>,
    /// Present system load estimate, watts.
    pub load_w: f64,
    /// External supply power available, watts.
    pub external_w: f64,
}

impl PolicyInput {
    /// Builds the snapshot from the emulated microcontroller's ground
    /// truth (the emulator stands in for gauge+curve lookups).
    #[must_use]
    pub fn from_micro(micro: &Microcontroller) -> Self {
        let mut input = Self {
            batteries: Vec::with_capacity(micro.battery_count()),
            load_w: 0.0,
            external_w: 0.0,
        };
        input.refill_from_micro(micro);
        input
    }

    /// Rebuilds the snapshot in place from `micro`, reusing the battery
    /// buffer (no allocation once capacity is established) — the rollout
    /// hot path. Load and external power are reset to zero, as in
    /// [`PolicyInput::from_micro`].
    pub(crate) fn refill_from_micro(&mut self, micro: &Microcontroller) {
        self.load_w = 0.0;
        self.external_w = 0.0;
        self.batteries.clear();
        self.batteries
            .extend(micro.cells().iter().enumerate().map(|(i, cell)| {
                // An absent battery (detached pack) is unusable in both
                // directions: report it empty and full so no policy routes
                // power to it.
                let present = micro.battery_present(i);
                // One curve walk yields both the DCIR value and its slope.
                let (r0, dcir_slope) = cell.resistance_and_dcir_slope();
                BatteryView {
                    soc: cell.soc(),
                    ocv_v: cell.ocv(),
                    resistance_ohm: r0 + cell.spec().concentration_r_ohm,
                    dcir_slope: dcir_slope.abs(),
                    wear: cell.wear_ratio(),
                    capacity_ah: cell.spec().capacity_ah,
                    max_discharge_a: cell.spec().max_discharge_a,
                    charge_acceptance_a: micro.charge_acceptance_a(i),
                    empty: cell.is_empty() || !present,
                    full: cell.is_full() || !present,
                }
            }));
    }

    /// Sets the load estimate (builder style).
    #[must_use]
    pub fn with_load(mut self, load_w: f64) -> Self {
        self.load_w = load_w;
        self
    }

    /// Sets the external power (builder style).
    #[must_use]
    pub fn with_external(mut self, external_w: f64) -> Self {
        self.external_w = external_w;
        self
    }
}

/// Normalizes non-negative weights into ratios in place, returning
/// `false` (leaving the slice untouched) if every weight is zero.
pub(crate) fn normalize_in_place(weights: &mut [f64]) -> bool {
    let sum: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if sum <= 0.0 {
        return false;
    }
    for w in weights.iter_mut() {
        *w = if *w > 0.0 { *w / sum } else { 0.0 };
    }
    true
}

/// A ratio component moving by more than this (one percentage point) is
/// a material change, worth a push to the hardware.
const PUSH_THRESHOLD: f64 = 0.01;

/// How far below [`PUSH_THRESHOLD`] [`DischargeDirective::cannot_push`]
/// keeps every bound: about 10⁶ ulps of a ratio, where the bound and the
/// solver it stands in for differ by a few roundings per value.
const CERTIFICATE_MARGIN: f64 = 1e-9;

/// Ratios differ materially if the lengths differ or any component moved
/// by more than [`PUSH_THRESHOLD`].
pub(crate) fn materially_different(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() {
        return true;
    }
    a.iter().zip(b).any(|(x, y)| (x - y).abs() > PUSH_THRESHOLD)
}

/// Reusable buffers for allocation-free policy evaluation
/// ([`DischargeDirective::ratios_into`] and friends). One instance per
/// runtime; rollout loops hit zero allocations once the buffers reach
/// pack size.
#[derive(Debug, Clone, Default)]
pub(crate) struct PolicyScratch {
    ccb: Vec<f64>,
    rbl: Vec<f64>,
    delta: Vec<f64>,
    currents: Vec<f64>,
    out: Vec<f64>,
    /// Per-cell state of [`DischargeDirective::cannot_push`].
    bounds: Vec<CellBound>,
}

/// One cell's part of the no-push certificate: its share of the blend's
/// CCB-Discharge term, its `δ'`, and the box around its RBL-Discharge
/// weight, with the next pass's box.
#[derive(Debug, Clone, Copy, Default)]
struct CellBound {
    ccb: f64,
    delta: f64,
    lo: f64,
    hi: f64,
    next_lo: f64,
    next_hi: f64,
}

impl PolicyScratch {
    /// Empty scratch (buffers grow to pack size on first use).
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The ratios produced by the most recent `*_into` evaluation.
    #[must_use]
    pub(crate) fn ratios(&self) -> &[f64] {
        &self.out
    }

    /// Mutable view of the most recent result (for post-processing such
    /// as guard-band widening).
    #[must_use]
    pub(crate) fn ratios_mut(&mut self) -> &mut [f64] {
        &mut self.out
    }
}

/// CCB-Discharge: route load toward the least-worn batteries so wear
/// equalizes (discharge drives the subsequent recharge, which is what
/// increments cycles).
///
/// # Errors
///
/// [`SdbError::Infeasible`] if every battery is empty.
pub fn ccb_discharge(input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
    let mut out = Vec::with_capacity(input.batteries.len());
    ccb_discharge_into(input, &mut out)?;
    Ok(out)
}

/// [`ccb_discharge`] writing into a caller-owned buffer (no allocation
/// once `out` has pack capacity).
///
/// # Errors
///
/// [`SdbError::Infeasible`] if every battery is empty.
pub(crate) fn ccb_discharge_into(input: &PolicyInput, out: &mut Vec<f64>) -> Result<(), SdbError> {
    let max_wear = input
        .batteries
        .iter()
        .filter(|b| !b.empty)
        .map(|b| b.wear)
        .fold(f64::NEG_INFINITY, f64::max);
    out.clear();
    out.extend(input.batteries.iter().map(|b| ccb_weight(b, max_wear)));
    if normalize_in_place(out) {
        Ok(())
    } else {
        Err(SdbError::Infeasible("all batteries empty"))
    }
}

/// A battery's CCB-Discharge weight before normalization, given the
/// highest wear among the usable batteries.
fn ccb_weight(b: &BatteryView, max_wear: f64) -> f64 {
    if b.empty {
        0.0
    } else {
        // Strictly positive for usable batteries; the lead term biases
        // toward the least worn.
        (max_wear - b.wear) + 0.02
    }
}

/// CCB-Charge: route charge toward the least-worn batteries that can
/// accept it.
///
/// # Errors
///
/// [`SdbError::Infeasible`] if no battery can accept charge.
pub fn ccb_charge(input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
    let mut out = Vec::with_capacity(input.batteries.len());
    ccb_charge_into(input, &mut out)?;
    Ok(out)
}

/// [`ccb_charge`] writing into a caller-owned buffer.
///
/// # Errors
///
/// [`SdbError::Infeasible`] if no battery can accept charge.
pub(crate) fn ccb_charge_into(input: &PolicyInput, out: &mut Vec<f64>) -> Result<(), SdbError> {
    let max_wear = input
        .batteries
        .iter()
        .filter(|b| !b.full)
        .map(|b| b.wear)
        .fold(f64::NEG_INFINITY, f64::max);
    out.clear();
    out.extend(input.batteries.iter().map(|b| {
        if b.full || b.charge_acceptance_a <= 0.0 {
            0.0
        } else {
            (max_wear - b.wear) + 0.02
        }
    }));
    if normalize_in_place(out) {
        Ok(())
    } else {
        Err(SdbError::Infeasible("no battery can accept charge"))
    }
}

/// Refinement passes [`DischargeDirective::cannot_push`] may run before
/// it declines. Each tightens the box around the solver's result: over
/// the first 300 000 evaluations of an 8-device planned fleet day, one
/// pass certified 95.4% of them, two 98.0% and three 99.1%.
const REFINEMENTS: usize = 3;

/// Planning horizon used to discretize the paper's `δi` term: how far
/// ahead (in hours of sustained draw) the allocator charges each battery
/// for the resistance growth its share will cause.
const RBL_HORIZON_H: f64 = 0.25;

/// RBL-Discharge: the loss-minimizing current split. Iteratively solves
/// for currents `yi ∝ Vi / (Ri + δ'i·yi)` (effective-resistance balance),
/// where `δ'i` converts the DCIR slope into ohms-per-amp over the planning
/// horizon, then converts currents to power ratios. The fixed point runs
/// at most 12 passes and stops early once a pass leaves every weight
/// bit-identical.
///
/// # Errors
///
/// [`SdbError::Infeasible`] if every battery is empty.
pub fn rbl_discharge(input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
    let n = input.batteries.len();
    let mut out = Vec::with_capacity(n);
    let mut delta = Vec::with_capacity(n);
    let mut currents = Vec::with_capacity(n);
    rbl_discharge_into(input, &mut out, &mut delta, &mut currents)?;
    Ok(out)
}

/// [`rbl_discharge`] writing into caller-owned buffers: `out` receives
/// the ratios; `delta` and `currents` are internal scratch (contents
/// overwritten). No allocation once all three have pack capacity.
///
/// # Errors
///
/// [`SdbError::Infeasible`] if every battery is empty.
pub(crate) fn rbl_discharge_into(
    input: &PolicyInput,
    out: &mut Vec<f64>,
    delta: &mut Vec<f64>,
    currents: &mut Vec<f64>,
) -> Result<(), SdbError> {
    let n = input.batteries.len();
    let total_i = pack_current(input).ok_or(SdbError::Infeasible("all batteries empty"))?;
    delta.clear();
    delta.extend(input.batteries.iter().map(delta_prime));
    currents.clear();
    currents.resize(n, 0.0);
    // Initialize `out` with the parallel-resistor split weights.
    out.clear();
    out.extend(input.batteries.iter().map(|b| {
        if b.empty {
            0.0
        } else {
            b.ocv_v / b.resistance_ohm.max(1e-6)
        }
    }));
    for _ in 0..12 {
        let sum: f64 = out.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if sum <= 0.0 {
            return Err(SdbError::Infeasible("all batteries empty"));
        }
        for i in 0..n {
            currents[i] = if out[i] > 0.0 {
                out[i] / sum * total_i
            } else {
                0.0
            };
        }
        let mut moved = false;
        for i in 0..n {
            let new = if input.batteries[i].empty {
                0.0
            } else {
                rbl_weight(&input.batteries[i], delta[i], currents[i])
            };
            moved |= new.to_bits() != out[i].to_bits();
            out[i] = new;
        }
        // Each pass is a pure function of the previous iterate, so once a
        // pass changes no weight bit for bit, every later pass repeats it.
        if !moved {
            break;
        }
    }
    // Cap at per-battery current limits, shifting the excess.
    if !normalize_in_place(out) {
        return Err(SdbError::Infeasible("all batteries empty"));
    }
    let ratios = out;
    if total_i > 0.0 {
        for _ in 0..n {
            let mut excess = 0.0;
            let mut headroom_sum = 0.0;
            for (i, b) in input.batteries.iter().enumerate() {
                let want = ratios[i] * total_i;
                if want > b.max_discharge_a {
                    excess += want - b.max_discharge_a;
                    ratios[i] = b.max_discharge_a / total_i;
                } else if !b.empty {
                    headroom_sum += b.max_discharge_a - want;
                }
            }
            if excess <= 1e-12 || headroom_sum <= 1e-12 {
                break;
            }
            for (i, b) in input.batteries.iter().enumerate() {
                let have = ratios[i] * total_i;
                if !b.empty && have < b.max_discharge_a {
                    let add = excess * (b.max_discharge_a - have) / headroom_sum;
                    ratios[i] = (have + add) / total_i;
                }
            }
        }
        // If demand exceeds the pack's combined current capability, plain
        // renormalization would push capped batteries back over their
        // limits; fall back to a cap-proportional split instead (the
        // hardware re-checks feasibility and reports any true shortfall).
        let total_cap = usable_cap_total(input);
        if total_i > total_cap && total_cap > 0.0 {
            for (r, b) in ratios.iter_mut().zip(&input.batteries) {
                *r = if b.empty {
                    0.0
                } else {
                    b.max_discharge_a / total_cap
                };
            }
        } else {
            let sum: f64 = ratios.iter().sum();
            if sum > 0.0 {
                ratios.iter_mut().for_each(|r| *r /= sum);
            }
        }
    }
    Ok(())
}

/// The pack current RBL-Discharge splits: the load over the usable cells'
/// mean OCV, not below 0. `None` when every battery is empty.
fn pack_current(input: &PolicyInput) -> Option<f64> {
    let (usable, v_sum) = input
        .batteries
        .iter()
        .filter(|b| !b.empty)
        .fold((0usize, 0.0f64), |(k, s), b| (k + 1, s + b.ocv_v));
    if usable == 0 {
        return None;
    }
    let mean_v = v_sum / usable as f64;
    Some((input.load_w / mean_v).max(0.0))
}

/// `δ'i`: the ohms a cell's effective resistance gains per amp drawn for
/// `RBL_HORIZON_H` hours.
fn delta_prime(b: &BatteryView) -> f64 {
    b.dcir_slope * RBL_HORIZON_H / b.capacity_ah.max(1e-9)
}

/// The summed current caps of the usable cells: above it, RBL-Discharge
/// falls back to a cap-proportional split.
fn usable_cap_total(input: &PolicyInput) -> f64 {
    input
        .batteries
        .iter()
        .map(|b| if b.empty { 0.0 } else { b.max_discharge_a })
        .sum()
}

/// One RBL-Discharge fixed-point weight: the cell's OCV over its
/// effective resistance at `current_a` amps of draw (`delta` is `δ'i`).
/// For `delta >= 0` it is non-increasing in `current_a`: each rounded
/// operation is monotone, so bounds on the current bound the weight.
fn rbl_weight(b: &BatteryView, delta: f64, current_a: f64) -> f64 {
    let r_eff = b.resistance_ohm + delta * current_a;
    b.ocv_v / r_eff.max(1e-6)
}

/// [`rbl_weight`] at `current_a = num / den` with one division: for
/// `den > 0`, `V / max(R + δ·num/den, 1e-6)` equals
/// `V·den / max(R·den + δ·num, 1e-6·den)`.
fn rbl_weight_at_share(b: &BatteryView, delta: f64, num: f64, den: f64) -> f64 {
    b.ocv_v * den / (b.resistance_ohm * den + delta * num).max(1e-6 * den)
}

/// Over every weight vector `w` in the cells' box, the share `w_i / Σ w`
/// is largest with `w_i` at its top and every other weight at its
/// bottom, and smallest the other way round: it lies in
/// `[lo_i / bottom, hi_i / top]`. Returns `(bottom, top)`.
fn share_denominators(cells: &[CellBound], i: usize) -> (f64, f64) {
    let (mut rest_lo, mut rest_hi) = (0.0, 0.0);
    for (j, c) in cells.iter().enumerate() {
        if j != i {
            rest_lo += c.lo;
            rest_hi += c.hi;
        }
    }
    (cells[i].lo + rest_hi, cells[i].hi + rest_lo)
}

/// RBL-Charge: maximize the rate of *useful* charge accumulation — fill
/// the batteries that accept the most power with the least loss. Weights
/// are each battery's acceptance power discounted by its resistive
/// charging inefficiency.
///
/// # Errors
///
/// [`SdbError::Infeasible`] if no battery can accept charge.
pub fn rbl_charge(input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
    let mut out = Vec::with_capacity(input.batteries.len());
    rbl_charge_into(input, &mut out)?;
    Ok(out)
}

/// [`rbl_charge`] writing into a caller-owned buffer.
///
/// # Errors
///
/// [`SdbError::Infeasible`] if no battery can accept charge.
pub(crate) fn rbl_charge_into(input: &PolicyInput, out: &mut Vec<f64>) -> Result<(), SdbError> {
    out.clear();
    out.extend(input.batteries.iter().map(|b| {
        if b.full || b.charge_acceptance_a <= 0.0 {
            0.0
        } else {
            let p_accept = b.charge_acceptance_a * b.ocv_v;
            let eta = (1.0 - b.charge_acceptance_a * b.resistance_ohm / b.ocv_v.max(1e-6))
                .clamp(0.05, 1.0);
            p_accept * eta
        }
    }));
    if normalize_in_place(out) {
        Ok(())
    } else {
        Err(SdbError::Infeasible("no battery can accept charge"))
    }
}

/// The discharging directive parameter: 0 = pure CCB-Discharge (longevity),
/// 1 = pure RBL-Discharge (maximize remaining battery life now).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DischargeDirective(f64);

impl DischargeDirective {
    /// Creates a directive, clamping into `[0, 1]`.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Self(value.clamp(0.0, 1.0))
    }

    /// Creates a directive, rejecting out-of-range values.
    ///
    /// # Errors
    ///
    /// [`SdbError::BadDirective`] outside `[0, 1]`.
    pub fn try_new(value: f64) -> Result<Self, SdbError> {
        if !(0.0..=1.0).contains(&value) || !value.is_finite() {
            return Err(SdbError::BadDirective(value));
        }
        Ok(Self(value))
    }

    /// The parameter value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Blended discharge ratios.
    ///
    /// # Errors
    ///
    /// Propagates infeasibility when every battery is empty.
    pub fn ratios(self, input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
        let mut scratch = PolicyScratch::new();
        self.ratios_into(input, &mut scratch)?;
        Ok(scratch.out)
    }

    /// Allocation-free [`DischargeDirective::ratios`]: the result lands
    /// in [`PolicyScratch::ratios`]. Both policies run at every
    /// directive, 0 and 1 included: RBL-Discharge can reject an input
    /// CCB-Discharge accepts (a usable view with `ocv_v <= 0`), and the
    /// blend keeps that verdict.
    ///
    /// # Errors
    ///
    /// Propagates infeasibility when every battery is empty.
    pub(crate) fn ratios_into(
        self,
        input: &PolicyInput,
        scratch: &mut PolicyScratch,
    ) -> Result<(), SdbError> {
        ccb_discharge_into(input, &mut scratch.ccb)?;
        rbl_discharge_into(
            input,
            &mut scratch.rbl,
            &mut scratch.delta,
            &mut scratch.currents,
        )?;
        blend_into(self.0, &scratch.ccb, &scratch.rbl, &mut scratch.out)
    }

    /// Whether [`DischargeDirective::ratios_into`] on `input` provably
    /// returns ratios no farther than the push threshold (0.01) from
    /// `last`, the split in force: a runtime tick that holds this
    /// certificate can skip the evaluation, since it could not push.
    /// `false` means only that the bound cannot prove it.
    ///
    /// Every pass of RBL-Discharge's fixed point sets `w_i = V_i /
    /// max(R_i + δ'_i·c_i, 1e-6)`, where `c_i ∈ [0, I]` is a share of the
    /// pack current, so every iterate lies in the box `[V_i / max(R_i +
    /// δ'_i·I, 1e-6), V_i / max(R_i, 1e-6)]`. One more pass through the
    /// same formula, at the extreme shares that box allows, gives a tighter
    /// box holding every iterate from the first pass on, the solver's
    /// result included. Up to three such passes run, until the ratio box
    /// the weight box implies, blended with the CCB-Discharge split, stays
    /// within `0.01 − 1e-9` of `last` in every component (DESIGN.md §9).
    ///
    /// Holds when CCB-Discharge is infeasible, as when every battery is
    /// empty, since the evaluation then fails.
    /// Declines when `last` does not match the pack; when a usable cell's
    /// OCV is not positive and finite, or a resistance or DCIR slope is not
    /// finite; and when a per-battery current cap or the pack-current
    /// fallback could bind. Touches none of `scratch`'s other buffers, so
    /// [`PolicyScratch::ratios`] still holds the last evaluation.
    pub(crate) fn cannot_push(
        self,
        input: &PolicyInput,
        last: &[f64],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let batteries = &input.batteries;
        if last.len() != batteries.len() {
            return false;
        }
        // The CCB-Discharge weights as `ccb_discharge_into` computes them.
        let mut max_wear = f64::NEG_INFINITY;
        for b in batteries.iter().filter(|b| !b.empty) {
            if !(b.ocv_v.is_finite() && b.ocv_v > 0.0 && b.resistance_ohm.is_finite()) {
                return false;
            }
            max_wear = max_wear.max(b.wear);
        }
        let cells = &mut scratch.bounds;
        cells.clear();
        let mut ccb_sum = 0.0;
        for b in batteries {
            let ccb = ccb_weight(b, max_wear);
            if ccb.is_finite() && ccb > 0.0 {
                ccb_sum += ccb;
            }
            cells.push(CellBound {
                ccb,
                delta: delta_prime(b),
                ..CellBound::default()
            });
        }
        // `ratios_into` fails, pushing nothing, where CCB-Discharge does.
        if ccb_sum <= 0.0 {
            return true;
        }
        // `ratios_into` also fails, pushing nothing, where RBL-Discharge
        // finds no usable cell.
        let Some(total_i) = pack_current(input) else {
            return true;
        };
        let total_cap = usable_cap_total(input);
        if !total_i.is_finite() || (total_i > total_cap && total_cap > 0.0) {
            return false;
        }
        // The blend's CCB term, and the a-priori box around every
        // iterate: shares in [0, I].
        let ccb_scale = (1.0 - self.0) / ccb_sum;
        for (c, b) in cells.iter_mut().zip(batteries) {
            c.ccb = if c.ccb > 0.0 { c.ccb * ccb_scale } else { 0.0 };
            if b.empty {
                continue;
            }
            if !(c.delta.is_finite() && c.delta >= 0.0) {
                return false;
            }
            c.lo = rbl_weight(b, c.delta, total_i);
            c.hi = rbl_weight(b, c.delta, 0.0);
        }
        let reach = PUSH_THRESHOLD - CERTIFICATE_MARGIN;
        for _ in 0..REFINEMENTS {
            // One more pass at the box's extreme shares tightens it: a
            // cell's share is at most `hi_i / top` and at least
            // `lo_i / bottom`.
            for (i, b) in batteries.iter().enumerate() {
                let (bottom, top) = share_denominators(cells, i);
                let c = &cells[i];
                let (lo, hi) = if b.empty {
                    (0.0, 0.0)
                } else {
                    (
                        rbl_weight_at_share(b, c.delta, total_i * c.hi, top),
                        rbl_weight_at_share(b, c.delta, total_i * c.lo, bottom),
                    )
                };
                cells[i].next_lo = lo;
                cells[i].next_hi = hi;
            }
            for c in cells.iter_mut() {
                c.lo = c.next_lo;
                c.hi = c.next_hi;
            }
            // The box's ratio range, past the caps and through the blend,
            // compared multiplied out by the positive denominators. Every
            // comparison is written so that a NaN declines.
            let d = self.0;
            let certified = batteries.iter().enumerate().all(|(i, b)| {
                let (bottom, top) = share_denominators(cells, i);
                let c = &cells[i];
                let under_cap = total_i == 0.0
                    || c.hi * total_i <= b.max_discharge_a * (1.0 - CERTIFICATE_MARGIN) * top;
                under_cap
                    && d * c.hi <= (reach + last[i] - c.ccb) * top
                    && (last[i] - c.ccb - reach) * bottom <= d * c.lo
            });
            if certified {
                return true;
            }
        }
        false
    }
}

/// The charging directive parameter: 0 = pure CCB-Charge (no hurry,
/// balance wear — overnight), 1 = pure RBL-Charge (useful charge as fast
/// as possible — before boarding a plane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeDirective(f64);

impl ChargeDirective {
    /// Creates a directive, clamping into `[0, 1]`.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Self(value.clamp(0.0, 1.0))
    }

    /// Creates a directive, rejecting out-of-range values.
    ///
    /// # Errors
    ///
    /// [`SdbError::BadDirective`] outside `[0, 1]`.
    pub fn try_new(value: f64) -> Result<Self, SdbError> {
        if !(0.0..=1.0).contains(&value) || !value.is_finite() {
            return Err(SdbError::BadDirective(value));
        }
        Ok(Self(value))
    }

    /// The parameter value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Blended charge ratios.
    ///
    /// # Errors
    ///
    /// Propagates infeasibility when no battery can accept charge.
    pub fn ratios(self, input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
        let mut scratch = PolicyScratch::new();
        self.ratios_into(input, &mut scratch)?;
        Ok(scratch.out)
    }

    /// Allocation-free [`ChargeDirective::ratios`]: the result lands in
    /// [`PolicyScratch::ratios`].
    ///
    /// # Errors
    ///
    /// Propagates infeasibility when no battery can accept charge.
    pub(crate) fn ratios_into(
        self,
        input: &PolicyInput,
        scratch: &mut PolicyScratch,
    ) -> Result<(), SdbError> {
        ccb_charge_into(input, &mut scratch.ccb)?;
        rbl_charge_into(input, &mut scratch.rbl)?;
        blend_into(self.0, &scratch.ccb, &scratch.rbl, &mut scratch.out)
    }
}

fn blend_into(d: f64, ccb: &[f64], rbl: &[f64], out: &mut Vec<f64>) -> Result<(), SdbError> {
    out.clear();
    out.extend(ccb.iter().zip(rbl).map(|(&c, &r)| (1.0 - d) * c + d * r));
    if normalize_in_place(out) {
        Ok(())
    } else {
        Err(SdbError::Infeasible("blend produced zero weights"))
    }
}

/// The workload-aware watch policy (Section 5.2, Figure 13's "Policy 2"):
/// at light loads it drains the *inefficient* battery preferentially,
/// preserving the efficient Li-ion for predicted high-power episodes; at
/// high loads it shifts to the efficient battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreservePolicy {
    /// Index of the efficient battery being preserved.
    pub(crate) efficient: usize,
    /// Index of the inefficient (e.g. bendable) battery to drain first.
    pub(crate) inefficient: usize,
    /// Load at or above which the efficient battery takes over, watts.
    pub(crate) high_power_threshold_w: f64,
    /// Share still drawn from the efficient battery at light load (keeps
    /// the split strictly feasible when the inefficient cell sags).
    pub(crate) light_load_efficient_share: f64,
}

impl PreservePolicy {
    /// A watch policy preserving `efficient` and preferring `inefficient`
    /// under `threshold_w`.
    #[must_use]
    pub fn new(efficient: usize, inefficient: usize, threshold_w: f64) -> Self {
        Self {
            efficient,
            inefficient,
            high_power_threshold_w: threshold_w,
            light_load_efficient_share: 0.05,
        }
    }

    /// Discharge ratios for the current snapshot.
    ///
    /// # Errors
    ///
    /// [`SdbError::BadIndex`] for out-of-range battery indices;
    /// [`SdbError::Infeasible`] when every battery is empty.
    pub fn ratios(&self, input: &PolicyInput) -> Result<Vec<f64>, SdbError> {
        let mut out = Vec::with_capacity(input.batteries.len());
        self.ratios_into_buf(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`PreservePolicy::ratios`]: the result lands in
    /// [`PolicyScratch::ratios`].
    ///
    /// # Errors
    ///
    /// As [`PreservePolicy::ratios`].
    pub(crate) fn ratios_into(
        &self,
        input: &PolicyInput,
        scratch: &mut PolicyScratch,
    ) -> Result<(), SdbError> {
        self.ratios_into_buf(input, &mut scratch.out)
    }

    fn ratios_into_buf(&self, input: &PolicyInput, out: &mut Vec<f64>) -> Result<(), SdbError> {
        let n = input.batteries.len();
        if self.efficient >= n || self.inefficient >= n {
            return Err(SdbError::BadIndex {
                index: self.efficient.max(self.inefficient),
                count: n,
            });
        }
        let eff = &input.batteries[self.efficient];
        let ineff = &input.batteries[self.inefficient];
        out.clear();
        out.resize(n, 0.0);
        let weights = out;
        if input.load_w >= self.high_power_threshold_w {
            // High-power episode: this is what we saved the efficient
            // battery for. Draw from it primarily; let the inefficient cell
            // contribute a little if the efficient one is low.
            if !eff.empty {
                weights[self.efficient] = 0.9;
                if !ineff.empty {
                    weights[self.inefficient] = 0.1;
                }
            } else if !ineff.empty {
                weights[self.inefficient] = 1.0;
            }
        } else {
            // Light load: spend the inefficient battery.
            if !ineff.empty {
                weights[self.inefficient] = 1.0 - self.light_load_efficient_share;
                if !eff.empty {
                    weights[self.efficient] = self.light_load_efficient_share;
                }
            } else if !eff.empty {
                weights[self.efficient] = 1.0;
            }
        }
        if normalize_in_place(weights) {
            Ok(())
        } else {
            Err(SdbError::Infeasible("all batteries empty"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(soc: f64, r: f64, wear: f64) -> BatteryView {
        BatteryView {
            soc,
            ocv_v: 3.8,
            resistance_ohm: r,
            dcir_slope: 0.1,
            wear,
            capacity_ah: 2.0,
            max_discharge_a: 4.0,
            charge_acceptance_a: if soc >= 1.0 { 0.0 } else { 1.4 },
            empty: soc <= 0.0,
            full: soc >= 1.0,
        }
    }

    fn input(batteries: Vec<BatteryView>, load_w: f64) -> PolicyInput {
        PolicyInput {
            batteries,
            load_w,
            external_w: 0.0,
        }
    }

    #[test]
    fn normalize_handles_zeros() {
        let mut zeros = [0.0, 0.0];
        assert!(!normalize_in_place(&mut zeros));
        assert_eq!(zeros, [0.0, 0.0]);
        let mut r = [1.0, 3.0];
        assert!(normalize_in_place(&mut r));
        assert!((r[0] - 0.25).abs() < 1e-12 && (r[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ccb_discharge_prefers_less_worn() {
        let inp = input(vec![view(0.8, 0.05, 0.40), view(0.8, 0.05, 0.10)], 2.0);
        let r = ccb_discharge(&inp).unwrap();
        assert!(r[1] > r[0], "{r:?}");
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ccb_discharge_equal_wear_splits_evenly() {
        let inp = input(vec![view(0.8, 0.05, 0.2), view(0.8, 0.05, 0.2)], 2.0);
        let r = ccb_discharge(&inp).unwrap();
        assert!((r[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ccb_skips_empty_batteries() {
        let inp = input(vec![view(0.0, 0.05, 0.0), view(0.8, 0.05, 0.5)], 2.0);
        let r = ccb_discharge(&inp).unwrap();
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccb_all_empty_is_infeasible() {
        let inp = input(vec![view(0.0, 0.05, 0.1)], 2.0);
        assert!(matches!(ccb_discharge(&inp), Err(SdbError::Infeasible(_))));
    }

    #[test]
    fn rbl_discharge_prefers_low_resistance() {
        // Battery 1 has 4x the resistance: parallel split sends most load
        // to battery 0.
        let inp = input(vec![view(0.8, 0.05, 0.0), view(0.8, 0.20, 0.0)], 2.0);
        let r = rbl_discharge(&inp).unwrap();
        assert!(r[0] > 0.7, "{r:?}");
        assert!(r[1] > 0.0, "both still contribute");
    }

    #[test]
    fn rbl_discharge_equal_cells_split_evenly() {
        let inp = input(vec![view(0.8, 0.08, 0.0), view(0.8, 0.08, 0.0)], 2.0);
        let r = rbl_discharge(&inp).unwrap();
        assert!((r[0] - 0.5).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn rbl_discharge_respects_current_limits() {
        // Tiny battery 0 with a 0.5 A cap cannot take most of a 12 W load
        // (which the pack as a whole *can* supply within limits).
        let mut small = view(0.8, 0.02, 0.0);
        small.max_discharge_a = 0.5;
        let inp = input(vec![small, view(0.8, 0.10, 0.0)], 12.0);
        let r = rbl_discharge(&inp).unwrap();
        let total_i = 12.0 / 3.8;
        assert!(r[0] * total_i <= 0.5 + 1e-6, "{r:?}");
    }

    #[test]
    fn rbl_slope_term_shifts_load_away_from_steep_cells() {
        // Same resistance, but battery 1's DCIR climbs steeply as it
        // drains: the horizon-aware allocator sends it less.
        let mut steep = view(0.3, 0.08, 0.0);
        steep.dcir_slope = 3.0;
        let mut flat = view(0.3, 0.08, 0.0);
        flat.dcir_slope = 0.0;
        let inp = input(vec![flat, steep], 6.0);
        let r = rbl_discharge(&inp).unwrap();
        assert!(r[0] > r[1], "{r:?}");
    }

    #[test]
    fn rbl_charge_prefers_fast_acceptors() {
        let mut fast = view(0.3, 0.05, 0.0);
        fast.charge_acceptance_a = 4.0;
        let mut slow = view(0.3, 0.05, 0.0);
        slow.charge_acceptance_a = 1.0;
        let inp = input(vec![fast, slow], 0.0).with_external(20.0);
        let r = rbl_charge(&inp).unwrap();
        assert!(r[0] > 0.7, "{r:?}");
    }

    #[test]
    fn rbl_charge_skips_full() {
        let inp = input(vec![view(1.0, 0.05, 0.0), view(0.5, 0.05, 0.0)], 0.0);
        let r = rbl_charge(&inp).unwrap();
        assert_eq!(r[0], 0.0);
    }

    #[test]
    fn directives_clamp_and_validate() {
        assert_eq!(DischargeDirective::new(2.0).value(), 1.0);
        assert_eq!(ChargeDirective::new(-1.0).value(), 0.0);
        assert!(DischargeDirective::try_new(1.2).is_err());
        assert!(ChargeDirective::try_new(f64::NAN).is_err());
        assert!(ChargeDirective::try_new(0.5).is_ok());
    }

    #[test]
    fn pure_ccb_directive_keeps_rbl_infeasibility() {
        let dead = BatteryView {
            ocv_v: 0.0,
            ..view(0.5, 0.05, 0.2)
        };
        let inp = input(vec![dead, dead], 1.0);
        assert!(ccb_discharge(&inp).is_ok());
        assert!(rbl_discharge(&inp).is_err());
        assert!(DischargeDirective::new(0.0).ratios(&inp).is_err());
    }

    #[test]
    fn blend_interpolates() {
        // Worn battery 0 (CCB avoids), high-resistance battery 1 (RBL
        // avoids): the directive slides the split between the two.
        let b0 = view(0.8, 0.02, 0.9);
        let b1 = view(0.8, 0.30, 0.0);
        let inp = input(vec![b0, b1], 2.0);
        let at_ccb = DischargeDirective::new(0.0).ratios(&inp).unwrap();
        let at_rbl = DischargeDirective::new(1.0).ratios(&inp).unwrap();
        let mid = DischargeDirective::new(0.5).ratios(&inp).unwrap();
        assert!(at_ccb[1] > at_rbl[1], "CCB favors the unworn battery 1");
        assert!(mid[1] < at_ccb[1] && mid[1] > at_rbl[1]);
    }

    #[test]
    fn preserve_policy_light_load_drains_inefficient() {
        let p = PreservePolicy::new(0, 1, 0.15);
        let inp = input(vec![view(0.9, 0.05, 0.0), view(0.9, 0.5, 0.0)], 0.05);
        let r = p.ratios(&inp).unwrap();
        assert!(r[1] > 0.9, "{r:?}");
    }

    #[test]
    fn preserve_policy_high_load_uses_efficient() {
        let p = PreservePolicy::new(0, 1, 0.15);
        let inp = input(vec![view(0.9, 0.05, 0.0), view(0.9, 0.5, 0.0)], 0.3);
        let r = p.ratios(&inp).unwrap();
        assert!(r[0] >= 0.9, "{r:?}");
    }

    #[test]
    fn preserve_policy_falls_back_when_preferred_empty() {
        let p = PreservePolicy::new(0, 1, 0.15);
        // Inefficient battery empty at light load → efficient takes all.
        let inp = input(vec![view(0.9, 0.05, 0.0), view(0.0, 0.5, 0.0)], 0.05);
        let r = p.ratios(&inp).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        // Efficient empty at high load → inefficient takes all.
        let inp = input(vec![view(0.0, 0.05, 0.0), view(0.5, 0.5, 0.0)], 0.3);
        let r = p.ratios(&inp).unwrap();
        assert!((r[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preserve_policy_validates_indices() {
        let p = PreservePolicy::new(0, 5, 0.15);
        let inp = input(vec![view(0.9, 0.05, 0.0), view(0.9, 0.5, 0.0)], 0.05);
        assert!(matches!(p.ratios(&inp), Err(SdbError::BadIndex { .. })));
    }

    /// Reference RBL-Discharge solver: the fixed point always runs all 12
    /// passes, followed by the same current-cap redistribution. Also
    /// returns how many passes the early-exit solver needs on this input
    /// (the first pass that moves no weight, or 12).
    fn rbl_discharge_12_passes(input: &PolicyInput) -> (Result<Vec<f64>, SdbError>, usize) {
        let n = input.batteries.len();
        let mut needed = 12;
        let total_i: f64 = {
            let (usable, v_sum) = input
                .batteries
                .iter()
                .filter(|b| !b.empty)
                .fold((0usize, 0.0f64), |(k, s), b| (k + 1, s + b.ocv_v));
            if usable == 0 {
                return (Err(SdbError::Infeasible("all batteries empty")), needed);
            }
            let mean_v = v_sum / usable as f64;
            (input.load_w / mean_v).max(0.0)
        };
        let delta: Vec<f64> = input
            .batteries
            .iter()
            .map(|b| b.dcir_slope * RBL_HORIZON_H / b.capacity_ah.max(1e-9))
            .collect();
        let mut currents = vec![0.0; n];
        let mut out: Vec<f64> = input
            .batteries
            .iter()
            .map(|b| {
                if b.empty {
                    0.0
                } else {
                    b.ocv_v / b.resistance_ohm.max(1e-6)
                }
            })
            .collect();
        for pass in 1..=12 {
            let sum: f64 = out.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
            if sum <= 0.0 {
                return (Err(SdbError::Infeasible("all batteries empty")), needed);
            }
            for i in 0..n {
                currents[i] = if out[i] > 0.0 {
                    out[i] / sum * total_i
                } else {
                    0.0
                };
            }
            let before = out.clone();
            for i in 0..n {
                out[i] = if input.batteries[i].empty {
                    0.0
                } else {
                    let r_eff = input.batteries[i].resistance_ohm + delta[i] * currents[i];
                    input.batteries[i].ocv_v / r_eff.max(1e-6)
                };
            }
            let still = before
                .iter()
                .zip(&out)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if still && needed == 12 {
                needed = pass;
            }
        }
        if !normalize_in_place(&mut out) {
            return (Err(SdbError::Infeasible("all batteries empty")), needed);
        }
        let mut ratios = out;
        if total_i > 0.0 {
            for _ in 0..n {
                let mut excess = 0.0;
                let mut headroom_sum = 0.0;
                for (i, b) in input.batteries.iter().enumerate() {
                    let want = ratios[i] * total_i;
                    if want > b.max_discharge_a {
                        excess += want - b.max_discharge_a;
                        ratios[i] = b.max_discharge_a / total_i;
                    } else if !b.empty {
                        headroom_sum += b.max_discharge_a - want;
                    }
                }
                if excess <= 1e-12 || headroom_sum <= 1e-12 {
                    break;
                }
                for (i, b) in input.batteries.iter().enumerate() {
                    let have = ratios[i] * total_i;
                    if !b.empty && have < b.max_discharge_a {
                        let add = excess * (b.max_discharge_a - have) / headroom_sum;
                        ratios[i] = (have + add) / total_i;
                    }
                }
            }
            let total_cap: f64 = input
                .batteries
                .iter()
                .map(|b| if b.empty { 0.0 } else { b.max_discharge_a })
                .sum();
            if total_i > total_cap && total_cap > 0.0 {
                for (r, b) in ratios.iter_mut().zip(&input.batteries) {
                    *r = if b.empty {
                        0.0
                    } else {
                        b.max_discharge_a / total_cap
                    };
                }
            } else {
                let sum: f64 = ratios.iter().sum();
                if sum > 0.0 {
                    ratios.iter_mut().for_each(|r| *r /= sum);
                }
            }
        }
        (Ok(ratios), needed)
    }

    /// Stopping the fixed point at a bit-exact fixed point changes no
    /// output bit: ratios and errors match the 12-pass solver on random
    /// packs, including clamped resistances, steep DCIR slopes that need
    /// every pass, loads past the pack's current cap and empty cells.
    #[test]
    fn rbl_discharge_early_exit_matches_12_passes_bit_for_bit() {
        let (mut out, mut delta, mut currents) = (Vec::new(), Vec::new(), Vec::new());
        let (mut early, mut full) = (0u32, 0u32);
        sdb_testkit::check(2500, 0x5DB_0F1D, |g| {
            let n = g.usize_range(1, 11);
            let all_empty = g.chance(0.05);
            let batteries: Vec<BatteryView> = (0..n)
                .map(|_| {
                    let empty = all_empty || g.chance(0.15);
                    let soc = if empty { 0.0 } else { g.f64_range(0.01, 1.0) };
                    BatteryView {
                        soc,
                        ocv_v: g.f64_range(2.8, 4.4),
                        resistance_ohm: 10f64.powf(g.f64_range(-7.0, 0.0)),
                        dcir_slope: g.pick(&[0.0, 0.1, 0.5, 5.0]) * g.f64_range(0.0, 1.0),
                        wear: g.f64_range(0.0, 1.0),
                        capacity_ah: g.f64_range(0.05, 5.0),
                        max_discharge_a: g.f64_range(0.05, 10.0),
                        charge_acceptance_a: 1.0,
                        empty,
                        full: soc >= 1.0,
                    }
                })
                .collect();
            let cap_w: f64 = batteries
                .iter()
                .filter(|b| !b.empty)
                .map(|b| b.max_discharge_a * b.ocv_v)
                .sum();
            let load_w = if g.chance(0.1) {
                0.0
            } else {
                g.f64_range(0.0, 1.6) * cap_w.max(1.0)
            };
            let inp = input(batteries, load_w);
            let (want, needed) = rbl_discharge_12_passes(&inp);
            let got = rbl_discharge_into(&inp, &mut out, &mut delta, &mut currents);
            match (&want, got) {
                (Ok(w), Ok(())) => {
                    let wb: Vec<u64> = w.iter().map(|x| x.to_bits()).collect();
                    let gb: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(gb, wb, "ratios differ on {inp:?}");
                    if needed < 12 {
                        early += 1;
                    } else {
                        full += 1;
                    }
                }
                (Err(w), Err(e)) => assert_eq!(&e, w),
                (w, g) => panic!("12-pass gave {w:?}, early exit gave {g:?} on {inp:?}"),
            }
        });
        assert!(early > 0, "no case stopped early");
        assert!(full > 0, "no case needed all 12 passes");
    }

    /// `last` moved off `truth` so that some components sit near the push
    /// threshold: each is unmoved, moved less than the threshold, or moved
    /// 0.01 ± 1e-12…1e-6 either way.
    fn last_near(g: &mut sdb_testkit::Gen, truth: &[f64]) -> Vec<f64> {
        truth
            .iter()
            .map(|&x| {
                let sign = if g.chance(0.5) { 1.0 } else { -1.0 };
                match g.usize_range(0, 4) {
                    0 => x,
                    1 => x + sign * g.f64_range(0.0, 0.009),
                    _ => {
                        let edge = if g.chance(0.5) { 1.0 } else { -1.0 };
                        let off = PUSH_THRESHOLD + edge * 10f64.powf(g.f64_range(-12.0, -6.0));
                        x + sign * off
                    }
                }
            })
            .collect()
    }

    /// The no-push certificate is sound: whenever it holds, the full
    /// evaluation fails or lands within the push threshold of `last`. The
    /// packs have 1–8 cells, empty cells, resistances below the 1e-6
    /// clamp, DCIR slopes up to 5, zero loads and loads past the per-cell
    /// and pack current caps, usable cells with OCV ≤ 0, and directives 0
    /// and 1 among the blends; `last` probes the threshold.
    #[test]
    fn certified_evaluations_never_push() {
        let (mut scratch, mut eval) = (PolicyScratch::new(), PolicyScratch::new());
        let (mut certified, mut at_edge, mut declined) = (0u32, 0u32, 0u32);
        sdb_testkit::check(6000, 0xCE27_F1ED, |g| {
            let n = g.usize_range(1, 9);
            let batteries: Vec<BatteryView> = (0..n)
                .map(|_| {
                    let empty = g.chance(0.15);
                    let ocv_v = if g.chance(0.03) {
                        -g.f64_range(0.0, 1.0)
                    } else {
                        g.f64_range(2.8, 4.4)
                    };
                    BatteryView {
                        soc: if empty { 0.0 } else { g.f64_range(0.01, 1.0) },
                        ocv_v,
                        resistance_ohm: 10f64.powf(g.f64_range(-7.0, 0.0)),
                        dcir_slope: g.pick(&[0.0, 0.1, 0.5, 5.0]) * g.f64_range(0.0, 1.0),
                        wear: g.f64_range(0.0, 1.0),
                        capacity_ah: g.f64_range(0.05, 5.0),
                        max_discharge_a: g.f64_range(0.05, 10.0),
                        charge_acceptance_a: 1.0,
                        empty,
                        full: false,
                    }
                })
                .collect();
            let cap_w: f64 = batteries
                .iter()
                .filter(|b| !b.empty)
                .map(|b| b.max_discharge_a * b.ocv_v.abs())
                .sum();
            let load_w =
                g.pick(&[0.0, 0.01, 0.1, 0.5, 1.0, 1.6]) * g.f64_range(0.0, 1.0) * cap_w.max(1.0);
            let blend = g.f64_range(0.0, 1.0);
            let directive = DischargeDirective::new(g.pick(&[0.0, 1.0, blend]));
            // Some `last` come from the split the caps would have changed.
            let uncapped = input(
                batteries
                    .iter()
                    .map(|b| BatteryView {
                        max_discharge_a: f64::INFINITY,
                        ..*b
                    })
                    .collect(),
                load_w,
            );
            let inp = input(batteries, load_w);
            let base = if g.chance(0.3) { &uncapped } else { &inp };
            let last = match directive.ratios(base) {
                Ok(truth) => last_near(g, &truth),
                Err(_) => (0..n).map(|_| g.f64_range(0.0, 1.0)).collect(),
            };
            if !directive.cannot_push(&inp, &last, &mut scratch) {
                declined += 1;
                return;
            }
            certified += 1;
            if directive.ratios_into(&inp, &mut eval).is_ok() {
                let out = eval.ratios();
                assert!(
                    !materially_different(out, &last),
                    "certified, yet {out:?} moved past {last:?} on {inp:?} at {directive:?}"
                );
                if out.iter().zip(&last).any(|(x, y)| (x - y).abs() > 0.0099) {
                    at_edge += 1;
                }
            }
        });
        assert!(certified > 500, "only {certified} certified");
        assert!(
            at_edge > 50,
            "only {at_edge} certified within 1e-4 of the threshold"
        );
        assert!(declined > 500, "only {declined} declined");
    }

    #[test]
    fn certificate_declines_what_it_cannot_bound() {
        let pack = || vec![view(0.8, 0.05, 0.1), view(0.6, 0.12, 0.3)];
        let d = DischargeDirective::new(0.5);
        let mut scratch = PolicyScratch::new();
        let inp = input(pack(), 3.0);
        let truth = d.ratios(&inp).unwrap();
        assert!(d.cannot_push(&inp, &truth, &mut scratch), "steady tick");
        // The certificate leaves the last evaluation's result alone.
        d.ratios_into(&inp, &mut scratch).unwrap();
        let before = scratch.ratios().to_vec();
        assert!(d.cannot_push(&inp, &truth, &mut scratch));
        assert_eq!(scratch.ratios(), &before[..]);
        // First tick: nothing in force.
        assert!(!d.cannot_push(&inp, &[], &mut scratch));
        assert!(!d.cannot_push(&inp, &truth[..1], &mut scratch));
        // A ratio that would move by a percentage point.
        let moved = [truth[0] + 0.01, truth[1] - 0.01];
        assert!(!d.cannot_push(&inp, &moved, &mut scratch));
        // A usable dead cell, a non-finite resistance or slope.
        for spoil in [
            |b: &mut BatteryView| b.ocv_v = 0.0,
            |b: &mut BatteryView| b.resistance_ohm = f64::NAN,
            |b: &mut BatteryView| b.dcir_slope = f64::INFINITY,
        ] {
            let mut batteries = pack();
            spoil(&mut batteries[1]);
            assert!(!d.cannot_push(&input(batteries, 3.0), &truth, &mut scratch));
        }
        // A per-battery cap that binds, even with `last` at the split the
        // cap changes; and the pack-current fallback.
        let mut capped = pack();
        capped[0].max_discharge_a = 0.5;
        let inp = input(capped, 3.0);
        let uncapped = d.ratios(&input(pack(), 3.0)).unwrap();
        assert!(materially_different(&d.ratios(&inp).unwrap(), &uncapped));
        assert!(!d.cannot_push(&inp, &uncapped, &mut scratch));
        let inp = input(pack(), 100.0);
        let truth = d.ratios(&inp).unwrap();
        assert!(!d.cannot_push(&inp, &truth, &mut scratch));
        // Every cell empty: the evaluation fails, so it cannot push.
        let dead = input(vec![view(0.0, 0.05, 0.1)], 3.0);
        assert!(d.ratios(&dead).is_err());
        assert!(d.cannot_push(&dead, &[1.0], &mut scratch));
    }
}
