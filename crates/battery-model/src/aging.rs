//! Cycle counting and capacity fade.
//!
//! Section 5.1 of the paper defines the bookkeeping we reproduce here:
//!
//! > "The cycle count increases each time the battery is charged to more
//! > than 80% (cumulative) of current energy capacity. For example, if a
//! > user charges the battery to 50% and drains it to 0%, the cumulative
//! > charge counter is set to 50. Later when the user charges the battery
//! > again beyond 30%, the cumulative charge counter is increased to 80,
//! > the cycle count is incremented and the cumulative charge counter is
//! > set to zero until the next time the device is charged."
//!
//! Capacity fade follows the crack-growth story of Section 1/2: higher
//! charge and discharge currents accelerate fissure formation in the
//! electrodes, so the per-cycle capacity loss grows with the square of the
//! C-rate (resistive/crack stress ∝ I²). The law is calibrated so a cell
//! cycled at 1C reaches its warranty threshold (80 % of original capacity)
//! at exactly its chemistry's tolerable cycle count, matching the spread of
//! Figure 1(b) for a 1 Ah Type 2 sample charged at 0.5/0.7/1.0 A.

use crate::spec::BatterySpec;

/// Fraction of current capacity that must be (cumulatively) recharged to
/// count one cycle.
pub const CYCLE_CHARGE_THRESHOLD: f64 = 0.80;

/// Warranty capacity threshold: the fade model is calibrated so 1C cycling
/// reaches this fraction at the chemistry's tolerable cycle count.
pub(crate) const WARRANTY_CAPACITY_FRACTION: f64 = 0.80;

/// Tracks cumulative recharged charge and emits cycle increments per the
/// paper's 80 %-cumulative rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleCounter {
    /// Completed charge cycles.
    cycles: u32,
    /// Cumulative recharged fraction of current capacity since the last
    /// cycle increment, in `[0, CYCLE_CHARGE_THRESHOLD)`.
    cumulative_frac: f64,
}

impl CycleCounter {
    /// Creates a fresh counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `charged_frac` (charge added as a fraction of *current*
    /// capacity, must be ≥ 0) and returns how many cycle increments this
    /// charge completed.
    ///
    /// The paper resets the counter to zero on increment; we carry the
    /// remainder past the threshold so that, e.g., a single 0→100 % charge
    /// credits 1 cycle plus 20 points toward the next instead of discarding
    /// them. This only makes cycle counts (and thus fade) slightly more
    /// conservative.
    pub fn on_charge(&mut self, charged_frac: f64) -> u32 {
        debug_assert!(charged_frac >= 0.0 && charged_frac.is_finite());
        self.cumulative_frac += charged_frac.max(0.0);
        let mut completed = 0;
        // Tolerate float rounding so, e.g., 3 × 0.8 of charge counts 3 cycles.
        while self.cumulative_frac >= CYCLE_CHARGE_THRESHOLD - 1e-12 {
            self.cumulative_frac -= CYCLE_CHARGE_THRESHOLD;
            self.cycles += 1;
            completed += 1;
        }
        completed
    }

    /// Completed cycles so far.
    #[must_use]
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Raw counter state for snapshotting: `(cycles, cumulative_frac)`.
    #[must_use]
    pub(crate) fn export_state(&self) -> (u32, f64) {
        (self.cycles, self.cumulative_frac)
    }

    /// Restores counter state captured by [`CycleCounter::export_state`].
    pub(crate) fn import_state(&mut self, cycles: u32, cumulative_frac: f64) {
        self.cycles = cycles;
        self.cumulative_frac = cumulative_frac;
    }
}

/// Per-cycle capacity-fade law: `loss(c) = base · (floor + (1−floor)·c^exp)`.
///
/// `base` is the per-cycle loss at 1C; `floor` is the C-rate-independent
/// (calendar/SEI) share; `exp` is the crack-growth exponent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadeModel {
    /// Per-cycle capacity loss fraction at the 1C reference rate.
    pub(crate) base_loss_per_cycle: f64,
    /// Fraction of the loss that is rate-independent.
    pub(crate) rate_independent_floor: f64,
    /// Exponent on the C-rate for the rate-dependent share.
    pub(crate) crate_exponent: f64,
}

impl FadeModel {
    /// Derives the fade model from a cell spec: calibrated so 1C cycling
    /// reaches `WARRANTY_CAPACITY_FRACTION` at `spec.tolerable_cycles`.
    #[must_use]
    pub fn for_spec(spec: &BatterySpec) -> Self {
        Self {
            base_loss_per_cycle: (1.0 - WARRANTY_CAPACITY_FRACTION)
                / f64::from(spec.tolerable_cycles),
            rate_independent_floor: 0.20,
            crate_exponent: spec.fade_crate_exponent.clamp(1.0, 3.0),
        }
    }

    /// Capacity fraction lost by one cycle performed at mean C-rate `c`.
    #[must_use]
    pub(crate) fn loss_per_cycle(&self, c_rate: f64) -> f64 {
        let c = c_rate.max(0.0);
        let floor = self.rate_independent_floor;
        self.base_loss_per_cycle * (floor + (1.0 - floor) * c.powf(self.crate_exponent))
    }

    /// Capacity fraction remaining after `cycles` cycles at constant mean
    /// C-rate `c`, floored at 10 % (cells do not fade to zero; they are
    /// retired long before).
    #[must_use]
    pub fn capacity_after(&self, cycles: u32, c_rate: f64) -> f64 {
        (1.0 - f64::from(cycles) * self.loss_per_cycle(c_rate)).max(0.10)
    }
}

/// Combined aging state for one cell: cycle counter, capacity fraction, and
/// the DCIR growth that accompanies fade.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingState {
    counter: CycleCounter,
    fade: FadeModel,
    /// Remaining capacity as a fraction of original (1.0 = new).
    capacity_fraction: f64,
    /// Charge-weighted mean C-rate since the last cycle increment.
    crate_accum: f64,
    /// Charge (fraction of capacity) accumulated into `crate_accum`.
    crate_weight: f64,
    /// Cached [`AgingState::resistance_multiplier`]: queried on every
    /// resistance lookup in the hot loop but only changes when
    /// `capacity_fraction` does (at cycle completions).
    res_mult: f64,
}

/// DCIR growth for a given remaining-capacity fraction: resistance rises
/// ~60 % by the time the cell reaches its 80 % warranty capacity.
fn resistance_multiplier_for(capacity_fraction: f64) -> f64 {
    let lost = 1.0 - capacity_fraction;
    1.0 + 0.6 * (lost / (1.0 - WARRANTY_CAPACITY_FRACTION))
}

impl AgingState {
    /// Fresh aging state for a cell spec.
    #[must_use]
    pub(crate) fn new(spec: &BatterySpec) -> Self {
        Self {
            counter: CycleCounter::new(),
            fade: FadeModel::for_spec(spec),
            capacity_fraction: 1.0,
            crate_accum: 0.0,
            crate_weight: 0.0,
            res_mult: resistance_multiplier_for(1.0),
        }
    }

    /// Records one simulation step.
    ///
    /// `current_a` follows the crate convention (positive discharges);
    /// `capacity_ah` is the cell's *original* rated capacity. Returns the
    /// number of cycles completed by this step.
    pub(crate) fn step(&mut self, current_a: f64, dt_s: f64, capacity_ah: f64) -> u32 {
        debug_assert!(dt_s >= 0.0 && capacity_ah > 0.0);
        let c_rate = current_a.abs() / capacity_ah;
        let moved_frac = current_a.abs() * dt_s / 3600.0 / (capacity_ah * self.capacity_fraction);
        // Both charge and discharge stress the electrodes; weight the mean
        // C-rate by charge moved in either direction.
        if moved_frac > 0.0 {
            self.crate_accum += c_rate * moved_frac;
            self.crate_weight += moved_frac;
        }
        if current_a < 0.0 {
            let completed = self.counter.on_charge(moved_frac);
            for _ in 0..completed {
                let mean_c = if self.crate_weight > 0.0 {
                    self.crate_accum / self.crate_weight
                } else {
                    c_rate
                };
                self.capacity_fraction =
                    (self.capacity_fraction - self.fade.loss_per_cycle(mean_c)).max(0.10);
                self.res_mult = resistance_multiplier_for(self.capacity_fraction);
                self.crate_accum = 0.0;
                self.crate_weight = 0.0;
            }
            completed
        } else {
            0
        }
    }

    /// Completed charge cycles.
    #[must_use]
    pub(crate) fn cycles(&self) -> u32 {
        self.counter.cycles()
    }

    /// Remaining capacity as a fraction of original.
    #[must_use]
    pub fn capacity_fraction(&self) -> f64 {
        self.capacity_fraction
    }

    /// DCIR growth multiplier: resistance rises ~60 % by the time the cell
    /// reaches its 80 % warranty capacity ("the resistance of the separator
    /// typically increases with the age of the battery", Section 2.1).
    #[must_use]
    pub fn resistance_multiplier(&self) -> f64 {
        self.res_mult
    }

    /// Wear ratio `λ = cc / χ` from Section 3.3, given the tolerable cycle
    /// count `χ`.
    #[must_use]
    pub(crate) fn wear_ratio(&self, tolerable_cycles: u32) -> f64 {
        f64::from(self.counter.cycles()) / f64::from(tolerable_cycles.max(1))
    }

    /// Exports the full mutable aging state for bit-exact snapshotting.
    /// The fade model is spec-derived configuration and is not included.
    #[must_use]
    pub(crate) fn export_state(&self) -> AgingStateSnapshot {
        let (cycles, cumulative_frac) = self.counter.export_state();
        AgingStateSnapshot {
            cycles,
            cumulative_frac,
            capacity_fraction: self.capacity_fraction,
            crate_accum: self.crate_accum,
            crate_weight: self.crate_weight,
        }
    }

    /// Restores state captured by [`AgingState::export_state`]. The cached
    /// resistance multiplier is recomputed from the restored capacity
    /// fraction — a pure function of it, so this is bit-identical to the
    /// value cached at export time.
    pub(crate) fn import_state(&mut self, snap: &AgingStateSnapshot) {
        self.counter.import_state(snap.cycles, snap.cumulative_frac);
        self.capacity_fraction = snap.capacity_fraction;
        self.crate_accum = snap.crate_accum;
        self.crate_weight = snap.crate_weight;
        self.res_mult = resistance_multiplier_for(snap.capacity_fraction);
    }
}

/// Plain-data capture of one cell's mutable aging state (see
/// `AgingState::export_state`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingStateSnapshot {
    /// Completed charge cycles.
    pub cycles: u32,
    /// Cumulative recharged fraction toward the next cycle.
    pub cumulative_frac: f64,
    /// Remaining capacity as a fraction of original.
    pub capacity_fraction: f64,
    /// Charge-weighted C-rate accumulator since the last cycle.
    pub crate_accum: f64,
    /// Charge weight accumulated into `crate_accum`.
    pub crate_weight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chemistry::Chemistry;

    fn spec() -> BatterySpec {
        BatterySpec::from_chemistry("t", Chemistry::Type2CoStandard, 1.0)
    }

    #[test]
    fn paper_example_cycle_counting() {
        // Charge to 50 %, drain to 0, charge beyond 30 %: one cycle.
        let mut cc = CycleCounter::new();
        assert_eq!(cc.on_charge(0.50), 0);
        assert_eq!(cc.on_charge(0.30), 1);
        assert_eq!(cc.cycles(), 1);
        assert!(cc.export_state().1 < 1e-12);
    }

    #[test]
    fn full_charge_counts_one_cycle_with_carry() {
        let mut cc = CycleCounter::new();
        assert_eq!(cc.on_charge(1.0), 1);
        // 0.2 of remainder carried toward the next cycle.
        assert!((cc.export_state().1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn big_charge_counts_multiple_cycles() {
        let mut cc = CycleCounter::new();
        assert_eq!(cc.on_charge(2.4), 3);
        assert_eq!(cc.cycles(), 3);
    }

    #[test]
    fn discharge_never_counts() {
        let spec = spec();
        let mut aging = AgingState::new(&spec);
        // Pure discharge for 10 hours at 1C.
        for _ in 0..36000 {
            assert_eq!(aging.step(1.0, 1.0, 1.0), 0);
        }
        assert_eq!(aging.cycles(), 0);
        assert!((aging.capacity_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_cc_cycle_via_steps() {
        let spec = spec();
        let mut aging = AgingState::new(&spec);
        // Charge 0.9 Ah at 0.5 A into the 1 Ah cell: 0.9 fraction → 1 cycle.
        let mut cycles = 0;
        for _ in 0..6480 {
            cycles += aging.step(-0.5, 1.0, 1.0);
        }
        assert_eq!(cycles, 1);
        assert_eq!(aging.cycles(), 1);
        assert!(aging.capacity_fraction() < 1.0);
    }

    #[test]
    fn fade_calibrated_at_1c() {
        let spec = spec();
        let fade = FadeModel::for_spec(&spec);
        // At 1C, χ cycles bring the cell to exactly the warranty threshold.
        let after = fade.capacity_after(spec.tolerable_cycles, 1.0);
        assert!((after - WARRANTY_CAPACITY_FRACTION).abs() < 1e-9);
    }

    #[test]
    fn figure_1b_ordering_and_magnitudes() {
        // 1 Ah Type 2 sample charged at 0.5/0.7/1.0 A for 600 cycles.
        let spec = spec();
        let fade = FadeModel::for_spec(&spec);
        let c05 = fade.capacity_after(600, 0.5);
        let c07 = fade.capacity_after(600, 0.7);
        let c10 = fade.capacity_after(600, 1.0);
        assert!(c05 > c07 && c07 > c10, "higher current degrades faster");
        // Figure 1b shapes: ~95 %, ~90 %, ~low-80s %.
        assert!(c05 > 0.92 && c05 < 0.99, "c05 = {c05}");
        assert!(c07 > 0.88 && c07 < 0.94, "c07 = {c07}");
        assert!(c10 > 0.80 && c10 < 0.88, "c10 = {c10}");
    }

    #[test]
    fn gentle_cycling_lasts_longer_than_tolerable_cycles() {
        let spec = spec();
        let fade = FadeModel::for_spec(&spec);
        // At 0.2C the cell retains far more than warranty at χ cycles.
        assert!(fade.capacity_after(spec.tolerable_cycles, 0.2) > 0.90);
    }

    #[test]
    fn capacity_floor() {
        let spec = spec();
        let fade = FadeModel::for_spec(&spec);
        assert!((fade.capacity_after(u32::MAX, 5.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn resistance_grows_with_age() {
        let spec = spec();
        let mut aging = AgingState::new(&spec);
        let r0 = aging.resistance_multiplier();
        assert!((r0 - 1.0).abs() < 1e-12);
        // Cycle hard for a while.
        for _ in 0..200 {
            for _ in 0..3600 {
                aging.step(1.0, 1.0, 1.0);
            }
            for _ in 0..3600 {
                aging.step(-1.0, 1.0, 1.0);
            }
        }
        assert!(aging.cycles() > 100);
        assert!(aging.resistance_multiplier() > 1.05);
        assert!(aging.capacity_fraction() < 0.97);
    }

    #[test]
    fn wear_ratio_definition() {
        let spec = spec();
        let mut aging = AgingState::new(&spec);
        for _ in 0..8 {
            aging.step(-0.8 * 3600.0 / 3600.0, 3600.0, 1.0);
        }
        // 8 × 0.8 fraction charged = 6.4 → 8 cycles.
        assert_eq!(aging.cycles(), 8);
        assert!((aging.wear_ratio(800) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn fast_charge_chemistry_ages_slower_per_cycle_at_high_c() {
        let lfp = BatterySpec::from_chemistry("lfp", Chemistry::Type1LfpPower, 1.0);
        let co = spec();
        let f_lfp = FadeModel::for_spec(&lfp);
        let f_co = FadeModel::for_spec(&co);
        // LFP tolerates many more cycles, so its per-cycle loss is smaller.
        assert!(f_lfp.loss_per_cycle(2.0) < f_co.loss_per_cycle(2.0));
    }
}
