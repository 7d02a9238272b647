//! The per-battery fuel gauge.
//!
//! "The Fuel gauge keeps track of the state of charge (SoC) of the battery
//! by measuring the voltage across the battery terminals, and the current
//! flowing in and out of it" (Section 2.2). This module combines the
//! coulomb counter with OCV-based recalibration at rest and
//! measurement-based cycle counting, and produces the per-battery
//! [`BatteryStatus`] rows that `QueryBatteryStatus()` returns to the OS.

use crate::coulomb::CoulombCounter;
use sdb_battery_model::aging::CYCLE_CHARGE_THRESHOLD;
use sdb_battery_model::curves::CurveCursor;
use sdb_battery_model::spec::BatterySpec;
use sdb_observe::{Counter, ObsEvent, Observer};
use std::sync::Arc;

/// Configuration of one gauge instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeConfig {
    /// Current-measurement resolution, amps.
    pub current_lsb_a: f64,
    /// Current-sense offset, amps.
    pub current_offset_a: f64,
    /// Voltage-measurement resolution, volts.
    pub voltage_lsb_v: f64,
    /// Rest time after which an OCV recalibration is trusted, seconds.
    pub rest_recal_s: f64,
}

impl Default for GaugeConfig {
    fn default() -> Self {
        Self {
            current_lsb_a: 0.001,
            current_offset_a: 50e-6,
            voltage_lsb_v: 0.001,
            rest_recal_s: 1800.0,
        }
    }
}

/// A fault mode injected into the gauge's measurement path (chaos
/// testing). Faults corrupt what the gauge *reports*, never the cell
/// itself — exactly like a real broken sense line or flaky ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GaugeFault {
    /// The SoC estimate freezes at the value it had when the fault was
    /// installed (a hung gauge IC).
    StuckSoc,
    /// Current-sense bias that grows linearly for as long as the fault is
    /// active (thermal drift in the sense amplifier).
    BiasRamp {
        /// Bias growth rate, amps per hour of fault time.
        amps_per_hour: f64,
    },
    /// Quantization storm: current readings quantize at a multiple of the
    /// configured LSB (an ADC losing effective bits).
    QuantizationStorm {
        /// Multiplier on the configured current LSB (the 1 mA default LSB
        /// is used when the gauge was configured ideal).
        lsb_scale: f64,
    },
}

/// The status row for one battery, as returned by `QueryBatteryStatus()`
/// (Section 3.3: "an array with state of charge, terminal voltages and
/// cycle counts for each battery").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryStatus {
    /// Estimated state of charge, `[0, 1]`.
    pub soc: f64,
    /// Last measured terminal voltage, volts.
    pub terminal_v: f64,
    /// Measurement-based cycle count.
    pub cycle_count: u32,
    /// Last measured current, amps (positive = discharge).
    pub current_a: f64,
    /// Estimated remaining charge, amp-hours.
    pub remaining_ah: f64,
    /// Whether the battery is physically attached (detachable packs — a
    /// 2-in-1 keyboard base — may be absent).
    pub present: bool,
}

/// A per-battery fuel gauge.
#[derive(Debug, Clone)]
pub struct FuelGauge {
    config: GaugeConfig,
    counter: CoulombCounter,
    /// The cell's spec (for capacity and the OCP curve used in
    /// recalibration). Shared with the simulated cell instead of deep-
    /// copied per gauge.
    spec: Arc<BatterySpec>,
    /// Segment memo for the OCV-inversion recalibration lookup.
    ocp_cur: CurveCursor,
    /// Estimated SoC.
    soc_estimate: f64,
    /// Time spent at (near) zero current, seconds.
    rest_s: f64,
    /// Last measured terminal voltage.
    last_v: f64,
    /// Last measured current.
    last_i: f64,
    /// Gauge-side cycle counting: cumulative recharged fraction.
    cycle_accum: f64,
    /// Gauge-side cycle count.
    cycles: u32,
    /// SoC at the last OCV recalibration (capacity-learning anchor).
    anchor_soc: Option<f64>,
    /// Learned full capacity, amp-hours (EWMA; starts at the rated value).
    learned_capacity_ah: f64,
    /// Capacity observations folded into the estimate.
    capacity_observations: u32,
    /// Observability hook (disabled by default; the microcontroller
    /// installs its observer here).
    observer: Observer,
    /// Battery index used to label emitted events.
    battery_index: usize,
    /// Cached recalibration counter (registered on `set_observer`).
    recal_counter: Option<Counter>,
    /// Active injected fault, if any.
    fault: Option<GaugeFault>,
    /// Time the active fault has been installed, seconds.
    fault_elapsed_s: f64,
    /// SoC estimate captured when a [`GaugeFault::StuckSoc`] fault was
    /// installed.
    fault_frozen_soc: f64,
}

impl FuelGauge {
    /// Creates a gauge for a cell believed to start at `initial_soc`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_soc` is outside `[0, 1]`.
    #[must_use]
    pub fn new(spec: impl Into<Arc<BatterySpec>>, initial_soc: f64, config: GaugeConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&initial_soc),
            "soc out of range: {initial_soc}"
        );
        let spec = spec.into();
        let last_v = spec.ocp.eval(initial_soc);
        let capacity = spec.capacity_ah;
        Self {
            counter: CoulombCounter::new(config.current_lsb_a, config.current_offset_a),
            config,
            spec,
            ocp_cur: CurveCursor::new(),
            soc_estimate: initial_soc,
            rest_s: 0.0,
            last_v,
            last_i: 0.0,
            cycle_accum: 0.0,
            cycles: 0,
            anchor_soc: None,
            learned_capacity_ah: capacity,
            capacity_observations: 0,
            observer: Observer::disabled(),
            battery_index: 0,
            recal_counter: None,
            fault: None,
            fault_elapsed_s: 0.0,
            fault_frozen_soc: 0.0,
        }
    }

    /// Installs (or with `None` clears) a measurement fault. Installing a
    /// fault resets its elapsed-time clock; [`GaugeFault::StuckSoc`]
    /// freezes the estimate at its current value.
    pub fn set_fault(&mut self, fault: Option<GaugeFault>) {
        self.fault = fault;
        self.fault_elapsed_s = 0.0;
        self.fault_frozen_soc = self.soc_estimate;
    }

    /// The active injected fault, if any.
    #[must_use]
    pub fn fault(&self) -> Option<GaugeFault> {
        self.fault
    }

    /// Installs the observability hook. Recalibrations emit
    /// [`ObsEvent::GaugeRecalibration`] labeled with `battery_index` and
    /// count into `sdb_gauge_recalibrations_total`.
    pub fn set_observer(&mut self, observer: Observer, battery_index: usize) {
        self.recal_counter = observer
            .registry()
            .map(|reg| reg.counter("sdb_gauge_recalibrations_total", &[]));
        self.observer = observer;
        self.battery_index = battery_index;
    }

    /// Feeds one measurement sample: true terminal voltage and current held
    /// for `dt_s`. The gauge quantizes both, integrates the current, and
    /// recalibrates from OCV when the cell has rested long enough.
    pub fn sample(&mut self, terminal_v: f64, current_a: f64, dt_s: f64) {
        debug_assert!(dt_s >= 0.0);
        // Sensor-level faults corrupt the raw reading before the ADC path.
        let current_a = match self.fault {
            Some(GaugeFault::BiasRamp { amps_per_hour }) => {
                self.fault_elapsed_s += dt_s;
                current_a + amps_per_hour * self.fault_elapsed_s / 3600.0
            }
            _ => current_a,
        };
        let mut measured_i = self.counter.sample(current_a, dt_s);
        // ADC-level faults corrupt the quantized measurement.
        if let Some(GaugeFault::QuantizationStorm { lsb_scale }) = self.fault {
            let base = if self.config.current_lsb_a > 0.0 {
                self.config.current_lsb_a
            } else {
                0.001
            };
            let lsb = base * lsb_scale;
            measured_i = (measured_i / lsb).round() * lsb;
        }
        self.last_i = measured_i;
        self.last_v = if self.config.voltage_lsb_v > 0.0 {
            (terminal_v / self.config.voltage_lsb_v).round() * self.config.voltage_lsb_v
        } else {
            terminal_v
        };
        // Coulomb integration into the SoC estimate, against the *learned*
        // capacity so state-of-health feedback keeps the estimate honest on
        // faded cells.
        let dsoc = measured_i * dt_s / 3600.0 / self.learned_capacity_ah;
        self.soc_estimate = (self.soc_estimate - dsoc).clamp(0.0, 1.0);
        // Gauge-side cycle counting per the paper's 80 % cumulative rule.
        if measured_i < 0.0 {
            self.cycle_accum += -dsoc;
            while self.cycle_accum >= CYCLE_CHARGE_THRESHOLD - 1e-12 {
                self.cycle_accum -= CYCLE_CHARGE_THRESHOLD;
                self.cycles += 1;
            }
        }
        // Rest detection and OCV recalibration.
        if measured_i.abs() < 0.002 * self.spec.capacity_ah {
            self.rest_s += dt_s;
            if self.rest_s >= self.config.rest_recal_s {
                if let Some(soc) = self.spec.ocp.invert_cached(&self.ocp_cur, self.last_v) {
                    let soc = soc.clamp(0.0, 1.0);
                    // Capacity learning: between two OCV anchors, the
                    // coulomb counter measured the true charge moved; the
                    // OCV tells us the true SoC swing. Their ratio is the
                    // cell's real capacity (gas-gauge "learning cycle").
                    if let Some(anchor) = self.anchor_soc {
                        let dsoc = anchor - soc; // positive when discharged
                        if dsoc.abs() > 0.3 {
                            let measured_ah = self.counter.net_c() / 3600.0;
                            let cap = measured_ah / dsoc;
                            if cap.is_finite()
                                && cap > 0.2 * self.spec.capacity_ah
                                && cap < 1.5 * self.spec.capacity_ah
                            {
                                let alpha = 0.35;
                                self.learned_capacity_ah =
                                    alpha * cap + (1.0 - alpha) * self.learned_capacity_ah;
                                self.capacity_observations += 1;
                            }
                        }
                    }
                    self.anchor_soc = Some(soc);
                    let soc_before = self.soc_estimate;
                    self.soc_estimate = soc;
                    self.counter.reset_net();
                    if let Some(c) = &self.recal_counter {
                        c.inc();
                    }
                    self.observer.emit(ObsEvent::GaugeRecalibration {
                        battery: self.battery_index,
                        soc_before,
                        soc_after: soc,
                    });
                }
                self.rest_s = 0.0;
            }
        } else {
            self.rest_s = 0.0;
        }
        // A stuck gauge pins the estimate at the frozen value; once the
        // fault clears, integration resumes from there (like an IC reset).
        if matches!(self.fault, Some(GaugeFault::StuckSoc)) {
            self.soc_estimate = self.fault_frozen_soc;
        }
    }

    /// Current status row.
    #[must_use]
    pub fn status(&self) -> BatteryStatus {
        BatteryStatus {
            soc: self.soc_estimate,
            terminal_v: self.last_v,
            cycle_count: self.cycles,
            current_a: self.last_i,
            remaining_ah: self.soc_estimate * self.learned_capacity_ah,
            present: true,
        }
    }

    /// Estimated state of charge.
    #[must_use]
    pub fn soc(&self) -> f64 {
        self.soc_estimate
    }

    /// Gauge-side cycle count.
    #[must_use]
    pub fn cycle_count(&self) -> u32 {
        self.cycles
    }

    /// The spec this gauge was configured with.
    #[must_use]
    pub fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    /// Learned full capacity, amp-hours. Equals the rated capacity until
    /// enough OCV-anchored swings have been observed to learn the real
    /// (possibly faded) value.
    #[must_use]
    pub fn learned_capacity_ah(&self) -> f64 {
        self.learned_capacity_ah
    }

    /// State of health: learned capacity over rated capacity.
    #[must_use]
    pub fn state_of_health(&self) -> f64 {
        self.learned_capacity_ah / self.spec.capacity_ah
    }

    /// Number of capacity observations folded into the learned estimate.
    #[must_use]
    pub fn capacity_observations(&self) -> u32 {
        self.capacity_observations
    }

    /// The ADC/recalibration configuration this gauge was built with.
    #[must_use]
    pub fn config(&self) -> GaugeConfig {
        self.config
    }

    /// Exports the gauge's full mutable state for bit-exact snapshotting.
    /// Configuration (ADC config, spec) and observability handles are not
    /// captured; the OCP curve cursor is a value-neutral cache.
    #[must_use]
    pub fn export_state(&self) -> GaugeStateSnapshot {
        let (net_c, discharged_c, charged_c) = self.counter.export_state();
        GaugeStateSnapshot {
            net_c,
            discharged_c,
            charged_c,
            soc_estimate: self.soc_estimate,
            rest_s: self.rest_s,
            last_v: self.last_v,
            last_i: self.last_i,
            cycle_accum: self.cycle_accum,
            cycles: self.cycles,
            anchor_soc: self.anchor_soc,
            learned_capacity_ah: self.learned_capacity_ah,
            capacity_observations: self.capacity_observations,
            fault: self.fault,
            fault_elapsed_s: self.fault_elapsed_s,
            fault_frozen_soc: self.fault_frozen_soc,
        }
    }

    /// Restores state captured by [`FuelGauge::export_state`].
    pub fn import_state(&mut self, snap: &GaugeStateSnapshot) {
        self.counter
            .import_state(snap.net_c, snap.discharged_c, snap.charged_c);
        self.soc_estimate = snap.soc_estimate;
        self.rest_s = snap.rest_s;
        self.last_v = snap.last_v;
        self.last_i = snap.last_i;
        self.cycle_accum = snap.cycle_accum;
        self.cycles = snap.cycles;
        self.anchor_soc = snap.anchor_soc;
        self.learned_capacity_ah = snap.learned_capacity_ah;
        self.capacity_observations = snap.capacity_observations;
        self.fault = snap.fault;
        self.fault_elapsed_s = snap.fault_elapsed_s;
        self.fault_frozen_soc = snap.fault_frozen_soc;
    }
}

/// Plain-data capture of one gauge's mutable state (see
/// [`FuelGauge::export_state`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStateSnapshot {
    /// Coulomb counter net charge, coulombs.
    pub net_c: f64,
    /// Lifetime discharge throughput, coulombs.
    pub discharged_c: f64,
    /// Lifetime charge throughput, coulombs.
    pub charged_c: f64,
    /// Estimated state of charge.
    pub soc_estimate: f64,
    /// Accumulated rest time toward OCV recalibration, seconds.
    pub rest_s: f64,
    /// Last measured (quantized) terminal voltage, volts.
    pub last_v: f64,
    /// Last measured current, amps.
    pub last_i: f64,
    /// Cumulative charge fraction toward the next gauge-side cycle.
    pub cycle_accum: f64,
    /// Gauge-side cycle count.
    pub cycles: u32,
    /// SoC anchor from the last OCV recalibration.
    pub anchor_soc: Option<f64>,
    /// Learned full capacity, amp-hours.
    pub learned_capacity_ah: f64,
    /// Capacity observations folded into the learned estimate.
    pub capacity_observations: u32,
    /// Active measurement fault, if any.
    pub fault: Option<GaugeFault>,
    /// Time the fault has been active, seconds.
    pub fault_elapsed_s: f64,
    /// SoC frozen by a stuck-SoC fault.
    pub fault_frozen_soc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::thevenin::TheveninCell;

    fn spec() -> BatterySpec {
        BatterySpec::from_chemistry("g", Chemistry::Type2CoStandard, 2.0)
    }

    fn ideal_config() -> GaugeConfig {
        GaugeConfig {
            current_lsb_a: 0.0,
            current_offset_a: 0.0,
            voltage_lsb_v: 0.0,
            rest_recal_s: 1800.0,
        }
    }

    #[test]
    fn ideal_gauge_tracks_true_soc() {
        let spec = spec();
        let mut cell = TheveninCell::new(spec.clone());
        let mut gauge = FuelGauge::new(spec, 1.0, ideal_config());
        for _ in 0..1800 {
            let out = cell.step_current(1.0, 1.0).unwrap();
            gauge.sample(out.terminal_v, 1.0, 1.0);
        }
        assert!((gauge.soc() - cell.soc()).abs() < 1e-9);
    }

    #[test]
    fn noisy_gauge_stays_close() {
        let spec = spec();
        let mut cell = TheveninCell::new(spec.clone());
        let mut gauge = FuelGauge::new(spec, 1.0, GaugeConfig::default());
        for _ in 0..3600 {
            let out = cell.step_current(0.5, 1.0).unwrap();
            gauge.sample(out.terminal_v, 0.5, 1.0);
        }
        assert!((gauge.soc() - cell.soc()).abs() < 0.01);
    }

    #[test]
    fn ocv_recalibration_fixes_drift() {
        let spec = spec();
        // A gauge with a large offset that has drifted.
        let mut gauge = FuelGauge::new(
            spec.clone(),
            0.9, // wrong belief; true cell is at 0.5
            GaugeConfig {
                current_offset_a: 0.0,
                ..ideal_config()
            },
        );
        let cell = TheveninCell::with_soc(spec, 0.5);
        // Rest long enough at the true OCV.
        let ocv = cell.ocv();
        for _ in 0..40 {
            gauge.sample(ocv, 0.0, 60.0);
        }
        assert!((gauge.soc() - 0.5).abs() < 0.02, "soc = {}", gauge.soc());
    }

    #[test]
    fn no_recalibration_while_loaded() {
        let spec = spec();
        let mut gauge = FuelGauge::new(spec, 0.9, ideal_config());
        // Heavy load for a long time: rest timer must never fire.
        for _ in 0..100 {
            gauge.sample(3.5, 2.0, 60.0);
        }
        // SoC fell by coulomb counting only (2 A × 100 min on 2 Ah ≫ full),
        // clamped at 0 — but not recalibrated upward from the sagged 3.5 V.
        assert!(gauge.soc() < 0.05);
    }

    #[test]
    fn gauge_counts_cycles_from_measured_charge() {
        let spec = spec();
        let mut gauge = FuelGauge::new(spec, 0.0, ideal_config());
        // Charge 1.6 Ah into the 2 Ah cell = 0.8 fraction → 1 cycle.
        for _ in 0..5760 {
            gauge.sample(3.9, -1.0, 1.0);
        }
        assert_eq!(gauge.cycle_count(), 1);
    }

    #[test]
    fn status_row_fields() {
        let spec = spec();
        let mut gauge = FuelGauge::new(spec, 0.75, ideal_config());
        gauge.sample(3.85, 0.5, 1.0);
        let s = gauge.status();
        assert!((s.soc - 0.75).abs() < 1e-3);
        assert!((s.terminal_v - 3.85).abs() < 1e-9);
        assert_eq!(s.cycle_count, 0);
        assert!((s.current_a - 0.5).abs() < 1e-9);
        assert!((s.remaining_ah - 1.5).abs() < 0.01);
    }

    #[test]
    fn capacity_learning_detects_fade() {
        // The gauge believes the cell is its rated 2.0 Ah, but the real
        // (faded) cell only holds 1.7 Ah. One OCV-anchored deep discharge
        // teaches the gauge the truth.
        let rated = spec(); // 2.0 Ah
        let mut true_cell = TheveninCell::new(BatterySpec::from_chemistry(
            "faded",
            Chemistry::Type2CoStandard,
            1.7,
        ));
        let mut gauge = FuelGauge::new(rated, 1.0, ideal_config());
        assert_eq!(gauge.capacity_observations(), 0);
        assert!((gauge.state_of_health() - 1.0).abs() < 1e-12);

        // Rest to take the full anchor (the cell's RC branch must actually
        // relax for the OCV reading to be valid).
        let rest = |cell: &mut TheveninCell, gauge: &mut FuelGauge| {
            for _ in 0..40 {
                cell.rest(60.0);
                gauge.sample(cell.terminal_voltage(0.0), 0.0, 60.0);
            }
        };
        rest(&mut true_cell, &mut gauge);
        // Deep discharge at 0.5 A until the true cell is nearly empty.
        while true_cell.soc() > 0.06 {
            let out = true_cell.step_current(0.5, 60.0).unwrap();
            gauge.sample(out.terminal_v, 0.5, 60.0);
        }
        // Rest again to take the empty anchor.
        rest(&mut true_cell, &mut gauge);
        assert!(gauge.capacity_observations() >= 1);
        // The EWMA moved a third of the way toward 1.7 Ah.
        assert!(
            gauge.learned_capacity_ah() < 1.95,
            "learned = {}",
            gauge.learned_capacity_ah()
        );
        assert!(gauge.state_of_health() < 0.98);
        // Several cycles converge close to the true value.
        for _ in 0..4 {
            while !true_cell.is_full() {
                let out = true_cell.step_current(-0.5, 60.0).unwrap();
                gauge.sample(out.terminal_v, -0.5, 60.0);
            }
            rest(&mut true_cell, &mut gauge);
            while true_cell.soc() > 0.06 {
                let out = true_cell.step_current(0.5, 60.0).unwrap();
                gauge.sample(out.terminal_v, 0.5, 60.0);
            }
            rest(&mut true_cell, &mut gauge);
        }
        assert!(
            (gauge.learned_capacity_ah() - 1.7).abs() < 0.15,
            "learned = {}",
            gauge.learned_capacity_ah()
        );
    }

    #[test]
    fn recalibration_emits_event_and_counts() {
        let obs = Observer::capturing();
        let spec = spec();
        let mut gauge = FuelGauge::new(spec.clone(), 0.9, ideal_config());
        gauge.set_observer(obs.clone(), 3);
        // Rest at the true OCV of a half-charged cell long enough to fire
        // an OCV recalibration.
        let cell = TheveninCell::with_soc(spec, 0.5);
        let ocv = cell.ocv();
        for _ in 0..40 {
            gauge.sample(ocv, 0.0, 60.0);
        }
        let dump = obs.drain_events();
        let recal = dump
            .iter()
            .find(|e| matches!(e.event, ObsEvent::GaugeRecalibration { battery: 3, .. }))
            .expect("recalibration event recorded");
        if let ObsEvent::GaugeRecalibration {
            soc_before,
            soc_after,
            ..
        } = recal.event
        {
            assert!(soc_before > 0.8);
            assert!((soc_after - 0.5).abs() < 0.02);
        }
        let text = obs.registry().unwrap().to_prometheus_text();
        assert!(text.contains("sdb_gauge_recalibrations_total 1"));
    }

    #[test]
    fn stuck_fault_freezes_soc_until_cleared() {
        let spec = spec();
        let mut gauge = FuelGauge::new(spec, 0.8, ideal_config());
        gauge.set_fault(Some(GaugeFault::StuckSoc));
        for _ in 0..600 {
            gauge.sample(3.7, 1.0, 1.0);
        }
        assert!((gauge.soc() - 0.8).abs() < 1e-12, "soc = {}", gauge.soc());
        gauge.set_fault(None);
        for _ in 0..600 {
            gauge.sample(3.7, 1.0, 1.0);
        }
        assert!(gauge.soc() < 0.8, "integration resumed after clearing");
    }

    #[test]
    fn bias_ramp_drifts_the_estimate() {
        let spec = spec();
        let mut clean = FuelGauge::new(spec.clone(), 0.8, ideal_config());
        let mut faulty = FuelGauge::new(spec, 0.8, ideal_config());
        faulty.set_fault(Some(GaugeFault::BiasRamp { amps_per_hour: 0.5 }));
        for _ in 0..3600 {
            clean.sample(3.7, 0.2, 1.0);
            faulty.sample(3.7, 0.2, 1.0);
        }
        // Mean injected bias over the hour is ~0.25 A vs the true 0.2 A:
        // the faulty gauge believes far more charge left the cell.
        assert!(
            clean.soc() - faulty.soc() > 0.05,
            "clean {} faulty {}",
            clean.soc(),
            faulty.soc()
        );
    }

    #[test]
    fn quantization_storm_coarsens_current() {
        let spec = spec();
        let mut gauge = FuelGauge::new(spec, 0.8, ideal_config());
        gauge.set_fault(Some(GaugeFault::QuantizationStorm { lsb_scale: 100.0 }));
        // 0.04 A rounds to zero at a 0.1 A LSB: the gauge sees no current.
        gauge.sample(3.7, 0.04, 60.0);
        assert_eq!(gauge.status().current_a, 0.0);
        assert!((gauge.soc() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn throughput_accumulates() {
        let spec = spec();
        let mut gauge = FuelGauge::new(spec, 0.5, ideal_config());
        gauge.sample(3.8, 1.0, 100.0);
        gauge.sample(3.9, -1.0, 50.0);
        let (d, c) = (gauge.counter.discharged_c(), gauge.counter.charged_c());
        assert!((d - 100.0).abs() < 1e-9);
        assert!((c - 50.0).abs() < 1e-9);
    }
}
