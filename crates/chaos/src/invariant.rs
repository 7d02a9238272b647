//! The invariant-checking harness.
//!
//! An [`InvariantChecker`] is hooked into a simulation's step loop and
//! asserts the physical and contractual invariants of the SDB stack on
//! every step — under clean *and* chaos conditions the following must
//! hold:
//!
//! * **SoC bounds** — every state of charge stays in `[0, 1]`.
//! * **Load accounting** — `supplied + unmet = demanded` each step.
//! * **Ratio validity** — commanded charge/discharge tuples are
//!   non-negative and sum to 1.
//! * **Safety envelope** — per-cell current stays within the spec limits
//!   and cell temperature below the thermal ceiling.
//! * **Wear monotonicity** — cycle counts never decrease.
//! * **Energy conservation** — lifetime `supplied + circuit loss + cell
//!   heat` never exceeds chemical energy drawn plus external input beyond
//!   the fixed loss-model tolerance (plus a small explicit slack for
//!   deep-discharge steps, where the emulator's served-power booking is
//!   documented to sag above the cell's true integral).
//!
//! Violations are collected (not panicked), so a campaign can count them
//! per cell; tests assert [`InvariantReport::is_clean`].

use sdb_emulator::micro::{Microcontroller, StepReport};
use std::fmt;

// Tolerances for the checks.

/// Relative tolerance on the lifetime energy-conservation identity
/// (covers loss-model discretization error).
const ENERGY_TOL_FRAC: f64 = 0.02;
/// Absolute slack on the energy identity, joules (for tiny runs).
const ENERGY_TOL_J: f64 = 1.0;
/// Tolerance on ratio sums and component non-negativity.
const RATIO_TOL: f64 = 1e-6;
/// Absolute tolerance on per-step load accounting, watts.
const POWER_TOL_W: f64 = 1e-3;
/// Hard ceiling on cell temperature, °C.
const MAX_CELL_TEMP_C: f64 = 100.0;
/// Allowed overshoot factor on spec current limits.
const CURRENT_MARGIN: f64 = 1.05;
/// SoC below which a discharging cell is in the steep tail of its OCV
/// curve, where the emulator books served power at the request while the
/// sagging cell integral delivers slightly less.
const DEEP_SOC: f64 = 0.15;
/// Extra relative slack accrued on the energy identity for energy
/// supplied during deep-discharge steps (below [`DEEP_SOC`]).
const DEEP_SLACK_FRAC: f64 = 0.05;

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated time of the violating step, seconds.
    pub(crate) t_s: f64,
    /// Which invariant failed (stable slug).
    pub(crate) invariant: &'static str,
    /// Human-readable specifics.
    pub(crate) detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={:.1}s] {}: {}",
            self.t_s, self.invariant, self.detail
        )
    }
}

/// Final tally of an invariant-checked run.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantReport {
    /// Steps checked.
    pub(crate) steps: u64,
    /// Individual assertions evaluated.
    pub(crate) checks: u64,
    /// Total violations observed (details capped at 64 entries).
    pub violation_count: u64,
    /// The recorded violations (first 64).
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// Whether the run upheld every invariant.
    #[must_use]
    pub(crate) fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariants: {} checks over {} steps, {} violations",
            self.checks, self.steps, self.violation_count
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Maximum violation details retained (the count keeps running).
const MAX_DETAILS: usize = 64;

/// Step-hooked invariant checker over one `(Microcontroller, run)` pair.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    /// Per-cell spec limits captured at construction.
    max_discharge_a: Vec<f64>,
    max_charge_a: Vec<f64>,
    /// `(delivered, circuit_loss, cell_heat, unmet, external)` baseline.
    baseline_totals: (f64, f64, f64, f64, f64),
    /// `Σ (energy_out − energy_in + heat)` per cell at baseline.
    baseline_chem_j: f64,
    last_cycle_counts: Vec<u32>,
    /// End time of the last `check_step`, for per-step durations.
    last_step_t_s: f64,
    /// Accumulated deep-discharge slack on the energy identity, joules.
    deep_slack_j: f64,
    steps: u64,
    checks: u64,
    violation_count: u64,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// A checker baselined on `micro`'s current lifetime totals.
    #[must_use]
    pub fn for_micro(micro: &Microcontroller) -> Self {
        Self {
            max_discharge_a: micro
                .cells()
                .iter()
                .map(|c| c.spec().max_discharge_a)
                .collect(),
            max_charge_a: micro
                .cells()
                .iter()
                .map(|c| c.spec().max_charge_a)
                .collect(),
            baseline_totals: micro.energy_totals_j(),
            baseline_chem_j: chem_net_j(micro),
            last_cycle_counts: micro.cells().iter().map(|c| c.cycle_count()).collect(),
            last_step_t_s: 0.0,
            deep_slack_j: 0.0,
            steps: 0,
            checks: 0,
            violation_count: 0,
            violations: Vec::new(),
        }
    }

    fn violate(&mut self, t_s: f64, invariant: &'static str, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_DETAILS {
            self.violations.push(Violation {
                t_s,
                invariant,
                detail,
            });
        }
    }

    /// Checks the per-step invariants visible in a [`StepReport`]: SoC
    /// bounds, load accounting, and the per-cell safety envelope.
    pub fn check_step(&mut self, t_s: f64, report: &StepReport) {
        self.steps += 1;
        // Deep-discharge steps accrue extra slack on the energy identity:
        // near empty the OCV curve is steep, and the emulator books served
        // power at the requested level while the sagging cell integral
        // delivers slightly less within the step.
        let dt_s = (t_s - self.last_step_t_s).max(0.0);
        self.last_step_t_s = t_s;
        let deep = report
            .batteries
            .as_slice()
            .iter()
            .any(|b| b.current_a > 0.0 && b.soc < DEEP_SOC);
        if deep {
            self.deep_slack_j += DEEP_SLACK_FRAC * report.supplied_w.max(0.0) * dt_s;
        }
        for (i, b) in report.batteries.as_slice().iter().enumerate() {
            self.checks += 2;
            if !(0.0..=1.0).contains(&b.soc) || !b.soc.is_finite() {
                self.violate(t_s, "soc-bounds", format!("battery {i} soc = {}", b.soc));
            }
            let limit = if b.current_a >= 0.0 {
                self.max_discharge_a
                    .get(i)
                    .copied()
                    .unwrap_or(f64::INFINITY)
            } else {
                self.max_charge_a.get(i).copied().unwrap_or(f64::INFINITY)
            };
            if b.current_a.abs() > limit * CURRENT_MARGIN {
                self.violate(
                    t_s,
                    "safety-envelope",
                    format!(
                        "battery {i} current {:.3} A exceeds limit {limit:.3} A",
                        b.current_a
                    ),
                );
            }
        }
        self.checks += 1;
        let balance = report.supplied_w + report.unmet_w - report.load_w;
        if balance.abs() > POWER_TOL_W + 1e-9 * report.load_w.abs() {
            self.violate(
                t_s,
                "load-accounting",
                format!(
                    "supplied {:.6} + unmet {:.6} != load {:.6} W",
                    report.supplied_w, report.unmet_w, report.load_w
                ),
            );
        }
    }

    /// Checks the invariants that need ground-truth state: commanded ratio
    /// validity, cell temperature, wear monotonicity, and the lifetime
    /// energy-conservation identity. Call at any cadence (typically each
    /// step alongside [`InvariantChecker::check_step`], or once at the end
    /// of a run).
    pub fn check_micro(&mut self, t_s: f64, micro: &Microcontroller) {
        self.check_ratio_tuple(t_s, "discharge", micro.discharge_ratios());
        self.check_ratio_tuple(t_s, "charge", micro.charge_ratios());

        for (i, cell) in micro.cells().iter().enumerate() {
            self.checks += 2;
            if let Some(temp) = cell.temperature_c() {
                if temp > MAX_CELL_TEMP_C {
                    self.violate(
                        t_s,
                        "safety-envelope",
                        format!("battery {i} temperature {temp:.1} °C"),
                    );
                }
            }
            let cc = cell.cycle_count();
            let last = self.last_cycle_counts.get(i).copied();
            if let Some(last) = last {
                if cc < last {
                    self.violate(
                        t_s,
                        "wear-monotonic",
                        format!("battery {i} cycle count fell {last} -> {cc}"),
                    );
                }
                self.last_cycle_counts[i] = cc;
            }
        }

        self.checks += 1;
        let (d, cl, ch, _u, e) = micro.energy_totals_j();
        let (d0, cl0, ch0, _u0, e0) = self.baseline_totals;
        let lhs = (d - d0) + (cl - cl0) + (ch - ch0);
        let rhs = (chem_net_j(micro) - self.baseline_chem_j) + (e - e0);
        if lhs > rhs * (1.0 + ENERGY_TOL_FRAC) + ENERGY_TOL_J + self.deep_slack_j {
            self.violate(
                t_s,
                "energy-conservation",
                format!("accounted output {lhs:.1} J exceeds chemical+external input {rhs:.1} J"),
            );
        }
    }

    fn check_ratio_tuple(&mut self, t_s: f64, which: &'static str, ratios: &[f64]) {
        self.checks += 1;
        let sum: f64 = ratios.iter().sum();
        let bad_sum = (sum - 1.0).abs() > RATIO_TOL;
        let bad_component = ratios.iter().any(|r| *r < -RATIO_TOL || !r.is_finite());
        if bad_sum || bad_component {
            self.violate(
                t_s,
                "ratio-validity",
                format!("{which} ratios {ratios:?} (sum {sum})"),
            );
        }
    }

    /// Violations recorded so far (details capped; see
    /// [`InvariantReport::violation_count`] for the true total).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no invariant has been violated so far.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    /// Finalizes into a report.
    #[must_use]
    pub fn finish(self) -> InvariantReport {
        InvariantReport {
            steps: self.steps,
            checks: self.checks,
            violation_count: self.violation_count,
            violations: self.violations,
        }
    }
}

/// Lifetime chemical energy balance across all cells: terminal energy out
/// minus energy in plus internal heat, joules.
fn chem_net_j(micro: &Microcontroller) -> f64 {
    micro
        .cells()
        .iter()
        .map(|c| c.energy_out_j() - c.energy_in_j() + c.heat_j())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_core::runtime::SdbRuntime;
    use sdb_core::scheduler::{drive, Hooks, SimOptions};
    use sdb_emulator::pack::PackBuilder;
    use sdb_workloads::traces::Trace;
    use std::ops::ControlFlow;

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
    fn clean_run_has_no_violations() {
        let mut m = micro();
        let mut rt = SdbRuntime::new(2);
        let mut checker = InvariantChecker::for_micro(&m);
        let runs = Trace::constant(4.0, 3600.0).runs(60.0);
        let _ = drive(
            &mut m,
            &mut rt,
            &runs,
            &SimOptions::default(),
            Hooks::default(),
            |_, _| {},
            |t, _, rep| {
                checker.check_step(t, rep);
                ControlFlow::Continue(())
            },
        );
        checker.check_micro(3600.0, &m);
        let report = checker.finish();
        assert!(report.is_clean(), "{report}");
        assert!(report.steps > 0 && report.checks > report.steps);
    }

    #[test]
    fn deep_discharge_overload_stays_clean() {
        // Near-empty pack under a 25 W overload: the emulator books served
        // power at the request while the sagging cells deliver less — the
        // deep-discharge slack must absorb that documented drift without
        // flagging energy-conservation.
        use sdb_emulator::profile::ProfileKind;
        let mut m = PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 3.0),
                0.08,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 3.0),
                0.08,
                ProfileKind::Fast,
            )
            .build();
        m.set_discharge_ratios(&[0.5, 0.5]).unwrap();
        let mut checker = InvariantChecker::for_micro(&m);
        for step in 0..6 {
            let r = m.step(25.0, 0.0, 60.0);
            let t = f64::from(step + 1) * 60.0;
            checker.check_step(t, &r);
            checker.check_micro(t, &m);
        }
        let report = checker.finish();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn doctored_report_is_caught() {
        let m = micro();
        let mut checker = InvariantChecker::for_micro(&m);
        let mut report = m.clone().step(4.0, 0.0, 1.0);
        report.supplied_w = report.load_w + 1.0; // energy from nowhere
        report.batteries.as_mut_slice()[0].soc = 1.5;
        checker.check_step(1.0, &report);
        let tally = checker.finish();
        assert_eq!(tally.violation_count, 2, "{tally}");
        assert!(tally.violations.iter().any(|v| v.invariant == "soc-bounds"));
        assert!(tally
            .violations
            .iter()
            .any(|v| v.invariant == "load-accounting"));
    }

    #[test]
    fn detail_cap_keeps_counting() {
        let m = micro();
        let mut checker = InvariantChecker::for_micro(&m);
        let mut report = m.clone().step(4.0, 0.0, 1.0);
        report.batteries.as_mut_slice()[0].soc = -0.1;
        for t in 0..100 {
            checker.check_step(f64::from(t), &report);
        }
        let tally = checker.finish();
        assert_eq!(tally.violation_count, 100);
        assert_eq!(tally.violations.len(), MAX_DETAILS);
        assert!(!tally.is_clean());
    }
}
