//! Seed-driven fault plans.
//!
//! A [`FaultPlan`] is a timetable of [`FaultEvent`]s — each activates one
//! [`FaultKind`] for a `[start_s, end_s)` window. Plans are a pure
//! function of `(seed, horizon, intensity, battery count)`, so any chaos
//! run is bit-for-bit replayable from its seed, and a plan can be printed
//! and re-applied to reproduce a failure by hand.

use sdb_emulator::link::Link;
use sdb_emulator::micro::ThermalThrottle;
use sdb_fuel_gauge::gauge::GaugeFault;
use sdb_rng::DetRng;

/// Names of every fault class, in [`FaultKind::class_index`] order.
pub const FAULT_CLASSES: [&str; 10] = [
    "link-drop",
    "link-latency",
    "link-duplicate",
    "stale-status",
    "gauge-stuck",
    "gauge-bias",
    "gauge-quantization",
    "dcir-growth",
    "detach",
    "thermal-trip",
];

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Link: drop each command with probability `per_mille`/1000.
    LinkDrop {
        /// Drop probability in parts per thousand.
        per_mille: u32,
    },
    /// Link: force every delivery to take `ticks` steps.
    LinkLatency {
        /// Forced delivery latency in link steps.
        ticks: u32,
    },
    /// Link: deliver each command twice with probability `per_mille`/1000.
    LinkDuplicate {
        /// Duplication probability in parts per thousand.
        per_mille: u32,
    },
    /// Link: `QueryBatteryStatus` serves a frozen snapshot.
    StaleStatus,
    /// Gauge: the SoC estimate freezes at its current value.
    GaugeStuck {
        /// Target battery index.
        battery: usize,
    },
    /// Gauge: the current sense drifts linearly over time.
    GaugeBiasRamp {
        /// Target battery index.
        battery: usize,
        /// Bias growth rate, amps per hour of fault time.
        amps_per_hour: f64,
    },
    /// Gauge: the ADC effectively loses resolution.
    GaugeQuantization {
        /// Target battery index.
        battery: usize,
        /// Multiplier on the ADC least-significant-bit size.
        lsb_scale: f64,
    },
    /// Cell: sudden internal-resistance growth (aging jump, cold spot).
    DcirGrowth {
        /// Target battery index.
        battery: usize,
        /// Resistance multiplier while the fault is active (> 1).
        mult: f64,
    },
    /// Pack: the battery detaches (2-in-1 base removed) and reattaches
    /// when the window closes.
    Detach {
        /// Target battery index.
        battery: usize,
    },
    /// Firmware: an aggressively low thermal throttle trips charging.
    ThermalTrip {
        /// Throttle limit, °C (set near ambient to trip immediately).
        limit_c: f64,
    },
}

impl FaultKind {
    /// Index into [`FAULT_CLASSES`] for this fault.
    #[must_use]
    pub fn class_index(&self) -> usize {
        match self {
            Self::LinkDrop { .. } => 0,
            Self::LinkLatency { .. } => 1,
            Self::LinkDuplicate { .. } => 2,
            Self::StaleStatus => 3,
            Self::GaugeStuck { .. } => 4,
            Self::GaugeBiasRamp { .. } => 5,
            Self::GaugeQuantization { .. } => 6,
            Self::DcirGrowth { .. } => 7,
            Self::Detach { .. } => 8,
            Self::ThermalTrip { .. } => 9,
        }
    }

    /// Stable class name (for outcome tables and JSON).
    #[must_use]
    pub fn fault_class(&self) -> &'static str {
        FAULT_CLASSES[self.class_index()]
    }
}

/// A fault active over `[start_s, end_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Activation time, seconds.
    pub start_s: f64,
    /// Deactivation time, seconds.
    pub end_s: f64,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic timetable of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from explicit events (for scripted scenarios and tests).
    #[must_use]
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// Generates a plan as a pure function of the arguments.
    ///
    /// `intensity` in `[0, 1]` scales the expected fault count (~1 fault
    /// per 10 simulated minutes at full intensity); 0 yields an empty
    /// plan. Faults start in the first 80 % of the horizon and last
    /// between one minute and 20 % of the horizon, so every fault has
    /// room to bite *and* to clear before the run ends.
    #[must_use]
    pub fn generate(seed: u64, horizon_s: f64, intensity: f64, n_batteries: usize) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let n_batteries = n_batteries.max(1);
        let mut rng = DetRng::seed_from_u64(seed);
        let expected = horizon_s / 600.0 * intensity;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let mut count = expected.floor() as u64;
        if rng.chance(expected.fract()) {
            count += 1;
        }
        let mut events = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
        for _ in 0..count {
            let start_s = rng.f64_range(0.0, horizon_s * 0.8);
            let dur_s = rng.f64_range(60.0, (horizon_s * 0.2).max(61.0));
            let battery = rng.index(n_batteries);
            let kind = match rng.below(10) {
                0 => FaultKind::LinkDrop {
                    #[allow(clippy::cast_possible_truncation)]
                    per_mille: rng.below(700) as u32 + 100,
                },
                1 => FaultKind::LinkLatency {
                    #[allow(clippy::cast_possible_truncation)]
                    ticks: rng.below(5) as u32 + 1,
                },
                2 => FaultKind::LinkDuplicate {
                    #[allow(clippy::cast_possible_truncation)]
                    per_mille: rng.below(500) as u32 + 100,
                },
                3 => FaultKind::StaleStatus,
                4 => FaultKind::GaugeStuck { battery },
                5 => FaultKind::GaugeBiasRamp {
                    battery,
                    amps_per_hour: rng.f64_range(0.1, 1.0),
                },
                6 => FaultKind::GaugeQuantization {
                    battery,
                    lsb_scale: rng.f64_range(10.0, 200.0),
                },
                7 => FaultKind::DcirGrowth {
                    battery,
                    mult: rng.f64_range(1.5, 4.0),
                },
                8 => FaultKind::Detach { battery },
                _ => FaultKind::ThermalTrip {
                    limit_c: rng.f64_range(25.0, 35.0),
                },
            };
            events.push(FaultEvent {
                start_s,
                end_s: (start_s + dur_s).min(horizon_s),
                kind,
            });
        }
        // Deterministic application order regardless of draw order.
        events.sort_by(|a, b| {
            a.start_s
                .partial_cmp(&b.start_s)
                .expect("plan times are finite")
                .then(a.end_s.partial_cmp(&b.end_s).expect("finite"))
        });
        Self { events }
    }

    /// The scheduled events, sorted by start time.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A plan keeping only the events whose index is flagged in `keep`
    /// (missing flags drop the event). Event order is preserved, so a
    /// subset plan replays its surviving events at the original times —
    /// the shrink primitive for delta-debugging a failing chaos run down
    /// to its minimal fault set.
    #[must_use]
    pub fn subset(&self, keep: &[bool]) -> Self {
        Self {
            events: self
                .events
                .iter()
                .enumerate()
                .filter(|(i, _)| keep.get(*i).copied().unwrap_or(false))
                .map(|(_, ev)| *ev)
                .collect(),
        }
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Applies a [`FaultPlan`] to a [`Link`] as simulated time advances:
/// call [`PlanExecutor::apply`] from the `pre_step` hook of
/// `sdb_core::scheduler::drive` (or any stepping loop).
#[derive(Debug, Clone)]
pub struct PlanExecutor {
    plan: FaultPlan,
    active: Vec<bool>,
    injected: u64,
    per_class: [u64; FAULT_CLASSES.len()],
}

impl PlanExecutor {
    /// An executor over `plan` with every fault initially inactive.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.len();
        Self {
            plan,
            active: vec![false; n],
            injected: 0,
            per_class: [0; FAULT_CLASSES.len()],
        }
    }

    /// Activates / deactivates faults whose windows `t_s` has entered or
    /// left. Idempotent per step; activation order is plan order.
    pub fn apply(&mut self, t_s: f64, link: &mut Link) {
        for (i, ev) in self.plan.events.iter().enumerate() {
            let should = t_s >= ev.start_s && t_s < ev.end_s;
            if should == self.active[i] {
                continue;
            }
            self.active[i] = should;
            if should {
                self.injected += 1;
                self.per_class[ev.kind.class_index()] += 1;
            }
            Self::set(link, ev.kind, should);
        }
    }

    /// Total fault activations so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Activations per fault class ([`FAULT_CLASSES`] order).
    #[must_use]
    pub fn injected_per_class(&self) -> [u64; FAULT_CLASSES.len()] {
        self.per_class
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn set(link: &mut Link, kind: FaultKind, on: bool) {
        match kind {
            FaultKind::LinkDrop { per_mille } => {
                link.set_fault_drop_per_mille(if on { per_mille } else { 0 });
            }
            FaultKind::LinkLatency { ticks } => {
                link.set_fault_latency(on.then_some(ticks));
            }
            FaultKind::LinkDuplicate { per_mille } => {
                link.set_fault_dup_per_mille(if on { per_mille } else { 0 });
            }
            FaultKind::StaleStatus => link.set_fault_stale_status(on),
            FaultKind::GaugeStuck { battery } => {
                let _ = link
                    .micro_mut()
                    .set_gauge_fault(battery, on.then_some(GaugeFault::StuckSoc));
            }
            FaultKind::GaugeBiasRamp {
                battery,
                amps_per_hour,
            } => {
                let _ = link.micro_mut().set_gauge_fault(
                    battery,
                    on.then_some(GaugeFault::BiasRamp { amps_per_hour }),
                );
            }
            FaultKind::GaugeQuantization { battery, lsb_scale } => {
                let _ = link.micro_mut().set_gauge_fault(
                    battery,
                    on.then_some(GaugeFault::QuantizationStorm { lsb_scale }),
                );
            }
            FaultKind::DcirGrowth { battery, mult } => {
                let _ = link
                    .micro_mut()
                    .set_cell_fault_resistance(battery, if on { mult } else { 1.0 });
            }
            FaultKind::Detach { battery } => {
                let _ = link.micro_mut().set_battery_present(battery, !on);
            }
            FaultKind::ThermalTrip { limit_c } => {
                link.micro_mut()
                    .set_thermal_throttle(on.then_some(ThermalThrottle {
                        limit_c,
                        resume_c: limit_c - 5.0,
                    }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(42, 4.0 * 3600.0, 0.8, 2);
        let b = FaultPlan::generate(42, 4.0 * 3600.0, 0.8, 2);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 4.0 * 3600.0, 0.8, 2);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn zero_intensity_is_empty() {
        assert!(FaultPlan::generate(1, 3600.0, 0.0, 2).is_empty());
    }

    #[test]
    fn events_fit_the_horizon_and_are_sorted() {
        let plan = FaultPlan::generate(7, 2.0 * 3600.0, 1.0, 3);
        assert!(!plan.is_empty());
        for w in plan.events().windows(2) {
            assert!(w[0].start_s <= w[1].start_s);
        }
        for ev in plan.events() {
            assert!(ev.start_s >= 0.0 && ev.end_s <= 2.0 * 3600.0);
            assert!(ev.end_s > ev.start_s);
        }
    }

    #[test]
    fn subset_preserves_order_and_drops_unflagged() {
        let plan = FaultPlan::generate(7, 2.0 * 3600.0, 1.0, 3);
        assert!(plan.len() >= 2, "full intensity over 2 h injects");
        let keep: Vec<bool> = (0..plan.len()).map(|i| i % 2 == 0).collect();
        let sub = plan.subset(&keep);
        assert_eq!(sub.len(), keep.iter().filter(|&&k| k).count());
        let expected: Vec<_> = plan.events().iter().step_by(2).copied().collect();
        assert_eq!(sub.events(), expected.as_slice());
        // Short flag vectors drop the tail; all-false empties the plan.
        assert_eq!(plan.subset(&[true]).len(), 1);
        assert!(plan.subset(&[]).is_empty());
    }

    #[test]
    fn executor_toggles_faults_on_and_off() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            start_s: 10.0,
            end_s: 20.0,
            kind: FaultKind::StaleStatus,
        }]);
        let micro = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .build();
        let mut link = Link::ideal(micro);
        let mut exec = PlanExecutor::new(plan);
        exec.apply(0.0, &mut link);
        assert!(!link.stale_status_active());
        exec.apply(10.0, &mut link);
        assert!(link.stale_status_active());
        assert_eq!(exec.injected(), 1);
        exec.apply(25.0, &mut link);
        assert!(!link.stale_status_active());
        assert_eq!(exec.injected(), 1, "clearing is not an injection");
        assert_eq!(exec.injected_per_class()[3], 1);
    }
}
