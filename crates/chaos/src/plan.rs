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

    /// The scheduled events in plan order: sorted by start time for a
    /// generated plan, as given for [`FaultPlan::from_events`].
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
/// `sdb_core::scheduler::drive` (or any stepping loop) with a
/// non-decreasing time.
///
/// The executor indexes the plan by start time once, then keeps a cursor
/// into that order and the list of active events, so a step costs
/// O(1) when no window opens or closes and O(transitions) otherwise,
/// whatever the plan's length.
#[derive(Debug, Clone)]
pub struct PlanExecutor {
    plan: FaultPlan,
    /// Indices of the events with a non-empty window, by
    /// `(start_s, index)`.
    order: Vec<usize>,
    /// Entries of `order` before this one have been reached.
    cursor: usize,
    /// Active events, ascending plan index.
    live: Vec<usize>,
    /// One step's `(index, on)` transitions (reused buffer).
    changes: Vec<(usize, bool)>,
    /// Earliest time at which a window opens or an active one closes.
    next_change_s: f64,
    /// The previous call's time.
    last_t_s: f64,
    injected: u64,
}

impl PlanExecutor {
    /// An executor over `plan` with every fault initially inactive.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        // An event is active while `start_s <= t < end_s`, so one whose
        // window is empty (or NaN) can never fire.
        let mut order: Vec<usize> = (0..plan.len())
            .filter(|&i| plan.events[i].start_s < plan.events[i].end_s)
            .collect();
        order.sort_by(|&a, &b| {
            plan.events[a]
                .start_s
                .total_cmp(&plan.events[b].start_s)
                .then(a.cmp(&b))
        });
        let next_change_s = order
            .first()
            .map_or(f64::INFINITY, |&i| plan.events[i].start_s);
        Self {
            plan,
            order,
            cursor: 0,
            live: Vec::new(),
            changes: Vec::new(),
            next_change_s,
            last_t_s: f64::NEG_INFINITY,
            injected: 0,
        }
    }

    /// Activates / deactivates faults whose windows `t_s` has entered or
    /// left. Idempotent per step. One step's transitions are applied in
    /// ascending plan index — the order a scan of every event would
    /// apply them in.
    ///
    /// # Panics
    ///
    /// Panics if `t_s` is NaN or less than the previous call's `t_s`.
    pub fn apply(&mut self, t_s: f64, link: &mut Link) {
        assert!(
            t_s >= self.last_t_s,
            "fault plan time went backwards: {t_s} after {}",
            self.last_t_s
        );
        self.last_t_s = t_s;
        if t_s < self.next_change_s {
            return;
        }
        let events = &self.plan.events;
        let changes = &mut self.changes;
        changes.clear();
        self.live.retain(|&i| {
            let on = t_s < events[i].end_s;
            if !on {
                changes.push((i, false));
            }
            on
        });
        while let Some(&i) = self.order.get(self.cursor) {
            if events[i].start_s > t_s {
                break;
            }
            self.cursor += 1;
            // A window `t_s` jumped over entirely never fires.
            if t_s < events[i].end_s {
                changes.push((i, true));
                self.live.push(i);
            }
        }
        self.live.sort_unstable();
        changes.sort_unstable_by_key(|&(i, _)| i);
        for &(i, on) in changes.iter() {
            if on {
                self.injected += 1;
            }
            Self::set(link, events[i].kind, on);
        }
        let next_start = self
            .order
            .get(self.cursor)
            .map_or(f64::INFINITY, |&i| events[i].start_s);
        self.next_change_s = self
            .live
            .iter()
            .fold(next_start, |t, &i| t.min(events[i].end_s));
    }

    /// Total fault activations so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
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
    use sdb_testkit::{check, Gen};

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
    }

    /// The executor before it was indexed: every event checked on every
    /// step, transitions applied in plan order. The reference the indexed
    /// executor must match call for call.
    struct ScanExecutor {
        events: Vec<FaultEvent>,
        active: Vec<bool>,
        injected: u64,
    }

    impl ScanExecutor {
        fn new(plan: &FaultPlan) -> Self {
            Self {
                events: plan.events().to_vec(),
                active: vec![false; plan.len()],
                injected: 0,
            }
        }

        fn apply(&mut self, t_s: f64, link: &mut Link) {
            for (i, ev) in self.events.iter().enumerate() {
                let should = t_s >= ev.start_s && t_s < ev.end_s;
                if should == self.active[i] {
                    continue;
                }
                self.active[i] = should;
                if should {
                    self.injected += 1;
                }
                PlanExecutor::set(link, ev.kind, should);
            }
        }
    }

    fn link_with(n: usize) -> Link {
        let mut builder = PackBuilder::new();
        for i in 0..n {
            let chem = if i % 2 == 0 {
                Chemistry::Type2CoStandard
            } else {
                Chemistry::Type3CoPower
            };
            builder = builder.battery(BatterySpec::from_chemistry("b", chem, 2.0));
        }
        Link::ideal(builder.build())
    }

    /// Every piece of state a fault hook can touch, plus the whole pack.
    fn fault_state(link: &Link) -> String {
        let micro = link.micro();
        let per_battery: Vec<_> = (0..micro.battery_count())
            .map(|b| {
                (
                    micro.gauge_fault(b),
                    micro.cells()[b].fault_resistance_mult().to_bits(),
                    micro.battery_present(b),
                )
            })
            .collect();
        format!(
            "drop={} dup={} latency={:?} stale={:?} batteries={per_battery:?} \
             throttle={:?} pack={:?}",
            link.fault_drop_per_mille(),
            link.fault_dup_per_mille(),
            link.fault_latency(),
            link.stale_status(),
            micro.thermal_throttle(),
            micro.snapshot().to_bytes(),
        )
    }

    /// Drives the indexed executor and the scan against two identical
    /// links over a time grid of `dt_s` steps from `t0_s` (with repeated
    /// times mixed in) and compares them after every `apply`.
    fn assert_matches_scan(g: &mut Gen, plan: &FaultPlan, n: usize, horizon_s: f64) {
        let dt_s = g.pick(&[15.0, 60.0, 317.0]);
        let t0_s = g.pick(&[0.0, 50.0]);
        let mut exec = PlanExecutor::new(plan.clone());
        let mut scan = ScanExecutor::new(plan);
        let (mut a, mut b) = (link_with(n), link_with(n));
        let mut t_s = t0_s;
        let mut step = 0;
        while t_s <= horizon_s + dt_s {
            exec.apply(t_s, &mut a);
            scan.apply(t_s, &mut b);
            assert_eq!(exec.injected(), scan.injected, "step {step} t={t_s}");
            assert_eq!(fault_state(&a), fault_state(&b), "t={t_s}");
            if !g.chance(0.2) {
                a.step(0.3, 0.0, dt_s);
                b.step(0.3, 0.0, dt_s);
                t_s += dt_s;
            }
            step += 1;
        }
    }

    /// A random event on one of few targets: overlapping windows on the
    /// same target, `start_s` ties (minute grid), windows shorter than a
    /// step, empty or inverted windows and windows before the first step.
    fn random_event(g: &mut Gen, n: usize, horizon_s: f64) -> FaultEvent {
        let start_s = (g.f64_range(-600.0, horizon_s) / 60.0).floor() * 60.0;
        let dur_s = match g.below(4) {
            0 => g.f64_range(0.0, 20.0),
            1 => -g.f64_range(0.0, 60.0),
            _ => g.f64_range(0.0, horizon_s / 3.0),
        };
        let battery = g.usize_range(0, n);
        let kind = match g.below(10) {
            0 => FaultKind::LinkDrop {
                per_mille: g.u32_range(100, 800),
            },
            1 => FaultKind::LinkLatency {
                ticks: g.u32_range(1, 6),
            },
            2 => FaultKind::LinkDuplicate {
                per_mille: g.u32_range(100, 600),
            },
            3 => FaultKind::StaleStatus,
            4 => FaultKind::GaugeStuck { battery },
            5 => FaultKind::GaugeBiasRamp {
                battery,
                amps_per_hour: g.f64_range(0.1, 1.0),
            },
            6 => FaultKind::GaugeQuantization {
                battery,
                lsb_scale: g.f64_range(10.0, 200.0),
            },
            7 => FaultKind::DcirGrowth {
                battery,
                mult: g.f64_range(1.5, 4.0),
            },
            8 => FaultKind::Detach { battery },
            _ => FaultKind::ThermalTrip {
                limit_c: g.f64_range(25.0, 35.0),
            },
        };
        FaultEvent {
            start_s,
            end_s: start_s + dur_s,
            kind,
        }
    }

    #[test]
    fn indexed_executor_matches_the_scan_on_generated_plans() {
        check(48, 0x91A7, |g| {
            let n = g.usize_range(1, 4);
            let horizon_s = g.f64_range(1.0, 6.0) * 3600.0;
            let intensity = g.f64_range(0.1, 1.0);
            let plan = FaultPlan::generate(g.below(u64::MAX), horizon_s, intensity, n);
            assert_matches_scan(g, &plan, n, horizon_s);
        });
    }

    #[test]
    fn indexed_executor_matches_the_scan_on_unsorted_and_subset_plans() {
        check(48, 0x5C4E, |g| {
            let n = g.usize_range(1, 4);
            let horizon_s = g.f64_range(0.5, 3.0) * 3600.0;
            let plan = if g.chance(0.5) {
                let events = g.vec_with(0..40, |g| random_event(g, n, horizon_s));
                FaultPlan::from_events(events)
            } else {
                let full = FaultPlan::generate(g.below(u64::MAX), horizon_s, 1.0, n);
                let keep: Vec<bool> = (0..full.len()).map(|_| g.chance(0.6)).collect();
                full.subset(&keep)
            };
            assert_matches_scan(g, &plan, n, horizon_s);
        });
    }

    #[test]
    fn same_step_transitions_apply_in_plan_order() {
        // Two gauge faults on one battery, listed out of start order: at
        // t = 60 the first one ends and the second is already live, so
        // the end of event 0 clears event 1's fault (the same `set` calls
        // a full scan makes).
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                start_s: 0.0,
                end_s: 60.0,
                kind: FaultKind::GaugeStuck { battery: 0 },
            },
            FaultEvent {
                start_s: 30.0,
                end_s: 120.0,
                kind: FaultKind::GaugeBiasRamp {
                    battery: 0,
                    amps_per_hour: 0.5,
                },
            },
        ]);
        let mut link = link_with(2);
        let mut exec = PlanExecutor::new(plan);
        exec.apply(30.0, &mut link);
        assert!(matches!(
            link.micro().gauge_fault(0),
            Some(GaugeFault::BiasRamp { .. })
        ));
        exec.apply(60.0, &mut link);
        assert_eq!(link.micro().gauge_fault(0), None);
        assert_eq!(exec.injected(), 2);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn decreasing_time_panics() {
        let plan = FaultPlan::generate(3, 3600.0, 1.0, 2);
        let mut link = link_with(2);
        let mut exec = PlanExecutor::new(plan);
        exec.apply(120.0, &mut link);
        exec.apply(60.0, &mut link);
    }
}
