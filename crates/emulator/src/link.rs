//! The OS ↔ microcontroller transport.
//!
//! The paper's prototype uses "a Bluetooth wireless connection to interface
//! between the microcontroller and the SDB runtime in the OS" (Section
//! 4.1); production hardware would use the power-management serial bus.
//! Either way the four APIs cross a message boundary that can delay or
//! drop commands. This module models that boundary deterministically so
//! failure-injection tests can exercise the runtime's robustness.

use crate::micro::Microcontroller;
use sdb_fuel_gauge::gauge::BatteryStatus;
use sdb_power_electronics::error::PowerError;
use std::collections::VecDeque;

/// A command sent from the OS runtime to the microcontroller.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `Charge(c1, ..., cN)`.
    Charge(Vec<f64>),
    /// `Discharge(d1, ..., dN)`.
    Discharge(Vec<f64>),
    /// `ChargeOneFromAnother(X, Y, W, T)`.
    ChargeOneFromAnother {
        /// Source battery index.
        from: usize,
        /// Destination battery index.
        to: usize,
        /// Transfer power, watts.
        power_w: f64,
        /// Transfer duration, seconds.
        duration_s: f64,
    },
    /// `QueryBatteryStatus()`.
    QueryBatteryStatus,
}

/// A response from the microcontroller.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Command accepted.
    Ack,
    /// Command rejected by the firmware.
    Nack(String),
    /// Status rows for `QueryBatteryStatus`.
    Status(Vec<BatteryStatus>),
}

/// Link traffic statistics.
///
/// Fault counters are incremented at the injection site — the moment the
/// fault is decided — never inside an observer-gated branch, so the stats
/// are identical whether or not an observer is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Commands accepted into the queue.
    pub sent: u64,
    /// Commands delivered to the firmware.
    pub delivered: u64,
    /// Commands dropped in transit.
    pub dropped: u64,
    /// Commands duplicated in transit (extra deliveries).
    pub duplicated: u64,
    /// `QueryBatteryStatus` responses served from a stale frozen snapshot.
    pub stale_served: u64,
}

/// Chaos-injected fault state for a link. All probabilistic decisions
/// draw from a dedicated [`sdb_rng::DetRng`], so a fault plan replays
/// bit-for-bit from its seed.
#[derive(Debug)]
struct LinkFaults {
    rng: sdb_rng::DetRng,
    /// Per-mille probability of dropping each sent command (1000 = the
    /// link is dark).
    drop_per_mille: u32,
    /// Per-mille probability of duplicating each sent command.
    dup_per_mille: u32,
    /// Delivery latency in ticks while a latency fault is active.
    latency_override: Option<u32>,
    /// Frozen status snapshot served for `QueryBatteryStatus` while a
    /// stale-status fault is active.
    stale_status: Option<Vec<BatteryStatus>>,
}

impl LinkFaults {
    fn new(seed: u64) -> Self {
        Self {
            rng: sdb_rng::DetRng::seed_from_u64(seed),
            drop_per_mille: 0,
            dup_per_mille: 0,
            latency_override: None,
            stale_status: None,
        }
    }
}

/// A link wrapping the microcontroller: lossless and without latency
/// until seeded faults ([`Link::seed_faults`], `set_fault_*`) drop,
/// duplicate or delay commands or freeze status replies.
#[derive(Debug)]
pub struct Link {
    micro: Microcontroller,
    /// Commands in flight: `(remaining delay steps, command)`.
    in_flight: VecDeque<(u32, Command)>,
    stats: LinkStats,
    /// Responses produced by delivered commands, in order.
    responses: VecDeque<Response>,
    /// Chaos-injected fault state (inert until configured).
    faults: LinkFaults,
}

impl Link {
    /// Wraps a microcontroller in a lossless zero-latency link.
    #[must_use]
    pub fn ideal(micro: Microcontroller) -> Self {
        Self {
            micro,
            in_flight: VecDeque::new(),
            stats: LinkStats::default(),
            responses: VecDeque::new(),
            faults: LinkFaults::new(0),
        }
    }

    /// Re-seeds the fault-decision RNG. Call once per device before
    /// activating probabilistic faults so campaigns replay bit-for-bit.
    pub fn seed_faults(&mut self, seed: u64) {
        self.faults = LinkFaults::new(seed);
    }

    /// Sets the per-mille probability of dropping each sent command
    /// (1000 = the link is completely dark).
    ///
    /// # Panics
    ///
    /// Panics if `per_mille > 1000`.
    pub fn set_fault_drop_per_mille(&mut self, per_mille: u32) {
        assert!(
            per_mille <= 1000,
            "drop per-mille out of range: {per_mille}"
        );
        self.faults.drop_per_mille = per_mille;
    }

    /// Sets the per-mille probability of duplicating each sent command.
    ///
    /// # Panics
    ///
    /// Panics if `per_mille > 1000`.
    pub fn set_fault_dup_per_mille(&mut self, per_mille: u32) {
        assert!(per_mille <= 1000, "dup per-mille out of range: {per_mille}");
        self.faults.dup_per_mille = per_mille;
    }

    /// Delays delivery by `ticks` steps while a latency fault is active
    /// (`None` restores immediate delivery).
    pub fn set_fault_latency(&mut self, ticks: Option<u32>) {
        self.faults.latency_override = ticks;
    }

    /// Activates (`true`) or clears (`false`) the stale-status fault.
    /// While active, every `QueryBatteryStatus` is answered from the
    /// snapshot frozen at activation time.
    pub fn set_fault_stale_status(&mut self, stale: bool) {
        self.faults.stale_status = if stale {
            Some(self.micro.query_battery_status())
        } else {
            None
        };
    }

    /// Whether a stale-status fault is currently active.
    #[must_use]
    pub fn stale_status_active(&self) -> bool {
        self.faults.stale_status.is_some()
    }

    /// The active drop fault's per-mille rate (0 = none).
    #[must_use]
    pub fn fault_drop_per_mille(&self) -> u32 {
        self.faults.drop_per_mille
    }

    /// The active duplication fault's per-mille rate (0 = none).
    #[must_use]
    pub fn fault_dup_per_mille(&self) -> u32 {
        self.faults.dup_per_mille
    }

    /// The active latency fault's override, in ticks.
    #[must_use]
    pub fn fault_latency(&self) -> Option<u32> {
        self.faults.latency_override
    }

    /// The snapshot a stale-status fault serves, frozen at activation.
    #[must_use]
    pub fn stale_status(&self) -> Option<&[BatteryStatus]> {
        self.faults.stale_status.as_deref()
    }

    /// Counts a fault at its injection site (unconditionally — the stats
    /// must not depend on whether anyone is watching), then reports it to
    /// the observer if one is attached.
    fn record_fault(
        counter: &mut u64,
        micro: &Microcontroller,
        make_description: impl Fn() -> String,
    ) {
        *counter += 1;
        let observer = micro.observer();
        if observer.wants_events() {
            observer.emit(sdb_observe::ObsEvent::FaultInjection {
                description: make_description(),
            });
        }
    }

    /// Sends a command; it is delivered after the active latency fault's
    /// delay, unless an injected drop fault eats it.
    pub fn send(&mut self, cmd: Command) {
        self.stats.sent += 1;
        // Chaos probabilistic drop. RNG draws happen only while the fault
        // is active, so clean runs stay bit-identical.
        if self.faults.drop_per_mille > 0
            && self.faults.rng.below(1000) < u64::from(self.faults.drop_per_mille)
        {
            let n = self.stats.sent;
            Self::record_fault(&mut self.stats.dropped, &self.micro, || {
                format!("link dropped command #{n} (chaos)")
            });
            return;
        }
        let latency = self.faults.latency_override.unwrap_or(0);
        // Chaos duplication: the command arrives twice.
        if self.faults.dup_per_mille > 0
            && self.faults.rng.below(1000) < u64::from(self.faults.dup_per_mille)
        {
            let n = self.stats.sent;
            Self::record_fault(&mut self.stats.duplicated, &self.micro, || {
                format!("link duplicated command #{n} (chaos)")
            });
            self.in_flight.push_back((latency, cmd.clone()));
        }
        self.in_flight.push_back((latency, cmd));
    }

    /// Advances the emulation one step, delivering due commands first.
    pub fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> crate::micro::StepReport {
        // Deliver everything whose delay has elapsed (in order).
        while let Some((delay, _)) = self.in_flight.front() {
            if *delay == 0 {
                let (_, cmd) = self.in_flight.pop_front().expect("checked front");
                let resp = self.apply(cmd);
                self.responses.push_back(resp);
                self.stats.delivered += 1;
            } else {
                break;
            }
        }
        for entry in &mut self.in_flight {
            entry.0 = entry.0.saturating_sub(1);
        }
        self.micro.step(load_w, external_w, dt_s)
    }

    fn apply(&mut self, cmd: Command) -> Response {
        let to_resp = |r: Result<(), PowerError>| match r {
            Ok(()) => Response::Ack,
            Err(e) => Response::Nack(e.to_string()),
        };
        match cmd {
            Command::Charge(ratios) => to_resp(self.micro.set_charge_ratios(&ratios)),
            Command::Discharge(ratios) => to_resp(self.micro.set_discharge_ratios(&ratios)),
            Command::ChargeOneFromAnother {
                from,
                to,
                power_w,
                duration_s,
            } => to_resp(
                self.micro
                    .charge_one_from_another(from, to, power_w, duration_s),
            ),
            Command::QueryBatteryStatus => Response::Status(self.query_battery_status_now()),
        }
    }

    /// Answers a status query immediately — from the frozen snapshot while
    /// a stale-status fault is active, otherwise from the live gauges.
    /// Both the queued `QueryBatteryStatus` path and the synchronous
    /// `SdbApi` path route through here so stale faults cover both.
    pub fn query_battery_status_now(&mut self) -> Vec<BatteryStatus> {
        if let Some(snapshot) = self.faults.stale_status.clone() {
            Self::record_fault(&mut self.stats.stale_served, &self.micro, || {
                "link served stale battery status (chaos)".to_owned()
            });
            return snapshot;
        }
        self.micro.query_battery_status()
    }

    /// Drains pending responses onto the end of `out`, in order. A caller
    /// that clears and reuses one buffer drains without allocating once
    /// the buffer has grown to its working size.
    pub fn drain_responses_into(&mut self, out: &mut Vec<Response>) {
        out.extend(self.responses.drain(..));
    }

    /// Traffic statistics.
    #[must_use]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The wrapped microcontroller (ground truth for scenario metrics).
    #[must_use]
    pub fn micro(&self) -> &Microcontroller {
        &self.micro
    }

    /// Mutable access for scenario setup.
    pub fn micro_mut(&mut self) -> &mut Microcontroller {
        &mut self.micro
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::PackBuilder;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;

    fn pack() -> Microcontroller {
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

    /// The responses pending on `link`, drained.
    fn take(link: &mut Link) -> Vec<Response> {
        let mut out = Vec::new();
        link.drain_responses_into(&mut out);
        out
    }

    #[test]
    fn ideal_link_applies_immediately() {
        let mut link = Link::ideal(pack());
        link.send(Command::Discharge(vec![1.0, 0.0]));
        link.step(3.0, 0.0, 60.0);
        assert!(link.micro().cells()[1].is_full());
        assert!(link.micro().cells()[0].soc() < 1.0);
        assert_eq!(take(&mut link), vec![Response::Ack]);
    }

    #[test]
    fn drain_into_appends_in_order_and_empties_the_queue() {
        let mut link = Link::ideal(pack());
        link.send(Command::Discharge(vec![0.5, 0.5]));
        link.send(Command::Discharge(vec![0.9, 0.9]));
        link.step(1.0, 0.0, 1.0);
        let mut out = vec![Response::Ack];
        link.drain_responses_into(&mut out);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[2], Response::Nack(_)));
        link.drain_responses_into(&mut out);
        assert_eq!(out.len(), 3, "queue was emptied");
    }

    #[test]
    fn latency_delays_application() {
        let mut link = Link::ideal(pack());
        link.set_fault_latency(Some(2));
        link.send(Command::Discharge(vec![1.0, 0.0]));
        // For two steps the default 50/50 split still applies.
        link.step(3.0, 0.0, 60.0);
        link.step(3.0, 0.0, 60.0);
        assert!(
            link.micro().cells()[1].soc() < 1.0,
            "default split still active"
        );
        let soc1_before = link.micro().cells()[1].soc();
        link.step(3.0, 0.0, 60.0);
        link.step(3.0, 0.0, 60.0);
        // After delivery battery 1 is no longer discharged (only
        // negligible self-discharge while idle).
        assert!((link.micro().cells()[1].soc() - soc1_before).abs() < 1e-5);
    }

    #[test]
    fn drops_lose_commands_deterministically() {
        // A coin-flip drop fault, seeded: the same commands are lost on
        // every replay (at seed 14, the second of three).
        for _ in 0..2 {
            let mut link = Link::ideal(pack());
            link.seed_faults(14);
            link.set_fault_drop_per_mille(500);
            link.send(Command::QueryBatteryStatus); // 1st: kept
            assert_eq!(link.stats().dropped, 0);
            link.send(Command::QueryBatteryStatus); // 2nd: dropped
            assert_eq!(link.stats().dropped, 1);
            link.send(Command::QueryBatteryStatus); // 3rd: kept
            link.step(0.1, 0.0, 1.0);
            let stats = link.stats();
            assert_eq!(stats.sent, 3);
            assert_eq!(stats.dropped, 1);
            assert_eq!(stats.delivered, 2);
            assert_eq!(take(&mut link).len(), 2);
        }
    }

    #[test]
    fn nack_on_bad_command() {
        let mut link = Link::ideal(pack());
        link.send(Command::Discharge(vec![0.9, 0.9]));
        link.step(0.1, 0.0, 1.0);
        match &take(&mut link)[0] {
            Response::Nack(msg) => assert!(msg.contains("sum")),
            other => panic!("expected Nack, got {other:?}"),
        }
    }

    #[test]
    fn query_returns_status_rows() {
        let mut link = Link::ideal(pack());
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        match &take(&mut link)[0] {
            Response::Status(rows) => assert_eq!(rows.len(), 2),
            other => panic!("expected Status, got {other:?}"),
        }
    }

    #[test]
    fn chaos_drop_darkens_the_link() {
        let mut link = Link::ideal(pack());
        link.seed_faults(42);
        link.set_fault_drop_per_mille(1000);
        for _ in 0..10 {
            link.send(Command::QueryBatteryStatus);
        }
        link.step(0.1, 0.0, 1.0);
        let stats = link.stats();
        assert_eq!(stats.sent, 10);
        assert_eq!(stats.dropped, 10);
        assert_eq!(stats.delivered, 0);
        assert!(take(&mut link).is_empty());
        // Restoring the link resumes delivery.
        link.set_fault_drop_per_mille(0);
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        assert_eq!(take(&mut link).len(), 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut link = Link::ideal(pack());
        link.seed_faults(7);
        link.set_fault_dup_per_mille(1000);
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        let stats = link.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.delivered, 2);
        assert_eq!(take(&mut link).len(), 2);
    }

    #[test]
    fn latency_fault_overrides_base_latency() {
        let mut link = Link::ideal(pack());
        link.set_fault_latency(Some(3));
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        assert!(take(&mut link).is_empty(), "still in flight");
        link.step(0.1, 0.0, 1.0);
        link.step(0.1, 0.0, 1.0);
        link.step(0.1, 0.0, 1.0);
        assert_eq!(take(&mut link).len(), 1);
        // Clearing the fault restores immediate delivery.
        link.set_fault_latency(None);
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        assert_eq!(take(&mut link).len(), 1);
    }

    #[test]
    fn stale_status_serves_frozen_snapshot() {
        let mut link = Link::ideal(pack());
        link.set_fault_stale_status(true);
        assert!(link.stale_status_active());
        // Drain the pack: the live gauges move, the snapshot must not.
        for _ in 0..30 {
            link.step(5.0, 0.0, 60.0);
        }
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        match &take(&mut link)[0] {
            Response::Status(rows) => {
                assert!(rows[0].soc > 0.95, "stale soc {}", rows[0].soc);
            }
            other => panic!("expected Status, got {other:?}"),
        }
        assert_eq!(link.stats().stale_served, 1);
        let live = link.micro().query_battery_status();
        assert!(
            live[0].soc < 0.9,
            "live gauges kept moving: {}",
            live[0].soc
        );
        // Thawing serves live rows again.
        link.set_fault_stale_status(false);
        link.send(Command::QueryBatteryStatus);
        link.step(0.1, 0.0, 1.0);
        match &take(&mut link)[0] {
            Response::Status(rows) => assert!(rows[0].soc < 0.9),
            other => panic!("expected Status, got {other:?}"),
        }
    }

    #[test]
    fn fault_stats_count_without_an_observer() {
        // Regression: fault counters must be incremented at the injection
        // site, not inside the observer-gated emit branch. The packs here
        // have no observer attached (Observer::disabled() default), yet
        // every fault class must still count.
        let mut link = Link::ideal(pack());
        link.seed_faults(5); // drops the 1st and 3rd of 4
        link.set_fault_drop_per_mille(500);
        link.set_fault_dup_per_mille(1000);
        link.set_fault_stale_status(true);
        for _ in 0..4 {
            link.send(Command::QueryBatteryStatus);
        }
        link.step(0.1, 0.0, 1.0);
        let stats = link.stats();
        assert_eq!(stats.sent, 4);
        assert_eq!(stats.dropped, 2, "drops counted unobserved");
        assert_eq!(stats.duplicated, 2, "duplications counted unobserved");
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.stale_served, 4, "stale serves counted unobserved");
    }

    #[test]
    fn commands_apply_in_order() {
        let mut link = Link::ideal(pack());
        link.send(Command::Discharge(vec![1.0, 0.0]));
        link.send(Command::Discharge(vec![0.0, 1.0]));
        link.step(3.0, 0.0, 60.0);
        // Last command wins: battery 1 discharges.
        assert!(link.micro().cells()[0].is_full());
        assert!(link.micro().cells()[1].soc() < 1.0);
    }
}
