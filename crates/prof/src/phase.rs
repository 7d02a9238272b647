//! The closed set of profiled phases.
//!
//! Phases are a fixed enum rather than free-form strings so the slot
//! table can be preallocated, child lookup is an array index, and the
//! rendered tree has a stable, deterministic order (enum order) at any
//! thread count.

/// One profiled phase of the stack. Enum order is render order.
///
/// The set spans every layer the profiler instruments: run drivers
/// (`FleetRun`/`PolicyRun`/`CampaignRun`), per-device work (`DeviceRun`/
/// `CampaignCell`), the scheduler loop (`TraceStep` and its `PolicyPlan`/
/// `RuntimeTick`/`LinkStep` sub-phases, plus `PlannerRollout` under the
/// planner and `PolicySolve` under the tick), the emulator hot loop
/// (`MicroStep` and its five internal phases), and report assembly
/// (`ReportMerge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// A whole `run_fleet` invocation (main thread: orchestration).
    FleetRun = 0,
    /// A whole policy corpus head-to-head invocation.
    PolicyRun = 1,
    /// One device's full simulation (worker thread).
    DeviceRun = 2,
    /// One resampled scheduler step (the sampling gate advances here).
    TraceStep = 3,
    /// Policy `plan()` + `commit_plan` inside a trace step.
    PolicyPlan = 4,
    /// One shooting-planner candidate rollout.
    PlannerRollout = 5,
    /// `SdbRuntime::tick` inside a trace step.
    RuntimeTick = 6,
    /// Link/heartbeat traffic in the linked scheduler driver.
    LinkStep = 7,
    /// One `Microcontroller::step` (gates itself when standalone).
    MicroStep = 8,
    /// OCV/DCIR curve evaluation + discharge capability planning.
    CurveEval = 9,
    /// Share allocation and RC-state discharge application.
    RcState = 10,
    /// Surplus charging + battery-to-battery transfer.
    ChargeTransfer = 11,
    /// Fuel-gauge sampling + rest bookkeeping.
    GaugeUpdate = 12,
    /// Staged observer event + step-sample emission.
    ObserverEmit = 13,
    /// Deterministic shard merge into the fleet report.
    ReportMerge = 14,
    /// One scalar sync step of the SoA fleet engine (the hybrid
    /// driver's per-tick path between fast-forward stretches).
    SoaStep = 15,
    /// One closed-form multi-tick advance of a quiescent SoA lane.
    FastForward = 16,
    /// A whole `sdb campaign` matrix invocation (main thread:
    /// orchestration, checkpoint I/O, baseline diffing).
    CampaignRun = 17,
    /// One matrix cell's device simulation (worker thread; wraps the
    /// cell's scalar, SoA, or linked-chaos driver).
    CampaignCell = 18,
    /// The discharge policy evaluation inside `SdbRuntime::tick`, run
    /// only when the no-push certificate declines.
    PolicySolve = 19,
}

/// Number of distinct phases (size of per-slot child tables).
pub const PHASE_COUNT: usize = 20;

/// Every phase in enum (render) order.
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::FleetRun,
    Phase::PolicyRun,
    Phase::DeviceRun,
    Phase::TraceStep,
    Phase::PolicyPlan,
    Phase::PlannerRollout,
    Phase::RuntimeTick,
    Phase::LinkStep,
    Phase::MicroStep,
    Phase::CurveEval,
    Phase::RcState,
    Phase::ChargeTransfer,
    Phase::GaugeUpdate,
    Phase::ObserverEmit,
    Phase::ReportMerge,
    Phase::SoaStep,
    Phase::FastForward,
    Phase::CampaignRun,
    Phase::CampaignCell,
    Phase::PolicySolve,
];

impl Phase {
    /// Stable snake_case name used in every export surface (text tree,
    /// JSON, collapsed flamegraph stacks, and the micro-step bench's
    /// phase-share lines).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::FleetRun => "fleet_run",
            Phase::PolicyRun => "policy_run",
            Phase::DeviceRun => "device_run",
            Phase::TraceStep => "trace_step",
            Phase::PolicyPlan => "policy_plan",
            Phase::PlannerRollout => "planner_rollout",
            Phase::RuntimeTick => "runtime_tick",
            Phase::LinkStep => "link_step",
            Phase::MicroStep => "micro_step",
            Phase::CurveEval => "curve_eval",
            Phase::RcState => "rc_state",
            Phase::ChargeTransfer => "charge_transfer",
            Phase::GaugeUpdate => "gauge_update",
            Phase::ObserverEmit => "observer_emit",
            Phase::ReportMerge => "report_merge",
            Phase::SoaStep => "soa_step",
            Phase::FastForward => "fast_forward",
            Phase::CampaignRun => "campaign_run",
            Phase::CampaignCell => "campaign_cell",
            Phase::PolicySolve => "policy_solve",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i, "discriminants must match array order");
            assert!(names.insert(p.name()), "duplicate name {}", p.name());
        }
        assert_eq!(names.len(), PHASE_COUNT);
    }
}
