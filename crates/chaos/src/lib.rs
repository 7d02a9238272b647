//! Deterministic chaos engine for the SDB stack.
//!
//! Reliability is the unstated premise of the paper's runtime: policies
//! only help if the stack keeps its invariants when hardware misbehaves.
//! This crate provides the pieces to test that:
//!
//! * `plan` — seed-driven [`FaultPlan`]s over ten fault classes (lossy
//!   link, degraded gauges, cell/pack faults), bit-for-bit replayable,
//!   applied to a live [`sdb_emulator::link::Link`] by a [`PlanExecutor`].
//! * `invariant` — a step-hooked [`InvariantChecker`] asserting energy
//!   conservation, SoC bounds, ratio validity, the safety envelope, and
//!   wear monotonicity; collects violations instead of panicking so
//!   campaigns can tabulate them.
//! * `harness` — invariant-checked drop-ins for the scheduler entry
//!   points.
//!
//! Fault-injection sweeps over many devices are `sdb-campaign` matrices:
//! their fault axis draws one [`FaultPlan`] per faulted device.
//!
//! # Quickstart
//!
//! ```
//! use sdb_chaos::FaultPlan;
//!
//! // A plan is a pure function of its seed, horizon, intensity and
//! // battery count.
//! let plan = FaultPlan::generate(42, 2.0 * 3600.0, 0.7, 2);
//! assert!(!plan.is_empty());
//! assert_eq!(plan, FaultPlan::generate(42, 2.0 * 3600.0, 0.7, 2));
//! ```

mod harness;
mod invariant;
mod plan;

pub use harness::{checked_run_charge_session, checked_run_trace};
pub use invariant::{InvariantChecker, InvariantReport, Violation};
pub use plan::{FaultEvent, FaultKind, FaultPlan, PlanExecutor};
