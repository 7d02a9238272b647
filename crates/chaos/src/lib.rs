//! Deterministic chaos engine for the SDB stack.
//!
//! Reliability is the unstated premise of the paper's runtime: policies
//! only help if the stack keeps its invariants when hardware misbehaves.
//! This crate provides the three pieces to test that:
//!
//! * [`plan`] — seed-driven [`FaultPlan`]s over ten fault classes (lossy
//!   link, degraded gauges, cell/pack faults), bit-for-bit replayable,
//!   applied to a live [`sdb_emulator::link::Link`] by a [`PlanExecutor`].
//! * [`invariant`] — a step-hooked [`InvariantChecker`] asserting energy
//!   conservation, SoC bounds, ratio validity, the safety envelope, and
//!   wear monotonicity; collects violations instead of panicking so
//!   campaigns can tabulate them.
//! * [`campaign`] — sharded multi-device chaos campaigns
//!   ([`run_campaign`]) whose reports are byte-identical for any thread
//!   count, with per-fault-class outcome tables.
//!
//! # Quickstart
//!
//! ```
//! use sdb_chaos::{run_campaign, CampaignSpec};
//!
//! let spec = CampaignSpec { devices: 3, horizon_s: 900.0, ..CampaignSpec::default() };
//! let report = run_campaign(&spec, 2, None).unwrap();
//! assert_eq!(report.total_violations, 0, "{}", report.render_text());
//! ```

pub mod campaign;
pub mod harness;
pub mod invariant;
pub mod plan;

pub use campaign::{run_campaign, CampaignReport, CampaignSpec, ChaosOutcome, ClassRow};
pub use harness::{checked_run_charge_session, checked_run_trace};
pub use invariant::{InvariantChecker, InvariantConfig, InvariantReport, Violation};
pub use plan::{FaultEvent, FaultKind, FaultPlan, PlanExecutor, FAULT_CLASSES};
