//! `sdb-fleet`: the sharded, deterministic multi-device fleet simulation
//! engine.
//!
//! The paper evaluates SDB one device at a time; a production battery
//! runtime has to answer population questions — *what does this policy do
//! to the p95 depletion time across ten thousand heterogeneous handsets?*
//! This crate turns the single-device simulator into a fleet instrument:
//!
//! * [`spec`] — declarative fleet populations: weighted [`spec::CohortSpec`]s
//!   (pack template × workload × policy) sampled deterministically per
//!   device from a master seed via SplitMix64 stream derivation.
//! * `engine` — the parallel driver, [`run_fleet`]: devices are spread
//!   over workers by [`sdb_prof::shard_map`], each running the full
//!   simulation independently with a per-shard metrics registry (no
//!   cross-thread contention on the hot path).
//! * `report` — the deterministic merge: outcomes, in device order,
//!   are aggregated into a [`FleetReport`] (depletion-time
//!   percentiles, brownout rate, loss and wear distributions, per-cohort
//!   breakdowns, merged counter totals) that is **bit-identical for any
//!   thread count**.
//!
//! The engine can also capture the full device-tagged event stream
//! ([`RunOptions::capture_events`]) for serialization by `sdb-trace`.
//!
//! Determinism contract: `FleetReport` (and its JSON rendering) is a pure
//! function of `(FleetSpec, master seed)`. Wall-clock facts — thread
//! count, wall time, devices/sec — live in [`FleetRunStats`], never in
//! the report; its merged counter registry is exact at any thread count.
//! Per-phase timings come from `sdb profile`.
//!
//! # Example
//!
//! ```
//! use sdb_fleet::{run_fleet, spec::FleetSpec, RunOptions};
//!
//! let spec = FleetSpec::default_population(64, 42).with_hours(2.0);
//! let (report, stats, _) = run_fleet(&spec, &RunOptions::new(2)).unwrap();
//! assert_eq!(report.devices, 64);
//! assert!(stats.wall_s >= 0.0);
//! // Same spec, different shard count: bit-identical report.
//! let (again, _, _) = run_fleet(&spec, &RunOptions::new(1)).unwrap();
//! assert_eq!(report.to_json(), again.to_json());
//! ```

mod batch;
mod engine;
mod report;
pub mod spec;

pub use batch::EngineKind;
pub use engine::{run_fleet, run_fleet_with_engine, DeviceOutcome, FleetRunStats, RunOptions};
pub use report::{DistSummary, FleetReport};
pub use spec::FleetSpec;
