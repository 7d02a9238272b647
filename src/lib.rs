//! # Software Defined Batteries (SDB)
//!
//! A full reproduction of *Software Defined Batteries* (Badam et al.,
//! SOSP 2015) as a Rust library: heterogeneous battery packs whose
//! charging and discharging are scheduled by an OS-level runtime through
//! four hardware APIs.
//!
//! The workspace is layered bottom-up; this facade re-exports every layer
//! that programs name:
//!
//! * [`battery_model`] — electrochemical substrate: Thevenin cells,
//!   chemistry library, aging, thermal models (paper §2, §4.3).
//! * `sdb-power-electronics` (not re-exported: only the emulator uses
//!   it) — regulators, switching circuits and measurement chains (paper
//!   §3.2).
//! * [`fuel_gauge`] — coulomb counting and SoC estimation (paper §2.2).
//! * [`emulator`] — the SDB "hardware": microcontroller, profiles, pack,
//!   lossy OS link (paper §4).
//! * [`workloads`] — device power models, the turbo CPU model, and seeded
//!   trace generators (paper §4.3, §5).
//! * [`core`] — the SDB Runtime: CCB/RBL metrics and policies, directive
//!   parameters, the scheduler, and the Section 5 scenarios.
//! * [`observe`] — flight-recorder observability: a registry of exact
//!   counters with Prometheus/JSON exporters, and the structured event
//!   bus every layer emits into.
//! * [`fleet`] — the sharded multi-device fleet simulation engine:
//!   deterministic population sampling, parallelism through
//!   [`prof::shard_map`], and fleet reports that are bit-identical for
//!   any thread count.
//! * [`chaos`] — deterministic fault injection: seeded fault plans, the
//!   step-hooked invariant checker, and invariant-checked runs.
//! * [`trace`] — causal trace capture and analysis: JSONL and Chrome
//!   `trace_event` (Perfetto) export of the event stream, trace replay,
//!   and a declarative anomaly/health-rule engine behind `sdb analyze`.
//! * [`policy`] — plan-based lookahead policies: load forecasting over
//!   the behavior models, a receding-horizon directive planner, the
//!   perfect-forecast oracle upper bound, and the greedy / planned /
//!   oracle head-to-head corpus behind `sdb policy`.
//! * [`prof`] — the always-on hierarchical phase profiler: scoped timers
//!   into a preallocated slot table, deterministic call counts
//!   quarantined from sampled wall-clock facts, per-shard and per-cohort
//!   attribution, and the renderers behind `sdb profile`.
//! * [`campaign`] — the resumable scenario × chemistry × fault × policy ×
//!   engine matrix orchestrator behind `sdb campaign`, the one
//!   fault-injection sweep: deterministic sharded cell runner, snapshot-based checkpoints, committed golden
//!   baselines with differential comparison, and culprit-cell
//!   minimization that emits a ready-to-run repro command.
//!
//! ## Quickstart
//!
//! Build a hybrid pack, hand it to the runtime, and run a workload:
//!
//! ```
//! use sdb::battery_model::{BatterySpec, Chemistry};
//! use sdb::core::policy::DischargeDirective;
//! use sdb::core::runtime::SdbRuntime;
//! use sdb::core::scheduler::{run_trace, SimOptions};
//! use sdb::emulator::PackBuilder;
//! use sdb::workloads::Trace;
//!
//! let mut pack = PackBuilder::new()
//!     .battery(BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 3.0))
//!     .battery(BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 1.5))
//!     .build();
//!
//! let mut runtime = SdbRuntime::new(2);
//! runtime.set_discharge_directive(DischargeDirective::new(0.9));
//!
//! let result = run_trace(
//!     &mut pack,
//!     &mut runtime,
//!     &Trace::constant(5.0, 1800.0),
//!     &SimOptions::default(),
//! );
//! assert!(result.unmet_j < 1e-6);
//! println!("delivered {:.1} kJ, losses {:.1} J",
//!     result.supplied_j / 1e3, result.total_loss_j());
//! ```
//!
//! See `examples/` for the paper's scenarios end-to-end and the
//! `sdb-bench` crate for the full figure-regeneration harness.

pub use sdb_battery_model as battery_model;
pub use sdb_campaign as campaign;
pub use sdb_chaos as chaos;
pub use sdb_core as core;
pub use sdb_emulator as emulator;
pub use sdb_fleet as fleet;
pub use sdb_fuel_gauge as fuel_gauge;
pub use sdb_observe as observe;
pub use sdb_policy as policy;
pub use sdb_prof as prof;
pub use sdb_workloads as workloads;
