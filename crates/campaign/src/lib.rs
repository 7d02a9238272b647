//! `sdb-campaign`: the resumable scenario × chemistry × fault × policy ×
//! engine matrix orchestrator.
//!
//! The repo's subsystems each test themselves in isolation — fleet
//! determinism, chaos invariants, policy head-to-heads, SoA bounds. This
//! crate composes them into one differential instrument: a declarative
//! [`CampaignSpec`] expands into a cell matrix, every cell runs as a pure
//! function of `(spec, cell key, device)` on a sharded deterministic
//! runner, and the folded [`CampaignReport`] is **byte-identical at any
//! thread count** — so a single digest line is enough for CI to assert
//! that nothing anywhere in the stack drifted.
//!
//! * [`spec`] — the five axes and their named presets; cell seeds derive
//!   from the engine-free cell *key*, so engine-paired cells share
//!   workloads/fault plans and a pruned re-run reproduces full-matrix
//!   digests.
//! * [`runner`] — the sharded runner with [`PackSnapshot`]-based
//!   checkpointing: a killed campaign resumes mid-matrix and produces the
//!   identical final report ([`runner::CampaignOptions::stop_after`]
//!   makes the interruption point deterministic for the property test).
//!   A unit whose [`runner::driver`] ignores the engine is simulated once
//!   and its record shared across the engine axis; a unit that ignores
//!   its device seed as well shares device 0's record
//!   ([`runner::Sources`]).
//! * `report` — device → cell → matrix digest folding plus text/JSON/
//!   HTML renders.
//! * [`baseline`] — committed golden digests and the differential
//!   comparison ([`baseline::compare`]).
//! * `minimize` — on divergence, delta-debugs the axis space over the
//!   recorded matrix, isolates the first divergent device, re-runs it to
//!   confirm, and emits a ready-to-run single-cell repro command; plus
//!   fault-plan ddmin for invariant-violation triage.
//!
//! [`PackSnapshot`]: sdb_emulator::PackSnapshot
//!
//! # Quickstart
//!
//! ```
//! use sdb_campaign::{run_campaign, CampaignOptions, CampaignRun, CampaignSpec};
//!
//! let spec = CampaignSpec {
//!     scenarios: vec!["standby".into()],
//!     chemistries: vec!["co".into()],
//!     faults: vec!["none".into()],
//!     policies: vec!["greedy".into()],
//!     engines: vec!["scalar".into(), "soa".into()],
//!     hours: 0.25,
//!     devices_per_cell: 1,
//!     ..CampaignSpec::default()
//! };
//! let run = run_campaign(&spec, &CampaignOptions::default()).unwrap();
//! let CampaignRun::Complete(report) = run else { panic!("no stop budget set") };
//! assert_eq!(report.cells.len(), 2);
//! ```

pub mod baseline;
pub mod checkpoint;
mod minimize;
mod report;
pub mod runner;
pub mod spec;

pub use baseline::{compare, Baseline};
pub use minimize::{minimize, Culprit};
pub use report::{CampaignReport, CellOutcome, DeviceRecord};
pub use runner::{run_campaign, run_cell_device, CampaignOptions, CampaignRun};
pub use spec::{CampaignSpec, Cell, CellPolicy};
