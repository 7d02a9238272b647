//! The SDB hardware emulator.
//!
//! This crate stands in for the paper's prototype board (Section 4.1): the
//! ARM microcontroller, the switching/charging circuitry, the per-battery
//! fuel gauges, and the Bluetooth link to the OS. It wires the
//! battery-model and power-electronics substrates into a device the SDB
//! Runtime can drive through exactly the paper's four APIs:
//!
//! * `Charge(c1..cN)` — [`micro::Microcontroller::set_charge_ratios`]
//! * `Discharge(d1..dN)` — [`micro::Microcontroller::set_discharge_ratios`]
//! * `ChargeOneFromAnother(X, Y, W, T)` —
//!   [`micro::Microcontroller::charge_one_from_another`]
//! * `QueryBatteryStatus()` — [`micro::Microcontroller::query_battery_status`]
//!
//! Modules:
//!
//! * [`profile`] — CC-CV charging profiles with dynamic selection
//!   ("multiple charge profiles", Figure 4c).
//! * [`pack`] — heterogeneous battery pack assembly.
//! * [`micro`] — the microcontroller: ratio enforcement, charging,
//!   battery-to-battery transfer, status reporting, and per-step energy
//!   accounting.
//! * [`link`] — the OS↔controller transport with injectable latency and
//!   drops (the prototype used Bluetooth).
//! * [`acpi`] — the legacy single-logical-battery view (ACPI `_BST`-style)
//!   for unmodified OS components (paper §2.2).
//! * `snapshot` — versioned, bit-exact pack state capture/restore
//!   ([`PackSnapshot`]) for planner rollouts, campaign
//!   checkpointing, and the SoA engine.
//! * `soa` — structure-of-arrays cohort state with a quiescence
//!   classifier and closed-form fast-forward for the batched fleet engine.

//! # Example
//!
//! ```
//! use sdb_battery_model::{BatterySpec, Chemistry};
//! use sdb_emulator::PackBuilder;
//!
//! let mut micro = PackBuilder::new()
//!     .battery(BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0))
//!     .battery(BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0))
//!     .build();
//! micro.set_discharge_ratios(&[0.3, 0.7]).unwrap();
//! let report = micro.step(5.0, 0.0, 60.0);
//! assert!(report.unmet_w < 1e-9);
//! assert_eq!(micro.query_battery_status().len(), 2);
//! ```

pub mod acpi;
pub mod link;
pub mod micro;
pub mod pack;
pub mod profile;
mod snapshot;
mod soa;

pub use link::{Command, Link, LinkStats, Response};
pub use micro::{Microcontroller, StepReport};
pub use pack::{BatterySlot, PackBuilder, PackConfig, PackTemplate};
pub use profile::{ChargingProfile, ProfileKind};
pub use snapshot::{fnv1a_64, PackSnapshot, TransferSnapshot, PACK_SNAPSHOT_VERSION};
pub use soa::{QuiescenceConfig, SoaCohort};
