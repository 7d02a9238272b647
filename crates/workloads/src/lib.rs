//! Device power models and workload trace generation.
//!
//! The paper instruments three development platforms — a Core i5 2-in-1
//! tablet, a Snapdragon 800 phone, and a Snapdragon 200 watch — with 100 Hz
//! power meters and feeds the measured draw into the battery emulator
//! (Section 4.3). We have no instrumented hardware, so this crate generates
//! synthetic traces with the same structure and magnitudes:
//!
//! * [`device`] — per-platform component power models (idle, display,
//!   radio, GPS, CPU).
//! * [`cpu`] — the turbo-capable CPU model with the three Intel power
//!   levels (Section 5.1's discharging scenario) and latency/energy
//!   outcomes for network- vs compute-bottlenecked tasks (Figure 12).
//! * [`traces`] — seeded trace generators for the Section 5 scenarios: the
//!   watch day with its hour-9 run (Figure 13), tablet application mixes,
//!   2-in-1 docked sessions (Figure 14), and charging sessions.
//! * [`behavior`] — Markov-chain user simulation producing *varied*
//!   multi-day usage, for exercising the learning components.
//! * `spec` — [`WorkloadSpec`], the declarative trace family a device
//!   runs, and the named workload catalog the CLI, the fleet, the campaign
//!   and the policy corpus build traces from.

//! # Example
//!
//! ```
//! use sdb_workloads::traces::watch_day;
//!
//! let day = watch_day(13, Some(9.0));
//! assert_eq!(day.duration_s(), 86_400.0);
//! // The run hour dominates the day's draw.
//! assert!(day.peak_load_w() > 5.0 * day.mean_load_w());
//! ```

pub mod behavior;
pub mod cpu;
pub mod device;
mod spec;
pub mod traces;

pub use device::Activity;
pub use spec::WorkloadSpec;
pub use traces::Trace;
