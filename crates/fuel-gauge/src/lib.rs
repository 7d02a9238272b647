//! Fuel-gauge substrate for Software Defined Batteries.
//!
//! The paper's prototype includes "a custom fuel gauge module that consists
//! of a coulomb counter and a controller" (Section 4.1) — one per battery,
//! since heterogeneous cells cannot share a gauge (Section 6). This crate
//! models that module:
//!
//! * `coulomb` — a coulomb counter with ADC quantization, offset drift,
//!   and finite sample rate.
//! * [`gauge`] — the per-battery fuel gauge: state-of-charge estimation by
//!   coulomb counting with OCV recalibration at rest, measured terminal
//!   voltage/current, and measurement-based cycle counting. This is the
//!   data source behind the paper's `QueryBatteryStatus()` API.

//! # Example
//!
//! ```
//! use sdb_battery_model::{BatterySpec, Chemistry};
//! use sdb_fuel_gauge::gauge::{FuelGauge, GaugeConfig};
//!
//! let spec = BatterySpec::from_chemistry("cell", Chemistry::Type2CoStandard, 2.0);
//! let mut gauge = FuelGauge::new(spec, 1.0, GaugeConfig::default());
//! // One hour at 1 A: the gauge tracks the 0.5 SoC drop by coulomb
//! // counting.
//! for _ in 0..3600 {
//!     gauge.sample(3.7, 1.0, 1.0);
//! }
//! assert!((gauge.soc() - 0.5).abs() < 0.01);
//! ```

mod coulomb;
pub mod gauge;

pub use coulomb::CoulombCounter;
pub use gauge::{BatteryStatus, FuelGauge, GaugeConfig, GaugeFault};
