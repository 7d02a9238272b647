//! Electrochemical battery simulation substrate for Software Defined Batteries.
//!
//! This crate is the bottom layer of the SDB reproduction. It provides:
//!
//! * [`curves`] — monotone piecewise-linear curves used for open-circuit
//!   potential (OCP) vs state of charge (SoC) and DC internal resistance
//!   (DCIR) vs SoC, including the derivative queries the RBL policy needs.
//! * [`chemistry`] — the paper's four Li-ion chemistry classes (Figure 1a)
//!   with their per-axis capability scores and physical constants.
//! * [`spec`] — [`spec::BatterySpec`], a full parameterization of one cell.
//! * [`thevenin`] — the production 1-RC Thevenin cell model the paper's
//!   emulator uses (Figure 8a), with heat-loss and efficiency accounting.
//! * [`mod@reference`] — a richer 2-RC + nonlinear-overpotential cell standing in
//!   for the lab cyclers, used to validate the Thevenin model (Figure 10).
//! * [`aging`] — cycle counting exactly per the paper's rules and a
//!   C-rate-dependent capacity-fade law (Figures 1b and 11c).
//! * [`thermal`] — a lumped thermal model tracking cell temperature from
//!   resistive heat.
//! * [`library`] — the 15 modeled batteries plus the scenario cells used in
//!   Section 5 of the paper.
//!
//! # Conventions
//!
//! All physical quantities are `f64` in SI-ish units with suffixed names:
//! volts (`_v`), amps (`_a`), ohms (`_ohm`), watts (`_w`), joules (`_j`),
//! amp-hours (`_ah`), seconds (`_s`). **Positive current discharges the
//! cell**; negative current charges it. State of charge is a fraction in
//! `[0, 1]`.
//!
//! # Example
//!
//! ```
//! use sdb_battery_model::thevenin::TheveninCell;
//! use sdb_battery_model::{BatterySpec, Chemistry};
//!
//! // A standard high-energy-density phone cell (paper Type 2), 3.0 Ah.
//! let spec = BatterySpec::from_chemistry("high-energy", Chemistry::Type2CoStandard, 3.0);
//! let mut cell = TheveninCell::new(spec);
//! assert!((cell.soc() - 1.0).abs() < 1e-12);
//!
//! // Discharge at 1C for one minute.
//! let out = cell.step_current(3.0, 60.0).unwrap();
//! assert!(out.terminal_v > 2.5 && out.terminal_v < 4.4);
//! assert!(cell.soc() < 1.0);
//! ```

pub mod aging;
pub mod chemistry;
pub mod curves;
pub mod error;
pub mod library;
pub mod reference;
pub mod spec;
pub mod thermal;
pub mod thevenin;

pub use chemistry::Chemistry;
pub use curves::{Curve, CurveCursor};
pub use spec::BatterySpec;
