//! Power-electronics substrate for Software Defined Batteries.
//!
//! The paper's SDB hardware (Section 3.2, Figure 4) consists of a modified
//! switched-mode regulator that multiplexes *energy packets* across
//! batteries on the discharge side, and a set of synchronous reversible
//! buck regulators on the charge side. The prototype is evaluated with four
//! microbenchmarks (Figure 6). We have no board, so this crate models the
//! circuits at component level:
//!
//! * [`regulator`] — switched-mode regulator efficiency/loss models (buck,
//!   buck-boost, synchronous reversible buck) and charging-efficiency
//!   curves (Figure 6c).
//! * [`circuits`] — the naive and SDB discharge/charge circuit topologies,
//!   their loss curves (Figure 6a, over the crate-private `switch` module's
//!   FET/ideal-diode conduction paths) and charge-side regulator counts
//!   (`O(N²)` vs `O(N)`).
//! * [`measurement`] — sense-resistor/ADC/DAC quantization models producing
//!   the setpoint-vs-measured errors of Figures 6b and 6d; its
//!   [`ShareChain`](measurement::ShareChain) is the duty-cycled battery
//!   switch that realizes fine-grained battery sharing (Figures 4a/4c).
//!
//! Units follow the workspace convention: volts `_v`, amps `_a`, ohms
//! `_ohm`, watts `_w`, seconds `_s`.
//!
//! # Example
//!
//! ```
//! use sdb_power_electronics::measurement::ShareChain;
//! use sdb_power_electronics::{Regulator, RegulatorKind};
//!
//! // The SDB discharge trick: the switch's duty cycle sets the share of the
//! // load current each battery supplies, to within its timer grid and
//! // sensor mismatch.
//! let switch = ShareChain::prototype();
//! let share = switch.realized_share(0.25).unwrap();
//! assert!((share - 0.25).abs() < 1e-3);
//!
//! // The reversible buck that collapses the charging matrix to O(N).
//! let reg = Regulator::typical(RegulatorKind::SynchronousReversibleBuck, 3.0);
//! assert!(reg.efficiency(1.0, 3.8).unwrap() > 0.9);
//! ```

pub mod circuits;
pub mod error;
pub mod measurement;
pub mod regulator;
mod switch;

pub use regulator::{Regulator, RegulatorKind};
