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
//! * [`switch`] — the FET/ideal-diode switch path and the weighted
//!   round-robin packet scheduler that implements fine-grained battery
//!   sharing (Figures 4a/4c), with duty-ratio quantization.
//! * [`circuits`] — the naive and SDB discharge/charge circuit topologies,
//!   their loss curves (Figure 6a) and charge-side regulator counts
//!   (`O(N²)` vs `O(N)`).
//! * [`measurement`] — sense-resistor/ADC/DAC quantization models producing
//!   the setpoint-vs-measured errors of Figures 6b and 6d.
//!
//! Units follow the workspace convention: volts `_v`, amps `_a`, ohms
//! `_ohm`, watts `_w`, seconds `_s`.
//!
//! # Example
//!
//! ```
//! use sdb_power_electronics::{PacketScheduler, Regulator, RegulatorKind};
//!
//! // The SDB discharge trick: energy packets drawn from batteries in a
//! // weighted round-robin.
//! let mut sched = PacketScheduler::new(&[0.25, 0.75], 16_384).unwrap();
//! for _ in 0..10_000 {
//!     sched.next_packet();
//! }
//! assert!(sched.max_share_error() < 1e-3);
//!
//! // The reversible buck that collapses the charging matrix to O(N).
//! let reg = Regulator::typical(RegulatorKind::SynchronousReversibleBuck, 3.0);
//! assert!(reg.efficiency(1.0, 3.8).unwrap() > 0.9);
//! ```

pub mod circuits;
pub mod error;
pub mod measurement;
pub mod regulator;
pub mod switch;

pub use regulator::{Regulator, RegulatorKind};
pub use switch::PacketScheduler;
