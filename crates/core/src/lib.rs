//! The SDB Runtime — the paper's primary contribution.
//!
//! "An SDB Runtime encapsulates the SDB microcontroller from the rest of
//! the OS. The SDB Runtime is responsible for all scheduling decisions
//! affecting the charging and discharging of batteries" (Section 3.3).
//!
//! This crate implements:
//!
//! * [`api`] — the four paper APIs as a trait ([`api::SdbApi`]), with
//!   implementations for the emulated microcontroller and its lossy link.
//! * [`metrics`] — the two policy metrics: **Cycle Count Balance** (CCB,
//!   the max/min ratio of per-battery wear `λi = cci/χi`) and **Remaining
//!   Battery Lifetime** (RBL, useful charge).
//! * [`policy`] — the four "instantaneously optimal" algorithms
//!   (CCB-Charge, RBL-Charge, CCB-Discharge, RBL-Discharge), directive-
//!   parameter blending, and the workload-aware preserve policy used in the
//!   watch scenario.
//! * [`runtime`] — the runtime loop: samples gauges, consults policies at
//!   coarse time steps, pushes ratio updates through the API.
//! * [`scheduler`] — the simulation driver coupling runtime + emulator +
//!   workload traces, with energy and depletion bookkeeping and an
//!   observer hook.
//! * [`scenarios`] — the Section 5 applications: fast-charging hybrid packs
//!   (Figure 11), turbo support (Figure 12), the bendable-battery watch
//!   (Figure 13), and 2-in-1 battery management (Figure 14).
//! * [`optimal`] — offline-optimal discharge planning by dynamic
//!   programming: the quantitative version of the paper's "knowledge of
//!   the future workload" observation.
//! * The planner seam: the [`LookaheadPolicy`] trait and [`PlanUpdate`]
//!   let forecast-driven planners
//!   (the `sdb-policy` crate) steer the runtime through the same
//!   directive vocabulary the greedy policies use.
//! * [`hints`] — route/schedule hints for EV-style planning (Section 8).
//!
//! # Quickstart
//!
//! ```
//! use sdb_battery_model::{BatterySpec, Chemistry};
//! use sdb_core::policy::{DischargeDirective, PolicyInput};
//! use sdb_core::runtime::SdbRuntime;
//! use sdb_core::scheduler::{run_trace, SimOptions};
//! use sdb_emulator::PackBuilder;
//! use sdb_workloads::Trace;
//!
//! // A hybrid pack: one high-energy cell, one high-power cell.
//! let mut micro = PackBuilder::new()
//!     .battery(BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 2.0))
//!     .battery(BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 2.0))
//!     .build();
//! let mut runtime = SdbRuntime::new(2);
//! runtime.set_discharge_directive(DischargeDirective::new(0.8));
//!
//! // Run a one-hour 4 W workload.
//! let result = run_trace(
//!     &mut micro,
//!     &mut runtime,
//!     &Trace::constant(4.0, 3600.0),
//!     &SimOptions::default(),
//! );
//! assert!(result.unmet_j < 1e-6);
//! let _ = PolicyInput::from_micro(&micro);
//! ```

pub mod api;
mod error;
pub mod hints;
mod lookahead;
pub mod metrics;
pub mod optimal;
pub mod policy;
pub mod runtime;
pub mod scenarios;
pub mod scheduler;

pub use error::SdbError;
pub use lookahead::{LookaheadPolicy, PlanUpdate};

/// Compile-time guarantee that the whole simulation stack can be moved
/// across threads. The sdb-fleet engine runs one `(Microcontroller,
/// SdbRuntime)` pair per device on scoped worker threads; if any of these
/// types ever grows a non-`Send` member (an `Rc`, a raw pointer, a
/// thread-local handle), this module stops the build right here rather
/// than erroring deep inside the fleet crate.
mod send_assertions {
    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<crate::runtime::SdbRuntime>();
    const _: () = assert_send::<crate::scheduler::SimResult>();
    const _: () = assert_send::<crate::scheduler::SimOptions>();
    const _: () = assert_send::<crate::policy::PolicyInput>();
    const _: () = assert_send::<sdb_emulator::micro::Microcontroller>();
    const _: () = assert_send::<sdb_workloads::Trace>();
}
