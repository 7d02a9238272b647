//! `sdb-trace`: causal trace capture and analysis for the SDB stack.
//!
//! Turns the live [`sdb_observe`] event stream into an analyzable
//! artifact:
//!
//! - `writer` — serializes device-tagged [`sdb_observe::DeviceEvent`]s
//!   to compact JSONL (one event per line, replayable) and to the Chrome
//!   `trace_event` format loadable in Perfetto / `chrome://tracing`, with
//!   one track per device. Output is deterministic: a `(device, seq)`
//!   sorted stream serializes byte-identically regardless of how many
//!   threads produced it.
//! - [`json`] — a minimal zero-dependency JSON reader used for trace
//!   replay (and for validating our own output in tests).
//! - `rules` — a fixed set of health rules, each a signal, window,
//!   threshold, and severity; the rule engine evaluates them
//!   incrementally and emits latched findings for brownout precursors,
//!   wear-imbalance drift, thermal-derate oscillation, and
//!   charge-directive thrash.
//! - `analyze` — one-pass trace analysis (stream summary + rule
//!   evaluation) backing the `sdb analyze` subcommand: [`analyze()`] and
//!   [`analyze_jsonl`].
//!
//! The crate depends only on `sdb-observe`; the fleet engine and CLI wire
//! it to live simulations.

mod analyze;
pub mod json;
mod rules;
mod writer;

pub use analyze::{analyze, analyze_jsonl, AnalysisReport, TraceSummary};
pub use rules::{HealthFinding, RuleReport};
pub use writer::{to_chrome, to_jsonl};
