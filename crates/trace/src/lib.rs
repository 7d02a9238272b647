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
//! - `rules` — a declarative anomaly/health-rule engine: [`RuleSpec`]s
//!   select a signal, window, threshold, and severity; the [`RuleEngine`]
//!   evaluates them incrementally and emits latched [`HealthFinding`]s
//!   for brownout precursors, wear-imbalance drift, thermal-derate
//!   oscillation, and charge-directive thrash.
//! - [`analyze`](mod@analyze) — one-pass trace analysis (stream summary + rule
//!   evaluation) backing the `sdb analyze` subcommand.
//!
//! The crate depends only on `sdb-observe`; the fleet engine and CLI wire
//! it to live simulations.

pub mod analyze;
pub mod json;
mod rules;
mod writer;

pub use analyze::{analyze, analyze_jsonl, AnalysisReport, TraceSummary};
pub use rules::{
    default_rules, Cmp, HealthFinding, RuleEngine, RuleReport, RuleSpec, RuleStats, Severity,
    Signal,
};
pub use writer::{event_kind, from_jsonl, from_jsonl_line, to_chrome, to_jsonl, to_jsonl_line};
