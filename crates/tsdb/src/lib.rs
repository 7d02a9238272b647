//! sdb-tsdb — an embedded, zero-dependency time-series telemetry store.
//!
//! This crate is the longitudinal memory of the SDB stack. Where
//! `sdb-observe` answers "what is happening right now" (live counters,
//! gauges, sketches, flight-recorder events), `sdb-tsdb` answers "what
//! happened over time" — it ingests those same metric identities as
//! timestamped samples, compresses them with the Gorilla codec
//! (delta-of-delta timestamps + XOR floats, Pelkonen et al., VLDB 2015),
//! bounds memory with ring retention and tiered downsampling, and serves
//! the result over a hand-rolled HTTP/1.1 surface.
//!
//! Layers, bottom to top:
//!
//! * [`gorilla`] — the bit-level codec: [`gorilla::ChunkEncoder`] /
//!   [`gorilla::CompressedChunk`]. Bit-exact round trips, graceful
//!   errors on truncated streams.
//! * [`store`] — [`store::TsdbStore`]: labeled series, sealed-chunk
//!   rings, 10 s / 5 min rollup tiers carrying `QuantileSketch`es.
//! * [`query`] — typed range/rate/quantile queries over the store and a
//!   JSON rendering for the wire.
//! * [`sink`] — ingestion adapters: replay captured `DeviceEvent`s,
//!   attach as a live `EventSink`, or scrape a `MetricsRegistry`.
//! * [`http`] — the blocking HTTP/1.1 listener behind `sdb serve`:
//!   `/metrics`, `/query`, `/healthz`, `/shutdown`.
//!
//! Determinism: simulation-time samples are quantized to integer
//! microseconds at the boundary and everything downstream is exact
//! integer/bit arithmetic, so store contents derived from a fleet run
//! are identical at any thread count. Wall-clock stamps (live scraping)
//! are quarantined the same way `FleetRunStats` quarantines wall-clock
//! facts: they never feed a deterministic artifact.

pub mod gorilla;
pub mod http;
pub mod query;
pub mod sink;
pub mod store;

pub use http::{serve, BuildInfo, ServeHandle, ServeOptions};
pub use query::{Query, QueryKind, QueryResult};
pub use sink::{ingest_events, RegistryScraper, TelemetrySink, TELEMETRY_MANTISSA_BITS};
pub use store::{
    quantize, secs_to_us, RetentionConfig, RollupBucket, Sample, SeriesId, StoreStats, Tier,
    TsdbStore,
};
