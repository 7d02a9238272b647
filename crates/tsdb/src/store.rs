//! The embedded telemetry store: labeled series, Gorilla-compressed raw
//! chunks, ring-bounded retention, and tiered downsampling.
//!
//! One [`TsdbStore`] holds many series keyed by `(name, sorted labels)` —
//! the same identities the [`sdb_observe::MetricsRegistry`] uses. Each
//! series keeps:
//!
//! * **Raw tier** — an open [`ChunkEncoder`] plus a ring of sealed
//!   [`CompressedChunk`]s, bounded by [`RetentionConfig::raw_chunks_max`].
//!   Appends are bit-exact: decode returns exactly the floats that went
//!   in.
//! * **Rollup tiers** — 10 s and 5 min buckets, each carrying count /
//!   sum / min / max / last plus a [`QuantileSketch`], so percentile
//!   queries over downsampled history stay within the sketch's relative
//!   accuracy instead of degrading into averages-of-averages.
//!
//! Timestamps are integer **microseconds**. Simulation time arrives as
//! `f64` seconds and is quantized at the boundary ([`secs_to_us`]);
//! wall-clock stamps (the live scraper) are quarantined the same way
//! `FleetRunStats` quarantines wall-clock facts — they never feed any
//! deterministic artifact.

use crate::gorilla::{ChunkEncoder, CompressedChunk};
use sdb_observe::QuantileSketch;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Rounds `v` to `keep_mantissa_bits` of mantissa (round-to-nearest),
/// zeroing the rest. The telemetry-ingestion quantizer: dropping low
/// mantissa bits multiplies the XOR codec's trailing-zero run, cutting
/// stored bits per sample by ~3-5x on drifting analog series, while the
/// relative error stays below `2^-(keep+1)` (~5e-7 at the default 20
/// bits — far under telemetry noise). Deterministic and idempotent;
/// non-finite values and `keep >= 52` pass through untouched. Integers
/// with magnitude below `2^keep` are exactly representable in the kept
/// bits, so counters survive unchanged.
#[must_use]
pub fn quantize(v: f64, keep_mantissa_bits: u32) -> f64 {
    if !v.is_finite() || keep_mantissa_bits >= 52 {
        return v;
    }
    let drop = 52 - keep_mantissa_bits;
    let mask = (1u64 << drop) - 1;
    let bits = v.to_bits();
    // Round-to-nearest by adding half an ulp-of-kept before masking. The
    // carry may ripple into the exponent — that is correct rounding up to
    // the next binade — but from f64::MAX it would ripple into inf (or
    // the sign bit); fall back to truncation there.
    let rounded = bits.wrapping_add(1u64 << (drop - 1)) & !mask;
    let q = f64::from_bits(rounded);
    if q.is_finite() && q.is_sign_positive() == v.is_sign_positive() {
        q
    } else {
        f64::from_bits(bits & !mask)
    }
}

/// Converts simulation/wall seconds to the store's microsecond axis.
#[must_use]
pub fn secs_to_us(t_s: f64) -> i64 {
    let us = t_s * 1e6;
    if us >= i64::MAX as f64 {
        i64::MAX
    } else if us <= i64::MIN as f64 {
        i64::MIN
    } else {
        // Round-half-away-from-zero keeps regular cadences exact.
        us.round() as i64
    }
}

/// A series identity: metric name plus a label set sorted by key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId {
    /// Metric name (`sdb_soc`, `sdb_fleet_devices_total`, ...).
    pub name: String,
    /// Label pairs, sorted by key for identity stability.
    pub labels: Vec<(String, String)>,
}

impl SeriesId {
    /// An id with its labels sorted into canonical order.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        Self {
            name: name.to_owned(),
            labels,
        }
    }

    /// Whether every `(key, value)` pair in `matchers` is present.
    #[must_use]
    pub fn matches(&self, name: &str, matchers: &[(String, String)]) -> bool {
        self.name == name
            && matchers
                .iter()
                .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }
}

/// One decoded sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Timestamp, microseconds.
    pub t_us: i64,
    /// Value.
    pub value: f64,
}

/// One rollup bucket: the downsampled view of every raw sample whose
/// timestamp fell inside `[start_us, start_us + width_us)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupBucket {
    /// Bucket start, microseconds (aligned to the tier width).
    pub start_us: i64,
    /// Samples aggregated.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Last value appended (by append order).
    pub last: f64,
    /// Percentile-correct aggregation of the bucket's values.
    pub sketch: QuantileSketch,
}

impl RollupBucket {
    fn new(start_us: i64, alpha: f64) -> Self {
        Self {
            start_us,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            sketch: QuantileSketch::with_accuracy(alpha),
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.last = v;
        self.sketch.insert(v);
    }
}

/// One downsampling tier: a bucket width plus a bounded ring of completed
/// buckets and the currently-open one.
#[derive(Debug, Clone)]
struct RollupTier {
    width_us: i64,
    buckets_max: usize,
    ring: VecDeque<RollupBucket>,
    open: Option<RollupBucket>,
    alpha: f64,
}

impl RollupTier {
    fn new(width_us: i64, buckets_max: usize, alpha: f64) -> Self {
        Self {
            width_us,
            buckets_max,
            ring: VecDeque::new(),
            open: None,
            alpha,
        }
    }

    fn bucket_start(&self, t_us: i64) -> i64 {
        t_us.div_euclid(self.width_us) * self.width_us
    }

    fn observe(&mut self, t_us: i64, v: f64) {
        let start = self.bucket_start(t_us);
        match &mut self.open {
            Some(b) if b.start_us == start => b.observe(v),
            Some(b) if start > b.start_us => {
                // Bucket boundary crossed: seal the open bucket.
                let sealed = std::mem::replace(b, RollupBucket::new(start, self.alpha));
                self.ring.push_back(sealed);
                while self.ring.len() > self.buckets_max {
                    self.ring.pop_front();
                }
                self.open.as_mut().expect("just replaced").observe(v);
            }
            Some(b) => {
                // Out-of-order sample behind the open bucket: fold it into
                // the open bucket rather than losing it (rollups are
                // aggregates, not an ordered log).
                b.observe(v);
            }
            None => {
                let mut b = RollupBucket::new(start, self.alpha);
                b.observe(v);
                self.open = Some(b);
            }
        }
    }

    /// Completed + open buckets overlapping `[t0, t1]`, oldest first.
    fn select(&self, t0_us: i64, t1_us: i64) -> Vec<RollupBucket> {
        self.ring
            .iter()
            .chain(self.open.iter())
            .filter(|b| b.start_us + self.width_us > t0_us && b.start_us <= t1_us)
            .cloned()
            .collect()
    }
}

/// Retention and downsampling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionConfig {
    /// Samples per sealed raw chunk.
    pub chunk_samples: usize,
    /// Sealed raw chunks retained per series (ring; oldest evicted).
    pub raw_chunks_max: usize,
    /// First rollup tier bucket width, seconds.
    pub tier1_bucket_s: f64,
    /// First-tier buckets retained per series.
    pub tier1_buckets_max: usize,
    /// Second rollup tier bucket width, seconds.
    pub tier2_bucket_s: f64,
    /// Second-tier buckets retained per series.
    pub tier2_buckets_max: usize,
    /// Relative accuracy of the rollup quantile sketches.
    pub sketch_alpha: f64,
}

impl Default for RetentionConfig {
    fn default() -> Self {
        Self {
            chunk_samples: 512,
            raw_chunks_max: 64,
            tier1_bucket_s: 10.0,
            tier1_buckets_max: 4096,
            tier2_bucket_s: 300.0,
            tier2_buckets_max: 4096,
            sketch_alpha: QuantileSketch::DEFAULT_ALPHA,
        }
    }
}

/// One series: raw chunks plus rollup tiers.
#[derive(Debug, Clone)]
struct Series {
    id: SeriesId,
    open: ChunkEncoder,
    sealed: VecDeque<CompressedChunk>,
    tier1: RollupTier,
    tier2: RollupTier,
    /// Total samples ever appended (evicted ones included).
    appended: u64,
    /// Samples lost to raw-ring eviction (still represented in rollups
    /// until their tier rings evict too).
    evicted: u64,
}

/// Aggregate size/compression statistics for one store (or one series).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Number of series.
    pub series: usize,
    /// Samples currently retained in the raw tier.
    pub raw_samples: usize,
    /// Total samples ever appended.
    pub appended: u64,
    /// Samples evicted from the raw tier.
    pub evicted: u64,
    /// Compressed bytes held by the raw tier (sealed + open chunks).
    pub compressed_bytes: usize,
    /// What the retained raw samples would occupy uncompressed
    /// (16 bytes per `(i64, f64)` sample).
    pub raw_bytes_equiv: usize,
}

impl StoreStats {
    /// Compression ratio of the raw tier (`raw_bytes_equiv /
    /// compressed_bytes`); 0.0 when nothing is stored.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.raw_bytes_equiv as f64 / self.compressed_bytes as f64
        }
    }
}

impl Series {
    fn new(id: SeriesId, cfg: &RetentionConfig) -> Self {
        Self {
            id,
            open: ChunkEncoder::new(),
            sealed: VecDeque::new(),
            tier1: RollupTier::new(
                secs_to_us(cfg.tier1_bucket_s),
                cfg.tier1_buckets_max,
                cfg.sketch_alpha,
            ),
            tier2: RollupTier::new(
                secs_to_us(cfg.tier2_bucket_s),
                cfg.tier2_buckets_max,
                cfg.sketch_alpha,
            ),
            appended: 0,
            evicted: 0,
        }
    }

    fn append(&mut self, t_us: i64, v: f64, cfg: &RetentionConfig) {
        self.open.push(t_us, v);
        self.appended += 1;
        self.tier1.observe(t_us, v);
        self.tier2.observe(t_us, v);
        if self.open.count() >= cfg.chunk_samples {
            let sealed = std::mem::take(&mut self.open).finish();
            self.sealed.push_back(sealed);
            while self.sealed.len() > cfg.raw_chunks_max {
                if let Some(old) = self.sealed.pop_front() {
                    self.evicted += old.count() as u64;
                }
            }
        }
    }

    /// Decodes raw samples within `[t0, t1]`, append order.
    fn select(&self, t0_us: i64, t1_us: i64) -> Vec<Sample> {
        let mut out = Vec::new();
        for chunk in self
            .sealed
            .iter()
            .map(|c| c.decode())
            .chain(std::iter::once(self.open.clone().finish().decode()))
        {
            // A corrupt chunk yields nothing rather than poisoning the
            // query; corruption is impossible through the public API.
            for (t, v) in chunk.unwrap_or_default() {
                if (t0_us..=t1_us).contains(&t) {
                    out.push(Sample { t_us: t, value: v });
                }
            }
        }
        out
    }

    fn raw_samples(&self) -> usize {
        self.sealed
            .iter()
            .map(CompressedChunk::count)
            .sum::<usize>()
            + self.open.count()
    }

    fn compressed_bytes(&self) -> usize {
        self.sealed
            .iter()
            .map(CompressedChunk::byte_len)
            .sum::<usize>()
            + self.open.byte_len()
    }
}

/// Which rollup tier to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The 10 s (tier-1) rollups.
    Coarse10s,
    /// The 5 min (tier-2) rollups.
    Coarse5m,
}

#[derive(Debug, Default)]
struct Inner {
    series: Vec<Series>,
}

/// The embedded time-series store. Cloning shares the underlying storage
/// (an `Arc`), so one store can be fed by simulation threads and read by
/// the HTTP surface concurrently.
#[derive(Debug, Clone)]
pub struct TsdbStore {
    inner: Arc<Mutex<Inner>>,
    cfg: RetentionConfig,
}

impl Default for TsdbStore {
    fn default() -> Self {
        Self::new(RetentionConfig::default())
    }
}

impl TsdbStore {
    /// An empty store with the given retention configuration.
    #[must_use]
    pub fn new(cfg: RetentionConfig) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner::default())),
            cfg,
        }
    }

    /// The retention configuration.
    #[must_use]
    pub fn config(&self) -> &RetentionConfig {
        &self.cfg
    }

    /// Appends one sample to the series `id`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    pub fn append(&self, id: &SeriesId, t_us: i64, value: f64) {
        let mut inner = self.inner.lock().expect("tsdb store poisoned");
        match inner.series.iter_mut().find(|s| s.id == *id) {
            Some(s) => s.append(t_us, value, &self.cfg),
            None => {
                let mut s = Series::new(id.clone(), &self.cfg);
                s.append(t_us, value, &self.cfg);
                inner.series.push(s);
            }
        }
    }

    /// Every series id, in creation order.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    #[must_use]
    pub fn series_ids(&self) -> Vec<SeriesId> {
        let inner = self.inner.lock().expect("tsdb store poisoned");
        inner.series.iter().map(|s| s.id.clone()).collect()
    }

    /// Raw samples of every series matching `name` + `matchers` within
    /// `[t0_us, t1_us]`.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    #[must_use]
    pub fn select(
        &self,
        name: &str,
        matchers: &[(String, String)],
        t0_us: i64,
        t1_us: i64,
    ) -> Vec<(SeriesId, Vec<Sample>)> {
        let inner = self.inner.lock().expect("tsdb store poisoned");
        inner
            .series
            .iter()
            .filter(|s| s.id.matches(name, matchers))
            .map(|s| (s.id.clone(), s.select(t0_us, t1_us)))
            .collect()
    }

    /// Rollup buckets of every matching series overlapping `[t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    #[must_use]
    pub fn select_rollup(
        &self,
        name: &str,
        matchers: &[(String, String)],
        tier: Tier,
        t0_us: i64,
        t1_us: i64,
    ) -> Vec<(SeriesId, Vec<RollupBucket>)> {
        let inner = self.inner.lock().expect("tsdb store poisoned");
        inner
            .series
            .iter()
            .filter(|s| s.id.matches(name, matchers))
            .map(|s| {
                let t = match tier {
                    Tier::Coarse10s => &s.tier1,
                    Tier::Coarse5m => &s.tier2,
                };
                (s.id.clone(), t.select(t0_us, t1_us))
            })
            .collect()
    }

    /// Aggregate statistics over every series.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("tsdb store poisoned");
        let mut st = StoreStats {
            series: inner.series.len(),
            ..StoreStats::default()
        };
        for s in &inner.series {
            st.raw_samples += s.raw_samples();
            st.appended += s.appended;
            st.evicted += s.evicted;
            st.compressed_bytes += s.compressed_bytes();
        }
        st.raw_bytes_equiv = st.raw_samples * 16;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(name: &str) -> SeriesId {
        SeriesId::new(name, &[])
    }

    #[test]
    fn append_select_round_trip() {
        let store = TsdbStore::default();
        let sid = SeriesId::new("sdb_soc", &[("battery", "0")]);
        for i in 0..100i64 {
            store.append(&sid, i * 1_000_000, 1.0 - i as f64 * 0.005);
        }
        let out = store.select("sdb_soc", &[("battery".into(), "0".into())], 0, i64::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.len(), 100);
        assert_eq!(out[0].1[7].t_us, 7_000_000);
        assert_eq!(out[0].1[7].value, 1.0 - 7.0 * 0.005);
        // Range select clips.
        let clipped = store.select("sdb_soc", &[], 10_000_000, 19_999_999);
        assert_eq!(clipped[0].1.len(), 10);
        // Label mismatch selects nothing.
        assert!(store
            .select("sdb_soc", &[("battery".into(), "9".into())], 0, i64::MAX)
            .is_empty());
    }

    #[test]
    fn label_order_does_not_split_series() {
        let store = TsdbStore::default();
        let a = SeriesId::new("m", &[("x", "1"), ("y", "2")]);
        let b = SeriesId::new("m", &[("y", "2"), ("x", "1")]);
        store.append(&a, 0, 1.0);
        store.append(&b, 1, 2.0);
        assert_eq!(store.series_ids().len(), 1);
        assert_eq!(store.select("m", &[], 0, 10)[0].1.len(), 2);
    }

    #[test]
    fn retention_ring_evicts_oldest_chunks() {
        let cfg = RetentionConfig {
            chunk_samples: 10,
            raw_chunks_max: 3,
            ..RetentionConfig::default()
        };
        let store = TsdbStore::new(cfg);
        let sid = id("m");
        for i in 0..100i64 {
            store.append(&sid, i * 1_000_000, i as f64);
        }
        let st = store.stats();
        // 3 sealed chunks of 10 + the open chunk (100 % 10 == 0 → empty).
        assert_eq!(st.raw_samples, 30);
        assert_eq!(st.appended, 100);
        assert_eq!(st.evicted, 70);
        // The survivors are the newest samples.
        let out = store.select("m", &[], 0, i64::MAX);
        assert_eq!(out[0].1.first().unwrap().value, 70.0);
        assert_eq!(out[0].1.last().unwrap().value, 99.0);
    }

    #[test]
    fn rollups_downsample_with_correct_aggregates() {
        let store = TsdbStore::default();
        let sid = id("m");
        // 1 Hz for 35 s: tier-1 (10 s) sees buckets [0,10), [10,20), [20,30), open [30,40).
        for i in 0..35i64 {
            store.append(&sid, i * 1_000_000, i as f64);
        }
        let rb = store.select_rollup("m", &[], Tier::Coarse10s, 0, i64::MAX);
        assert_eq!(rb.len(), 1);
        let buckets = &rb[0].1;
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].count, 10);
        assert_eq!(buckets[0].min, 0.0);
        assert_eq!(buckets[0].max, 9.0);
        assert_eq!(buckets[0].sum, 45.0);
        assert_eq!(buckets[3].count, 5);
        assert_eq!(buckets[3].last, 34.0);
        // Tier-2 (5 min): everything lands in one open bucket.
        let rb2 = store.select_rollup("m", &[], Tier::Coarse5m, 0, i64::MAX);
        assert_eq!(rb2[0].1.len(), 1);
        assert_eq!(rb2[0].1[0].count, 35);
        // Rollup range select clips by bucket overlap.
        let clipped = store.select_rollup("m", &[], Tier::Coarse10s, 10_000_000, 15_000_000);
        assert_eq!(clipped[0].1.len(), 1);
        assert_eq!(clipped[0].1[0].start_us, 10_000_000);
    }

    #[test]
    fn rollup_quantiles_track_exact_within_alpha() {
        let store = TsdbStore::default();
        let sid = id("m");
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 100) as f64 + 1.0).collect();
        for (i, &v) in values.iter().enumerate() {
            store.append(&sid, i as i64 * 100_000, v); // 10 Hz, all in ~30 s
        }
        let rb = store.select_rollup("m", &[], Tier::Coarse5m, 0, i64::MAX);
        let bucket = &rb[0].1[0];
        assert_eq!(bucket.count, 300);
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[k - 1];
            let got = bucket.sketch.quantile(q);
            assert!(
                (got - exact).abs() / exact.abs().max(1e-12) <= bucket.sketch.alpha() + 1e-12,
                "q={q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn stats_measure_compression() {
        let store = TsdbStore::default();
        let sid = id("m");
        for i in 0..2000i64 {
            store.append(&sid, i * 30_000_000, 5.0);
        }
        let st = store.stats();
        assert_eq!(st.series, 1);
        assert_eq!(st.appended, 2000);
        assert_eq!(st.raw_bytes_equiv, 2000 * 16);
        assert!(
            st.compression_ratio() > 20.0,
            "constant 30 s cadence should compress > 20x, got {:.1}",
            st.compression_ratio()
        );
    }

    #[test]
    fn quantize_bounds_relative_error_and_grows_trailing_zeros() {
        for keep in [16u32, 20, 24] {
            let tol = 2.0_f64.powi(-(keep as i32 + 1));
            for v in [0.8123456789, -3.14159e-7, 1.5e300, 123_456.789, -0.25] {
                let q = quantize(v, keep);
                assert!(((q - v) / v).abs() <= tol, "keep={keep} v={v} q={q}");
                assert!(q.to_bits().trailing_zeros() >= 52 - keep || q == 0.0);
                // Idempotent.
                assert_eq!(quantize(q, keep).to_bits(), q.to_bits());
            }
        }
        // Exact values stay exact; specials pass through.
        assert_eq!(quantize(10.0, 20), 10.0);
        assert_eq!(quantize(0.0, 20).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantize(-0.0, 20).to_bits(), (-0.0f64).to_bits());
        assert_eq!(quantize(1_000_000.0, 20), 1_000_000.0);
        assert!(quantize(f64::NAN, 20).is_nan());
        assert_eq!(quantize(f64::INFINITY, 20), f64::INFINITY);
        assert!(
            quantize(f64::MAX, 20).is_finite(),
            "MAX must not round to inf"
        );
        assert_eq!(quantize(2.5, 52), 2.5);
    }

    #[test]
    fn secs_quantization_is_exact_on_regular_cadence() {
        assert_eq!(secs_to_us(30.0), 30_000_000);
        assert_eq!(secs_to_us(0.1), 100_000);
        assert_eq!(secs_to_us(-1.5), -1_500_000);
        assert_eq!(secs_to_us(f64::MAX), i64::MAX);
    }
}
