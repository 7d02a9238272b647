//! Streaming quantile sketches with a relative-error guarantee.
//!
//! [`QuantileSketch`] is a fixed-γ log-bucket sketch (the DDSketch /
//! "distributed distribution sketch" construction): a value `v > 0` lands
//! in bucket `⌈ln v / ln γ⌉` where `γ = (1 + α) / (1 − α)` for a chosen
//! relative accuracy `α`. Any quantile read back from the bucket counts is
//! within relative error `α` of the exact nearest-rank sample, using O(1)
//! memory in the number of observations (the bucket count grows only with
//! the *dynamic range* of the data, logarithmically).
//!
//! Two properties matter to the fleet engine:
//!
//! * **Deterministic, commutative merge.** Merging adds bucket counts, so
//!   any shard merge order produces identical counts — and therefore
//!   identical quantile estimates — just like the counter/histogram merges
//!   in [`crate::metrics`].
//! * **Rank-exact bucketing.** Bucketing is monotone, so the sketch walks
//!   to the bucket containing the *exact* nearest-rank sample
//!   (`k = ⌈q·n⌉`); only the within-bucket position is approximated.

use std::collections::BTreeMap;

/// Magnitudes below this collapse into the shared zero bucket.
const ZERO_EPS: f64 = 1e-12;

/// A mergeable log-bucket quantile sketch with relative accuracy `α`.
///
/// Handles any finite `f64` (negative values get a mirrored bucket map);
/// `NaN` observations are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Relative accuracy bound.
    alpha: f64,
    /// `ln γ` where `γ = (1 + α) / (1 − α)`.
    ln_gamma: f64,
    /// Buckets for positive magnitudes: key `k` covers `(γ^(k−1), γ^k]`.
    pos: BTreeMap<i32, u64>,
    /// Buckets for negative magnitudes (same key scheme on `|v|`).
    neg: BTreeMap<i32, u64>,
    /// Observations with `|v| < ZERO_EPS`.
    zeros: u64,
    /// Total observations.
    count: u64,
    /// Exact minimum observed (0.0 when empty).
    min: f64,
    /// Exact maximum observed (0.0 when empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// The default relative accuracy: quantile estimates within 1 % of the
    /// exact nearest-rank sample.
    pub(crate) const DEFAULT_ALPHA: f64 = 0.01;

    /// A sketch with the default accuracy (`DEFAULT_ALPHA`).
    #[must_use]
    pub fn new() -> Self {
        Self::with_accuracy(Self::DEFAULT_ALPHA)
    }

    /// A sketch guaranteeing relative error ≤ `alpha` on every quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    #[must_use]
    pub fn with_accuracy(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch accuracy must be in (0, 1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zeros: 0,
            count: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observed (0.0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    fn key(&self, magnitude: f64) -> i32 {
        // ⌈ln m / ln γ⌉, clamped to i32; monotone in m.
        let k = (magnitude.ln() / self.ln_gamma).ceil();
        if k >= f64::from(i32::MAX) {
            i32::MAX
        } else if k <= f64::from(i32::MIN) {
            i32::MIN
        } else {
            k as i32
        }
    }

    /// The mid-bucket estimate `2γ^k / (γ + 1)`: within relative error `α`
    /// of every value the bucket covers.
    fn estimate(&self, key: i32) -> f64 {
        let gamma = self.ln_gamma.exp();
        2.0 * (f64::from(key) * self.ln_gamma).exp() / (gamma + 1.0)
    }

    /// Pre-registers every positive bucket covering `[lo, hi]` with a zero
    /// count. After prewarming, an `insert` of any value clamped into
    /// `[lo, hi]` hits an existing `BTreeMap` node and is guaranteed not
    /// to allocate — the property the `sdb-prof` hot path relies on to
    /// stay allocation-free under the counting allocator.
    ///
    /// Zero-count buckets are invisible to quantile reads and merges add
    /// them harmlessly, so prewarming never changes an estimate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo <= hi` and both are finite.
    pub fn prewarm(&mut self, lo: f64, hi: f64) {
        assert!(
            lo > 0.0 && hi >= lo && hi.is_finite(),
            "prewarm range must satisfy 0 < lo <= hi < inf, got [{lo}, {hi}]"
        );
        let (klo, khi) = (self.key(lo), self.key(hi));
        for k in klo..=khi {
            self.pos.entry(k).or_insert(0);
        }
    }

    /// Records one observation. `NaN` is ignored; infinities saturate into
    /// the outermost buckets.
    pub fn insert(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        let m = v.abs();
        if m < ZERO_EPS {
            self.zeros += 1;
        } else if v > 0.0 {
            *self.pos.entry(self.key(m)).or_insert(0) += 1;
        } else {
            *self.neg.entry(self.key(m)).or_insert(0) += 1;
        }
    }

    /// Folds `other`'s observations into this sketch. Merging adds bucket
    /// counts, so it is commutative and associative: any shard order
    /// produces the identical sketch.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built with different accuracies
    /// (their buckets would not line up).
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-15,
            "cannot merge sketches with different accuracies ({} vs {})",
            self.alpha,
            other.alpha
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.zeros += other.zeros;
        for (k, n) in &other.pos {
            *self.pos.entry(*k).or_insert(0) += n;
        }
        for (k, n) in &other.neg {
            *self.neg.entry(*k).or_insert(0) += n;
        }
    }

    /// The estimated `q`-quantile (`q` clamped to `[0, 1]`), using the same
    /// nearest-rank convention as the fleet report's exact percentiles:
    /// rank `⌈q·n⌉` clamped to `[1, n]`. Returns 0.0 on an empty sketch.
    ///
    /// The estimate is within relative error `alpha` of the exact
    /// nearest-rank sample (values smaller than the zero threshold are
    /// reported as 0.0 exactly); `q = 0` and `q = 1` additionally snap to
    /// the exact min/max.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 && q == 0.0 {
            return self.min;
        }
        if rank == self.count {
            return self.max.min(self.estimate_at_rank(rank)).max(self.min);
        }
        self.estimate_at_rank(rank).clamp(self.min, self.max)
    }

    fn estimate_at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        // Ascending value order: most-negative first (descending |v| key),
        // then zeros, then positives (ascending key).
        for (k, n) in self.neg.iter().rev() {
            seen += n;
            if seen >= rank {
                return -self.estimate(*k);
            }
        }
        seen += self.zeros;
        if seen >= rank {
            return 0.0;
        }
        for (k, n) in &self.pos {
            seen += n;
            if seen >= rank {
                return self.estimate(*k);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile, matching the fleet report.
    fn exact(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[k - 1]
    }

    fn rel_err(est: f64, exact: f64) -> f64 {
        (est - exact).abs() / exact.abs().max(ZERO_EPS)
    }

    #[test]
    fn quantiles_respect_the_error_bound() {
        let mut sk = QuantileSketch::new();
        // Deterministic pseudo-random-ish spread over 5 decades.
        let values: Vec<f64> = (1..=5000u64)
            .map(|i| {
                let x = (i as f64 * 0.7391) % 5.0;
                10f64.powf(x) + i as f64 * 1e-3
            })
            .collect();
        for &v in &values {
            sk.insert(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999] {
            let e = exact(&sorted, q);
            let got = sk.quantile(q);
            assert!(
                rel_err(got, e) <= sk.alpha + 1e-12,
                "q={q}: sketch {got} vs exact {e}"
            );
        }
        assert_eq!(sk.quantile(0.0), sorted[0]);
        assert_eq!(sk.count(), 5000);
    }

    #[test]
    fn handles_negatives_and_zeros() {
        let mut sk = QuantileSketch::new();
        let values = [-100.0, -1.0, 0.0, 0.0, 1.0, 100.0];
        for v in values {
            sk.insert(v);
        }
        assert_eq!(sk.min, -100.0);
        assert_eq!(sk.max(), 100.0);
        // Rank 2 of 6 at q=0.25 → −1.0 (within α).
        assert!(rel_err(sk.quantile(0.25), -1.0) <= sk.alpha + 1e-12);
        // Rank 4 of 6 (q=0.55 → ⌈3.3⌉) is a zero.
        assert_eq!(sk.quantile(0.55), 0.0);
    }

    #[test]
    fn nan_is_ignored_and_empty_is_zero() {
        let mut sk = QuantileSketch::new();
        assert_eq!(sk.quantile(0.5), 0.0);
        sk.insert(f64::NAN);
        assert_eq!(sk.count(), 0);
        sk.insert(2.0);
        assert_eq!(sk.count(), 1);
        assert!(rel_err(sk.quantile(0.5), 2.0) <= sk.alpha);
    }

    #[test]
    fn merge_equals_single_stream() {
        let values: Vec<f64> = (1..=999u64).map(|i| (i as f64).sqrt() * 3.7).collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.insert(v);
        }
        let mut parts: Vec<QuantileSketch> = (0..7).map(|_| QuantileSketch::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            parts[i % 7].insert(v);
        }
        let mut merged = QuantileSketch::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn merge_is_order_invariant() {
        let mut shards: Vec<QuantileSketch> = (0..5)
            .map(|s| {
                let mut sk = QuantileSketch::new();
                for i in 0..200u64 {
                    sk.insert((s * 1000 + i) as f64 * 0.31 + 1.0);
                }
                sk
            })
            .collect();
        let mut forward = QuantileSketch::new();
        for s in &shards {
            forward.merge_from(s);
        }
        shards.reverse();
        let mut backward = QuantileSketch::new();
        for s in &shards {
            backward.merge_from(s);
        }
        assert_eq!(forward, backward);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                forward.quantile(q).to_bits(),
                backward.quantile(q).to_bits()
            );
        }
    }

    #[test]
    fn memory_is_bounded_by_dynamic_range_not_count() {
        let mut sk = QuantileSketch::new();
        for i in 0..100_000u64 {
            sk.insert(1.0 + (i % 1000) as f64);
        }
        // Three decades of range at α=1 % is a few hundred buckets at most.
        let buckets = sk.pos.len() + sk.neg.len();
        assert!(buckets < 600, "buckets: {buckets}");
    }

    #[test]
    fn prewarm_covers_clamped_inserts_without_new_buckets() {
        let mut sk = QuantileSketch::with_accuracy(0.05);
        sk.prewarm(1.0, 1e6);
        let warmed = sk.pos.len() + sk.neg.len();
        assert!(warmed > 0);
        for i in 0..10_000u64 {
            let v = (i as f64 * 733.17 + 0.003).clamp(1.0, 1e6);
            sk.insert(v);
        }
        assert_eq!(
            sk.pos.len() + sk.neg.len(),
            warmed,
            "clamped inserts must reuse prewarmed buckets"
        );
        assert_eq!(sk.count(), 10_000);
        // Quantiles are unaffected by the zero-count buckets.
        let q = sk.quantile(0.5);
        assert!(q > 0.0 && q <= 1e6 * (1.0 + sk.alpha));
    }

    #[test]
    fn prewarmed_sketch_merges_like_a_plain_one() {
        let mut warmed = QuantileSketch::with_accuracy(0.05);
        warmed.prewarm(1.0, 1e4);
        let mut plain = QuantileSketch::with_accuracy(0.05);
        for i in 1..=500u64 {
            warmed.insert(i as f64 * 3.3);
            plain.insert(i as f64 * 3.3);
        }
        let mut merged = QuantileSketch::with_accuracy(0.05);
        merged.merge_from(&warmed);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q).to_bits(), plain.quantile(q).to_bits());
        }
        assert_eq!(merged.count(), plain.count());
    }

    #[test]
    #[should_panic(expected = "different accuracies")]
    fn merging_mismatched_accuracies_panics() {
        let mut a = QuantileSketch::with_accuracy(0.01);
        a.merge_from(&QuantileSketch::with_accuracy(0.02));
    }
}
