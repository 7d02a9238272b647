//! Directive auto-tuner: forecast statistics → CCB-vs-RBL blend.
//!
//! The paper leaves the blend parameter `d` (0 = pure CCB wear balancing,
//! 1 = pure RBL runtime maximization) to the OS. This module picks it
//! from the *shape* of the forecast rather than a fixed constant:
//!
//! * Sustained, high-duty load → runtime is the scarce resource; lean RBL.
//! * Idle-dominated, bursty load → there is slack to shuffle wear; lean
//!   CCB.
//!
//! The mapping is a small monotone closed form, so the tuned directive is
//! continuous in the statistics and trivially deterministic. The planner
//! uses it to anchor its first plan (tie-breaks and hysteresis measure
//! distance from the tuned point until the first rollout commits).

use sdb_core::policy::DischargeDirective;
use sdb_workloads::Trace;

/// Shape statistics of a (forecast) load trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ForecastStats {
    /// Time-weighted mean load, watts.
    pub(crate) mean_w: f64,
    /// Peak load, watts.
    pub(crate) peak_w: f64,
    /// Fraction of time the load is at or above half the peak — the
    /// high-duty fraction.
    pub(crate) high_duty: f64,
    /// `1 - mean/peak`: 0 for constant load, → 1 for spiky load.
    pub(crate) burstiness: f64,
}

/// Computes [`ForecastStats`] for a trace. An empty trace yields all
/// zeros (and tunes to the CCB-leaning floor).
#[must_use]
pub(crate) fn forecast_stats(trace: &Trace) -> ForecastStats {
    let total_s = trace.duration_s();
    if total_s <= 0.0 {
        return ForecastStats {
            mean_w: 0.0,
            peak_w: 0.0,
            high_duty: 0.0,
            burstiness: 0.0,
        };
    }
    let mean_w = trace.mean_load_w();
    let peak_w = trace.peak_load_w();
    let mut high_s = 0.0;
    for p in trace.points() {
        if peak_w > 0.0 && p.load_w >= 0.5 * peak_w {
            high_s += p.dur_s;
        }
    }
    let burstiness = if peak_w > 0.0 {
        (1.0 - mean_w / peak_w).clamp(0.0, 1.0)
    } else {
        0.0
    };
    ForecastStats {
        mean_w,
        peak_w,
        high_duty: high_s / total_s,
        burstiness,
    }
}

/// Maps forecast statistics to a blend directive:
/// `d = 0.2 + 0.6·high_duty + 0.2·burstiness`, clamped to `[0, 1]`.
///
/// Constant heavy load tunes to 0.8 (RBL-leaning: every joule counts);
/// idle-with-spikes tunes near 0.4 (CCB-leaning: balance wear, keep
/// headroom for the spikes). The floor of 0.2 keeps some RBL influence
/// even for pure idle so the pack never wear-balances itself into
/// serving load from a high-resistance cell alone.
#[must_use]
pub(crate) fn tuned_directive(stats: &ForecastStats) -> DischargeDirective {
    DischargeDirective::new(0.2 + 0.6 * stats.high_duty + 0.2 * stats.burstiness)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_heavy_load_leans_rbl() {
        let t = Trace::constant(5.0, 3600.0);
        let s = forecast_stats(&t);
        assert!((s.high_duty - 1.0).abs() < 1e-12);
        assert!(s.burstiness.abs() < 1e-12);
        assert!((tuned_directive(&s).value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn idle_with_spikes_leans_ccb() {
        let mut t = Trace::new();
        t.push(0.1, 0.0, 3500.0);
        t.push(8.0, 0.0, 100.0);
        let s = forecast_stats(&t);
        let d = tuned_directive(&s).value();
        let heavy = tuned_directive(&forecast_stats(&Trace::constant(5.0, 3600.0))).value();
        assert!(
            d < heavy,
            "bursty ({d}) should lean more CCB than sustained ({heavy})"
        );
        assert!((0.2..=1.0).contains(&d));
    }

    #[test]
    fn empty_trace_tunes_to_floor() {
        let s = forecast_stats(&Trace::new());
        assert!((tuned_directive(&s).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tuned_directive_is_monotone_in_duty() {
        let mut prev = -1.0;
        for k in 0..=10 {
            let s = ForecastStats {
                mean_w: 1.0,
                peak_w: 2.0,
                high_duty: f64::from(k) / 10.0,
                burstiness: 0.5,
            };
            let d = tuned_directive(&s).value();
            assert!(d >= prev);
            prev = d;
        }
    }
}
