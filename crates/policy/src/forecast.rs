//! Load-trace forecasting over windowed history.
//!
//! A [`Forecaster`] turns observed load history into a piecewise-constant
//! power forecast the planner can roll forward through the emulator. Two
//! implementations bracket the design space:
//!
//! * [`HistoryForecaster`] — 24 hourly EWMA buckets over the time-of-day
//!   load pattern, warm-started from recorded days
//!   ([`HistoryForecaster::from_history`]) and updated online as the real
//!   trace unfolds. It also tracks its own running
//!   one-step-ahead mean absolute error, surfaced as the
//!   `sdb_policy_forecast_mae` gauge.
//! * [`OracleForecaster`] — returns the true remaining trace. Physically
//!   unrealizable, but it upper-bounds what any forecast-driven planner
//!   could achieve, which is exactly what the head-to-head tables need.

use std::sync::Arc;

use sdb_workloads::Trace;

/// Longest horizon a history forecast will materialize, seconds. Guards
/// against pathological (e.g. infinite) horizon requests turning into
/// unbounded trace allocations; a week is far past any planning horizon
/// the corpus uses.
const MAX_HISTORY_HORIZON_S: f64 = 7.0 * 86_400.0;

/// A source of piecewise-constant load forecasts.
///
/// Implementations must be deterministic: the same observation sequence
/// must yield bit-identical forecasts, because planner decisions (and so
/// whole fleet reports) are replayed across thread counts and compared
/// byte-for-byte.
pub trait Forecaster: Send {
    /// Forecasts the load from simulation time `t_s` over `horizon_s`
    /// seconds, discretized into steps of at most `dt_s`. May return a
    /// shorter (or empty) trace if the forecastable future ends sooner.
    fn forecast(&self, t_s: f64, horizon_s: f64, dt_s: f64) -> Trace;

    /// Feeds one executed step back: the step ended at `t_s`, lasted
    /// `dt_s` seconds, and drew `load_w` watts.
    fn observe(&mut self, t_s: f64, dt_s: f64, load_w: f64);

    /// Running one-step-ahead mean absolute error, watts (0 until the
    /// first observation, and always 0 for oracles).
    fn mae_w(&self) -> f64;
}

/// Hour-of-day load model: 24 EWMA buckets plus a persistence fallback.
///
/// Each completed hour of observed load folds its mean power into the
/// bucket for that hour of day. Hours never observed fall back to the
/// most recently seen load (persistence), so a cold forecaster degrades
/// to "tomorrow looks like right now" rather than zero.
#[derive(Debug, Clone)]
pub struct HistoryForecaster {
    buckets: [f64; 24],
    primed: [bool; 24],
    alpha: f64,
    /// Most recent observed load, watts — the persistence fallback.
    last_w: f64,
    seen_any: bool,
    /// Hour-of-day currently being accumulated, with its running energy
    /// (J) and duration (s).
    acc_hour: Option<usize>,
    acc_j: f64,
    acc_s: f64,
    /// Time-weighted absolute one-step-ahead error integral (W·s) and the
    /// observed span (s) behind [`Forecaster::mae_w`].
    err_ws: f64,
    err_t: f64,
}

impl HistoryForecaster {
    /// A cold forecaster: every hour unprimed, persistence-only until
    /// observations arrive. `alpha` is the EWMA weight given to each newly
    /// completed hour (clamped to `(0, 1]`).
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self {
            buckets: [0.0; 24],
            primed: [false; 24],
            alpha: alpha.clamp(1e-6, 1.0),
            last_w: 0.0,
            seen_any: false,
            acc_hour: None,
            acc_j: 0.0,
            acc_s: 0.0,
            err_ws: 0.0,
            err_t: 0.0,
        }
    }

    /// A forecaster warm-started from recorded history: folds each past
    /// day trace (oldest first, any segment granularity) into the
    /// hour-of-day buckets. Days longer than 24 h wrap; hours a day never
    /// touches stay unprimed.
    pub fn from_history<'a, I>(days: I, alpha: f64) -> Self
    where
        I: IntoIterator<Item = &'a Trace>,
    {
        let mut f = Self::new(alpha);
        for day in days {
            f.fold_day(day);
        }
        f
    }

    /// Folds one recorded day into the bucket model.
    fn fold_day(&mut self, day: &Trace) {
        let mut energy_j = [0.0_f64; 24];
        let mut span_s = [0.0_f64; 24];
        let mut t = 0.0;
        for p in day.points() {
            // Split the point across hour boundaries so long segments
            // credit each hour they cover.
            let mut left = p.dur_s;
            while left > 0.0 {
                let hour = Self::hour_of(t);
                let until_boundary = 3600.0 - (t % 3600.0);
                let step = left.min(if until_boundary > 0.0 {
                    until_boundary
                } else {
                    3600.0
                });
                energy_j[hour] += p.load_w * step;
                span_s[hour] += step;
                t += step;
                left -= step;
            }
        }
        for hour in 0..24 {
            if span_s[hour] > 0.0 {
                self.fold_hour(hour, energy_j[hour] / span_s[hour]);
            }
        }
    }

    /// The model's prediction for the load at absolute time `t_s`, watts.
    #[must_use]
    pub fn predict_w(&self, t_s: f64) -> f64 {
        let hour = Self::hour_of(t_s);
        if self.primed[hour] {
            self.buckets[hour]
        } else if self.seen_any {
            self.last_w
        } else {
            0.0
        }
    }

    fn hour_of(t_s: f64) -> usize {
        let h = (t_s / 3600.0).floor() as i64;
        h.rem_euclid(24) as usize
    }

    fn fold_hour(&mut self, hour: usize, mean_w: f64) {
        if self.primed[hour] {
            self.buckets[hour] += self.alpha * (mean_w - self.buckets[hour]);
        } else {
            self.buckets[hour] = mean_w;
            self.primed[hour] = true;
        }
    }
}

impl Forecaster for HistoryForecaster {
    fn forecast(&self, t_s: f64, horizon_s: f64, dt_s: f64) -> Trace {
        let mut out = Trace::new();
        let dt = dt_s.max(1.0);
        let mut offset = 0.0;
        let horizon = horizon_s.min(MAX_HISTORY_HORIZON_S);
        while offset < horizon {
            let step = dt.min(horizon - offset);
            if step <= 0.0 {
                break;
            }
            out.push(self.predict_w(t_s + offset), 0.0, step);
            offset += step;
        }
        out
    }

    fn observe(&mut self, t_s: f64, dt_s: f64, load_w: f64) {
        if dt_s <= 0.0 {
            return;
        }
        let start = t_s - dt_s;
        // One-step-ahead error: what the model would have predicted for
        // this step before seeing it, vs what actually happened.
        let predicted = self.predict_w(start);
        self.err_ws += (load_w - predicted).abs() * dt_s;
        self.err_t += dt_s;
        self.last_w = load_w;
        self.seen_any = true;
        // Fold completed hours into the bucket model. Steps are short
        // (the scheduler caps them at the simulation step), so crediting
        // the whole step to its start hour loses nothing measurable.
        let hour = Self::hour_of(start);
        match self.acc_hour {
            Some(h) if h == hour => {}
            Some(h) => {
                if self.acc_s > 0.0 {
                    let mean = self.acc_j / self.acc_s;
                    self.fold_hour(h, mean);
                }
                self.acc_hour = Some(hour);
                self.acc_j = 0.0;
                self.acc_s = 0.0;
            }
            None => self.acc_hour = Some(hour),
        }
        self.acc_j += load_w * dt_s;
        self.acc_s += dt_s;
    }

    fn mae_w(&self) -> f64 {
        if self.err_t > 0.0 {
            self.err_ws / self.err_t
        } else {
            0.0
        }
    }
}

/// Perfect forecast: replays the true remaining trace.
///
/// Holds the whole workload and answers every forecast request with the
/// exact sub-trace starting at the requested time. Its MAE is zero by
/// construction.
#[derive(Debug, Clone)]
pub struct OracleForecaster {
    trace: Arc<Trace>,
}

impl OracleForecaster {
    /// Wraps the true workload trace.
    #[must_use]
    pub fn new(trace: Arc<Trace>) -> Self {
        Self { trace }
    }
}

impl Forecaster for OracleForecaster {
    fn forecast(&self, t_s: f64, horizon_s: f64, _dt_s: f64) -> Trace {
        let mut out = Trace::new();
        let mut cursor = 0.0;
        let mut remaining = horizon_s;
        for p in self.trace.points() {
            let end = cursor + p.dur_s;
            if end <= t_s {
                cursor = end;
                continue;
            }
            if remaining <= 0.0 {
                break;
            }
            // Clip the point to [t_s, t_s + horizon).
            let avail = end - t_s.max(cursor);
            let take = avail.min(remaining);
            if take > 0.0 {
                out.push(p.load_w, p.external_w, take);
                remaining -= take;
            }
            cursor = end;
        }
        out
    }

    fn observe(&mut self, _t_s: f64, _dt_s: f64, _load_w: f64) {}

    fn mae_w(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_workloads::behavior::{simulate_days, UserArchetype};

    #[test]
    fn cold_forecaster_predicts_zero_then_persists() {
        let mut f = HistoryForecaster::new(0.3);
        assert_eq!(f.predict_w(0.0), 0.0);
        f.observe(60.0, 60.0, 2.5);
        // Hour 0 is still accumulating (not primed), so persistence wins.
        assert!((f.predict_w(7.0 * 3600.0) - 2.5).abs() < 1e-12);
        let fc = f.forecast(0.0, 600.0, 120.0);
        assert_eq!(fc.points().len(), 5);
        assert!((fc.mean_load_w() - 2.5).abs() < 1e-12);
        assert!((fc.duration_s() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn completed_hours_prime_their_buckets() {
        let mut f = HistoryForecaster::new(1.0);
        // A full hour at 4 W, then a step in the next hour closes it out.
        let mut t = 0.0;
        while t < 3600.0 {
            t += 60.0;
            f.observe(t, 60.0, 4.0);
        }
        f.observe(t + 60.0, 60.0, 1.0);
        // The primed bucket, not the 1 W persistence fallback, answers.
        assert!((f.predict_w(0.0) - 4.0).abs() < 1e-9);
        // And tomorrow's hour 0 predicts the same (24 h periodicity).
        assert!((f.predict_w(24.0 * 3600.0) - 4.0).abs() < 1e-9);
    }

    /// A minute-level day drawing 0.05 W, with a 0.3 W hour at `run_hour`.
    fn day_with_run(run_hour: usize) -> Trace {
        let mut day = Trace::new();
        for minute in 0..24 * 60 {
            let load_w = if minute / 60 == run_hour { 0.3 } else { 0.05 };
            day.push(load_w, 0.0, 60.0);
        }
        day
    }

    #[test]
    fn learns_daily_pattern() {
        let days: Vec<Trace> = (0..5).map(|_| day_with_run(9)).collect();
        let f = HistoryForecaster::from_history(&days, 0.3);
        assert!(f.predict_w(9.0 * 3600.0) > 0.25);
        assert!(f.predict_w(3.0 * 3600.0) < 0.1);
    }

    #[test]
    fn ewma_adapts_to_schedule_change() {
        let days: Vec<Trace> = (0..17)
            .map(|d| day_with_run(if d < 5 { 9 } else { 18 }))
            .collect();
        let f = HistoryForecaster::from_history(&days, 0.3);
        assert!(f.predict_w(18.0 * 3600.0) > f.predict_w(9.0 * 3600.0));
    }

    #[test]
    fn warmed_forecaster_is_primed_and_deterministic() {
        let days = simulate_days(&UserArchetype::runner(), 7, 0xF0CA57);
        let a = HistoryForecaster::from_history(&days, 0.3);
        let b = HistoryForecaster::from_history(&days, 0.3);
        for h in 0..24 {
            let t_s = f64::from(h) * 3600.0;
            // Never observed online, so an unprimed hour would read 0 W.
            assert!(a.predict_w(t_s) > 0.0, "hour {h} unprimed");
            assert_eq!(a.predict_w(t_s).to_bits(), b.predict_w(t_s).to_bits());
        }
    }

    #[test]
    fn from_history_bins_arbitrary_granularity_days() {
        // One day: 2 W for the first hour and a half, 6 W until hour 3.
        let mut day = Trace::new();
        day.push(2.0, 0.0, 5400.0);
        day.push(6.0, 0.0, 5400.0);
        let f = HistoryForecaster::from_history(&[day], 1.0);
        assert!((f.predict_w(0.0) - 2.0).abs() < 1e-9);
        // Hour 1 is half 2 W, half 6 W.
        assert!((f.predict_w(3600.0) - 4.0).abs() < 1e-9);
        assert!((f.predict_w(2.0 * 3600.0) - 6.0).abs() < 1e-9);
        // Untouched hours stay unprimed; with nothing observed online
        // there is no persistence value either.
        assert_eq!(f.predict_w(3.0 * 3600.0), 0.0);
    }

    #[test]
    fn mae_tracks_persistent_error() {
        let mut f = HistoryForecaster::new(0.3);
        f.observe(60.0, 60.0, 3.0); // predicted 0.0 → |err| = 3
        f.observe(120.0, 60.0, 3.0); // predicted 3.0 → |err| = 0
        assert!((f.mae_w() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn oracle_returns_exact_remainder() {
        let mut t = Trace::new();
        t.push(1.0, 0.0, 100.0);
        t.push(5.0, 0.5, 200.0);
        t.push(2.0, 0.0, 300.0);
        let oracle = OracleForecaster::new(Arc::new(t));
        // From t = 150 with a 250 s horizon: 150 s of the 5 W point, then
        // 100 s of the 2 W point.
        let fc = oracle.forecast(150.0, 250.0, 60.0);
        let pts = fc.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].load_w - 5.0).abs() < 1e-12);
        assert!((pts[0].dur_s - 150.0).abs() < 1e-9);
        assert!((pts[1].load_w - 2.0).abs() < 1e-12);
        assert!((pts[1].dur_s - 100.0).abs() < 1e-9);
        assert_eq!(oracle.mae_w(), 0.0);
        // Infinite horizon clips to the trace end.
        let all = oracle.forecast(0.0, f64::INFINITY, 60.0);
        assert!((all.duration_s() - 600.0).abs() < 1e-9);
    }
}
