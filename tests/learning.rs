//! Integration test of usage learning against *varied* Markov-simulated
//! user behavior — not just the fixed figure traces: the history
//! forecaster every planner runs, fed two weeks of a runner's days.

use sdb::policy::HistoryForecaster;
use sdb::workloads::behavior::{simulate_days, UserArchetype};

#[test]
fn predictor_finds_the_habit_under_jitter() {
    let days = simulate_days(&UserArchetype::runner(), 14, 3);
    let forecaster = HistoryForecaster::from_history(&days, 0.3);
    let hourly_w: Vec<f64> = (0..24)
        .map(|h| forecaster.predict_w(f64::from(h) * 3600.0))
        .collect();
    // The learned profile peaks in the habit window (hour 16 ± jitter).
    let peak_hour = (0..24)
        .max_by(|&a, &b| hourly_w[a].partial_cmp(&hourly_w[b]).expect("finite"))
        .expect("nonempty");
    assert!((15..=17).contains(&peak_hour), "peak at hour {peak_hour}");
    // And a run is expected within six hours of 13:00 but not of 19:00.
    // (The EWMA smears the jittered habit across hours, so detect against
    // the learned peak rather than the raw activity threshold.)
    let threshold = hourly_w[peak_hour] * 0.6;
    let run_ahead = |now: usize| (1..=6).any(|k| hourly_w[(now + k) % 24] >= threshold);
    assert!(run_ahead(13));
    assert!(!run_ahead(19));
}
