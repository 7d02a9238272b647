//! Integration test of the usage predictor against *varied*
//! Markov-simulated user behavior — not just the fixed figure traces.

use sdb::core::predict::UsagePredictor;
use sdb::workloads::behavior::{hourly_profile, simulate_days, UserArchetype};

#[test]
fn predictor_finds_the_habit_under_jitter() {
    let days = simulate_days(&UserArchetype::runner(), 14, 3);
    let mut predictor = UsagePredictor::new();
    for day in &days {
        predictor.observe_day(&hourly_profile(day));
    }
    // The learned profile peaks in the habit window (hour 16 ± jitter).
    let peak_hour = (0..24)
        .max_by(|&a, &b| {
            predictor
                .predicted_w(a)
                .partial_cmp(&predictor.predicted_w(b))
                .expect("finite")
        })
        .expect("nonempty");
    assert!((15..=17).contains(&peak_hour), "peak at hour {peak_hour}");
    // And the directive logic preserves shortly before it. (The EWMA
    // smears the jittered habit across hours, so detect against the
    // learned peak rather than the raw activity threshold.)
    let threshold = predictor.peak_w() * 0.6;
    assert!(predictor.discharge_directive(13, threshold) < 0.3);
    assert!(predictor.discharge_directive(19, threshold) > 0.7);
}
