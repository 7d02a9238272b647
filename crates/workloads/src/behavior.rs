//! Markov-chain user-behavior simulation.
//!
//! The fixed daily traces in [`crate::traces`] reproduce the paper's
//! figures; this module generates *varied* multi-day usage, the fixture
//! the usage-learning tests feed `sdb-policy`'s history forecaster: a
//! user whose activity evolves as a Markov chain over activity states,
//! with time-of-day preferences — some days have the run, some don't,
//! timings drift.

use crate::device::{Activity, DeviceClass, DevicePower};
use crate::traces::Trace;
use sdb_rng::DetRng;

/// A user archetype: base transition tendencies plus scheduled habits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserArchetype {
    /// Device the user carries.
    pub(crate) device: DeviceClass,
    /// Hour the user wakes (trace hours are absolute from midnight).
    pub(crate) wake_hour: f64,
    /// Hour the user sleeps.
    pub(crate) sleep_hour: f64,
    /// Preferred hour for the daily high-power habit (run/gaming/nav).
    pub(crate) habit_hour: f64,
    /// Probability the habit happens on a given day.
    pub(crate) habit_probability: f64,
    /// Jitter applied to the habit start, hours.
    pub(crate) habit_jitter_h: f64,
    /// Probability per minute of switching activity while awake.
    pub(crate) restlessness: f64,
}

impl UserArchetype {
    /// The watch-wearing runner of Section 5.2.
    #[must_use]
    pub fn runner() -> Self {
        Self {
            device: DeviceClass::Watch,
            wake_hour: 7.0,
            sleep_hour: 23.0,
            habit_hour: 16.0,
            habit_probability: 0.8,
            habit_jitter_h: 1.0,
            restlessness: 0.35,
        }
    }

    /// A commuting phone user (navigation habit on the commute).
    #[must_use]
    pub fn commuter() -> Self {
        Self {
            device: DeviceClass::Phone,
            wake_hour: 6.5,
            sleep_hour: 23.5,
            habit_hour: 8.0,
            habit_probability: 0.95,
            habit_jitter_h: 0.25,
            restlessness: 0.25,
        }
    }
}

/// Generates `days` consecutive days of minute-granularity usage for the
/// archetype. Deterministic per `(archetype, seed)`.
#[must_use]
pub fn simulate_days(archetype: &UserArchetype, days: u32, seed: u64) -> Vec<Trace> {
    let dev = DevicePower::for_class(archetype.device);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(days as usize);
    for _day in 0..days {
        let habit_today = rng.chance(archetype.habit_probability);
        let habit_start = archetype.habit_hour
            + rng.f64_range(-archetype.habit_jitter_h, archetype.habit_jitter_h);
        let mut state = Activity::Idle;
        let mut t = Trace::new();
        for minute in 0..(24 * 60) {
            let hour = minute as f64 / 60.0;
            let awake = hour >= archetype.wake_hour && hour < archetype.sleep_hour;
            let in_habit = habit_today && hour >= habit_start && hour < habit_start + 1.0;
            if in_habit {
                state = Activity::GpsTracking;
            } else if !awake {
                state = Activity::Idle;
            } else if rng.chance(archetype.restlessness) {
                // Markov step over the waking activities.
                state = match (state, rng.below(10)) {
                    (Activity::Idle, 0..=1) => Activity::Interactive,
                    (Activity::Idle, 2) => Activity::Network,
                    (Activity::Idle, _) => Activity::Idle,
                    (Activity::Interactive, 0..=5) => Activity::Idle,
                    (Activity::Interactive, 6..=7) => Activity::Network,
                    (Activity::Interactive, _) => Activity::Interactive,
                    (Activity::Network, 0..=5) => Activity::Idle,
                    (Activity::Network, 6) => Activity::Interactive,
                    (Activity::Network, 7) => Activity::Compute,
                    (Activity::Network, _) => Activity::Network,
                    (Activity::Compute, 0..=5) => Activity::Idle,
                    (Activity::Compute, _) => Activity::Network,
                    (Activity::GpsTracking, _) => Activity::Idle,
                };
            }
            let load = dev.draw_w(state) * rng.f64_range(0.85, 1.15);
            t.push(load, 0.0, 60.0);
        }
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean power of each hour of a minute-level day, watts.
    fn hourly_means(day: &Trace) -> [f64; 24] {
        let pts = day.points();
        std::array::from_fn(|h| {
            pts[h * 60..(h + 1) * 60]
                .iter()
                .map(|p| p.load_w)
                .sum::<f64>()
                / 60.0
        })
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate_days(&UserArchetype::runner(), 3, 9);
        let b = simulate_days(&UserArchetype::runner(), 3, 9);
        assert_eq!(a, b);
        let c = simulate_days(&UserArchetype::runner(), 3, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn days_vary_but_share_structure() {
        let days = simulate_days(&UserArchetype::runner(), 10, 42);
        assert_eq!(days.len(), 10);
        let energies: Vec<f64> = days.iter().map(Trace::load_energy_j).collect();
        let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = energies.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "days must differ");
        // Nights are always quiet.
        for day in &days {
            let profile = hourly_means(day);
            assert!(profile[2] < 0.05, "night hour draws {}", profile[2]);
        }
    }

    #[test]
    fn habit_appears_at_roughly_the_habit_hour() {
        let arch = UserArchetype::runner();
        let days = simulate_days(&arch, 20, 7);
        let mut habit_days = 0;
        for day in &days {
            let profile = hourly_means(day);
            // Any hour near the habit drawing GPS-level power?
            let window = 15..=18usize;
            if window.clone().any(|h| profile[h] > 0.3) {
                habit_days += 1;
                // And it is within the jittered window.
                let peak_hour =
                    (0..24).max_by(|&a, &b| profile[a].partial_cmp(&profile[b]).expect("finite"));
                assert!(window.contains(&peak_hour.expect("nonempty")));
            }
        }
        // ~80 % of days have the habit.
        assert!(
            (12..=20).contains(&habit_days),
            "habit on {habit_days} days"
        );
    }

    #[test]
    fn commuter_uses_a_phone_scale_budget() {
        let days = simulate_days(&UserArchetype::commuter(), 3, 5);
        for day in &days {
            let wh = day.load_energy_j() / 3600.0;
            assert!(wh > 2.0 && wh < 18.0, "day = {wh} Wh");
        }
    }
}
