//! The Section 5.2 smart-watch scenario: a rigid Li-ion cell in the body
//! plus a bendable cell in the strap, with the OS choosing when to spend
//! which — including a history forecaster that learns the user's running
//! schedule and sets the policy automatically.
//!
//! ```text
//! cargo run --release --example smart_watch
//! ```

use sdb::core::scenarios::watch::{high_power_threshold_w, watch_scenario, WatchPolicy};
use sdb::policy::HistoryForecaster;
use sdb::workloads::traces::watch_day;

fn main() {
    let seed = 13;
    let run_hour = 9.0;

    println!("pack: 200 mAh Li-ion (body) + 200 mAh bendable (strap)");
    println!("day:  message checking, {run_hour}h: one-hour GPS run\n");

    // The two fixed policies of Figure 13.
    let p1 = watch_scenario(
        WatchPolicy::MinimizeInstantaneousLosses,
        Some(run_hour),
        seed,
    );
    let p2 = watch_scenario(WatchPolicy::PreserveLiIon, Some(run_hour), seed);

    for o in [&p1, &p2] {
        println!("{}:", o.policy.label());
        println!("  battery life:    {:.1} h", o.life_s / 3600.0);
        if let Some(t) = o.li_ion_empty_s {
            println!("  Li-ion empty:    hour {:.1}", t / 3600.0);
        }
        if let Some(t) = o.bendable_empty_s {
            println!("  bendable empty:  hour {:.1}", t / 3600.0);
        }
        println!("  total losses:    {:.0} J\n", o.total_loss_j);
    }
    println!(
        "preserving the Li-ion for the run bought {:+.1} h of battery life\n",
        (p2.life_s - p1.life_s) / 3600.0
    );

    // Now let the forecaster decide: it learns the daily pattern from five
    // recorded days, and a run expected within six hours of the morning
    // maps to a low directive, which selects the preserve policy.
    let days: Vec<_> = (0..5)
        .map(|day| watch_day(seed + day, Some(run_hour)))
        .collect();
    let forecaster = HistoryForecaster::from_history(&days, 0.3);
    let threshold = high_power_threshold_w();
    let run_ahead = (1..=6).any(|k| forecaster.predict_w(f64::from(7 + k) * 3600.0) >= threshold);
    let morning_directive = if run_ahead { 0.1 } else { 0.9 };
    let policy = if morning_directive < 0.5 {
        WatchPolicy::PreserveLiIon
    } else {
        WatchPolicy::MinimizeInstantaneousLosses
    };
    println!(
        "predictor after 5 days: run expected near hour {run_hour} → morning directive {morning_directive:.2} → {}",
        policy.label()
    );
    let auto = watch_scenario(policy, Some(run_hour), seed);
    println!(
        "auto-selected policy battery life: {:.1} h (fixed policy 1 gave {:.1} h)",
        auto.life_s / 3600.0,
        p1.life_s / 3600.0
    );
}
