//! The Section 5.3 2-in-1 scenario: drawing simultaneously from the tablet
//! and keyboard batteries vs charging one from the other.
//!
//! ```text
//! cargo run --release --example two_in_one
//! ```

use sdb::core::scenarios::two_in_one::{battery_life_s, Strategy};
use sdb::workloads::device::Activity;
use sdb::workloads::traces::tablet_session;

fn main() {
    println!("2-in-1 with two 4 Ah Li-ion cells: tablet (internal) + keyboard (external)\n");
    let workloads = [
        ("Email", vec![Activity::Network, Activity::Idle]),
        ("Browsing", vec![Activity::Network, Activity::Interactive]),
        (
            "Development",
            vec![Activity::Compute, Activity::Interactive],
        ),
        ("Gaming", vec![Activity::Compute]),
    ];
    println!(
        "{:<14} {:>18} {:>18} {:>14}",
        "workload", "simultaneous (h)", "charge-through (h)", "improvement"
    );
    for (name, acts) in workloads {
        let trace = tablet_session(7, &acts, 300.0, 3600.0);
        let sim = battery_life_s(Strategy::SimultaneousDraw, &trace, 48.0 * 3600.0);
        let ct = battery_life_s(Strategy::ChargeThrough, &trace, 48.0 * 3600.0);
        println!(
            "{:<14} {:>18.2} {:>18.2} {:>13.1}%",
            name,
            sim / 3600.0,
            ct / 3600.0,
            (sim / ct - 1.0) * 100.0
        );
    }
    println!("\nSplitting the draw halves each cell's current, quartering its I²R loss,");
    println!("and skips the double conversion of charging one battery from the other.");
}
