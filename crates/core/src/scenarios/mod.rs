//! The Section 5 applications of SDB.
//!
//! Each submodule reproduces one scenario end-to-end on the emulated
//! hardware and returns structured results the figure harness, benches,
//! examples, and integration tests all share. Every scenario that runs
//! the SDB Runtime over a trace does so through
//! [`crate::scheduler::drive`], its own logic in `drive`'s step hooks:
//!
//! * [`hybrid`] — high power-density + high energy-density packs: energy
//!   density, charge speed, and longevity tradeoffs (Figure 11).
//! * [`turbo`] — CPU performance priority levels on a hybrid pack
//!   (Figure 12).
//! * [`watch`] — the bendable-strap smart-watch and the preserve policy
//!   (Figure 13).
//! * [`two_in_one`] — 2-in-1 internal/external battery management
//!   (Figure 14).
//! * [`drone`] — the Section 8 future-work quadcopter: burst power vs
//!   flight time (extension).

pub mod drone;
pub mod hybrid;
pub mod turbo;
pub mod two_in_one;
pub mod watch;

#[cfg(test)]
mod tests {
    use super::drone::{flight_profile, fly, DroneConfig};
    use super::hybrid::{charge_time_curve, HybridConfig};
    use super::two_in_one::{
        battery_life_s, battery_life_with_detach, two_in_one_comparison, Strategy,
    };
    use sdb_workloads::device::Activity;
    use sdb_workloads::traces::tablet_session;

    /// Figure 14 (seed 21): simultaneous and charge-through life
    /// per workload, seconds.
    const FIG14: [u64; 16] = [
        0x40d5ea0000000000,
        0x40d4cd0000000000,
        0x40cd5b0000000000,
        0x40cb6c0000000000,
        0x40dd628000000000,
        0x40dc2f0000000000,
        0x40c4820000000000,
        0x40c3290000000000,
        0x40c5450000000000,
        0x40c3bf0000000000,
        0x40be5a0000000000,
        0x40b8d80000000000,
        0x40cc200000000000,
        0x40ca310000000000,
        0x40cb4e0000000000,
        0x40c99b0000000000,
    ];
    /// The unit tests' 2-in-1 runs: both strategies always docked, then
    /// three dock/undock cycles, then two runs the cap ends (on a point
    /// boundary, and 10 s past a cap that falls inside a point), seconds.
    const TWO_IN_ONE: [u64; 7] = [
        0x40c3290000000000,
        0x40c1940000000000,
        0x40b5900000000000,
        0x40b3ec0000000000,
        0x40b4820000000000,
        0x40ac200000000000,
        0x40b3920000000000,
    ];
    /// `fly` on 2 and then 40 legs, per `DroneConfig::variants(0.03)`
    /// pack: completed (0/1), flight time, losses.
    const DRONE: [u64; 18] = [
        0,
        0,
        0x4030ed1d68fee3ed,
        1,
        0x4072200000000000,
        0x4081033ba41e3232,
        1,
        0x4072200000000000,
        0x407c7e5a48c44e23,
        0,
        0,
        0x4030ed1d68fee3ed,
        0,
        0x40934c0000000000,
        0x40a70c03bd7f3dad,
        0,
        0x4095b80000000000,
        0x40a25ec0c965122c,
    ];
    /// Figure 11b (60 W): minutes to each target, per paper config
    /// (`u64::MAX` = not reached).
    const FIG11B: [u64; 45] = [
        0x4032800000000000,
        0x4038800000000000,
        0x403ec00000000000,
        0x4042600000000000,
        0x4045800000000000,
        0x4048800000000000,
        0x404ba00000000000,
        0x404ea00000000000,
        0x4050e00000000000,
        0x4052600000000000,
        0x4053f00000000000,
        0x4055700000000000,
        0x4057000000000000,
        0x4058800000000000,
        0x405a400000000000,
        0x4022800000000000,
        0x4028800000000000,
        0x402e800000000000,
        0x4032000000000000,
        0x4035000000000000,
        0x4038000000000000,
        0x403ac00000000000,
        0x403dc00000000000,
        0x4040400000000000,
        0x4042000000000000,
        0x4044600000000000,
        0x4048800000000000,
        0x404ea00000000000,
        0x4052600000000000,
        0x4055700000000000,
        0x401f000000000000,
        0x4024800000000000,
        0x4029000000000000,
        0x402d800000000000,
        0x4031400000000000,
        0x4033800000000000,
        0x4035c00000000000,
        0x4038400000000000,
        0x403a800000000000,
        0x403cc00000000000,
        0x403f000000000000,
        0x4040c00000000000,
        0x4041e00000000000,
        0x4043200000000000,
        0x4044400000000000,
    ];

    /// Every number behind Figures 14 and 11b, the 2-in-1 unit tests and
    /// the drone flights, as `f64` bits. The figure renders round to two
    /// decimals, so only the bits show that a change to the trace loop
    /// left these results exact.
    #[test]
    fn paper_scenarios_keep_their_bits() {
        let fig14: Vec<u64> = two_in_one_comparison(21)
            .iter()
            .flat_map(|r| [r.simultaneous_life_s, r.charge_through_life_s])
            .map(f64::to_bits)
            .collect();
        assert_eq!(fig14, FIG14);

        let mixed = tablet_session(5, &[Activity::Network, Activity::Compute], 300.0, 3600.0);
        let compute = tablet_session(5, &[Activity::Compute], 300.0, 1800.0);
        let day = 24.0 * 3600.0;
        let two_in_one = [
            battery_life_s(Strategy::SimultaneousDraw, &mixed, day),
            battery_life_s(Strategy::ChargeThrough, &mixed, day),
            battery_life_with_detach(Strategy::SimultaneousDraw, &mixed, day, 600.0, 3000.0),
            battery_life_with_detach(Strategy::ChargeThrough, &compute, day, 300.0, 300.0),
            battery_life_with_detach(Strategy::ChargeThrough, &mixed, day, 600.0, 3000.0),
            battery_life_s(Strategy::SimultaneousDraw, &mixed, 3600.0),
            battery_life_s(Strategy::ChargeThrough, &compute, 5000.0),
        ];
        assert_eq!(two_in_one.map(f64::to_bits), TWO_IN_ONE);

        let mut drone = Vec::new();
        for legs in [2, 40] {
            for (_, cfg) in DroneConfig::variants(0.03) {
                let outcome = fly(&mut cfg.build_pack(), &flight_profile(legs));
                drone.push(u64::from(outcome.completed));
                drone.push(outcome.flight_time_s.to_bits());
                drone.push(outcome.losses_j.to_bits());
            }
        }
        assert_eq!(drone, DRONE);

        let fig11b: Vec<u64> = HybridConfig::paper_configs()
            .iter()
            .flat_map(|c| charge_time_curve(c, 60.0).minutes)
            .map(|m| m.map_or(u64::MAX, f64::to_bits))
            .collect();
        assert_eq!(fig11b, FIG11B);
    }
}
