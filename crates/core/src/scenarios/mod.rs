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
    use super::watch::{watch_scenario, WatchPolicy};
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

    /// Figure 13 (run at hour 9, seed 13), per `WatchPolicy`: life,
    /// Li-ion and bendable empty times (`u64::MAX` = never), total loss,
    /// then the count and bits of the hourly losses and of the hourly
    /// load energies.
    const FIG13: [u64; 162] = [
        // Policy 1.
        0x40e0d10000000000,
        0x40e0950000000000,
        0xffffffffffffffff,
        0x4084be93589c4ce5,
        0x18,
        0x400239f5bde77268,
        0x40041f302f3d3740,
        0x4004d8e0419320dd,
        0x4003e67e6edead49,
        0x4002736ae86d876a,
        0x400370615af50e47,
        0x40060e84679020f5,
        0x400496fd86256f2f,
        0x4005528685dca100,
        0x40837730b9fa96af,
        0x4031ed795cbc345a,
        0x3fd7ea66210d4b2b,
        0x3f63fcbce49ef9e9,
        0x3f16f19320564b80,
        0x3eb1c5a96b4ff8c8,
        0x3e541376f164c012,
        0x3e081894aa35959a,
        0x3daa5df2c4345019,
        0x3d4ab3126610a74c,
        0x3d2394eed21ace64,
        0x3d2304bde940a37b,
        0x3d2304bdf3e7aed7,
        0x3d239e7a8089b6a5,
        0x3d23519c3a38b814,
        0x18,
        0x406f90cda284f0f8,
        0x4072048e0d2fe181,
        0x4072be4dac1fe1a4,
        0x40707aea0d8d9aa8,
        0x406bc2e9d1317901,
        0x406d6c3cc7784b9f,
        0x40706f2de1c3d8cc,
        0x406b1e053a9a9e14,
        0x406ad1e8077acfbd,
        0x40a103f7a01d3da8,
        0x406c144eda4bd9e2,
        0x4072a2b13359ff53,
        0x4073231c724643fd,
        0x406e1d583482246a,
        0x406c48e6ce7d35bb,
        0x40721580f416de51,
        0x4049ddb22d0e55ff,
        0x4049ddb22d0e55ff,
        0x404e21cac0831268,
        0x4045999999999995,
        0x404e21cac0831268,
        0x404e21cac0831266,
        0x4045999999999995,
        0x4049ddb22d0e5600,
        // Policy 2.
        0x40e3830000000000,
        0x40e3830000000000,
        0xffffffffffffffff,
        0x406a27ec395538e8,
        0x18,
        0x402663e832c515b7,
        0x402dad90ffca4461,
        0x402ff99180c1b135,
        0x402dbe4ed3e299c5,
        0x40290f6d9fddf3c4,
        0x402dd8c9edd53476,
        0x40352b1ab032e339,
        0x4033d782ca766614,
        0x40138580e9b68c0e,
        0x4051c2588c7e9a0f,
        0x401b1f2824f424ce,
        0x3ff316f4c5dfdfa2,
        0x3e8b4d714909cf40,
        0x3e3ff2025d672a5d,
        0x3dd8bf8c15e534f0,
        0x3d7be5ca96199258,
        0x3d332b58b08d2111,
        0x3d23513ee91d1b90,
        0x3d2304bdf37f7db2,
        0x3d239e7a8089b619,
        0x3d2304bdf3e7b983,
        0x3d2304bdf3e7b983,
        0x3d239e7a8089b6a5,
        0x3d23519c3a38b814,
        0x18,
        0x406f90cda284f0f8,
        0x4072048e0d2fe181,
        0x4072be4dac1fe1a4,
        0x40707aea0d8d9aa8,
        0x406bc2e9d1317901,
        0x406d6c3cc7784b9f,
        0x40706f2de1c3d8cc,
        0x406b1e053a9a9e14,
        0x406ad1e8077acfbd,
        0x40a103f7a01d3da8,
        0x406c144eda4bd9e2,
        0x4072a2b13359ff53,
        0x4073231c724643fd,
        0x406e1d583482246a,
        0x406c48e6ce7d35bb,
        0x40721580f416de51,
        0x4049ddb22d0e55ff,
        0x4049ddb22d0e55ff,
        0x404e21cac0831268,
        0x4045999999999995,
        0x404e21cac0831268,
        0x404e21cac0831266,
        0x4045999999999995,
        0x4049ddb22d0e5600,
        // Oracle.
        0x40e3830000000000,
        0x40e3830000000000,
        0xffffffffffffffff,
        0x406a27ec395538e9,
        0x18,
        0x402663e832c515b7,
        0x402dad90ffca4461,
        0x402ff99180c1b135,
        0x402dbe4ed3e299c5,
        0x40290f6d9fddf3c4,
        0x402dd8c9edd53476,
        0x40352b1ab032e339,
        0x4033d782ca766614,
        0x40138580e9b68c0e,
        0x4051c2588c7e9a0f,
        0x401b1f2824f424d0,
        0x3ff316f4c5dfdf9c,
        0x3e8b4d714909cf40,
        0x3e3ff2025d672a5d,
        0x3dd8bf8c15e534f0,
        0x3d7be5ca96199258,
        0x3d332b58b08d2111,
        0x3d23513ee91d1b90,
        0x3d2304bdf37f7db2,
        0x3d239e7a8089b619,
        0x3d2304bdf3e7b983,
        0x3d2304bdf3e7b983,
        0x3d239e7a8089b6a5,
        0x3d23519c3a38b814,
        0x18,
        0x406f90cda284f0f8,
        0x4072048e0d2fe181,
        0x4072be4dac1fe1a4,
        0x40707aea0d8d9aa8,
        0x406bc2e9d1317901,
        0x406d6c3cc7784b9f,
        0x40706f2de1c3d8cc,
        0x406b1e053a9a9e14,
        0x406ad1e8077acfbd,
        0x40a103f7a01d3da8,
        0x406c144eda4bd9e2,
        0x4072a2b13359ff53,
        0x4073231c724643fd,
        0x406e1d583482246a,
        0x406c48e6ce7d35bb,
        0x40721580f416de51,
        0x4049ddb22d0e55ff,
        0x4049ddb22d0e55ff,
        0x404e21cac0831268,
        0x4045999999999995,
        0x404e21cac0831268,
        0x404e21cac0831266,
        0x4045999999999995,
        0x4049ddb22d0e5600,
    ];

    /// Every number behind Figures 14, 13 and 11b, the 2-in-1 unit tests
    /// and the drone flights, as `f64` bits. The figure renders round to at
    /// most two decimals, so only the bits show that a change to the trace loop
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

        let fig13: Vec<u64> = [
            WatchPolicy::MinimizeInstantaneousLosses,
            WatchPolicy::PreserveLiIon,
            WatchPolicy::Oracle,
        ]
        .into_iter()
        .flat_map(|policy| {
            let o = watch_scenario(policy, Some(9.0), 13);
            let never = |t: Option<f64>| t.map_or(u64::MAX, f64::to_bits);
            let mut bits = vec![
                o.life_s.to_bits(),
                never(o.li_ion_empty_s),
                never(o.bendable_empty_s),
                o.total_loss_j.to_bits(),
            ];
            for hourly in [&o.hourly_loss_j, &o.hourly_load_j] {
                bits.push(hourly.len() as u64);
                bits.extend(hourly.iter().map(|j| j.to_bits()));
            }
            bits
        })
        .collect();
        assert_eq!(fig13, FIG13);
    }
}
