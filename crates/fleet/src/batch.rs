//! The SoA fleet engine: hybrid scalar / fast-forward device driver.
//!
//! The scalar engine ([`crate::engine`]) steps every device tick by tick.
//! Fleet populations spend most of those ticks on devices that are doing
//! nothing — a phone idling through the night at a fraction of a watt.
//! This module drives such stretches through [`SoaCohort`] (the `soa`
//! hook of [`sdb_core::scheduler::drive`]): after a real scalar tick, the
//! quiescence classifier parks the device in the cohort's lanes and the
//! closed-form kernel fast-forwards whole runs of identical trace points
//! in one call, re-syncing exactly at every boundary (load change,
//! external power, drift budget, gauge recalibration crossing, SoC floor).
//!
//! Determinism contract: like the scalar engine, every device outcome is
//! a pure function of `(FleetSpec, device index)` — the SoA report is
//! bit-identical at any thread count. Across *engines* the outcomes agree
//! within the documented fast-forward bound (DESIGN.md §14), not bit-for-
//! bit; the cross-engine property tests pin the bound.
//!
//! Cohorts that [`sdb_policy::PolicySpec::soa_eligible`] turns away —
//! planner policies, which commit plans at times the classifier cannot
//! see ahead of, and packs with thermal simulation enabled — get no lane,
//! and their devices run the scalar driver.

use crate::spec::FleetSpec;
use sdb_emulator::{QuiescenceConfig, SoaCohort};

/// Which per-device driver the fleet engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Tick-by-tick emulation of every device (the reference engine).
    #[default]
    Scalar,
    /// Structure-of-arrays fast path: quiescent devices park in SoA
    /// lanes and fast-forward idle stretches with the closed-form
    /// kernel. Within the documented bound of the scalar engine.
    Soa,
}

impl EngineKind {
    /// Parses `scalar` / `soa`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(Self::Scalar),
            "soa" => Ok(Self::Soa),
            other => Err(format!("unknown engine `{other}` (expected scalar|soa)")),
        }
    }

    /// The CLI/JSON name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Soa => "soa",
        }
    }
}

/// One shard's lazily-built SoA lanes, one slot per cohort. Lanes are
/// reused across the shard's devices, so array and snapshot buffers are
/// allocated once per (shard, cohort), not per device.
pub(crate) struct SoaScratch {
    /// `None` until the cohort's first device; then its lane, or `None`
    /// when the cohort runs the scalar driver.
    slots: Vec<Option<Option<Box<SoaCohort>>>>,
}

impl SoaScratch {
    pub(crate) fn new(cohorts: usize) -> Self {
        Self {
            slots: (0..cohorts).map(|_| None).collect(),
        }
    }

    /// The SoA lane of `device`'s cohort, built on first use; `None`
    /// when the cohort must run the scalar driver.
    pub(crate) fn lane(&mut self, spec: &FleetSpec, device: u64) -> Option<&mut SoaCohort> {
        let idx = spec.cohort_of(device);
        self.slots[idx]
            .get_or_insert_with(|| {
                let cohort = &spec.cohorts[idx];
                let template = cohort.pack.instantiate();
                cohort
                    .policy
                    .soa_eligible(&template)
                    .then(|| Box::new(SoaCohort::new(&template, 1, QuiescenceConfig)))
            })
            .as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_fleet, RunOptions};
    use crate::spec::{CohortSpec, PackTemplate, PolicySpec, WorkloadSpec};
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_core::policy::DischargeDirective;
    use sdb_core::runtime::SdbRuntime;
    use sdb_core::scheduler::{drive, run_trace, Hooks, SimOptions};
    use sdb_emulator::profile::ProfileKind;
    use sdb_workloads::traces::Trace;
    use std::ops::ControlFlow;
    use std::sync::Arc;

    fn idle_spec(devices: usize) -> FleetSpec {
        FleetSpec {
            devices,
            master_seed: 11,
            cohorts: vec![CohortSpec {
                name: "idle".to_owned(),
                weight: 1.0,
                pack: PackTemplate::new(vec![
                    (
                        BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                        0.9,
                        ProfileKind::Standard,
                    ),
                    (
                        BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                        0.8,
                        ProfileKind::Fast,
                    ),
                ]),
                workload: WorkloadSpec::Shared(Arc::new(Trace::constant(0.05, 4.0 * 3600.0))),
                policy: PolicySpec::Blend(0.5),
                update_period_s: 60.0,
            }],
            sim: SimOptions::default(),
        }
    }

    #[test]
    fn engine_kind_parses() {
        assert_eq!(EngineKind::parse("soa").unwrap(), EngineKind::Soa);
        assert_eq!(EngineKind::parse("scalar").unwrap(), EngineKind::Scalar);
        assert!(EngineKind::parse("warp").is_err());
        assert_eq!(EngineKind::Soa.name(), "soa");
    }

    #[test]
    fn soa_report_is_thread_invariant() {
        let spec = FleetSpec::default_population(16, 42).with_hours(3.0);
        let (r1, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(1)
            },
        )
        .unwrap();
        let (r4, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(4)
            },
        )
        .unwrap();
        assert_eq!(r1, r4);
        assert_eq!(r1.to_json(), r4.to_json());
    }

    #[test]
    fn soa_fast_forwards_idle_fleets() {
        let (_, stats, _) = run_fleet(
            &idle_spec(6),
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(2)
            },
        )
        .unwrap();
        let totals = stats.registry.counter_totals();
        let ff = totals
            .iter()
            .find(|(name, _)| name == "sdb_fleet_ff_ticks_total")
            .map_or(0, |(_, v)| *v);
        // 6 devices × 4 h × 60 s ticks = 1440 ticks; the bulk must have
        // been fast-forwarded for the engine to be worth anything.
        assert!(ff > 700, "fast-forwarded only {ff} of ~1440 ticks");
    }

    #[test]
    fn soa_matches_scalar_within_bounds() {
        let spec = idle_spec(5);
        let (scalar, _, _) = run_fleet(&spec, &RunOptions::new(2)).unwrap();
        let (soa, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(2)
            },
        )
        .unwrap();
        assert_eq!(scalar.devices, soa.devices);
        assert_eq!(scalar.brownout_rate, soa.brownout_rate);
        // No brownout on an idle fleet: life equals the full span exactly.
        assert_eq!(scalar.life_s.mean.to_bits(), soa.life_s.mean.to_bits());
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1e-9);
        assert!(
            rel(scalar.supplied_j_total, soa.supplied_j_total) < 1e-2,
            "supplied {} vs {}",
            scalar.supplied_j_total,
            soa.supplied_j_total
        );
        assert!(
            (scalar.final_soc.mean - soa.final_soc.mean).abs() < 1e-3,
            "final soc {} vs {}",
            scalar.final_soc.mean,
            soa.final_soc.mean
        );
    }

    #[test]
    fn planner_cohorts_fall_back_to_scalar_bit_exactly() {
        let spec = FleetSpec {
            cohorts: vec![CohortSpec {
                policy: PolicySpec::Oracle,
                ..idle_spec(4).cohorts.remove(0)
            }],
            ..idle_spec(4)
        };
        let (scalar, _, _) = run_fleet(&spec, &RunOptions::new(2)).unwrap();
        let (soa, _, _) = run_fleet(
            &spec,
            &RunOptions {
                engine: EngineKind::Soa,
                ..RunOptions::new(2)
            },
        )
        .unwrap();
        // Fallback means the engines are the same code path: bit-identical.
        assert_eq!(scalar, soa);
        assert_eq!(scalar.to_json(), soa.to_json());
    }

    #[test]
    fn hybrid_driver_matches_run_trace_on_busy_traces() {
        // A trace that never qualifies for quiescence (heavy load) takes
        // the scalar tick path on every point: bit-identical results.
        let cohort = &idle_spec(1).cohorts[0];
        let trace = Trace::constant(8.0, 2.0 * 3600.0);
        let opts = SimOptions::default();

        let mut m1 = cohort.pack.instantiate();
        let mut rt1 = SdbRuntime::new(2);
        rt1.set_discharge_directive(DischargeDirective::new(0.5));
        rt1.set_update_period(60.0);
        let full = run_trace(&mut m1, &mut rt1, &trace, &opts);

        let mut m2 = cohort.pack.instantiate();
        let mut rt2 = SdbRuntime::new(2);
        rt2.set_discharge_directive(DischargeDirective::new(0.5));
        rt2.set_update_period(60.0);
        let mut soa = SoaCohort::new(&m2, 1, QuiescenceConfig);
        let hooks = Hooks {
            soa: Some(&mut soa),
            ..Hooks::default()
        };
        let runs = trace.runs(opts.max_dt_s);
        let hybrid = drive(
            &mut m2,
            &mut rt2,
            &runs,
            &opts,
            hooks,
            |_, _| {},
            |_, _, _| ControlFlow::Continue(()),
        );
        assert_eq!(
            soa.ticks_advanced(),
            0,
            "an 8 W load must never fast-forward"
        );
        assert_eq!(full, hybrid);
    }
}
