//! Declarative fleet populations.
//!
//! A fleet is a weighted mixture of cohorts. Each cohort names a pack
//! template (battery specs shared behind `Arc` so a ten-thousand-device
//! cohort builds its specs once), a workload family, and a policy. Device
//! `i` of the fleet is assigned a cohort and a private RNG stream purely
//! from `(master_seed, i)`, so the population — and therefore the whole
//! fleet report — is reproducible from one integer.

use sdb_core::scheduler::SimOptions;
use sdb_rng::{derive_seed, DetRng};
use sdb_workloads::traces::Trace;
use std::sync::Arc;

pub use sdb_emulator::pack::{BatterySlot, PackTemplate};
pub use sdb_policy::PolicySpec;
pub use sdb_workloads::WorkloadSpec;

/// Stream-salt so cohort assignment draws are decorrelated from the
/// device's own simulation stream.
const COHORT_SALT: u64 = 0xC0C0_57A7_5DB0_F1EE;

/// One weighted cohort of the fleet.
#[derive(Debug, Clone)]
pub struct CohortSpec {
    /// Human-readable cohort name (appears in the report).
    pub name: String,
    /// Relative weight of the cohort in the population (need not sum to 1).
    pub weight: f64,
    /// The pack every device of the cohort carries.
    pub pack: PackTemplate,
    /// The workload family the cohort runs.
    pub workload: WorkloadSpec,
    /// The policy the cohort's runtime applies.
    pub policy: PolicySpec,
    /// Runtime policy re-evaluation period, seconds.
    pub update_period_s: f64,
}

/// A full fleet description: how many devices, which cohorts, the master
/// seed, and the simulation options shared by every device.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Master seed; every per-device stream is derived from it.
    pub master_seed: u64,
    /// The weighted cohort mixture.
    pub cohorts: Vec<CohortSpec>,
    /// Simulation options applied to every device.
    pub sim: SimOptions,
}

impl FleetSpec {
    /// A heterogeneous default population: phone commuters (50 %), watch
    /// runners under the preserve policy (30 %), and tablet hybrids on
    /// pure RBL (20 %) — one cohort per Section 5 scenario family.
    #[must_use]
    pub fn default_population(devices: usize, master_seed: u64) -> Self {
        let preserve = PolicySpec::Preserve {
            efficient: 0,
            inefficient: 1,
            threshold_w: 0.3,
        };
        let cohorts = [
            (
                "phone-commuter",
                0.5,
                "phone",
                "phone-day",
                PolicySpec::Blend(0.5),
            ),
            ("watch-runner", 0.3, "watch", "watch-day", preserve),
            (
                "tablet-hybrid",
                0.2,
                "tablet-hybrid",
                "tablet-mixed",
                PolicySpec::Blend(1.0),
            ),
        ];
        Self {
            devices,
            master_seed,
            cohorts: cohorts
                .into_iter()
                .map(|(name, weight, pack, workload, policy)| CohortSpec {
                    name: name.to_owned(),
                    weight,
                    pack: PackTemplate::named(pack, 1.0).expect("a catalog pack"),
                    workload: WorkloadSpec::named(workload).expect("a catalog workload"),
                    policy,
                    update_period_s: 60.0,
                })
                .collect(),
            sim: SimOptions::default(),
        }
    }

    /// Replaces every cohort's policy with `policy` — how `sdb fleet
    /// --policy planned|oracle` pits the lookahead planners against the
    /// default population's greedy mix on identical packs and workloads.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        for cohort in &mut self.cohorts {
            cohort.policy = policy;
        }
        self
    }

    /// Clips every cohort's workload to the first `hours` hours (each
    /// device still runs its own cohort-appropriate trace) — handy for
    /// benches and smoke tests where a full 24 h day per device is
    /// overkill.
    #[must_use]
    pub fn with_hours(mut self, hours: f64) -> Self {
        for cohort in &mut self.cohorts {
            let inner = std::mem::replace(
                &mut cohort.workload,
                WorkloadSpec::Shared(Arc::new(Trace::constant(0.0, 1.0))),
            );
            cohort.workload = match inner {
                // Already truncated: tighten the bound instead of nesting.
                WorkloadSpec::Truncated { inner, max_s } => WorkloadSpec::Truncated {
                    inner,
                    max_s: max_s.min(hours * 3600.0),
                },
                other => WorkloadSpec::Truncated {
                    inner: Box::new(other),
                    max_s: hours * 3600.0,
                },
            };
        }
        self
    }

    /// Validates the spec: at least one device and one cohort, positive
    /// total weight, valid per-cohort fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet needs at least one device".to_owned());
        }
        if self.cohorts.is_empty() {
            return Err("fleet needs at least one cohort".to_owned());
        }
        let total: f64 = self.cohorts.iter().map(|c| c.weight).sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(format!(
                "cohort weights must sum to a positive value, got {total}"
            ));
        }
        for c in &self.cohorts {
            if !(c.weight.is_finite() && c.weight >= 0.0) {
                return Err(format!(
                    "cohort `{}` has invalid weight {}",
                    c.name, c.weight
                ));
            }
            if c.pack.batteries.is_empty() {
                return Err(format!("cohort `{}` has an empty pack", c.name));
            }
            if c.update_period_s <= 0.0 {
                return Err(format!(
                    "cohort `{}` has non-positive update period",
                    c.name
                ));
            }
        }
        Ok(())
    }

    /// The cohort index device `device` belongs to: a weighted draw from a
    /// stream derived from the master seed and the device index —
    /// deterministic, independent of execution order.
    ///
    /// # Panics
    ///
    /// Panics on an empty cohort list (callers validate first).
    #[must_use]
    pub fn cohort_of(&self, device: u64) -> usize {
        let total: f64 = self.cohorts.iter().map(|c| c.weight).sum();
        let mut rng = DetRng::seed_from_u64(derive_seed(self.master_seed ^ COHORT_SALT, device));
        let mut draw = rng.next_f64() * total;
        for (i, c) in self.cohorts.iter().enumerate() {
            draw -= c.weight;
            if draw < 0.0 {
                return i;
            }
        }
        self.cohorts.len() - 1
    }

    /// The private RNG stream seed of device `device`.
    #[must_use]
    pub fn device_seed(&self, device: u64) -> u64 {
        derive_seed(self.master_seed, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_battery_model::chemistry::Chemistry;

    #[test]
    fn default_population_validates() {
        let spec = FleetSpec::default_population(100, 7);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.cohorts.len(), 3);
    }

    #[test]
    fn cohort_assignment_is_deterministic_and_weighted() {
        let spec = FleetSpec::default_population(0, 99);
        let n = 10_000u64;
        let mut counts = [0usize; 3];
        for d in 0..n {
            let c = spec.cohort_of(d);
            assert_eq!(c, spec.cohort_of(d), "assignment must be stable");
            counts[c] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.5).abs() < 0.03, "phone share {}", frac(0));
        assert!((frac(1) - 0.3).abs() < 0.03, "watch share {}", frac(1));
        assert!((frac(2) - 0.2).abs() < 0.03, "tablet share {}", frac(2));
    }

    #[test]
    fn chemistry_substitution_keeps_shape_and_cycles_values() {
        let base = PackTemplate::named("phone", 1.0).unwrap();
        let sub = base.with_chemistries(&[Chemistry::Type1LfpPower, Chemistry::OtherLto]);
        assert_eq!(sub.batteries.len(), base.batteries.len());
        assert_eq!(sub.batteries[0].spec.chemistry, Chemistry::Type1LfpPower);
        assert_eq!(sub.batteries[1].spec.chemistry, Chemistry::OtherLto);
        for (s, b) in sub.batteries.iter().zip(&base.batteries) {
            assert_eq!(s.spec.capacity_ah, b.spec.capacity_ah);
            assert_eq!(s.initial_soc, b.initial_soc);
            assert_eq!(s.profile, b.profile);
        }
        // A single chemistry fills every slot.
        let mono = base.with_chemistries(&[Chemistry::OtherNmc]);
        assert!(mono
            .batteries
            .iter()
            .all(|s| s.spec.chemistry == Chemistry::OtherNmc));
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = FleetSpec::default_population(10, 1);
        spec.devices = 0;
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::default_population(10, 1);
        spec.cohorts.clear();
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::default_population(10, 1);
        for c in &mut spec.cohorts {
            c.weight = 0.0;
        }
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::default_population(10, 1);
        spec.cohorts[0].update_period_s = 0.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn with_hours_wraps_every_cohort_and_tightens_on_repeat() {
        let spec = FleetSpec::default_population(4, 1)
            .with_hours(3.0)
            .with_hours(2.0);
        for c in &spec.cohorts {
            match &c.workload {
                WorkloadSpec::Truncated { max_s, inner } => {
                    assert!((max_s - 7200.0).abs() < 1e-9);
                    assert!(!matches!(**inner, WorkloadSpec::Truncated { .. }));
                }
                other => panic!("expected truncated workload, got {other:?}"),
            }
        }
    }

    #[test]
    fn device_seeds_are_distinct() {
        let spec = FleetSpec::default_population(10, 3);
        let mut seeds: Vec<u64> = (0..1000).map(|d| spec.device_seed(d)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
    }
}
