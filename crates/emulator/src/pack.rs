//! Heterogeneous battery pack assembly, and the named pack catalog.
//!
//! A pack combines N cells of arbitrary chemistries with the SDB charging
//! and discharging circuits and one fuel gauge per cell (Section 6: fuel
//! gauges built for homogeneous multi-cell packs "do not work when the
//! batteries are heterogeneous", so SDB uses separate gauges).

use crate::micro::Microcontroller;
use crate::profile::ProfileKind;
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::library;
use sdb_battery_model::spec::BatterySpec;
use sdb_fuel_gauge::gauge::GaugeConfig;
use sdb_power_electronics::circuits::{ChargeTopology, DischargeTopology};
use std::sync::Arc;

/// One battery slot in the pack.
#[derive(Debug, Clone)]
pub(crate) struct SlotConfig {
    /// The cell in this slot. `Arc` so the cell, its gauge, and every
    /// device built from a shared fleet template reference one spec copy.
    pub(crate) spec: Arc<BatterySpec>,
    /// Initial state of charge.
    pub(crate) initial_soc: f64,
    /// Initially selected charging profile.
    pub(crate) profile: ProfileKind,
}

/// Full pack configuration.
#[derive(Debug, Clone)]
pub(crate) struct PackConfig {
    /// Battery slots.
    pub(crate) slots: Vec<SlotConfig>,
    /// Discharge circuit topology.
    pub(crate) discharge_topology: DischargeTopology,
    /// Charge circuit topology.
    pub(crate) charge_topology: ChargeTopology,
    /// Fuel-gauge configuration shared by all slots.
    pub(crate) gauge: GaugeConfig,
    /// Ambient temperature, °C: when set, every cell gets a lumped thermal
    /// model and temperature-dependent resistance.
    pub(crate) ambient_c: Option<f64>,
}

/// Builder for a [`Microcontroller`]-managed pack.
#[derive(Debug, Clone)]
pub struct PackBuilder {
    slots: Vec<SlotConfig>,
    discharge_topology: DischargeTopology,
    charge_topology: ChargeTopology,
    gauge: GaugeConfig,
    ambient_c: Option<f64>,
}

impl PackBuilder {
    /// Starts an empty pack with the SDB (integrated/reversible)
    /// topologies.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            discharge_topology: DischargeTopology::SdbIntegrated,
            charge_topology: ChargeTopology::SdbReversible,
            gauge: GaugeConfig::default(),
            ambient_c: None,
        }
    }

    /// Enables thermal simulation: every cell gets a lumped thermal model
    /// at this ambient temperature, and its resistance follows the
    /// Arrhenius temperature dependence.
    #[must_use]
    pub fn ambient_c(mut self, ambient_c: f64) -> Self {
        self.ambient_c = Some(ambient_c);
        self
    }

    /// Adds a battery at full charge with the standard profile.
    #[must_use]
    pub fn battery(self, spec: impl Into<Arc<BatterySpec>>) -> Self {
        self.battery_at(spec, 1.0, ProfileKind::Standard)
    }

    /// Adds a battery at a given SoC with a given profile. Accepts a spec
    /// by value or an `Arc` (fleet templates pass the shared `Arc` so no
    /// per-device copy is made).
    ///
    /// # Panics
    ///
    /// Panics if `initial_soc` is outside `[0, 1]`.
    #[must_use]
    pub fn battery_at(
        mut self,
        spec: impl Into<Arc<BatterySpec>>,
        initial_soc: f64,
        profile: ProfileKind,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&initial_soc),
            "soc out of range: {initial_soc}"
        );
        self.slots.push(SlotConfig {
            spec: spec.into(),
            initial_soc,
            profile,
        });
        self
    }

    /// Uses the naive circuit topologies (for ablation benches).
    #[must_use]
    pub fn naive_topologies(mut self) -> Self {
        self.discharge_topology = DischargeTopology::NaiveSwitch;
        self.charge_topology = ChargeTopology::NaiveMatrix;
        self
    }

    /// Overrides the gauge configuration.
    #[must_use]
    pub fn gauge(mut self, gauge: GaugeConfig) -> Self {
        self.gauge = gauge;
        self
    }

    /// Builds the microcontroller-managed pack.
    ///
    /// # Panics
    ///
    /// Panics if no batteries were added.
    #[must_use]
    pub fn build(self) -> Microcontroller {
        assert!(!self.slots.is_empty(), "a pack needs at least one battery");
        Microcontroller::new(PackConfig {
            slots: self.slots,
            discharge_topology: self.discharge_topology,
            charge_topology: self.charge_topology,
            gauge: self.gauge,
            ambient_c: self.ambient_c,
        })
    }
}

impl Default for PackBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// One battery slot of a pack template.
#[derive(Debug, Clone)]
pub struct BatterySlot {
    /// The (immutable, shared) electrochemical spec.
    pub spec: Arc<BatterySpec>,
    /// Initial state of charge in `[0, 1]`.
    pub initial_soc: f64,
    /// Charging profile installed in the slot.
    pub profile: ProfileKind,
}

/// A pack configuration many devices instantiate. The specs are behind
/// `Arc`: building the template costs one spec construction per slot no
/// matter how many devices instantiate it.
#[derive(Debug, Clone)]
pub struct PackTemplate {
    /// The slots, in hardware order.
    pub batteries: Vec<BatterySlot>,
}

/// A catalog pack: name, description, and each slot's spec and charging
/// profile.
type CatalogEntry = (
    &'static str,
    &'static str,
    fn() -> Vec<(BatterySpec, ProfileKind)>,
);

/// The named pack catalog, in listing order.
const CATALOG: [CatalogEntry; 4] = [
    (
        "watch",
        "200 mAh Li-ion + 200 mAh bendable strap (paper §5.2)",
        || {
            vec![
                (
                    library::watch_li_ion().spec().clone(),
                    ProfileKind::Standard,
                ),
                (
                    library::watch_bendable().spec().clone(),
                    ProfileKind::Gentle,
                ),
            ]
        },
    ),
    (
        "tablet-hybrid",
        "4 Ah high-energy + 4 Ah fast-charge (paper §5.1)",
        || {
            vec![
                (
                    BatterySpec::from_chemistry("high-energy", Chemistry::Type2CoStandard, 4.0),
                    ProfileKind::Standard,
                ),
                (
                    BatterySpec::from_chemistry("fast-charge", Chemistry::Type3CoPower, 4.0),
                    ProfileKind::Fast,
                ),
            ]
        },
    ),
    (
        "two-in-one",
        "2 × 4 Ah Li-ion, internal + keyboard (paper §5.3)",
        || {
            vec![
                (
                    BatterySpec::from_chemistry("internal", Chemistry::Type2CoStandard, 4.0),
                    ProfileKind::Standard,
                ),
                (
                    BatterySpec::from_chemistry("external", Chemistry::Type2CoStandard, 4.0),
                    ProfileKind::Standard,
                ),
            ]
        },
    ),
    ("phone", "3 Ah high-energy + 1 Ah high-power", || {
        vec![
            (
                BatterySpec::from_chemistry("high-energy", Chemistry::Type2CoStandard, 3.0),
                ProfileKind::Standard,
            ),
            (
                BatterySpec::from_chemistry("high-power", Chemistry::Type3CoPower, 1.0),
                ProfileKind::Fast,
            ),
        ]
    }),
];

impl PackTemplate {
    /// A template from `(spec, initial_soc, profile)` triples.
    #[must_use]
    pub fn new(slots: Vec<(BatterySpec, f64, ProfileKind)>) -> Self {
        Self {
            batteries: slots
                .into_iter()
                .map(|(spec, initial_soc, profile)| BatterySlot {
                    spec: Arc::new(spec),
                    initial_soc,
                    profile,
                })
                .collect(),
        }
    }

    /// The named catalog as `(name, description)` pairs, in listing
    /// order: the paper's §5.2 watch, §5.1 tablet hybrid and §5.3
    /// two-in-one, and a phone.
    pub fn catalog() -> impl Iterator<Item = (&'static str, &'static str)> {
        CATALOG.iter().map(|&(name, about, _)| (name, about))
    }

    /// The catalog pack `name` with every slot starting at `soc`, or
    /// `None` for a name not in [`PackTemplate::catalog`].
    #[must_use]
    pub fn named(name: &str, soc: f64) -> Option<Self> {
        let (_, _, slots) = CATALOG.iter().find(|(n, _, _)| *n == name)?;
        Some(Self::new(
            slots()
                .into_iter()
                .map(|(spec, profile)| (spec, soc, profile))
                .collect(),
        ))
    }

    /// The same pack shape with each slot's chemistry substituted: slot
    /// `i` takes `chems[i % chems.len()]`, keeping its capacity, initial
    /// SoC, and charging profile. This is the chemistry axis of the
    /// campaign matrix — one scenario's pack swept across the chemistry
    /// library without disturbing the rest of the cell configuration.
    ///
    /// # Panics
    ///
    /// Panics if `chems` is empty.
    #[must_use]
    pub fn with_chemistries(&self, chems: &[Chemistry]) -> Self {
        assert!(!chems.is_empty(), "chemistry substitution needs a value");
        Self {
            batteries: self
                .batteries
                .iter()
                .enumerate()
                .map(|(i, slot)| BatterySlot {
                    spec: Arc::new(BatterySpec::from_chemistry(
                        &slot.spec.name,
                        chems[i % chems.len()],
                        slot.spec.capacity_ah,
                    )),
                    ..slot.clone()
                })
                .collect(),
        }
    }

    /// Builds one device's pack. The builder takes each slot's shared
    /// `Arc`, so no per-device spec copy is made.
    ///
    /// # Panics
    ///
    /// As [`PackBuilder::battery_at`] and [`PackBuilder::build`]: an
    /// initial SoC outside `[0, 1]` or an empty template.
    #[must_use]
    pub fn instantiate(&self) -> Microcontroller {
        self.batteries
            .iter()
            .fold(PackBuilder::new(), |b, slot| {
                b.battery_at(Arc::clone(&slot.spec), slot.initial_soc, slot.profile)
            })
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_pack() {
        let micro = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                0.5,
                ProfileKind::Fast,
            )
            .build();
        assert_eq!(micro.battery_count(), 2);
        let status = micro.query_battery_status();
        assert!((status[0].soc - 1.0).abs() < 1e-9);
        assert!((status[1].soc - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one battery")]
    fn empty_pack_rejected() {
        let _ = PackBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "soc out of range")]
    fn bad_soc_rejected() {
        let _ = PackBuilder::new().battery_at(
            BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
            1.5,
            ProfileKind::Standard,
        );
    }

    #[test]
    fn every_catalog_pack_builds_at_its_start_soc() {
        let names: Vec<&str> = PackTemplate::catalog().map(|(name, _)| name).collect();
        assert_eq!(names, ["watch", "tablet-hybrid", "two-in-one", "phone"]);
        for name in names {
            let micro = PackTemplate::named(name, 0.4).unwrap().instantiate();
            assert_eq!(micro.battery_count(), 2, "{name}");
            for s in micro.query_battery_status() {
                assert!((s.soc - 0.4).abs() < 1e-9, "{name}: soc {}", s.soc);
            }
        }
        assert!(PackTemplate::named("toaster", 1.0).is_none());
    }
}
