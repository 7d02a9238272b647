//! Declarative campaign specs: the five matrix axes and their presets.
//!
//! A campaign is the cross product of named axis values — scenario ×
//! chemistry × fault plan × policy × engine — plus the scalar knobs
//! (master seed, horizon, devices per cell). Every axis value is a
//! *name* resolved to a preset here, so a cell is fully described by its
//! key string and the spec's scalars; that is what makes the repro
//! command emitted by the minimizer self-contained.

use sdb_battery_model::chemistry::Chemistry;
use sdb_emulator::{fnv1a_64, PackTemplate};
use sdb_fleet::EngineKind;
use sdb_rng::derive_seed;
use sdb_workloads::traces::Trace;
use sdb_workloads::WorkloadSpec;
use std::sync::Arc;

pub use sdb_policy::PolicyMode as CellPolicy;

/// Every known scenario axis value (corpus order).
pub const SCENARIOS: &[&str] = &["standby", "phone-day", "watch-day", "tablet-mixed"];

/// Every known chemistry-pair axis value.
pub const CHEMISTRIES: &[&str] = &["co", "lfp", "nmc-lto", "bendable"];

/// Every known fault-plan axis value.
pub const FAULTS: &[&str] = &["none", "light", "moderate", "heavy"];

/// Every known policy axis value.
pub const POLICIES: &[&str] = &["greedy", "planned", "oracle"];

/// Every known engine axis value.
pub const ENGINES: &[&str] = &["scalar", "soa"];

/// A resolved scenario preset: pack shape + workload family.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The pack template before chemistry substitution.
    pub pack: PackTemplate,
    /// The workload family (seeded per device).
    pub workload: WorkloadSpec,
    /// Runtime policy re-evaluation period, seconds.
    pub update_period_s: f64,
}

/// Resolves a scenario name: a catalog pack at full charge under the
/// catalog workload of the same name, except `standby`, a quiescent day
/// of constant trickle load on the phone pack (the SoA engine's best
/// case, and the cheapest cell in the matrix).
///
/// # Errors
///
/// Returns a message naming the valid values on an unknown name.
pub fn scenario(name: &str) -> Result<Scenario, String> {
    let pack = match name {
        "standby" | "phone-day" => "phone",
        "watch-day" => "watch",
        "tablet-mixed" => "tablet-hybrid",
        other => {
            return Err(format!(
                "unknown scenario `{other}` (expected one of {})",
                SCENARIOS.join("|")
            ))
        }
    };
    let workload = WorkloadSpec::named(name)
        .unwrap_or_else(|| WorkloadSpec::Shared(Arc::new(Trace::constant(0.05, 24.0 * 3600.0))));
    Ok(Scenario {
        pack: PackTemplate::named(pack, 1.0).expect("a catalog pack"),
        workload,
        update_period_s: 60.0,
    })
}

/// Resolves a chemistry-pair name to the slot-substitution list fed to
/// [`PackTemplate::with_chemistries`] (slot `i` takes entry `i % len`).
///
/// # Errors
///
/// Returns a message naming the valid values on an unknown name.
pub fn chemistry_pair(name: &str) -> Result<Vec<Chemistry>, String> {
    match name {
        "co" => Ok(vec![Chemistry::Type2CoStandard, Chemistry::Type3CoPower]),
        "lfp" => Ok(vec![Chemistry::Type1LfpPower, Chemistry::Type3CoPower]),
        "nmc-lto" => Ok(vec![Chemistry::OtherNmc, Chemistry::OtherLto]),
        "bendable" => Ok(vec![Chemistry::Type2CoStandard, Chemistry::Type4Bendable]),
        other => Err(format!(
            "unknown chemistry pair `{other}` (expected one of {})",
            CHEMISTRIES.join("|")
        )),
    }
}

/// Resolves a fault-plan name to a [`sdb_chaos::FaultPlan::generate`]
/// intensity. `none` (0.0) selects the fault-free scalar/SoA drivers;
/// anything positive selects the linked chaos driver.
///
/// # Errors
///
/// Returns a message naming the valid values on an unknown name.
pub fn fault_intensity(name: &str) -> Result<f64, String> {
    match name {
        "none" => Ok(0.0),
        "light" => Ok(0.35),
        "moderate" => Ok(0.7),
        "heavy" => Ok(1.0),
        other => Err(format!(
            "unknown fault plan `{other}` (expected one of {})",
            FAULTS.join("|")
        )),
    }
}

/// One cell of the expanded matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the expanded matrix (row-major in axis declaration
    /// order: scenario, chemistry, fault, policy, engine).
    pub index: usize,
    /// Scenario axis value.
    pub scenario: String,
    /// Chemistry-pair axis value.
    pub chemistry: String,
    /// Fault-plan axis value.
    pub fault: String,
    /// Policy axis value.
    pub policy: CellPolicy,
    /// Engine axis value.
    pub engine: EngineKind,
}

impl Cell {
    /// The cell's full identity: `scenario/chemistry/fault/policy/engine`.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.scenario,
            self.chemistry,
            self.fault,
            self.policy.name(),
            self.engine.name()
        )
    }

    /// The seed-deriving identity: the key *without* the engine axis.
    /// Engine-paired cells share workloads and fault plans, which is what
    /// makes the cross-engine differential comparison meaningful.
    #[must_use]
    pub fn seed_key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.scenario,
            self.chemistry,
            self.fault,
            self.policy.name()
        )
    }
}

/// A full campaign description. Every run artifact — outcome matrix,
/// checkpoint, baseline, report — is a pure function of this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Scenario axis values, in matrix order.
    pub scenarios: Vec<String>,
    /// Chemistry-pair axis values.
    pub chemistries: Vec<String>,
    /// Fault-plan axis values.
    pub faults: Vec<String>,
    /// Policy axis values.
    pub policies: Vec<String>,
    /// Engine axis values.
    pub engines: Vec<String>,
    /// Master seed; every cell/device stream derives from it.
    pub master_seed: u64,
    /// Per-device simulated horizon, hours (workloads are truncated).
    pub hours: f64,
    /// Independent devices simulated per cell.
    pub devices_per_cell: usize,
}

impl Default for CampaignSpec {
    /// The pruned CI matrix: 2 scenarios × 3 chemistries × 2 fault plans
    /// × 2 policies × 2 engines = 48 cells, 2 devices each.
    fn default() -> Self {
        Self {
            scenarios: vec!["standby".to_owned(), "phone-day".to_owned()],
            chemistries: vec!["co".to_owned(), "lfp".to_owned(), "nmc-lto".to_owned()],
            faults: vec!["none".to_owned(), "moderate".to_owned()],
            policies: vec!["greedy".to_owned(), "planned".to_owned()],
            engines: vec!["scalar".to_owned(), "soa".to_owned()],
            master_seed: 0xCA4_5EED,
            hours: 1.5,
            devices_per_cell: 2,
        }
    }
}

fn check_axis(name: &str, values: &[String], resolve: impl Fn(&str) -> bool) -> Result<(), String> {
    if values.is_empty() {
        return Err(format!("campaign needs at least one {name}"));
    }
    for (i, v) in values.iter().enumerate() {
        if !resolve(v) {
            return Err(format!("{name} axis: unresolvable value `{v}`"));
        }
        if values[..i].contains(v) {
            return Err(format!("{name} axis: duplicate value `{v}`"));
        }
    }
    Ok(())
}

impl CampaignSpec {
    /// Validates every axis value and scalar knob.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        check_axis("scenario", &self.scenarios, |v| scenario(v).is_ok())?;
        check_axis("chemistry", &self.chemistries, |v| {
            chemistry_pair(v).is_ok()
        })?;
        check_axis("fault", &self.faults, |v| fault_intensity(v).is_ok())?;
        check_axis("policy", &self.policies, |v| CellPolicy::parse(v).is_ok())?;
        check_axis("engine", &self.engines, |v| EngineKind::parse(v).is_ok())?;
        if !(self.hours.is_finite() && self.hours > 0.0) {
            return Err(format!("hours must be positive, got {}", self.hours));
        }
        if self.devices_per_cell == 0 {
            return Err("campaign needs at least one device per cell".to_owned());
        }
        Ok(())
    }

    /// Expands the matrix into cells, row-major in axis declaration order.
    ///
    /// # Errors
    ///
    /// Returns the first validation error.
    pub fn cells(&self) -> Result<Vec<Cell>, String> {
        self.validate()?;
        let mut cells =
            Vec::with_capacity(self.scenarios.len() * self.chemistries.len() * self.faults.len());
        let mut index = 0;
        for s in &self.scenarios {
            for c in &self.chemistries {
                for f in &self.faults {
                    for p in &self.policies {
                        for e in &self.engines {
                            cells.push(Cell {
                                index,
                                scenario: s.clone(),
                                chemistry: c.clone(),
                                fault: f.clone(),
                                policy: CellPolicy::parse(p).expect("validated"),
                                engine: EngineKind::parse(e).expect("validated"),
                            });
                            index += 1;
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Matrix dimensions `[scenarios, chemistries, faults, policies,
    /// engines]`.
    #[must_use]
    pub fn dims(&self) -> [usize; 5] {
        [
            self.scenarios.len(),
            self.chemistries.len(),
            self.faults.len(),
            self.policies.len(),
            self.engines.len(),
        ]
    }

    /// The cell's seed stream: derived from the master seed and the
    /// *engine-free* cell identity, never from the cell's matrix position
    /// — so a 1-cell repro run reproduces the full matrix's digests, and
    /// engine-paired cells share workloads and fault plans.
    #[must_use]
    pub fn cell_seed(&self, cell: &Cell) -> u64 {
        derive_seed(self.master_seed, fnv1a_64(cell.seed_key().as_bytes()))
    }

    /// The private stream seed of `device` within `cell`.
    #[must_use]
    pub fn device_seed(&self, cell: &Cell, device: u64) -> u64 {
        derive_seed(self.cell_seed(cell), device)
    }

    /// Digest over the *entire* configuration including axis lists; cell
    /// indices in a checkpoint are only meaningful under the exact same
    /// matrix, so resume refuses a checkpoint whose config digest differs.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        fnv1a_64(self.canonical(true).as_bytes())
    }

    /// Digest over the cell-independent scalars (seed, hours, devices per
    /// cell) only. Baselines carry this one: cell outcomes don't depend on
    /// which *other* cells a run included, so a pruned repro run can still
    /// be compared against the full matrix's baseline file.
    #[must_use]
    pub fn baseline_config_digest(&self) -> u64 {
        fnv1a_64(self.canonical(false).as_bytes())
    }

    fn canonical(&self, with_axes: bool) -> String {
        let mut s = format!(
            "sdb-campaign-config-v1|seed={:#x}|hours={:016x}|devices={}",
            self.master_seed,
            self.hours.to_bits(),
            self.devices_per_cell
        );
        if with_axes {
            s.push_str(&format!(
                "|scenarios={}|chemistries={}|faults={}|policies={}|engines={}",
                self.scenarios.join(","),
                self.chemistries.join(","),
                self.faults.join(","),
                self.policies.join(","),
                self.engines.join(",")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_48_cell_pruned_matrix() {
        let spec = CampaignSpec::default();
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 48);
        assert_eq!(spec.dims(), [2, 3, 2, 2, 2]);
        // Keys are unique and match matrix position.
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 48);
    }

    #[test]
    fn every_preset_name_resolves() {
        for s in SCENARIOS {
            scenario(s).unwrap();
        }
        for c in CHEMISTRIES {
            chemistry_pair(c).unwrap();
        }
        for f in FAULTS {
            fault_intensity(f).unwrap();
        }
        for p in POLICIES {
            CellPolicy::parse(p).unwrap();
        }
        for e in ENGINES {
            EngineKind::parse(e).unwrap();
        }
    }

    #[test]
    fn validation_rejects_bad_axes_and_scalars() {
        let mut spec = CampaignSpec::default();
        spec.scenarios.push("mars-rover".to_owned());
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::default();
        spec.faults.push("none".to_owned());
        assert!(spec.validate().is_err(), "duplicates rejected");

        let mut spec = CampaignSpec::default();
        spec.engines.clear();
        assert!(spec.validate().is_err());

        let spec = CampaignSpec {
            hours: 0.0,
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_err());

        let spec = CampaignSpec {
            devices_per_cell: 0,
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn engine_paired_cells_share_seed_streams() {
        let spec = CampaignSpec::default();
        let cells = spec.cells().unwrap();
        let scalar = cells
            .iter()
            .find(|c| c.engine == EngineKind::Scalar)
            .unwrap();
        let soa = cells
            .iter()
            .find(|c| c.engine == EngineKind::Soa && c.seed_key() == scalar.seed_key())
            .unwrap();
        assert_eq!(spec.cell_seed(scalar), spec.cell_seed(soa));
        assert_ne!(scalar.key(), soa.key());
    }

    #[test]
    fn config_digests_split_axis_sensitivity() {
        let a = CampaignSpec::default();
        let mut b = a.clone();
        b.scenarios.pop();
        // Pruning an axis changes the full config digest (checkpoints are
        // matrix-shape bound) but not the baseline digest (outcomes are
        // composition-independent).
        assert_ne!(a.config_digest(), b.config_digest());
        assert_eq!(a.baseline_config_digest(), b.baseline_config_digest());
        let mut c = a.clone();
        c.master_seed ^= 1;
        assert_ne!(a.baseline_config_digest(), c.baseline_config_digest());
    }
}
