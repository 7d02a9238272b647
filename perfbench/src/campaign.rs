//! The `campaign-faults` workload and its traced path.
//!
//! The untraced path is what `sdb campaign --checkpoint` runs:
//! [`run_campaign`] and [`CampaignReport::to_json`]. The traced path
//! runs the same `(cell, device)` units in order through the public
//! [`run_cell_device`], appends each checkpoint line itself, folds with
//! [`CampaignReport::from_records`], and must reproduce the untraced
//! report byte for byte.

use crate::fleet::build_pack;
use crate::spans::{Name, Recorder};
use sdb_campaign::baseline::{Baseline, BaselineCell};
use sdb_campaign::spec::{chemistry_pair, fault_intensity, scenario};
use sdb_campaign::{
    checkpoint, compare, run_campaign, run_cell_device, CampaignOptions, CampaignReport,
    CampaignRun, CampaignSpec, Cell, CellPolicy,
};
use sdb_chaos::FaultPlan;
use sdb_emulator::PackSnapshot;
use sdb_fleet::spec::{PackTemplate, WorkloadSpec};
use sdb_fleet::EngineKind;
use sdb_rng::derive_seed;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Devices per cell in one `campaign-faults` call.
pub const DEVICES_PER_CELL: usize = 4;

/// The `campaign-faults` matrix: 2 scenarios × 3 chemistries × 2 fault
/// plans × greedy × 2 engines = 24 cells, 24 h per device.
#[must_use]
pub fn faults_spec(seed: u64, devices_per_cell: usize) -> CampaignSpec {
    let names = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    CampaignSpec {
        scenarios: names(&["standby", "phone-day"]),
        chemistries: names(&["co", "lfp", "nmc-lto"]),
        faults: names(&["none", "heavy"]),
        policies: names(&["greedy"]),
        engines: names(&["scalar", "soa"]),
        master_seed: seed,
        hours: 24.0,
        devices_per_cell,
    }
}

/// Which runner `run_cell_device` takes for a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Faulted cell: linked chaos runner.
    Linked,
    /// Fault-free greedy SoA cell on a non-thermal pack.
    Soa,
    /// Everything else.
    Scalar,
}

impl UnitKind {
    fn span(self) -> Name {
        match self {
            UnitKind::Linked => Name::UnitLinked,
            UnitKind::Soa => Name::UnitSoa,
            UnitKind::Scalar => Name::UnitScalar,
        }
    }
}

struct CellPlan {
    kind: UnitKind,
    intensity: f64,
    template: PackTemplate,
    /// Per-device trace length, seconds (the fault-plan horizon).
    horizons_s: Vec<f64>,
}

/// One campaign workload instance.
pub struct CampaignBench {
    /// The matrix.
    pub spec: CampaignSpec,
    /// Its expanded cells.
    pub cells: Vec<Cell>,
    /// The checkpoint log every call writes.
    pub checkpoint: PathBuf,
    plans: Vec<CellPlan>,
    /// Simulated device-hours one call completes.
    pub sim_hours: f64,
}

impl CampaignBench {
    /// Expands and validates the matrix and generates every unit's trace
    /// once to count the simulated device-hours exactly.
    ///
    /// # Errors
    ///
    /// Returns the spec validation error.
    pub fn new(spec: CampaignSpec, checkpoint: PathBuf) -> Result<Self, String> {
        let cells = spec.cells()?;
        let mut plans = Vec::with_capacity(cells.len());
        for cell in &cells {
            let sc = scenario(&cell.scenario)?;
            let template = sc.pack.with_chemistries(&chemistry_pair(&cell.chemistry)?);
            let intensity = fault_intensity(&cell.fault)?;
            let thermal = build_pack(&template)
                .cells()
                .iter()
                .any(|c| c.temperature_c().is_some());
            let kind = if intensity > 0.0 {
                UnitKind::Linked
            } else if cell.policy == CellPolicy::Greedy
                && cell.engine == EngineKind::Soa
                && !thermal
            {
                UnitKind::Soa
            } else {
                UnitKind::Scalar
            };
            let workload = WorkloadSpec::Truncated {
                inner: Box::new(sc.workload.clone()),
                max_s: spec.hours * 3600.0,
            };
            let horizons_s = (0..spec.devices_per_cell as u64)
                .map(|d| workload.build(spec.device_seed(cell, d)).duration_s())
                .collect();
            plans.push(CellPlan {
                kind,
                intensity,
                template,
                horizons_s,
            });
        }
        let sim_s: f64 = plans.iter().flat_map(|p| &p.horizons_s).sum();
        Ok(Self {
            spec,
            cells,
            checkpoint,
            plans,
            sim_hours: sim_s / 3600.0,
        })
    }

    /// Units (cell × device) one call runs.
    #[must_use]
    pub fn units(&self) -> usize {
        self.cells.len() * self.spec.devices_per_cell
    }

    /// One untraced call with a fresh checkpoint log, as the CLI makes it.
    ///
    /// # Errors
    ///
    /// Returns the runner's error.
    pub fn run(&self, threads: usize) -> Result<CampaignReport, String> {
        remove_if_present(&self.checkpoint)?;
        let opts = CampaignOptions {
            threads,
            checkpoint: Some(self.checkpoint.clone()),
            stop_after: None,
        };
        match run_campaign(&self.spec, &opts)? {
            CampaignRun::Complete(report) => Ok(*report),
            CampaignRun::Interrupted { completed, total } => Err(format!(
                "campaign interrupted at {completed}/{total} without a stop budget"
            )),
        }
    }

    /// The same matrix without a checkpoint log, for reference runs.
    ///
    /// # Errors
    ///
    /// Returns the runner's error.
    pub fn run_without_log(&self, threads: usize) -> Result<CampaignReport, String> {
        let opts = CampaignOptions {
            threads,
            ..CampaignOptions::default()
        };
        match run_campaign(&self.spec, &opts)? {
            CampaignRun::Complete(report) => Ok(*report),
            CampaignRun::Interrupted { .. } => Err("campaign interrupted".to_owned()),
        }
    }
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

/// What the traced path measures beyond spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedFacts {
    /// Size of the finished checkpoint log, bytes.
    pub checkpoint_bytes: u64,
    /// Mean encoded `PackSnapshot` size, bytes.
    pub snapshot_bytes: f64,
}

/// Runs every unit in `(cell, device)` order with spans around the
/// public calls. Besides each unit it times, outside the unit spans,
/// `FaultPlan::generate` for faulted units and a snapshot encode +
/// digest of each device's end state (restored from its record, and
/// checked to re-encode to the recorded bytes). Returns the report JSON.
///
/// # Errors
///
/// Returns unit, checkpoint I/O, parse, or snapshot round-trip errors.
pub fn run_traced(
    bench: &CampaignBench,
    rec: &mut Recorder,
) -> Result<(String, TracedFacts), String> {
    let spec = &bench.spec;
    let config = spec.config_digest();
    remove_if_present(&bench.checkpoint)?;
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&bench.checkpoint)
        .map_err(|e| format!("open checkpoint: {e}"))?;
    log.write_all(checkpoint::header(config).as_bytes())
        .map_err(|e| format!("write checkpoint header: {e}"))?;

    let mut records = Vec::with_capacity(bench.units());
    let mut snapshot_bytes = 0usize;
    let mut unit = 0u64;
    for (cell, plan) in bench.cells.iter().zip(&bench.plans) {
        for device in 0..spec.devices_per_cell as u64 {
            rec.set_device(unit);
            unit += 1;
            let record = rec.time(plan.kind.span(), || run_cell_device(spec, cell, device))?;
            rec.open(Name::CheckpointEncode);
            let line = checkpoint::record_line(&record);
            log.write_all(line.as_bytes())
                .and_then(|()| log.flush())
                .map_err(|e| format!("append checkpoint: {e}"))?;
            rec.close();

            if plan.kind == UnitKind::Linked {
                let seed = spec.device_seed(cell, device);
                let horizon_s = plan.horizons_s[device as usize];
                let n = plan.template.batteries.len();
                rec.time(Name::FaultPlan, || {
                    FaultPlan::generate(derive_seed(seed, 2), horizon_s, plan.intensity, n)
                });
            }
            let snap = PackSnapshot::from_bytes(&record.snapshot)?;
            let mut micro = build_pack(&plan.template);
            micro
                .restore_from(&snap)
                .map_err(|e| format!("restore end state: {e}"))?;
            let (bytes, _digest) = rec.time(Name::Snapshot, || {
                let s = micro.snapshot();
                (s.to_bytes(), s.digest())
            });
            if bytes != record.snapshot {
                return Err(format!(
                    "unit {}/{device}: end state does not re-encode to its recorded snapshot",
                    cell.key()
                ));
            }
            snapshot_bytes += bytes.len();
            records.push(record);
        }
    }
    drop(log);
    rec.set_device(u64::MAX);

    let report = rec.time(Name::Fold, || {
        CampaignReport::from_records(spec, &bench.cells, records)
    });
    let json = rec.time(Name::CampaignRender, || report.to_json());
    let text =
        std::fs::read_to_string(&bench.checkpoint).map_err(|e| format!("read checkpoint: {e}"))?;
    let parsed = rec.time(Name::CheckpointParse, || checkpoint::parse(&text, config))?;
    let folded: Vec<_> = report.cells.iter().flat_map(|c| &c.devices).collect();
    if parsed.len() != folded.len() || parsed.iter().zip(folded).any(|(a, b)| a != b) {
        return Err("checkpoint log does not parse back to the folded records".to_owned());
    }
    Ok((
        json,
        TracedFacts {
            checkpoint_bytes: text.len() as u64,
            snapshot_bytes: snapshot_bytes as f64 / bench.units().max(1) as f64,
        },
    ))
}

/// A digest-only baseline: the golden config digest and per-cell
/// digests in matrix order (device digests are not kept, so a divergent
/// cell fails every one of its devices).
#[must_use]
pub fn baseline_from(config: u64, cells: &[Cell], digests: &[u64]) -> Baseline {
    Baseline {
        config,
        cells: cells
            .iter()
            .zip(digests)
            .map(|(c, d)| BaselineCell {
                key: c.key(),
                digest: *d,
                devices: Vec::new(),
            })
            .collect(),
    }
}

/// Devices of `report` that fail: an invariant violation, or a cell
/// whose digest diverges from `baseline` under `campaign::compare`.
#[must_use]
pub fn failed_devices(report: &CampaignReport, baseline: &Baseline) -> (u64, Vec<String>) {
    let mut reasons = Vec::new();
    let mut failed: std::collections::BTreeSet<(usize, u64)> = std::collections::BTreeSet::new();
    for cell in &report.cells {
        for d in &cell.devices {
            if d.violations > 0 {
                failed.insert((cell.index, d.device));
                reasons.push(format!(
                    "{}/{}: {} invariant violations",
                    cell.key, d.device, d.violations
                ));
            }
        }
    }
    match compare(report, baseline) {
        Ok(cmp) => {
            for div in &cmp.divergences {
                reasons.push(format!(
                    "{}: digest {:016x}, baseline {:016x}",
                    div.key, div.actual, div.expected
                ));
                for (device, _, _) in &div.devices {
                    failed.insert((div.cell_index, *device));
                }
            }
            if !cmp.new_cells.is_empty() {
                reasons.push(format!("cells missing from baseline: {:?}", cmp.new_cells));
                for cell in report
                    .cells
                    .iter()
                    .filter(|c| cmp.new_cells.contains(&c.key))
                {
                    failed.extend(cell.devices.iter().map(|d| (cell.index, d.device)));
                }
            }
        }
        Err(e) => {
            reasons.push(e);
            failed.extend(
                report
                    .cells
                    .iter()
                    .flat_map(|c| c.devices.iter().map(move |d| (c.index, d.device))),
            );
        }
    }
    (failed.len() as u64, reasons)
}
