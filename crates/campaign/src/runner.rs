//! The sharded, resumable campaign runner.
//!
//! The pending `(cell, device)` units to simulate are spread over workers
//! by [`sdb_prof::shard_map`], which returns their records in unit order,
//! so the outcome matrix is byte-identical for any thread count.
//!
//! Resume: with a checkpoint path, completed units are appended to the
//! log as they finish (each line round-trips the device's end-state
//! [`sdb_emulator::PackSnapshot`] and outcome metrics bit-exactly). A
//! new run under the same spec parses the log, skips completed units,
//! and merges old and new records before folding — producing the same
//! report a straight-through run would.
//!
//! Sharing: some units end exactly where an earlier unit ends, so they
//! clone its record and re-label it ([`Sources::unit_source`]). A unit
//! whose [`driver`] is not [`Driver::Soa`] never reads its cell's engine,
//! and its seeds derive from the engine-free seed key, so it shares the
//! same device of its cell's engine-blind source — the first cell in
//! matrix order with the same seed key and a non-SoA driver. A unit of a
//! *seed-blind* cell (no fault plan, and a workload that ignores its
//! seed) never reads its device seed, so every device of the cell shares
//! device 0 of that source.

use crate::checkpoint;
use crate::report::{CampaignReport, DeviceRecord};
use crate::spec::{self, CampaignSpec, Cell};
use sdb_chaos::{FaultPlan, InvariantChecker, PlanExecutor};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{drive, Hooks, Linked, SimOptions, SimResult};
use sdb_emulator::link::Link;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_fleet::EngineKind;
use sdb_policy::{warmup_seeds, PolicySpec, WARMUP_DAYS};
use sdb_rng::derive_seed;
use sdb_workloads::WorkloadSpec;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Mutex;

/// The greedy policy's fixed discharge-directive blend.
pub(crate) const GREEDY_BLEND: f64 = 0.5;

/// Planned policy: lookahead horizon, seconds.
pub(crate) const PLANNER_HORIZON_S: f64 = 1800.0;

/// Planned policy: re-plan cadence, seconds.
pub(crate) const PLANNER_REPLAN_S: f64 = 600.0;

/// Status heartbeat period on the linked (faulted) driver, seconds.
pub(crate) const STATUS_PERIOD_S: f64 = 30.0;

/// Runner knobs that do not affect the outcome matrix.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads (0/1 both mean single-threaded).
    pub threads: usize,
    /// Checkpoint log to append to (and resume from, if it exists).
    pub checkpoint: Option<PathBuf>,
    /// Stop after this many *newly completed* units (simulated or shared
    /// from their source) — the deterministic kill switch the resume
    /// property test interrupts at every boundary.
    pub stop_after: Option<usize>,
}

/// Outcome of [`run_campaign`].
#[derive(Debug)]
pub enum CampaignRun {
    /// Every unit ran (or was resumed); the folded report.
    Complete(Box<CampaignReport>),
    /// The stop budget expired before the matrix finished.
    Interrupted {
        /// Units completed across this run and any resumed checkpoint.
        completed: usize,
        /// Total units in the matrix.
        total: usize,
    },
}

/// Runs (or resumes) a campaign.
///
/// # Errors
///
/// Returns the spec validation error, checkpoint I/O or corruption
/// errors, or a message if a worker panicked.
pub fn run_campaign(spec: &CampaignSpec, opts: &CampaignOptions) -> Result<CampaignRun, String> {
    let cells = spec.cells()?;
    let total = cells.len() * spec.devices_per_cell;
    let config = spec.config_digest();
    let prof_run = sdb_prof::scope(sdb_prof::Phase::CampaignRun);

    // Resume: parse any existing checkpoint under this exact config.
    let mut done: Vec<DeviceRecord> = Vec::new();
    if let Some(path) = &opts.checkpoint {
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
            if !text.is_empty() {
                done = checkpoint::parse(&text, config)?;
            }
        }
    }
    // Deduplicate (a kill between append and claim bookkeeping can in
    // principle log a unit twice; last write wins) and index.
    done.sort_by_key(|r| (r.cell, r.device));
    done.dedup_by_key(|r| (r.cell, r.device));
    let done_set: HashSet<(usize, u64)> = done.iter().map(|r| (r.cell, r.device)).collect();

    // The pending unit list, in deterministic (cell, device) order. The
    // stop budget cuts a prefix of *this* list, so which units a partial
    // run completes is independent of thread scheduling.
    let pending: Vec<(usize, u64)> = cells
        .iter()
        .flat_map(|c| (0..spec.devices_per_cell as u64).map(move |d| (c.index, d)))
        .filter(|unit| !done_set.contains(unit))
        .collect();
    let claim_budget = opts.stop_after.unwrap_or(usize::MAX);
    let prefix = &pending[..pending.len().min(claim_budget)];
    // Workers simulate the prefix units that are their own source; the
    // rest share a record that is resumed or simulated in this run (a
    // source precedes its copies in matrix order, so it is done or in the
    // prefix too).
    let sources = Sources::new(&cells)?;
    let (shared, work): (Vec<_>, Vec<_>) = prefix
        .iter()
        .copied()
        .partition(|&(cell, device)| sources.unit_source(cell, device).is_some());

    let writer: Option<Mutex<std::fs::File>> = match &opts.checkpoint {
        Some(path) => {
            let fresh = !path.exists()
                || std::fs::metadata(path)
                    .map(|m| m.len() == 0)
                    .unwrap_or(true);
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open checkpoint {}: {e}", path.display()))?;
            if fresh {
                file.write_all(checkpoint::header(config).as_bytes())
                    .map_err(|e| format!("write checkpoint header: {e}"))?;
            }
            Some(Mutex::new(file))
        }
        None => None,
    };

    let writer = writer.as_ref();
    let (_, simulated) = sdb_prof::shard_map(
        opts.threads,
        work.len(),
        |_| (),
        |(), i| {
            let (cell_idx, device) = work[i];
            let cell = &cells[cell_idx];
            let prof_dev = if sdb_prof::enabled() {
                sdb_prof::device_scope(sdb_prof::cohort_id(&cell.seed_key()))
            } else {
                sdb_prof::device_scope(0)
            };
            let rec = run_cell_device(spec, cell, device)?;
            drop(prof_dev);
            append(writer, &rec)?;
            Ok(rec)
        },
    )?;

    // Resumed + simulated records, sorted by unit: the index the shared
    // units look their source up in.
    let mut records = done;
    records.extend(simulated);
    records.sort_by_key(|r| (r.cell, r.device));
    let mut copies = Vec::with_capacity(shared.len());
    for (cell, device) in shared {
        let src = sources
            .unit_source(cell, device)
            .expect("partitioned on a source");
        let i = records
            .binary_search_by_key(&src, |r| (r.cell, r.device))
            .expect("a source unit is resumed or simulated before its copies");
        let mut rec = records[i].clone();
        rec.cell = cell;
        rec.device = device;
        append(writer, &rec)?;
        copies.push(rec);
    }

    if claim_budget < pending.len() {
        drop(prof_run);
        if sdb_prof::enabled() {
            sdb_prof::flush_thread();
        }
        return Ok(CampaignRun::Interrupted {
            completed: records.len() + copies.len(),
            total,
        });
    }

    // Deterministic merge: every record, re-sorted by unit.
    records.extend(copies);
    records.sort_by_key(|r| (r.cell, r.device));
    debug_assert_eq!(records.len(), total);
    let report = CampaignReport::from_records(spec, &cells, records);
    drop(prof_run);
    if sdb_prof::enabled() {
        sdb_prof::flush_thread();
    }
    Ok(CampaignRun::Complete(Box::new(report)))
}

/// Appends `rec`'s checkpoint line, if the run keeps a checkpoint.
fn append(writer: Option<&Mutex<std::fs::File>>, rec: &DeviceRecord) -> Result<(), String> {
    if let Some(w) = writer {
        let line = checkpoint::record_line(rec);
        let mut f = w.lock().expect("checkpoint writer lock");
        f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("append checkpoint: {e}"))?;
    }
    Ok(())
}

/// Where each unit's record comes from: the share rule of
/// [`run_campaign`], one entry per cell of the expanded matrix.
#[derive(Debug)]
pub struct Sources {
    /// The cell's engine-blind source, when that is an earlier cell.
    engine: Vec<Option<usize>>,
    /// Whether the cell's units never read their device seed.
    seed_blind: Vec<bool>,
}

impl Sources {
    /// The share rule for `cells`, in one pass with the first non-SoA
    /// cell of each seed key kept in a map.
    ///
    /// A cell's engine-blind source is the first cell in matrix order
    /// with its seed key and a non-SoA [`driver`]; SoA-driven cells are
    /// their own. A cell is seed-blind when its driver is not
    /// [`Driver::Linked`] (no fault plan, link faults or link seed) and
    /// its scenario's workload does not [read its
    /// seed](WorkloadSpec::reads_seed): then neither the trace, the
    /// planner's history days, the pack nor the driver depends on the
    /// device seed.
    ///
    /// # Errors
    ///
    /// Returns an axis-resolution error (impossible after spec
    /// validation).
    pub fn new(cells: &[Cell]) -> Result<Self, String> {
        let mut first: HashMap<String, usize> = HashMap::new();
        let mut engine = Vec::with_capacity(cells.len());
        let mut seed_blind = Vec::with_capacity(cells.len());
        for cell in cells {
            let drv = driver(cell, &cell_pack(cell)?);
            engine.push(if drv == Driver::Soa {
                None
            } else {
                let src = *first.entry(cell.seed_key()).or_insert(cell.index);
                (src != cell.index).then_some(src)
            });
            seed_blind.push(
                drv != Driver::Linked && !spec::scenario(&cell.scenario)?.workload.reads_seed(),
            );
        }
        Ok(Self { engine, seed_blind })
    }

    /// Whether `cell`'s units all end where its device 0 ends.
    #[must_use]
    pub fn seed_blind(&self, cell: usize) -> bool {
        self.seed_blind[cell]
    }

    /// The unit whose record `(cell, device)` clones (re-labelling both
    /// `cell` and `device`), or `None` if the unit is simulated. With
    /// `root` the cell's engine-blind source (or the cell itself), that
    /// is `(root, 0)` for a seed-blind cell and `(root, device)`
    /// otherwise. A source is always simulated, never itself a copy, and
    /// precedes its copies in `(cell, device)` order.
    #[must_use]
    pub fn unit_source(&self, cell: usize, device: u64) -> Option<(usize, u64)> {
        let root = self.engine[cell].unwrap_or(cell);
        let src = (root, if self.seed_blind[cell] { 0 } else { device });
        (src != (cell, device)).then_some(src)
    }
}

/// The driver that runs a campaign unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Faulted cells, under either engine: the linked chaos driver
    /// (fault plan, plan executor, per-step invariant checks, resilience
    /// enabled).
    Linked,
    /// Fault-free greedy cells of the SoA engine on a non-thermal pack:
    /// [`drive`] with the SoA fast-forward hook.
    Soa,
    /// Everything else, greedy and planner cells under either engine:
    /// [`drive`] over the direct transport with per-step invariant checks.
    Scalar,
}

/// Which driver runs `cell`'s units on `pack` (the unit's freshly built
/// pack). Only [`Driver::Soa`] depends on the cell's engine: active faults
/// disqualify fast-forward by construction, and the SoA fast path takes
/// what [`PolicySpec::soa_eligible`] admits, as in the fleet engine.
/// [`run_cell_device`] dispatches on this function and [`Sources`] reads
/// it, so the two cannot drift apart.
#[must_use]
pub fn driver(cell: &Cell, pack: &Microcontroller) -> Driver {
    if spec::fault_intensity(&cell.fault).is_ok_and(|i| i > 0.0) {
        Driver::Linked
    } else if cell.engine == EngineKind::Soa && policy_of(cell).soa_eligible(pack) {
        Driver::Soa
    } else {
        Driver::Scalar
    }
}

/// The cell's policy: the greedy blend, or a planner looking
/// [`PLANNER_HORIZON_S`] ahead and re-planning every [`PLANNER_REPLAN_S`].
fn policy_of(cell: &Cell) -> PolicySpec {
    cell.policy
        .spec(GREEDY_BLEND, PLANNER_HORIZON_S, PLANNER_REPLAN_S)
}

/// The pack every unit of `cell` starts from (what [`driver`] reads).
///
/// # Errors
///
/// Returns an axis-resolution error on an unknown scenario or chemistry.
pub fn cell_pack(cell: &Cell) -> Result<Microcontroller, String> {
    pack_of(cell, &spec::scenario(&cell.scenario)?)
}

/// [`cell_pack`] with the cell's scenario already resolved.
fn pack_of(cell: &Cell, scenario: &spec::Scenario) -> Result<Microcontroller, String> {
    let chems = spec::chemistry_pair(&cell.chemistry)?;
    Ok(scenario.pack.with_chemistries(&chems).instantiate())
}

#[allow(clippy::too_many_arguments)]
fn record_from(
    cell: &Cell,
    device: u64,
    result: &SimResult,
    micro: &Microcontroller,
    checker: InvariantChecker,
    faults_injected: u64,
    ff_ticks: u64,
) -> DeviceRecord {
    let tally = checker.finish();
    let n = micro.battery_count().max(1) as f64;
    DeviceRecord {
        cell: cell.index,
        device,
        life_s: result.battery_life_s(),
        supplied_j: result.supplied_j,
        unmet_j: result.unmet_j,
        loss_j: result.total_loss_j(),
        mean_final_soc: micro.cells().iter().map(|c| c.soc()).sum::<f64>() / n,
        browned_out: result.first_brownout_s.is_some(),
        violations: tally.violation_count,
        faults_injected,
        ff_ticks,
        first_violation: tally.violations.first().map(ToString::to_string),
        snapshot: micro.snapshot().to_bytes(),
    }
}

/// Runs one matrix cell's device simulation — a pure function of
/// `(spec, cell, device)`, independent of which other cells the matrix
/// holds. Public so the minimizer (and repro tooling) can re-run exactly
/// one unit.
///
/// The driver is [`driver`]'s: faulted cells run the linked chaos driver
/// under both engines, so those engine pairs are digest-identical and the
/// matrix records that fact instead of pretending the axis doesn't exist;
/// fault-free greedy SoA cells take the SoA fast-forward path (end-state
/// invariant check; fast-forward stretches have no step hook); the rest
/// run the scalar driver with per-step invariant checks.
///
/// # Errors
///
/// Returns an axis-resolution error (impossible after spec validation).
pub fn run_cell_device(
    spec_: &CampaignSpec,
    cell: &Cell,
    device: u64,
) -> Result<DeviceRecord, String> {
    let _prof = sdb_prof::scope(sdb_prof::Phase::CampaignCell);
    let scenario = spec::scenario(&cell.scenario)?;
    let intensity = spec::fault_intensity(&cell.fault)?;
    let seed = spec_.device_seed(cell, device);
    let workload = WorkloadSpec::Truncated {
        inner: Box::new(scenario.workload.clone()),
        max_s: spec_.hours * 3600.0,
    };
    let trace = workload.build(seed);
    let sim = SimOptions::default();

    let mut micro = pack_of(cell, &scenario)?;
    let n = micro.battery_count();
    let mut runtime = SdbRuntime::new(n);
    let history = warmup_seeds(seed, WARMUP_DAYS).map(|d| workload.build(d));
    let mut planner =
        policy_of(cell).install(&mut runtime, scenario.update_period_s, &trace, history);
    let runs = trace.runs(sim.max_dt_s);

    let hooks = Hooks {
        policy: planner.as_mut().map(|p| p as _),
        ..Hooks::default()
    };
    match driver(cell, &micro) {
        Driver::Linked => {
            let mut link = Link::ideal(micro);
            link.seed_faults(derive_seed(seed, 1));
            runtime.enable_resilience();
            let plan = FaultPlan::generate(derive_seed(seed, 2), trace.duration_s(), intensity, n);
            let mut exec = PlanExecutor::new(plan);
            let mut checker = InvariantChecker::for_micro(link.micro());
            let result = drive(
                &mut Linked::new(&mut link, STATUS_PERIOD_S),
                &mut runtime,
                &runs,
                &sim,
                hooks,
                |t, l| exec.apply(t, l.link),
                |t, l, r| {
                    checker.check_step(t, r);
                    checker.check_micro(t, l.link.micro());
                    ControlFlow::Continue(())
                },
            );
            Ok(record_from(
                cell,
                device,
                &result,
                link.micro(),
                checker,
                exec.injected(),
                0,
            ))
        }
        Driver::Soa => {
            let mut soa = SoaCohort::new(&micro, 1, QuiescenceConfig);
            let hooks = Hooks {
                soa: Some(&mut soa),
                ..hooks
            };
            let result = drive(
                &mut micro,
                &mut runtime,
                &runs,
                &sim,
                hooks,
                |_, _| {},
                |_, _, _| ControlFlow::Continue(()),
            );
            // Fast-forwarded stretches have no step hook; the invariant
            // surface here is the end state.
            let mut checker = InvariantChecker::for_micro(&micro);
            checker.check_micro(result.simulated_s, &micro);
            let ff_ticks = soa.ticks_advanced();
            Ok(record_from(
                cell, device, &result, &micro, checker, 0, ff_ticks,
            ))
        }
        Driver::Scalar => {
            let mut checker = InvariantChecker::for_micro(&micro);
            let result = drive(
                &mut micro,
                &mut runtime,
                &runs,
                &sim,
                hooks,
                |_, _| {},
                |t, _, r| {
                    checker.check_step(t, r);
                    ControlFlow::Continue(())
                },
            );
            checker.check_micro(result.simulated_s, &micro);
            Ok(record_from(cell, device, &result, &micro, checker, 0, 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            scenarios: vec!["standby".to_owned()],
            chemistries: vec!["co".to_owned()],
            faults: vec!["none".to_owned(), "moderate".to_owned()],
            policies: vec!["greedy".to_owned()],
            engines: vec!["scalar".to_owned()],
            master_seed: 11,
            hours: 0.5,
            devices_per_cell: 2,
        }
    }

    fn report_of(run: CampaignRun) -> CampaignReport {
        match run {
            CampaignRun::Complete(r) => *r,
            CampaignRun::Interrupted { completed, total } => {
                panic!("unexpected interrupt at {completed}/{total}")
            }
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let spec = tiny_spec();
        let r1 = report_of(run_campaign(&spec, &CampaignOptions::default()).unwrap());
        let r3 = report_of(
            run_campaign(
                &spec,
                &CampaignOptions {
                    threads: 3,
                    ..CampaignOptions::default()
                },
            )
            .unwrap(),
        );
        assert_eq!(r1, r3);
        assert_eq!(r1.render_text(), r3.render_text());
        assert_eq!(r1.to_json(), r3.to_json());
        assert_eq!(r1.matrix_digest, r3.matrix_digest);
    }

    #[test]
    fn cell_outcomes_are_matrix_composition_independent() {
        // The same cell in a pruned 1-cell matrix digests identically —
        // the property the minimizer's repro command relies on.
        let full = tiny_spec();
        let r_full = report_of(run_campaign(&full, &CampaignOptions::default()).unwrap());
        let pruned = CampaignSpec {
            faults: vec!["moderate".to_owned()],
            ..tiny_spec()
        };
        let r_pruned = report_of(run_campaign(&pruned, &CampaignOptions::default()).unwrap());
        let key = "standby/co/moderate/greedy/scalar";
        assert_eq!(
            r_full.cell(key).unwrap().digest,
            r_pruned.cell(key).unwrap().digest
        );
    }

    #[test]
    fn faulted_cells_inject_and_stay_clean() {
        let spec = tiny_spec();
        let report = report_of(run_campaign(&spec, &CampaignOptions::default()).unwrap());
        assert!(report.total_faults() > 0, "moderate cells must inject");
        assert_eq!(
            report.total_violations(),
            0,
            "invariants must hold:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn stop_after_zero_interrupts_immediately() {
        let spec = tiny_spec();
        let run = run_campaign(
            &spec,
            &CampaignOptions {
                stop_after: Some(0),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        match run {
            CampaignRun::Interrupted { completed, total } => {
                assert_eq!(completed, 0);
                assert_eq!(total, 4);
            }
            CampaignRun::Complete(_) => panic!("expected interrupt"),
        }
    }
}
