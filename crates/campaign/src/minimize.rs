//! Culprit minimization: from "the matrix diverged" to one reproducible
//! `(cell, device)` unit and a ready-to-run command.
//!
//! The minimizer works over the *recorded* outcome matrix (delta-debug on
//! the axis sets costs set lookups, not re-simulation), isolates the
//! first divergent device via the baseline's per-device digests, then
//! re-runs that single unit fresh to confirm the observed digest
//! reproduces — only a confirmed culprit earns a repro command. Because
//! cell outcomes are matrix-composition independent (seeds derive from
//! the cell *key*, not its position), the emitted pruned single-cell
//! command recomputes the identical digest and fails against the same
//! baseline file.

use crate::baseline::Divergence;
use crate::report::CampaignReport;
use crate::runner::run_cell_device;
use crate::spec::{CampaignSpec, Cell};
use std::fmt::Write as _;

/// The minimized, re-run-confirmed divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Culprit {
    /// Matrix index of the culprit cell.
    pub(crate) cell_index: usize,
    /// Culprit cell key.
    pub key: String,
    /// First divergent device within the cell.
    pub device: u64,
    /// Golden device digest.
    pub expected: u64,
    /// Device digest observed by the campaign run.
    pub observed: u64,
    /// Device digest from the fresh confirmation re-run.
    pub rerun: u64,
    /// Whether the re-run reproduced the observed digest (and still
    /// differs from golden) — a deterministic, actionable divergence.
    pub reproduced: bool,
    /// The minimization narrative, one step per line.
    pub(crate) steps: Vec<String>,
    /// A self-contained `sdb campaign` invocation that re-runs only the
    /// culprit cell and exits non-zero against the same baseline.
    pub repro_command: String,
}

impl Culprit {
    /// Fixed-format text rendering for the CLI.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "culprit minimization:");
        for step in &self.steps {
            let _ = writeln!(s, "  {step}");
        }
        let _ = writeln!(
            s,
            "culprit: cell {} device {} (expected {:016x}, observed {:016x}, re-run {:016x})",
            self.key, self.device, self.expected, self.observed, self.rerun
        );
        let _ = writeln!(
            s,
            "re-run {} the observed digest",
            if self.reproduced {
                "REPRODUCED"
            } else {
                "DID NOT reproduce"
            }
        );
        let _ = writeln!(s, "repro: {}", self.repro_command);
        s
    }
}

fn axis_of(key: &str, axis: usize) -> &str {
    key.split('/').nth(axis).unwrap_or("")
}

/// Minimizes a set of baseline divergences down to one confirmed culprit
/// unit. Returns `None` only when `divergences` is empty.
///
/// Axis reduction is delta-debugging over the recorded matrix: each axis
/// in turn is pinned to its first value that still leaves a divergent
/// cell, shrinking the candidate set without re-running anything. The
/// surviving cell's first mismatching device is then re-run fresh to
/// confirm determinism.
#[must_use]
pub fn minimize(
    spec: &CampaignSpec,
    report: &CampaignReport,
    divergences: &[Divergence],
    baseline_path: &str,
) -> Option<Culprit> {
    if divergences.is_empty() {
        return None;
    }
    let mut steps = Vec::new();
    steps.push(format!(
        "{} of {} cells diverged from baseline",
        divergences.len(),
        report.cells.len()
    ));

    // Delta-debug each axis against the recorded divergence set.
    let axes: [(&str, &[String]); 5] = [
        ("scenario", &spec.scenarios),
        ("chemistry", &spec.chemistries),
        ("fault", &spec.faults),
        ("policy", &spec.policies),
        ("engine", &spec.engines),
    ];
    let mut alive: Vec<&Divergence> = divergences.iter().collect();
    for (i, (axis_name, values)) in axes.iter().enumerate() {
        for v in values.iter() {
            let narrowed: Vec<&Divergence> = alive
                .iter()
                .copied()
                .filter(|d| axis_of(&d.key, i) == v)
                .collect();
            if !narrowed.is_empty() {
                if values.len() > 1 {
                    steps.push(format!(
                        "pin {axis_name} = {v} ({} divergent cell{} remain)",
                        narrowed.len(),
                        if narrowed.len() == 1 { "" } else { "s" }
                    ));
                }
                alive = narrowed;
                break;
            }
        }
    }
    let culprit = alive.first()?;

    // Device isolation via the baseline's per-device digests.
    let (device, expected, observed) =
        culprit
            .devices
            .first()
            .copied()
            .unwrap_or((0, culprit.expected, culprit.actual));
    steps.push(format!(
        "first divergent device in {}: device {device}",
        culprit.key
    ));

    // Confirmation re-run: the unit fresh, outside the matrix.
    let cells = spec.cells().ok()?;
    let cell = cells.iter().find(|c| c.index == culprit.cell_index)?;
    let rerun = run_cell_device(spec, cell, device)
        .map(|r| r.digest())
        .unwrap_or(0);
    let reproduced = rerun == observed && rerun != expected;
    steps.push(format!(
        "fresh re-run of ({}, device {device}) digests {rerun:016x}",
        culprit.key
    ));

    Some(Culprit {
        cell_index: culprit.cell_index,
        key: culprit.key.clone(),
        device,
        expected,
        observed,
        rerun,
        reproduced,
        steps,
        repro_command: repro_command(spec, cell, baseline_path),
    })
}

/// The pruned single-cell `sdb campaign` invocation reproducing a
/// divergence against `baseline_path`.
#[must_use]
pub(crate) fn repro_command(spec: &CampaignSpec, cell: &Cell, baseline_path: &str) -> String {
    format!(
        "sdb campaign --scenarios {} --chemistries {} --faults {} --policies {} --engines {} \
         --seed {} --hours {} --devices-per-cell {} --baseline {}",
        cell.scenario,
        cell.chemistry,
        cell.fault,
        cell.policy.name(),
        cell.engine.name(),
        spec.master_seed,
        spec.hours,
        spec.devices_per_cell,
        baseline_path
    )
}
