//! The deterministic campaign outcome matrix and its renderings.
//!
//! A [`DeviceRecord`] is a pure function of `(CampaignSpec, cell,
//! device)`; a [`CellOutcome`] folds a cell's device records (sorted by
//! device index) under a digest; the [`CampaignReport`] folds the cells
//! (sorted by matrix index) under the matrix digest printed in the report
//! header — the single value CI compares across thread counts.

use crate::spec::{CampaignSpec, Cell};
use sdb_emulator::fnv1a_64;
use std::fmt::Write as _;

/// One device simulation's outcome: the end-state pack snapshot plus the
/// scalar outcome metrics the report aggregates. The digest covers all of
/// it, so two records are digest-equal only if the simulation ended in a
/// bit-identical place.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRecord {
    /// Cell index in the expanded matrix.
    pub cell: usize,
    /// Device index in `0..devices_per_cell`.
    pub device: u64,
    /// Effective battery life, seconds.
    pub life_s: f64,
    /// Energy delivered to the load, joules.
    pub supplied_j: f64,
    /// Load energy that went unserved, joules.
    pub unmet_j: f64,
    /// Circuit losses + cell heat, joules.
    pub loss_j: f64,
    /// Mean final state of charge across the pack.
    pub mean_final_soc: f64,
    /// Whether the device browned out.
    pub browned_out: bool,
    /// Invariant violations observed.
    pub violations: u64,
    /// Fault activations injected.
    pub faults_injected: u64,
    /// SoA fast-forwarded ticks (0 on the scalar and linked drivers).
    pub ff_ticks: u64,
    /// First invariant violation, if any (for triage without re-running).
    pub first_violation: Option<String>,
    /// Serialized end-state [`sdb_emulator::PackSnapshot`] — the
    /// checkpoint medium and the bulk of the digest.
    pub snapshot: Vec<u8>,
}

impl DeviceRecord {
    /// FNV-1a digest over the end-state snapshot bytes, the outcome
    /// metric bit patterns, and the counters.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.snapshot.len() + 96);
        buf.extend_from_slice(&self.snapshot);
        for v in [
            self.life_s,
            self.supplied_j,
            self.unmet_j,
            self.loss_j,
            self.mean_final_soc,
        ] {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        buf.push(u8::from(self.browned_out));
        for v in [self.violations, self.faults_injected, self.ff_ticks] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        if let Some(fv) = &self.first_violation {
            buf.extend_from_slice(fv.as_bytes());
        }
        fnv1a_64(&buf)
    }
}

/// One matrix cell's folded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Cell index in the expanded matrix.
    pub index: usize,
    /// Cell key (`scenario/chemistry/fault/policy/engine`).
    pub key: String,
    /// Per-device records, sorted by device index.
    pub devices: Vec<DeviceRecord>,
    /// FNV-1a over the key and each device's `(index, digest)` pair.
    pub digest: u64,
}

impl CellOutcome {
    /// Folds a cell's device records (already sorted by device index).
    #[must_use]
    pub(crate) fn from_devices(index: usize, key: String, devices: Vec<DeviceRecord>) -> Self {
        let mut buf = Vec::with_capacity(key.len() + 1 + devices.len() * 16);
        buf.extend_from_slice(key.as_bytes());
        buf.push(0xff);
        for d in &devices {
            buf.extend_from_slice(&d.device.to_le_bytes());
            buf.extend_from_slice(&d.digest().to_le_bytes());
        }
        let digest = fnv1a_64(&buf);
        Self {
            index,
            key,
            devices,
            digest,
        }
    }

    /// Total invariant violations across the cell's devices.
    #[must_use]
    pub(crate) fn violations(&self) -> u64 {
        self.devices.iter().map(|d| d.violations).sum()
    }

    /// Total fault activations across the cell's devices.
    #[must_use]
    pub(crate) fn faults_injected(&self) -> u64 {
        self.devices.iter().map(|d| d.faults_injected).sum()
    }

    /// Devices that browned out.
    #[must_use]
    pub(crate) fn brownouts(&self) -> u64 {
        self.devices.iter().map(|d| u64::from(d.browned_out)).sum()
    }

    /// Total fast-forwarded ticks.
    #[must_use]
    pub fn ff_ticks(&self) -> u64 {
        self.devices.iter().map(|d| d.ff_ticks).sum()
    }

    /// Mean effective battery life, hours.
    #[must_use]
    pub(crate) fn mean_life_h(&self) -> f64 {
        let n = self.devices.len().max(1) as f64;
        self.devices.iter().map(|d| d.life_s).sum::<f64>() / n / 3600.0
    }

    /// Total unserved load energy, joules.
    #[must_use]
    pub(crate) fn total_unmet_j(&self) -> f64 {
        self.devices.iter().map(|d| d.unmet_j).sum()
    }

    /// Total supplied energy, joules.
    #[must_use]
    pub fn total_supplied_j(&self) -> f64 {
        self.devices.iter().map(|d| d.supplied_j).sum()
    }

    /// Mean final state of charge across devices.
    #[must_use]
    pub(crate) fn mean_final_soc(&self) -> f64 {
        let n = self.devices.len().max(1) as f64;
        self.devices.iter().map(|d| d.mean_final_soc).sum::<f64>() / n
    }
}

/// The full campaign outcome: every cell, folded under one matrix digest.
/// A pure function of the [`CampaignSpec`] — byte-identical at any thread
/// count, and identical whether the run was interrupted and resumed or
/// ran straight through.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The campaign's master seed.
    pub(crate) master_seed: u64,
    /// Per-device horizon, hours.
    pub(crate) hours: f64,
    /// Devices per cell.
    pub(crate) devices_per_cell: usize,
    /// Matrix dimensions `[scenarios, chemistries, faults, policies,
    /// engines]`.
    pub(crate) dims: [usize; 5],
    /// Full config digest (matrix-shape bound; checkpoints carry it).
    pub(crate) config_digest: u64,
    /// Cell-independent config digest (baselines carry it).
    pub baseline_config_digest: u64,
    /// Per-cell outcomes, sorted by matrix index.
    pub cells: Vec<CellOutcome>,
    /// FNV-1a over the cell digests in matrix order.
    pub(crate) matrix_digest: u64,
}

impl CampaignReport {
    /// Folds sorted device records into the report. `records` must hold
    /// exactly `cells.len() * spec.devices_per_cell` entries sorted by
    /// `(cell, device)`.
    ///
    /// # Panics
    ///
    /// Panics if the record set is incomplete or misordered (the runner
    /// guarantees completeness before folding).
    #[must_use]
    pub fn from_records(spec: &CampaignSpec, cells: &[Cell], records: Vec<DeviceRecord>) -> Self {
        assert_eq!(
            records.len(),
            cells.len() * spec.devices_per_cell,
            "record set incomplete"
        );
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut it = records.into_iter();
        for cell in cells {
            let devices: Vec<DeviceRecord> = it.by_ref().take(spec.devices_per_cell).collect();
            for (i, d) in devices.iter().enumerate() {
                assert_eq!(d.cell, cell.index, "record order broken");
                assert_eq!(d.device, i as u64, "record order broken");
            }
            outcomes.push(CellOutcome::from_devices(cell.index, cell.key(), devices));
        }
        let mut buf = Vec::with_capacity(outcomes.len() * 8);
        for c in &outcomes {
            buf.extend_from_slice(&c.digest.to_le_bytes());
        }
        Self {
            master_seed: spec.master_seed,
            hours: spec.hours,
            devices_per_cell: spec.devices_per_cell,
            dims: spec.dims(),
            config_digest: spec.config_digest(),
            baseline_config_digest: spec.baseline_config_digest(),
            matrix_digest: fnv1a_64(&buf),
            cells: outcomes,
        }
    }

    /// Total invariant violations across the matrix.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.cells.iter().map(CellOutcome::violations).sum()
    }

    /// Total fault activations across the matrix.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.cells.iter().map(CellOutcome::faults_injected).sum()
    }

    /// Total brownouts across the matrix.
    #[must_use]
    pub(crate) fn total_brownouts(&self) -> u64 {
        self.cells.iter().map(CellOutcome::brownouts).sum()
    }

    /// Finds a cell outcome by key.
    #[must_use]
    pub fn cell(&self, key: &str) -> Option<&CellOutcome> {
        self.cells.iter().find(|c| c.key == key)
    }

    /// Fixed-format text rendering (byte-identical across thread counts).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let [ns, nc, nf, np, ne] = self.dims;
        let _ = writeln!(
            s,
            "sdb campaign: {} cells ({ns} scenarios x {nc} chemistries x {nf} faults x {np} policies x {ne} engines), {} devices/cell",
            self.cells.len(),
            self.devices_per_cell
        );
        let _ = writeln!(
            s,
            "seed {:#x}, horizon {:.2} h, matrix digest {:016x}",
            self.master_seed, self.hours, self.matrix_digest
        );
        let _ = writeln!(
            s,
            "violations: {}   brownouts: {}   faults injected: {}",
            self.total_violations(),
            self.total_brownouts(),
            self.total_faults()
        );
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "{:<44} {:>16} {:>8} {:>10} {:>6} {:>5} {:>7} {:>9}",
            "cell", "digest", "life-h", "unmet-J", "soc", "viol", "faults", "ff-ticks"
        );
        for c in &self.cells {
            let _ = writeln!(
                s,
                "{:<44} {:>16} {:>8.3} {:>10.1} {:>6.3} {:>5} {:>7} {:>9}",
                c.key,
                format!("{:016x}", c.digest),
                c.mean_life_h(),
                c.total_unmet_j(),
                c.mean_final_soc(),
                c.violations(),
                c.faults_injected(),
                c.ff_ticks()
            );
        }
        if self.total_violations() > 0 {
            let _ = writeln!(s);
            let _ = writeln!(s, "first violations:");
            for c in self.cells.iter().filter(|c| c.violations() > 0).take(10) {
                for d in c.devices.iter().filter(|d| d.violations > 0).take(1) {
                    if let Some(v) = &d.first_violation {
                        let _ = writeln!(s, "  {} device {}: {}", c.key, d.device, v);
                    }
                }
            }
        }
        s
    }

    /// Deterministic JSON rendering (summary plus per-cell rows with
    /// per-device digests; snapshots are omitted).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"cells\":{},\"dims\":[{},{},{},{},{}],\"devices_per_cell\":{},\
             \"master_seed\":{},\"hours\":{},\"matrix_digest\":\"{:016x}\",\
             \"config_digest\":\"{:016x}\",\"violations\":{},\"brownouts\":{},\
             \"faults_injected\":{},\"cell_rows\":[",
            self.cells.len(),
            self.dims[0],
            self.dims[1],
            self.dims[2],
            self.dims[3],
            self.dims[4],
            self.devices_per_cell,
            self.master_seed,
            self.hours,
            self.matrix_digest,
            self.config_digest,
            self.total_violations(),
            self.total_brownouts(),
            self.total_faults()
        );
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"key\":\"{}\",\"digest\":\"{:016x}\",\"mean_life_h\":{:.6},\
                 \"unmet_j\":{:.3},\"mean_final_soc\":{:.6},\"violations\":{},\
                 \"faults\":{},\"ff_ticks\":{},\"devices\":[",
                c.key,
                c.digest,
                c.mean_life_h(),
                c.total_unmet_j(),
                c.mean_final_soc(),
                c.violations(),
                c.faults_injected(),
                c.ff_ticks()
            );
            for (j, d) in c.devices.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"device\":{},\"digest\":\"{:016x}\",\"life_s\":{:.3},\
                     \"browned_out\":{},\"violations\":{},\"faults\":{}}}",
                    d.device,
                    d.digest(),
                    d.life_s,
                    d.browned_out,
                    d.violations,
                    d.faults_injected
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Self-contained HTML rendering: the summary header and the cell
    /// table, styled inline (no external assets).
    #[must_use]
    pub fn render_html(&self) -> String {
        let [ns, nc, nf, np, ne] = self.dims;
        let mut s = String::new();
        s.push_str(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
             <title>sdb campaign</title><style>\
             body{font-family:monospace;margin:2em}\
             table{border-collapse:collapse}\
             td,th{border:1px solid #ccc;padding:2px 8px;text-align:right}\
             td:first-child,th:first-child{text-align:left}\
             tr.bad{background:#fdd}\
             </style></head><body>\n",
        );
        let _ = writeln!(
            s,
            "<h1>sdb campaign</h1>\n<p>{} cells ({ns}&times;{nc}&times;{nf}&times;{np}&times;{ne}), \
             {} devices/cell, seed {:#x}, horizon {:.2} h</p>\n\
             <p>matrix digest <code>{:016x}</code> &mdash; violations {}, brownouts {}, faults {}</p>",
            self.cells.len(),
            self.devices_per_cell,
            self.master_seed,
            self.hours,
            self.matrix_digest,
            self.total_violations(),
            self.total_brownouts(),
            self.total_faults()
        );
        s.push_str(
            "<table><tr><th>cell</th><th>digest</th><th>life-h</th><th>unmet-J</th>\
             <th>soc</th><th>viol</th><th>faults</th><th>ff-ticks</th></tr>\n",
        );
        for c in &self.cells {
            let cls = if c.violations() > 0 {
                " class=\"bad\""
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "<tr{cls}><td>{}</td><td><code>{:016x}</code></td><td>{:.3}</td>\
                 <td>{:.1}</td><td>{:.3}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                c.key,
                c.digest,
                c.mean_life_h(),
                c.total_unmet_j(),
                c.mean_final_soc(),
                c.violations(),
                c.faults_injected(),
                c.ff_ticks()
            );
        }
        s.push_str("</table>\n</body></html>\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn fake_record(cell: usize, device: u64, salt: u8) -> DeviceRecord {
        DeviceRecord {
            cell,
            device,
            life_s: 3600.0 + f64::from(salt),
            supplied_j: 100.0,
            unmet_j: 0.0,
            loss_j: 2.0,
            mean_final_soc: 0.8,
            browned_out: false,
            violations: 0,
            faults_injected: 0,
            ff_ticks: 0,
            first_violation: None,
            snapshot: vec![salt; 16],
        }
    }

    #[test]
    fn device_digest_flags_every_field() {
        let base = fake_record(0, 0, 1);
        let d0 = base.digest();
        let mut r = base.clone();
        r.life_s += 1e-9;
        assert_ne!(r.digest(), d0);
        let mut r = base.clone();
        r.snapshot[3] ^= 1;
        assert_ne!(r.digest(), d0);
        let mut r = base.clone();
        r.violations = 1;
        assert_ne!(r.digest(), d0);
        let mut r = base.clone();
        r.first_violation = Some("t=1 energy".to_owned());
        assert_ne!(r.digest(), d0);
        assert_eq!(base.clone().digest(), d0);
    }

    #[test]
    fn cell_digest_depends_on_key_and_device_order() {
        let devs = vec![fake_record(0, 0, 1), fake_record(0, 1, 2)];
        let a = CellOutcome::from_devices(0, "k1".to_owned(), devs.clone());
        let b = CellOutcome::from_devices(0, "k2".to_owned(), devs);
        assert_ne!(a.digest, b.digest);
    }
}
