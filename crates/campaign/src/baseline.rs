//! Committed golden baselines and the differential comparison.
//!
//! A baseline records, per cell key, the cell digest and each device's
//! digest. It carries the *cell-independent* config digest (seed, hours,
//! devices per cell) rather than the full matrix digest: a cell's outcome
//! does not depend on which other cells a run included, so a pruned
//! single-cell repro run — the command the minimizer emits — can be
//! compared against the full matrix's committed baseline.
//!
//! ```text
//! # sdb-campaign baseline v1
//! config <16-hex baseline config digest>
//! cell <key> <cell-digest> <dev0-digest>,<dev1-digest>,...
//! ```

use crate::report::CampaignReport;

/// First line of every baseline file.
pub(crate) const BASELINE_HEADER: &str = "# sdb-campaign baseline v1";

/// One cell's golden digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineCell {
    /// Cell key (`scenario/chemistry/fault/policy/engine`).
    pub key: String,
    /// Golden cell digest.
    pub digest: u64,
    /// Golden per-device digests, in device order.
    pub devices: Vec<u64>,
}

/// A parsed golden baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// The cell-independent config digest the golden run used.
    pub config: u64,
    /// Per-cell golden digests, in the golden run's matrix order.
    pub cells: Vec<BaselineCell>,
}

impl Baseline {
    /// Captures a report as a new baseline.
    #[must_use]
    pub fn from_report(report: &CampaignReport) -> Self {
        Self {
            config: report.baseline_config_digest,
            cells: report
                .cells
                .iter()
                .map(|c| BaselineCell {
                    key: c.key.clone(),
                    digest: c.digest,
                    devices: c.devices.iter().map(|d| d.digest()).collect(),
                })
                .collect(),
        }
    }

    /// Renders the committed file format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("{BASELINE_HEADER}\nconfig {:016x}\n", self.config);
        for c in &self.cells {
            let devices: Vec<String> = c.devices.iter().map(|d| format!("{d:016x}")).collect();
            s.push_str(&format!(
                "cell {} {:016x} {}\n",
                c.key,
                c.digest,
                devices.join(",")
            ));
        }
        s
    }

    /// Parses the committed file format.
    ///
    /// # Errors
    ///
    /// Returns a message on a bad header, config line, or cell line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim_end() == BASELINE_HEADER => {}
            other => {
                return Err(format!(
                    "not a campaign baseline (first line {:?})",
                    other.map_or("", |(_, l)| l)
                ))
            }
        }
        let config = lines
            .next()
            .and_then(|(_, l)| l.strip_prefix("config "))
            .ok_or_else(|| "baseline missing config line".to_owned())?;
        let config = u64::from_str_radix(config.trim(), 16)
            .map_err(|e| format!("bad config digest: {e}"))?;
        let mut cells = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_ascii_whitespace().collect();
            if f.len() != 4 || f[0] != "cell" {
                return Err(format!("baseline line {}: malformed cell row", i + 1));
            }
            let digest = u64::from_str_radix(f[2], 16)
                .map_err(|e| format!("baseline line {}: bad digest: {e}", i + 1))?;
            let devices = f[3]
                .split(',')
                .map(|d| u64::from_str_radix(d, 16))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("baseline line {}: bad device digest: {e}", i + 1))?;
            cells.push(BaselineCell {
                key: f[1].to_owned(),
                digest,
                devices,
            });
        }
        Ok(Self { config, cells })
    }

    /// Looks up a cell by key.
    #[must_use]
    pub(crate) fn cell(&self, key: &str) -> Option<&BaselineCell> {
        self.cells.iter().find(|c| c.key == key)
    }

    /// Deliberately perturbs `key`'s golden digests (cell digest and
    /// device 0's digest each XOR 1) — the seeded-divergence hook behind
    /// `sdb campaign --inject-divergence`, used to prove end to end that
    /// the comparison detects a mismatch and the minimizer converges on
    /// exactly this cell.
    ///
    /// # Errors
    ///
    /// Returns an error if `key` is not in the baseline.
    pub fn inject_divergence(&mut self, key: &str) -> Result<(), String> {
        let cell = self
            .cells
            .iter_mut()
            .find(|c| c.key == key)
            .ok_or_else(|| format!("--inject-divergence: cell `{key}` not in baseline"))?;
        cell.digest ^= 1;
        if let Some(d0) = cell.devices.first_mut() {
            *d0 ^= 1;
        }
        Ok(())
    }
}

/// One cell whose digest differs from the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Matrix index of the cell in the *current* report.
    pub cell_index: usize,
    /// Cell key.
    pub key: String,
    /// Golden cell digest.
    pub expected: u64,
    /// Observed cell digest.
    pub actual: u64,
    /// Per-device mismatches as `(device, expected, actual)`.
    pub devices: Vec<(u64, u64, u64)>,
}

/// Result of a baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Cells present in both report and baseline.
    pub checked: usize,
    /// Report cells the baseline has no entry for (not a failure; the
    /// matrix grew or the run was pruned differently).
    pub new_cells: Vec<String>,
    /// Cells whose digests differ, in matrix order.
    pub divergences: Vec<Divergence>,
}

/// Compares a report against a golden baseline, cell by cell.
///
/// # Errors
///
/// Returns an error if the baseline was recorded under a different
/// (seed, hours, devices-per-cell) configuration — digests would differ
/// everywhere and mean nothing.
pub fn compare(report: &CampaignReport, baseline: &Baseline) -> Result<Comparison, String> {
    if baseline.config != report.baseline_config_digest {
        return Err(format!(
            "baseline config {:016x} does not match this campaign's {:016x} \
             (different seed, hours, or devices-per-cell); re-record with --write-baseline",
            baseline.config, report.baseline_config_digest
        ));
    }
    let mut checked = 0;
    let mut new_cells = Vec::new();
    let mut divergences = Vec::new();
    for cell in &report.cells {
        let Some(golden) = baseline.cell(&cell.key) else {
            new_cells.push(cell.key.clone());
            continue;
        };
        checked += 1;
        if golden.digest == cell.digest {
            continue;
        }
        let mut devices = Vec::new();
        for d in &cell.devices {
            let actual = d.digest();
            let expected = golden
                .devices
                .get(usize::try_from(d.device).unwrap_or(usize::MAX))
                .copied();
            match expected {
                Some(e) if e != actual => devices.push((d.device, e, actual)),
                Some(_) => {}
                None => devices.push((d.device, 0, actual)),
            }
        }
        divergences.push(Divergence {
            cell_index: cell.index,
            key: cell.key.clone(),
            expected: golden.digest,
            actual: cell.digest,
            devices,
        });
    }
    Ok(Comparison {
        checked,
        new_cells,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_baseline() -> Baseline {
        Baseline {
            config: 0xfeed,
            cells: vec![
                BaselineCell {
                    key: "a/b/c/d/e".to_owned(),
                    digest: 0x1111,
                    devices: vec![0x21, 0x22],
                },
                BaselineCell {
                    key: "f/g/h/i/j".to_owned(),
                    digest: 0x3333,
                    devices: vec![0x41],
                },
            ],
        }
    }

    #[test]
    fn baseline_round_trips() {
        let b = fake_baseline();
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("nope\n").is_err());
        assert!(Baseline::parse(&format!("{BASELINE_HEADER}\n")).is_err());
        let bad = format!("{BASELINE_HEADER}\nconfig 12\ncell only-three-fields 99\n");
        assert!(Baseline::parse(&bad).is_err());
    }

    #[test]
    fn injection_flips_exactly_one_cell() {
        let mut b = fake_baseline();
        let before = b.cells[1].clone();
        b.inject_divergence("f/g/h/i/j").unwrap();
        assert_eq!(b.cells[1].digest, before.digest ^ 1);
        assert_eq!(b.cells[1].devices[0], before.devices[0] ^ 1);
        assert_eq!(b.cells[0], fake_baseline().cells[0]);
        assert!(b.inject_divergence("missing/key").is_err());
    }
}
