//! Benchmark and figure-regeneration harness for the SDB reproduction.
//!
//! Every table and figure in the paper's evaluation has a module under
//! [`experiments`] that recomputes it from the live system. A data figure
//! is a [`Figure`] whose one [`Table`] gives both its text and its CSV; the
//! prose tables and the ablations are text only. The `figures` binary
//! prints the whole report (`figures all`, the data behind
//! `EXPERIMENTS.md`), one experiment, or one figure's CSV, so neither
//! document can drift from the code. The benches in `benches/` (driven by
//! the in-repo [`harness`]) measure the underlying machinery and the fleet
//! engine's thread scaling.

pub mod experiments;
pub mod harness;
pub mod output;
mod table;

pub use table::{Cell, Figure, Table};

use experiments::*;

/// What an experiment regenerates.
#[derive(Clone, Copy)]
pub enum Artifact {
    /// A data figure: its text and CSV come from the same table.
    Figure(fn() -> Figure),
    /// A prose table or the ablations: text only, no CSV.
    Prose(fn() -> String),
}

/// One regenerable experiment.
pub struct Experiment {
    /// Identifier matching the paper ("fig11b", "table1", ...).
    pub id: &'static str,
    /// What the paper's artifact shows.
    pub title: &'static str,
    /// Recomputes the artifact.
    pub artifact: Artifact,
}

impl Experiment {
    const fn figure(id: &'static str, title: &'static str, f: fn() -> Figure) -> Self {
        Self {
            id,
            title,
            artifact: Artifact::Figure(f),
        }
    }

    const fn prose(id: &'static str, title: &'static str, f: fn() -> String) -> Self {
        Self {
            id,
            title,
            artifact: Artifact::Prose(f),
        }
    }

    /// The regenerated artifact as text.
    #[must_use]
    pub fn render(&self) -> String {
        match self.artifact {
            Artifact::Figure(f) => f().text(),
            Artifact::Prose(f) => f(),
        }
    }

    /// The figure's table as CSV, or `None` for a prose artifact.
    #[must_use]
    pub fn csv(&self) -> Option<String> {
        match self.artifact {
            Artifact::Figure(f) => Some(f().table.csv()),
            Artifact::Prose(_) => None,
        }
    }
}

/// Every table and figure in the paper, in paper order, then the
/// ablations.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment::prose("table1", "Battery characteristics", tables::render_table1),
    Experiment::figure(
        "fig1a",
        "Li-ion chemistry comparison (radar axes)",
        fig1::fig1a,
    ),
    Experiment::figure("fig1b", "Charging rate affects longevity", fig1::fig1b),
    Experiment::figure("fig1c", "Discharging rate vs lost energy", fig1::fig1c),
    Experiment::prose(
        "table2",
        "Tradeoffs impacting SDB policies",
        tables::render_table2,
    ),
    Experiment::figure("fig6a", "Discharge circuit power loss", fig6::fig6a),
    Experiment::figure("fig6b", "Discharge proportion error", fig6::fig6b),
    Experiment::figure("fig6c", "Charging circuit efficiency", fig6::fig6c),
    Experiment::figure("fig6d", "Charging current error", fig6::fig6d),
    Experiment::figure("fig8b", "Open circuit potential vs SoC", fig8::fig8b),
    Experiment::figure("fig8c", "Internal resistance vs SoC", fig8::fig8c),
    Experiment::figure("fig10", "Model validation vs reference cell", fig10::fig10),
    Experiment::figure("fig11a", "Energy density comparison", fig11::fig11a),
    Experiment::figure("fig11b", "Charge time comparison", fig11::fig11b),
    Experiment::figure("fig11c", "Longevity comparison", fig11::fig11c),
    Experiment::figure("fig12", "Performance priority levels", fig12::fig12),
    Experiment::figure("fig13", "Watch day: policies compared", fig13::fig13),
    Experiment::figure("fig14", "2-in-1 battery life improvement", fig14::fig14),
    Experiment::prose(
        "ablations",
        "Design-choice ablations (extension)",
        ablations::render_ablations,
    ),
];

/// Looks up one experiment by id.
#[must_use]
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_artifact_has_an_experiment() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        for required in [
            "table1", "table2", "fig1a", "fig1b", "fig1c", "fig6a", "fig6b", "fig6c", "fig6d",
            "fig8b", "fig8c", "fig10", "fig11a", "fig11b", "fig11c", "fig12", "fig13", "fig14",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn lookup_works() {
        assert!(experiment("fig11b").is_some());
        assert!(experiment("fig99").is_none());
    }

    #[test]
    fn quick_experiments_have_csv() {
        for id in [
            "fig1a", "fig1b", "fig1c", "fig6a", "fig6b", "fig6c", "fig6d", "fig8b", "fig8c",
            "fig11a", "fig11c",
        ] {
            let csv = experiment(id)
                .and_then(Experiment::csv)
                .unwrap_or_else(|| panic!("{id} missing csv"));
            let lines: Vec<&str> = csv.lines().collect();
            assert!(lines.len() >= 3, "{id} too short");
            // Column check on unquoted lines only (quoted labels may
            // legitimately contain commas).
            let unquoted: Vec<&&str> = lines.iter().filter(|l| !l.contains('"')).collect();
            if let Some(first) = unquoted.first() {
                let cols = first.split(',').count();
                for line in &unquoted {
                    assert_eq!(line.split(',').count(), cols, "{id}: ragged row {line}");
                }
            }
        }
    }

    #[test]
    fn prose_artifacts_have_no_csv() {
        for id in ["table1", "table2", "ablations"] {
            assert!(experiment(id).expect(id).csv().is_none(), "{id}");
        }
    }

    #[test]
    fn fig1b_csv_parses_numerically() {
        let csv = experiment("fig1b").and_then(Experiment::csv).unwrap();
        for line in csv.lines().skip(1) {
            for field in line.split(',') {
                assert!(field.parse::<f64>().is_ok(), "bad field {field}");
            }
        }
    }
}
