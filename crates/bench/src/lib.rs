//! Benchmark and figure-regeneration harness for the SDB reproduction.
//!
//! Every table and figure in the paper's evaluation has a module under
//! [`experiments`] that recomputes its rows/series from the live system and
//! renders them as text. The `figures` binary prints any (or all) of them;
//! the benches in `benches/` (driven by the in-repo [`harness`]) measure
//! the performance of the underlying machinery and the fleet engine's
//! thread scaling; `EXPERIMENTS.md` is generated from the same code
//! by the `paper` binary, so the document can never drift from the code.

pub mod experiments;
pub mod harness;
pub mod output;
mod table;

use experiments::*;

/// One regenerable experiment.
pub struct Experiment {
    /// Identifier matching the paper ("fig11b", "table1", ...).
    pub id: &'static str,
    /// What the paper's artifact shows.
    pub title: &'static str,
    /// Renders the regenerated rows as text.
    pub render: fn() -> String,
}

/// Every table and figure in the paper, in paper order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Battery characteristics",
            render: tables::render_table1,
        },
        Experiment {
            id: "fig1a",
            title: "Li-ion chemistry comparison (radar axes)",
            render: fig1::render_fig1a,
        },
        Experiment {
            id: "fig1b",
            title: "Charging rate affects longevity",
            render: fig1::render_fig1b,
        },
        Experiment {
            id: "fig1c",
            title: "Discharging rate vs lost energy",
            render: fig1::render_fig1c,
        },
        Experiment {
            id: "table2",
            title: "Tradeoffs impacting SDB policies",
            render: tables::render_table2,
        },
        Experiment {
            id: "fig6a",
            title: "Discharge circuit power loss",
            render: fig6::render_fig6a,
        },
        Experiment {
            id: "fig6b",
            title: "Discharge proportion error",
            render: fig6::render_fig6b,
        },
        Experiment {
            id: "fig6c",
            title: "Charging circuit efficiency",
            render: fig6::render_fig6c,
        },
        Experiment {
            id: "fig6d",
            title: "Charging current error",
            render: fig6::render_fig6d,
        },
        Experiment {
            id: "fig8b",
            title: "Open circuit potential vs SoC",
            render: fig8::render_fig8b,
        },
        Experiment {
            id: "fig8c",
            title: "Internal resistance vs SoC",
            render: fig8::render_fig8c,
        },
        Experiment {
            id: "fig10",
            title: "Model validation vs reference cell",
            render: fig10::render_fig10,
        },
        Experiment {
            id: "fig11a",
            title: "Energy density comparison",
            render: fig11::render_fig11a,
        },
        Experiment {
            id: "fig11b",
            title: "Charge time comparison",
            render: fig11::render_fig11b,
        },
        Experiment {
            id: "fig11c",
            title: "Longevity comparison",
            render: fig11::render_fig11c,
        },
        Experiment {
            id: "fig12",
            title: "Performance priority levels",
            render: fig12::render_fig12,
        },
        Experiment {
            id: "fig13",
            title: "Watch day: policies compared",
            render: fig13::render_fig13,
        },
        Experiment {
            id: "fig14",
            title: "2-in-1 battery life improvement",
            render: fig14::render_fig14,
        },
        Experiment {
            id: "ablations",
            title: "Design-choice ablations (extension)",
            render: ablations::render_ablations,
        },
    ]
}

/// Looks up one experiment by id.
#[must_use]
pub fn experiment(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_artifact_has_an_experiment() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
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
}
