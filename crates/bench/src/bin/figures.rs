//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures                             # list available experiments
//! figures all                         # the full report (EXPERIMENTS.md data)
//! figures fig11b                      # render one experiment
//! figures csv fig11b                  # one figure's table as CSV
//! ```

use sdb_bench::output::emit;
use sdb_bench::{experiment, Experiment, EXPERIMENTS};

const USAGE: &str = "usage: figures [all | <id> | csv <id>]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn unknown(id: &str) -> ! {
    fail(&format!(
        "unknown experiment `{id}`; run with no arguments to list"
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        fail(&format!("unknown flag `{flag}` ({USAGE})"));
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        [] => {
            let mut out =
                String::from("Available experiments (run `figures all` or `figures <id>`):\n\n");
            for e in EXPERIMENTS {
                out.push_str(&format!("  {:<10} {}\n", e.id, e.title));
            }
            emit(&out);
        }
        ["all"] => {
            let mut report = String::from("# SDB reproduction — regenerated experiment data\n\n");
            for e in EXPERIMENTS {
                report.push_str(&format!(
                    "## {} — {}\n\n```text\n{}\n```\n\n",
                    e.id,
                    e.title,
                    e.render().trim_end()
                ));
            }
            emit(&report);
        }
        ["csv", id] => match experiment(id).map(Experiment::csv) {
            Some(Some(csv)) => emit(&csv),
            Some(None) => fail(&format!("`{id}` is prose-only and has no CSV")),
            None => unknown(id),
        },
        ["csv"] => fail(USAGE),
        [id] => match experiment(id) {
            Some(e) => emit(&format!("{}\n", e.render())),
            None => unknown(id),
        },
        _ => fail(USAGE),
    }
}
