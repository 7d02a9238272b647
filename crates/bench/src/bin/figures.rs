//! Regenerates the paper's tables and figures as text.
//!
//! ```text
//! figures                             # list available experiments
//! figures all                         # render everything
//! figures fig11b                      # render one experiment
//! figures csv fig11b                  # emit one experiment's data as CSV
//! ```

use sdb_bench::experiments::csv_export;
use sdb_bench::output::emit;
use sdb_bench::{all_experiments, experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            let mut out =
                String::from("Available experiments (run `figures all` or `figures <id>`):\n\n");
            for e in all_experiments() {
                out.push_str(&format!("  {:<10} {}\n", e.id, e.title));
            }
            emit(&out);
        }
        Some("csv") => match args.get(1) {
            Some(id) => match csv_export::csv_for(id) {
                Some(csv) => emit(&csv),
                None => {
                    eprintln!("no CSV data for `{id}` (prose-only or unknown experiment)");
                    std::process::exit(1);
                }
            },
            None => {
                eprintln!("usage: figures csv <id>");
                std::process::exit(1);
            }
        },
        Some("all") => {
            for e in all_experiments() {
                emit(&format!(
                    "==== {} — {} ====\n\n{}\n",
                    e.id,
                    e.title,
                    (e.render)()
                ));
            }
        }
        Some(id) => match experiment(id) {
            Some(e) => emit(&format!("{}\n", (e.render)())),
            None => {
                eprintln!("unknown experiment `{id}`; run with no arguments to list");
                std::process::exit(1);
            }
        },
    }
}
