//! Renders every experiment and writes the combined report to stdout (and
//! optionally a file), for regenerating `EXPERIMENTS.md` data.
//!
//! ```text
//! paper                            # print the full report
//! paper out.txt                    # also write it to a file
//! ```

use sdb_bench::all_experiments;
use sdb_bench::output::emit;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag `{flag}` (usage: paper [out.txt])");
        std::process::exit(1);
    }
    let mut report = String::new();
    report.push_str("# SDB reproduction — regenerated experiment data\n\n");
    for e in all_experiments() {
        report.push_str(&format!(
            "## {} — {}\n\n```text\n{}\n```\n\n",
            e.id,
            e.title,
            (e.render)().trim_end()
        ));
    }
    emit(&report);
    if let Some(path) = args.first() {
        let mut f = std::fs::File::create(path).expect("create output file");
        f.write_all(report.as_bytes()).expect("write report");
        eprintln!("wrote {path}");
    }
}
