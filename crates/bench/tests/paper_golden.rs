//! Golden snapshot of the `figures all` report: every regenerated table
//! and figure of the reproduction, byte for byte.
//!
//! The report is deterministic (seeded workloads, no wall clock), and
//! debug and release builds print the same bytes, so a drifting snapshot
//! means a headline number of the paper moved. Regenerate intentionally
//! with `SDB_REGEN_GOLDEN=1 cargo test -p sdb-bench --test paper_golden`.

use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper.stdout")
}

#[test]
fn paper_report_matches_golden_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("all")
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "figures all exited with {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = golden_path();
    if std::env::var_os("SDB_REGEN_GOLDEN").is_some() {
        std::fs::write(&golden, &out.stdout).expect("write golden");
        return;
    }
    let expected = std::fs::read(&golden)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
    if out.stdout == expected {
        return;
    }
    let got = String::from_utf8_lossy(&out.stdout);
    let want = String::from_utf8_lossy(&expected);
    let first_diff = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map_or_else(
            || {
                format!(
                    "line counts differ: {} vs {}",
                    got.lines().count(),
                    want.lines().count()
                )
            },
            |(i, (g, w))| format!("line {}: got {g:?}, want {w:?}", i + 1),
        );
    panic!(
        "figures all report drifted from its golden snapshot \
         (SDB_REGEN_GOLDEN=1 to regenerate intentionally): {first_diff}"
    );
}

#[test]
fn a_flag_is_an_error_not_an_output_path() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["all", "--metrics-out", "m.prom"])
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag `--metrics-out`"), "{stderr}");
    assert!(out.stdout.is_empty());
}
