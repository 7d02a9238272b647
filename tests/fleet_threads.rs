//! The CLI side of the fleet's determinism contract: every file `sdb
//! fleet` writes (the JSON report, the `--metrics-out` counters, and for
//! the scalar engine the JSONL event trace and its Chrome twin) is byte
//! for byte the same at `--threads 1` and `--threads 4`.
//!
//! Also checks that the phase profiler's sampled `micro_step` timer times
//! as many steps as its per-device gate allows, no more and no fewer.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `sdb <args>` and asserts it exits 0.
fn sdb(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdb"))
        .args(args)
        .output()
        .expect("run sdb");
    assert!(out.status.success(), "sdb {args:?}: {out:?}");
}

/// A fresh scratch directory for `label`'s files.
fn dir(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `sdb fleet <fleet> --seed 7` at 1 and 4 threads, writing every
/// output file, and asserts each pair is byte-identical. Returns the
/// 1-thread run's directory.
fn fleet_files_match_across_threads(label: &str, fleet: &[&str], traced: bool) -> PathBuf {
    let mut files = vec!["report.json", "metrics.json"];
    if traced {
        files.extend(["trace.jsonl", "trace.chrome.json"]);
    }
    let [one, four] = [1, 4].map(|threads| {
        let dir = dir(&format!("{label}-{threads}t"));
        let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
        let threads = threads.to_string();
        let mut args = vec!["fleet", "--seed", "7", "--threads", &threads, "--json"];
        args.extend(fleet);
        let (report, metrics_json) = (path("report.json"), path("metrics.json"));
        let trace = path("trace.jsonl");
        args.extend(["--out", &report, "--metrics-out", &metrics_json]);
        if traced {
            args.extend(["--trace-out", &trace]);
        }
        sdb(&args);
        dir
    });
    for name in files {
        let read = |dir: &Path| std::fs::read(dir.join(name)).expect("output written");
        let (a, b) = (read(&one), read(&four));
        assert!(!a.is_empty(), "{label}: {name} is empty");
        assert!(a == b, "{label}: {name} differs between 1 and 4 threads");
    }
    let metrics = std::fs::read_to_string(one.join("metrics.json")).expect("metrics written");
    assert_eq!(
        metrics.matches("\"type\":\"counter\"").count(),
        metrics.matches("\"name\":").count(),
        "{label}: --metrics-out holds a non-counter:\n{metrics}"
    );
    one
}

#[test]
fn default_fleet_files_are_byte_identical_across_thread_counts() {
    fleet_files_match_across_threads("fleet", &["--devices", "200", "--hours", "1"], true);
}

#[test]
fn soa_fleet_files_are_byte_identical_across_thread_counts() {
    fleet_files_match_across_threads(
        "fleet-soa",
        &["--devices", "200", "--hours", "1", "--engine", "soa"],
        false,
    );
}

#[test]
fn planned_fleet_files_are_byte_identical_across_thread_counts() {
    fleet_files_match_across_threads(
        "fleet-planned",
        &["--devices", "16", "--hours", "2", "--policy", "planned"],
        true,
    );
}

/// A wider planned population over the first hour: more devices share
/// each shard, and the planner leaves its commits in the event stream.
#[test]
fn wide_planned_fleet_files_are_byte_identical_and_record_plan_commits() {
    let dir = fleet_files_match_across_threads(
        "fleet-planned-wide",
        &["--devices", "64", "--hours", "1", "--policy", "planned"],
        true,
    );
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    assert!(
        trace.lines().any(|line| line.contains("plan_commit")),
        "the planned fleet's trace holds no plan_commit event"
    );
}

/// `(count, timed)` summed over every `phase` node of a profile's wall
/// forest.
fn count_and_timed(nodes: &sdb::trace::json::Value, phase: &str) -> (u64, u64) {
    let mut sum = (0, 0);
    for node in nodes.as_arr().expect("phase list") {
        let field = |k: &str| {
            node.get(k)
                .and_then(sdb::trace::json::Value::as_u64)
                .expect(k)
        };
        if node.get("phase").and_then(|v| v.as_str()) == Some(phase) {
            sum.0 += field("count");
            sum.1 += field("timed");
        }
        let (c, t) = count_and_timed(node.get("children").expect("children"), phase);
        sum = (sum.0 + c, sum.1 + t);
    }
    sum
}

/// Each device times its 1st, 129th, 257th, ... step (the gate restarts
/// per device), so a fleet times `sum(ceil(steps_d / 128))` micro steps:
/// at least one per device, and at most `steps / 128` plus one per
/// device.
#[test]
fn profiled_micro_steps_are_a_per_device_sample() {
    let out = dir("profile-sample").join("profile.json");
    let out = out.to_str().expect("utf-8 path");
    sdb(&[
        "profile",
        "--format",
        "json",
        "--out",
        out,
        "fleet",
        "--devices",
        "200",
        "--seed",
        "7",
        "--hours",
        "1",
        "--threads",
        "4",
    ]);
    let json = std::fs::read_to_string(out).expect("profile written");
    let profile = sdb::trace::json::parse(&json).expect("profile json parses");
    let wall = profile
        .get("wall")
        .and_then(|w| w.get("phases"))
        .expect("wall phases");
    let (devices, _) = count_and_timed(wall, "device_run");
    let (steps, timed) = count_and_timed(wall, "micro_step");
    assert_eq!(devices, 200);
    assert_eq!(steps, 12_000);
    assert!(
        (devices..=steps / sdb::prof::SAMPLE_EVERY + devices).contains(&timed),
        "{timed} of {steps} micro steps timed over {devices} devices"
    );
}
