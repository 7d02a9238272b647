//! `sdb` flag handling: a value that does not parse, or an unknown fleet
//! policy, is a usage error that exits non-zero before any work starts,
//! never a silent default.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn sdb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdb"))
        .args(args)
        .output()
        .expect("run sdb")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = sdb(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "sdb {args:?}: {stderr}");
    assert!(stderr.contains(needle), "sdb {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "sdb {args:?} printed a report");
}

#[test]
fn unparsable_numeric_flags_are_errors_naming_the_flag() {
    assert_usage_error(
        &["fleet", "--devices", "4", "--hours", "24h"],
        "--hours `24h`",
    );
    assert_usage_error(&["chaos", "--devices", "x"], "--devices `x`");
    assert_usage_error(&["campaign", "--threads", "two"], "--threads `two`");
    assert_usage_error(&["fleet", "--devices", "--json"], "--devices needs a value");
}

#[test]
fn unknown_fleet_policies_are_errors() {
    assert_usage_error(
        &["fleet", "--devices", "4", "--policy", "bogus"],
        "unknown fleet policy `bogus`",
    );
    assert_usage_error(
        &["profile", "--devices", "4", "--policy", "bogus"],
        "unknown fleet policy `bogus`",
    );
}

#[test]
fn serve_rejects_an_unknown_telemetry_policy_before_it_binds() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdb"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--telemetry",
            "--devices",
            "2",
            "--hours",
            "0.1",
            "--policy",
            "bogus",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sdb serve");
    // A listener that did bind would serve until /shutdown: bound the wait.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll sdb serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("sdb serve --policy bogus did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown fleet policy `bogus`"), "{stderr}");
    assert!(
        !stdout.contains("listening on"),
        "bound before failing: {stdout}"
    );
}
