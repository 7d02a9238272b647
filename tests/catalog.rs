//! The device catalog through the CLI: every named pack, trace and policy
//! spelling, small fleets under each policy and engine, and the default
//! 64-device fleet over a full day on both engines, print byte-stable
//! reports. A drifting snapshot means a pack, a workload, a policy's
//! set-up or a report format changed. Regenerate intentionally with
//! `SDB_REGEN_GOLDEN=1 cargo test --test catalog`.

use std::path::PathBuf;
use std::process::Command;

const PACKS: [&str; 4] = ["watch", "phone", "tablet-hybrid", "two-in-one"];

const POLICIES: [&str; 6] = ["rbl", "ccb", "preserve", "blend:0.3", "planned", "oracle"];

/// A three-hour recorded trace: `sdb sim --trace-file` has no generator,
/// so its planner warms up on the trace itself.
const CSV: &str = "dur_s,load_w\n1800,1.5\n1800,6.0\n3600,0.8\n1800,9.0\n1800,2.0\n";

const FLEET: [&str; 9] = [
    "fleet",
    "--devices",
    "8",
    "--hours",
    "2",
    "--seed",
    "5",
    "--threads",
    "2",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/catalog.stdout")
}

/// Every command the snapshot covers, in snapshot order.
fn commands(csv: &str) -> Vec<Vec<String>> {
    let owned = |args: &[&str]| args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
    let mut cmds = vec![owned(&["packs"]), owned(&["traces"])];
    for pack in PACKS {
        cmds.push(owned(&["status", "--pack", pack]));
    }
    cmds.push(owned(&["status", "--pack", "phone", "--soc", "0.25"]));
    for pack in PACKS {
        cmds.push(owned(&["charge", "--pack", pack, "--target", "40"]));
    }
    for pack in PACKS {
        for policy in POLICIES {
            cmds.push(owned(&[
                "sim",
                "--pack",
                pack,
                "--trace",
                "tablet-mixed",
                "--policy",
                policy,
            ]));
        }
    }
    cmds.push(owned(&[
        "sim",
        "--pack",
        "watch",
        "--trace",
        "watch-day",
        "--policy",
        "preserve",
    ]));
    for policy in ["rbl", "planned", "oracle"] {
        cmds.push(owned(&[
            "sim",
            "--pack",
            "phone",
            "--trace-file",
            csv,
            "--policy",
            policy,
        ]));
    }
    for extra in [
        &[][..],
        &["--policy", "planned"],
        &["--policy", "oracle"],
        &["--engine", "soa"],
    ] {
        let mut cmd = owned(&FLEET);
        cmd.extend(owned(extra));
        cmd.push("--json".to_owned());
        cmds.push(cmd);
    }
    // The default population over a full day, on both engines.
    for extra in [&[][..], &["--engine", "soa"]] {
        let mut cmd = owned(&["fleet", "--devices", "64", "--hours", "24", "--seed", "7"]);
        cmd.extend(owned(extra));
        cmd.push("--json".to_owned());
        cmds.push(cmd);
    }
    cmds
}

#[test]
fn catalog_reports_match_the_golden_snapshot() {
    let csv = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("catalog.csv");
    std::fs::write(&csv, CSV).expect("write trace csv");
    let csv = csv.to_str().expect("utf-8 temp path").to_owned();
    let mut text = String::new();
    for args in commands(&csv) {
        let out = Command::new(env!("CARGO_BIN_EXE_sdb"))
            .args(&args)
            .output()
            .expect("run sdb");
        assert!(
            out.status.success(),
            "sdb {args:?} exited with {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        text.push_str(&format!("$ sdb {}\n", args.join(" ")));
        text.push_str(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
    }
    // The recorded trace's path is machine-specific.
    let text = text.replace(&csv, "<trace.csv>");
    let golden = golden_path();
    if std::env::var_os("SDB_REGEN_GOLDEN").is_some() {
        std::fs::write(&golden, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden snapshot exists");
    if want != text {
        let line = want
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(text.lines().count()));
        panic!(
            "catalog output drifted from {} at line {}:\n  golden: {:?}\n  actual: {:?}",
            golden.display(),
            line + 1,
            want.lines().nth(line),
            text.lines().nth(line)
        );
    }
}
