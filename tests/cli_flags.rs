//! `sdb` flag handling: a value that does not parse or is out of range,
//! an unknown fleet policy, a flag missing from the subcommand's usage
//! line (a retired one included), a flag the command under `sdb profile`
//! does not accept or a stray argument is a usage error that exits
//! non-zero before any work starts, never a silent default. Every listed
//! pack and trace name runs, and a hostile trace file is refused, not
//! crashed on.

use std::process::{Command, Output};

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
    assert_usage_error(
        &["campaign", "--devices-per-cell", "x"],
        "--devices-per-cell `x`",
    );
    assert_usage_error(&["campaign", "--threads", "two"], "--threads `two`");
    assert_usage_error(&["fleet", "--devices", "--json"], "--devices needs a value");
}

#[test]
fn unknown_flags_and_stray_arguments_are_errors_naming_them() {
    assert_usage_error(
        &["fleet", "--devices", "2", "--hours", "0.1", "--bogus", "3"],
        "unknown flag `--bogus` for `sdb fleet`",
    );
    assert_usage_error(
        &["fleet", "--thread", "4"],
        "unknown flag `--thread` for `sdb fleet`",
    );
    assert_usage_error(
        &["campaign", "--bench-out", "x.json", "--threads", "1"],
        "unknown flag `--bench-out` for `sdb campaign`",
    );
    assert_usage_error(
        &["packs", "--json"],
        "unknown flag `--json` for `sdb packs`",
    );
    assert_usage_error(
        &["fleet", "4", "--devices", "2"],
        "unexpected argument `4` for `sdb fleet`",
    );
}

#[test]
fn every_flag_on_a_usage_line_is_accepted() {
    let out = sdb(&[]);
    assert_eq!(out.status.code(), Some(1));
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let mut checked = 0;
    for line in usage.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("sdb") {
            continue;
        }
        let Some(cmd) = words.next().filter(|w| !w.starts_with('-')) else {
            continue;
        };
        for flag in line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
        {
            // An accepted flag lets parsing reach the probe, which is
            // refused before any work starts.
            assert_usage_error(&[cmd, flag, "--zz-probe"], "unknown flag `--zz-probe`");
            checked += 1;
        }
    }
    assert_eq!(checked, 47, "flags found in:\n{usage}");
}

#[test]
fn unknown_fleet_policies_are_errors() {
    assert_usage_error(
        &["fleet", "--devices", "4", "--policy", "bogus"],
        "unknown fleet policy `bogus`",
    );
    assert_usage_error(
        &["profile", "fleet", "--devices", "4", "--policy", "bogus"],
        "unknown fleet policy `bogus`",
    );
}

#[test]
fn charge_rejects_a_negative_or_non_finite_supply() {
    for watts in ["-5", "nan", "inf", "-inf"] {
        assert_usage_error(&["charge", "--watts", watts], "invalid --watts");
    }
}

#[test]
fn out_of_range_values_are_errors_naming_the_flag() {
    for (args, needle) in [
        (&["status", "--soc", "nan"][..], "invalid --soc `nan`"),
        (&["status", "--soc", "1.5"], "invalid --soc `1.5`"),
        (&["charge", "--target", "1e20"], "invalid --target `1e20`"),
        (&["charge", "--target", "-5"], "invalid --target `-5`"),
        (&["charge", "--directive", "5"], "invalid --directive `5`"),
        (
            &["charge", "--directive", "nan"],
            "invalid --directive `nan`",
        ),
        (
            &["sim", "--pack", "watch", "--policy", "blend:nan"],
            "invalid --policy `blend:nan`",
        ),
        (
            &["sim", "--pack", "watch", "--policy", "blend:1.5"],
            "invalid --policy `blend:1.5`",
        ),
    ] {
        assert_usage_error(args, needle);
    }
    for cmd in [&["fleet"][..], &["profile", "fleet"]] {
        for hours in ["nan", "-1", "0", "inf"] {
            assert_usage_error(
                &[cmd, &["--devices", "2", "--hours", hours]].concat(),
                &format!("invalid --hours `{hours}`"),
            );
        }
    }
}

#[test]
fn retired_flags_are_usage_errors_naming_them() {
    for (args, needle) in [
        (
            &["analyze", "--devices", "20"][..],
            "unknown flag `--devices` for `sdb analyze`",
        ),
        (
            &["policy", "--metrics-out", "p.prom"],
            "unknown flag `--metrics-out` for `sdb policy`",
        ),
        (
            &["fleet", "--devices", "2", "--events-out", "e.jsonl"],
            "unknown flag `--events-out` for `sdb fleet`",
        ),
        (
            &["sim", "--events-out", "e.jsonl"],
            "unknown flag `--events-out` for `sdb sim`",
        ),
        (&["analyze", "--json"], "needs --trace"),
    ] {
        assert_usage_error(args, needle);
    }
    // `sdb profile` takes only --format and --out: the scenario flags
    // and its metrics dump are gone, and a command's flags follow it.
    for flag in [
        "--scenario",
        "--metrics-out",
        "--devices",
        "--threads",
        "--seed",
        "--hours",
        "--policy",
        "--engine",
        "--pack",
        "--trace",
    ] {
        assert_usage_error(
            &["profile", flag, "x", "fleet"],
            &format!("unknown flag `{flag}` for `sdb profile`"),
        );
    }
}

/// A campaign's usage errors are found before the matrix runs: the
/// checkpoint a run would append to is never created.
#[test]
fn campaign_usage_errors_stop_before_any_unit_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (tag, extra, needle) in [
        (
            "format",
            &["--format", "bogus"][..],
            "unknown --format `bogus`",
        ),
        (
            "write-baseline",
            &["--write-baseline"],
            "require --baseline",
        ),
        (
            "inject-divergence",
            &["--inject-divergence", "x"],
            "require --baseline",
        ),
    ] {
        let ck = dir.join(format!("usage-{tag}.ckpt"));
        let _ = std::fs::remove_file(&ck);
        let ck_arg = ck.to_str().expect("utf-8 path");
        let base = ["campaign", "--faults", "none", "--devices-per-cell", "1"];
        assert_usage_error(
            &[&base[..], &["--checkpoint", ck_arg], extra].concat(),
            needle,
        );
        assert!(!ck.exists(), "{tag}: the campaign ran before refusing");
    }
}

/// `fleet --trace-out --engine soa` is refused once, by the fleet
/// engine, before any device runs or any file is written.
#[test]
fn fleet_refuses_trace_capture_on_the_soa_engine() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("soa-trace.jsonl");
    let _ = std::fs::remove_file(&path);
    let args = [
        "fleet",
        "--devices",
        "2",
        "--hours",
        "0.1",
        "--engine",
        "soa",
    ];
    assert_usage_error(
        &[
            &args[..],
            &["--trace-out", path.to_str().expect("utf-8 path")],
        ]
        .concat(),
        "event capture requires the scalar engine (--engine scalar)",
    );
    assert!(!path.exists());
}

#[test]
fn analyze_refuses_a_deeply_nested_trace() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep.jsonl");
    std::fs::write(&path, "[".repeat(200_000) + "\n").expect("write trace");
    let out = sdb(&["analyze", "--trace", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot parse trace"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// A trace line of a kind the system does not emit, a retired one such
/// as `profile_transition` included, is an error naming the line and the
/// kind: no panic, no report.
#[test]
fn analyze_refuses_an_unknown_event_kind_naming_the_line() {
    let good = r#"{"device":0,"seq":0,"t_s":60.0,"kind":"ratio_push","flow":"discharge","ratios":[0.5,0.5]}"#;
    for kind in ["profile_transition", "mystery"] {
        let bad = format!(
            r#"{{"device":0,"seq":1,"t_s":60.0,"kind":"{kind}","battery":1,"from":"standard","to":"fast"}}"#
        );
        assert_analyze_refuses(
            kind,
            &format!("{good}\n\n{bad}\n"),
            &format!("trace line 3: unknown event kind `{kind}`"),
        );
    }
}

/// A trace the writer never writes is refused with the line it breaks
/// on: a non-finite number (`1e999` is the writer's token for +inf), or
/// a device whose clock runs backwards along its `seq`, which would
/// corrupt the health rules' windows.
#[test]
fn analyze_refuses_non_finite_numbers_and_backwards_clocks() {
    let line = |seq: u64, t_s: &str| {
        format!(
            r#"{{"device":2,"seq":{seq},"t_s":{t_s},"kind":"policy_evaluation","pushed":true,"charge_directive":0.5,"discharge_directive":0.5}}"#
        )
    };
    let (good, inf) = (line(1, "60.0"), line(0, "1e999"));
    assert_analyze_refuses(
        "inf",
        &format!("{good}\n{inf}\n"),
        "trace line 2: field `t_s` is not a finite number",
    );
    let nan =
        r#"{"device":0,"seq":0,"t_s":0.0,"kind":"ratio_push","flow":"charge","ratios":[null]}"#;
    assert_analyze_refuses(
        "nan",
        &format!("{nan}\n"),
        "trace line 1: field `ratios` is not an array of finite numbers",
    );
    // Seq 1 is written first, but at a time before seq 0's.
    let (early, late) = (line(1, "60.0"), line(0, "120.0"));
    assert_analyze_refuses(
        "backwards",
        &format!("{early}\n{late}\n"),
        "trace line 1: device 2 goes back in time",
    );
}

#[test]
fn analyze_refuses_a_repeated_device_seq_naming_both_lines() {
    let line = r#"{"device":1,"seq":4,"t_s":60.0,"kind":"watchdog_transition","engaged":true,"silent_s":30.0}"#;
    assert_analyze_refuses(
        "repeated",
        &format!("{line}\n{line}\n{line}\n"),
        "trace line 2: device 1 repeats seq 4 of line 1",
    );
}

/// `sdb analyze` on `trace`, as text and as `--json`, exits 1 with
/// `needle` on stderr and prints no report.
fn assert_analyze_refuses(label: &str, trace: &str, needle: &str) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{label}.jsonl"));
    std::fs::write(&path, trace).expect("write trace");
    for json in [false, true] {
        let mut args = vec!["analyze", "--trace", path.to_str().expect("utf-8 path")];
        if json {
            args.push("--json");
        }
        let out = sdb(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn retired_subcommands_print_the_usage_and_exit_1() {
    for cmd in ["serve", "perf", "chaos"] {
        let out = sdb(&[cmd]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "sdb {cmd}: {stderr}");
        assert!(stderr.starts_with("usage:"), "sdb {cmd}: {stderr}");
        assert!(!stderr.contains(&format!("sdb {cmd}")), "{stderr}");
        assert!(out.stdout.is_empty(), "sdb {cmd} printed output");
    }
}

#[test]
fn version_prints_the_build_identity() {
    let out = sdb(&["--version"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "sdb {} ({}; {})\n",
            env!("CARGO_PKG_VERSION"),
            env!("SDB_GIT_HASH"),
            env!("SDB_RUSTC_VERSION")
        )
    );
}

/// A flag the command under `sdb profile` does not accept is the usage
/// error that command gives without the profiler, as is a command
/// `sdb profile` cannot run or a missing one.
#[test]
fn profile_flags_the_command_does_not_accept_are_errors_naming_them() {
    for (args, needle) in [
        (
            &["campaign", "--pack", "nosuch"][..],
            "unknown flag `--pack` for `sdb campaign`",
        ),
        (
            &["campaign", "--engine", "soa"],
            "unknown flag `--engine` for `sdb campaign`",
        ),
        (
            &["campaign", "--devices", "2"],
            "unknown flag `--devices` for `sdb campaign`",
        ),
        (
            &["policy", "--engine", "soa"],
            "unknown flag `--engine` for `sdb policy`",
        ),
        (
            &["policy", "--threads", "4"],
            "unknown flag `--threads` for `sdb policy`",
        ),
        (
            &["sim", "--devices", "2"],
            "unknown flag `--devices` for `sdb sim`",
        ),
        (
            &["sim", "--hours", "2"],
            "unknown flag `--hours` for `sdb sim`",
        ),
        (&["charge"], "`sdb profile` cannot run `charge`"),
        (&[], "`sdb profile` needs a command"),
        (&["--format", "bogus", "sim"], "unknown --format `bogus`"),
    ] {
        assert_usage_error(&[&["profile"][..], args].concat(), needle);
    }
}

/// Every pack `sdb packs` lists runs every trace `sdb traces` lists, so
/// a listed name cannot drift out of the catalog.
#[test]
fn every_listed_pack_runs_every_listed_trace() {
    let names = |cmd: &str| -> Vec<String> {
        let out = sdb(&[cmd]);
        assert_eq!(out.status.code(), Some(0), "sdb {cmd}");
        String::from_utf8(out.stdout)
            .expect("utf-8 listing")
            .lines()
            .filter_map(|line| line.split_whitespace().next().map(str::to_owned))
            .collect()
    };
    let (packs, traces) = (names("packs"), names("traces"));
    assert_eq!(packs.len(), 4, "{packs:?}");
    assert_eq!(traces.len(), 4, "{traces:?}");
    for pack in &packs {
        for trace in &traces {
            let out = sdb(&["sim", "--pack", pack, "--trace", trace]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{pack} x {trace}: {out:?}");
            assert!(
                stdout.starts_with(&format!("pack:          {pack}\n")),
                "{stdout}"
            );
        }
    }
}
