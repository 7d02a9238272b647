//! Integration tests of the phase profiler's determinism quarantine:
//! call counts, tree shape, and per-cohort attribution must be
//! byte-identical at any thread count, and enabling the profiler must
//! not perturb the fleet engine's own bit-identical reports, nor the
//! stdout of a command run under `sdb profile`.
//!
//! The profiler aggregate is process-global, so every test that
//! profiles in this process serializes on one lock and resets the
//! aggregate around its runs. The `sdb profile` tests profile child
//! processes and need no lock.

use sdb::fleet::{run_fleet, FleetReport, FleetSpec, RunOptions};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

static PROF_LOCK: Mutex<()> = Mutex::new(());

/// Runs a profiled fleet and returns the deterministic renders plus the
/// fleet report (the profiler is disabled and reset again afterwards).
fn profiled_fleet_with(spec: &FleetSpec, threads: usize) -> (String, String, String, FleetReport) {
    sdb::prof::reset();
    sdb::prof::enable();
    let (report, _stats, _) = run_fleet(spec, &RunOptions::new(threads)).expect("fleet runs");
    sdb::prof::flush_thread();
    sdb::prof::disable();
    let snap = sdb::prof::snapshot();
    let out = (
        snap.render_counts(),
        snap.render_flame(),
        snap.to_json(),
        report,
    );
    sdb::prof::reset();
    out
}

fn profiled_fleet(devices: usize, threads: usize) -> (String, String, String, FleetReport) {
    let spec = FleetSpec::default_population(devices, 42).with_hours(2.0);
    profiled_fleet_with(&spec, threads)
}

#[test]
fn profile_counts_are_byte_identical_across_thread_counts() {
    let _guard = PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (counts1, flame1, json1, report1) = profiled_fleet(64, 1);
    let (counts4, flame4, json4, report4) = profiled_fleet(64, 4);

    assert_eq!(counts1, counts4, "deterministic count render diverged");
    assert_eq!(flame1, flame4, "collapsed-stack render diverged");
    // The JSON's `deterministic` section must match too; `wall` holds
    // quarantined timings and may differ. Compare the sections directly.
    let det = |json: &str| {
        let v = sdb::observe::json::parse(json).expect("profile json parses");
        format!(
            "{:?}",
            v.get("deterministic").expect("deterministic section")
        )
    };
    assert_eq!(det(&json1), det(&json4), "deterministic JSON diverged");
    // And the fleet's own determinism guarantee holds with the profiler
    // in the loop.
    assert_eq!(report1, report4, "profiling perturbed the fleet report");

    // Sanity on content: the tree carries the hot phases and per-cohort
    // sections the renderers promise.
    for phase in ["fleet_run", "device_run", "micro_step", "curve_eval"] {
        assert!(counts1.contains(phase), "missing phase {phase}:\n{counts1}");
    }
    assert!(counts1.contains("cohort "), "missing cohort attribution");
    assert!(
        flame1.contains("device_run;trace_step;micro_step"),
        "flame lost the stack hierarchy:\n{flame1}"
    );
}

#[test]
fn profiling_does_not_change_the_unprofiled_report() {
    let _guard = PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    sdb::prof::reset();
    sdb::prof::disable();
    let spec = FleetSpec::default_population(32, 7).with_hours(1.0);
    let (plain, _, _) = run_fleet(&spec, &RunOptions::new(2)).expect("fleet runs");
    let (_, _, _, profiled) = profiled_fleet_with(&spec, 2);
    assert_eq!(plain, profiled);
}

/// Spawns `sdb <args>` with its output piped.
fn spawn_sdb(args: impl IntoIterator<Item = impl AsRef<OsStr>>) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sdb"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run sdb")
}

/// The stdout of a spawned `sdb`, which must exit 0.
fn stdout_of(child: Child) -> Vec<u8> {
    let out = child.wait_with_output().expect("sdb exits");
    assert!(out.status.success(), "{out:?}");
    out.stdout
}

/// Spawns `sdb profile --format counts --out <file> <cmd>` (`cmd` a
/// space-separated argument list) and returns it with the profile file,
/// named after `label`.
fn spawn_profile(label: &str, cmd: &str) -> (Child, PathBuf) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{label}.counts"));
    let profile = ["profile", "--format", "counts", "--out"].map(OsStr::new);
    let args = profile
        .into_iter()
        .chain([path.as_os_str()])
        .chain(cmd.split_whitespace().map(OsStr::new));
    (spawn_sdb(args), path)
}

/// `sdb profile … <cmd>` runs the command itself: its stdout is byte for
/// byte that of `sdb <cmd>`, and the profile it writes holds the
/// command's phases.
#[test]
fn profiled_commands_print_the_unprofiled_stdout() {
    let cases = [
        ("sim", "sim --pack phone --trace phone-day", "micro_step"),
        (
            "fleet",
            "fleet --devices 16 --threads 2 --hours 2 --json",
            "device_run",
        ),
        (
            "fleet-soa",
            "fleet --devices 16 --threads 2 --hours 2 --json --engine soa",
            "soa_step",
        ),
        (
            "campaign",
            "campaign --scenarios standby --chemistries co --faults none,moderate \
             --policies greedy --engines scalar,soa --hours 1 --threads 2",
            "campaign_cell",
        ),
        ("policy", "policy --seed 42", "policy_run"),
    ];
    // Every run starts before any is awaited: the plain command and its
    // profile run side by side.
    let runs: Vec<_> = cases
        .iter()
        .map(|(label, cmd, _)| (spawn_sdb(cmd.split_whitespace()), spawn_profile(label, cmd)))
        .collect();
    for ((plain, (profiled, path)), (label, _, phase)) in runs.into_iter().zip(&cases) {
        let plain = stdout_of(plain);
        assert!(!plain.is_empty(), "{label} printed nothing");
        assert!(
            stdout_of(profiled) == plain,
            "{label}: profiling changed the stdout"
        );
        let profile = std::fs::read_to_string(path).expect("profile written");
        assert!(
            profile.contains(phase),
            "{label}: missing phase {phase}:\n{profile}"
        );
    }
}

/// `sdb profile` keeps the command's exit status and writes the profile
/// whatever it is: a failed campaign prints its failure first and exits 1,
/// an interrupted one exits 3. A usage error exits 1 before any work, so
/// no profile is written.
#[test]
fn profiles_are_written_on_failure_and_interrupt_but_not_on_usage_errors() {
    let campaign = "campaign --scenarios standby --chemistries co --faults none \
                    --policies greedy --engines scalar --hours 0.25";
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    // No file survives from an earlier run: what the test reads is written
    // by this one.
    for stale in [
        "profile-status.ck",
        "status-failed.counts",
        "status-interrupted.counts",
        "status-usage.counts",
    ] {
        let _ = std::fs::remove_file(tmp.join(stale));
    }
    let ck = tmp.join("profile-status.ck");
    let ck = ck.to_str().expect("utf-8 path");
    for (label, cmd, code) in [
        (
            "status-failed",
            format!("{campaign} --baseline /nonexistent"),
            1,
        ),
        (
            "status-interrupted",
            format!("{campaign} --checkpoint {ck} --stop-after 1"),
            3,
        ),
    ] {
        let (child, path) = spawn_profile(label, &cmd);
        let out = child.wait_with_output().expect("sdb exits");
        assert_eq!(out.status.code(), Some(code), "{label}: {out:?}");
        let profile = std::fs::read_to_string(path).expect("profile written");
        assert!(profile.contains("campaign_run"), "{label}:\n{profile}");
        if code == 1 {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let failed = stderr
                .find("cannot read baseline")
                .expect("failure printed");
            let wrote = stderr.find("wrote profile").expect("profile reported");
            assert!(failed < wrote, "{stderr}");
        }
    }

    let (child, path) = spawn_profile("status-usage", "fleet --devices 2 --policy bogus");
    let out = child.wait_with_output().expect("sdb exits");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!path.exists(), "a usage error wrote a profile");
}

/// The `--format counts` profile of `sdb <cmd>`, which must be
/// byte-identical at `--threads 1` and `--threads 4`.
fn counts_at_1_and_4_threads(label: &str, cmd: &str) -> String {
    let [one, four] = [1, 4].map(|threads| {
        let (child, path) = spawn_profile(
            &format!("{label}-{threads}t"),
            &format!("{cmd} --threads {threads}"),
        );
        stdout_of(child);
        std::fs::read_to_string(path).expect("profile written")
    });
    assert_eq!(one, four, "{label} counts diverged between 1 and 4 threads");
    one
}

/// `sdb profile --format counts fleet` is byte-identical at 1 and 4
/// threads, on the scalar engine and on SoA, where the hybrid driver's
/// sync ticks (`soa_step`) and closed-form advances (`fast_forward`)
/// show up in the tree.
#[test]
fn fleet_profile_counts_are_byte_identical_across_thread_counts() {
    let scalar = counts_at_1_and_4_threads("fleet-64", "fleet --devices 64 --seed 42");
    assert!(scalar.contains("micro_step"), "{scalar}");
    let soa =
        counts_at_1_and_4_threads("fleet-64-soa", "fleet --devices 64 --seed 42 --engine soa");
    for phase in ["soa_step", "fast_forward"] {
        assert!(soa.contains(phase), "missing phase {phase}:\n{soa}");
    }
}

/// The sum of the counts of every `phase` node in the whole-run tree of
/// a `--format counts` render (the per-cohort sections repeat it).
fn total_count(counts: &str, phase: &str) -> u64 {
    counts
        .lines()
        .take_while(|line| !line.starts_with("cohort "))
        .filter_map(|line| {
            let (name, count) = line.trim().split_once(' ')?;
            (name == phase).then(|| count.trim().parse::<u64>().ok())?
        })
        .sum()
}

/// The discharge solve runs only on the ticks whose no-push certificate
/// declines: on a small planned fleet, where rollouts tick the runtime
/// about a hundred times per device tick, the `policy_solve` counts are
/// byte-identical at 1 and 4 threads and stay under 5% of the
/// `runtime_tick` counts (2.2% measured; every tick solved before the
/// certificate).
#[test]
fn policy_solves_are_a_small_exact_share_of_planned_ticks() {
    let counts = counts_at_1_and_4_threads(
        "fleet-planned-4",
        "fleet --devices 4 --hours 2 --policy planned",
    );
    let ticks = total_count(&counts, "runtime_tick");
    let solves = total_count(&counts, "policy_solve");
    assert!(ticks > 40_000, "{ticks} runtime ticks:\n{counts}");
    assert!(solves > 0, "no solve counted:\n{counts}");
    assert!(
        solves * 20 < ticks,
        "{solves} policy solves in {ticks} runtime ticks:\n{counts}"
    );
}

/// `sdb profile campaign` profiles the campaign runner users run,
/// `link_step` under faulted cells included, with counts byte-identical
/// at any thread count.
#[test]
fn campaign_profile_counts_are_byte_identical_across_thread_counts() {
    let one = counts_at_1_and_4_threads("campaign", "campaign --seed 42 --hours 1");
    for phase in ["campaign_run", "campaign_cell", "link_step", "fast_forward"] {
        assert!(one.contains(phase), "missing phase {phase}:\n{one}");
    }
}

/// The `TraceStep` count of the profiled `run`: one per point that
/// `drive` replayed.
fn trace_steps(run: impl FnOnce()) -> u64 {
    use sdb::prof::Phase;
    sdb::prof::reset();
    sdb::prof::enable();
    run();
    sdb::prof::flush_thread();
    sdb::prof::disable();
    let steps = sdb::prof::snapshot()
        .find_path(&[Phase::TraceStep])
        .map_or(0, |n| n.count);
    sdb::prof::reset();
    steps
}

#[test]
fn paper_scenarios_replay_through_the_profiled_trace_loop() {
    use sdb::core::scenarios::hybrid::{charge_time_curve, HybridConfig};
    use sdb::core::scenarios::two_in_one::{battery_life_s, Strategy};
    use sdb::workloads::traces::tablet_session;
    use sdb::workloads::Activity;
    let _guard = PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    // Figure 14: the 30 s points of the repeated workload, up to the
    // brownout.
    let trace = tablet_session(5, &[Activity::Compute], 300.0, 1800.0);
    for strategy in [Strategy::SimultaneousDraw, Strategy::ChargeThrough] {
        let mut life_s = 0.0;
        let steps = trace_steps(|| life_s = battery_life_s(strategy, &trace, 86_400.0));
        let resampled = trace.resampled(30.0);
        let mut elapsed = 0.0;
        let replayed = resampled
            .points()
            .iter()
            .cycle()
            .take_while(|p| {
                let before = elapsed;
                elapsed += p.dur_s;
                before < life_s
            })
            .count();
        assert!(replayed > 100, "{strategy:?} ran {replayed} points");
        assert_eq!(steps, replayed as u64, "{strategy:?}");
    }

    // Figure 11b: 15 s points until the last target.
    let mut curve = None;
    let steps =
        trace_steps(|| curve = Some(charge_time_curve(&HybridConfig::paper_configs()[1], 60.0)));
    let last_min = curve
        .unwrap()
        .minutes
        .last()
        .copied()
        .flatten()
        .expect("85 % reached");
    assert_eq!(steps, (last_min * 60.0 / 15.0).round() as u64);
}

/// The commands whose exact work counts `tests/golden/work.counts` pins:
/// small copies of the benchmark's workload shapes (a planned fleet, the
/// default fleet on each engine, a faulted campaign on both engines).
const WORK_COMMANDS: [&str; 4] = [
    "fleet --devices 8 --hours 24 --seed 7 --policy planned --threads 1",
    "fleet --devices 8 --hours 24 --seed 7 --threads 1",
    "fleet --devices 8 --hours 24 --seed 7 --threads 1 --engine soa",
    "campaign --scenarios standby,phone-day --chemistries co --faults none,heavy \
     --policies greedy --engines scalar,soa --hours 6 --threads 1",
];

/// The work golden: the `--format counts` profile of each of
/// [`WORK_COMMANDS`], byte for byte. Counts are exact in one run, so a
/// change that saves time by doing less work (fewer steps, rollouts,
/// solves) shows here, and one that only makes each step cheaper leaves
/// the file alone. Regenerate on purpose with `SDB_REGEN_GOLDEN=1 cargo
/// test --test profile work_counts` and explain every moved line.
#[test]
fn work_counts_match_the_golden() {
    let mut text = String::new();
    for (i, cmd) in WORK_COMMANDS.iter().enumerate() {
        let (child, path) = spawn_profile(&format!("work-{i}"), cmd);
        stdout_of(child);
        text.push_str(&format!("$ sdb profile --format counts {cmd}\n"));
        text.push_str(&std::fs::read_to_string(path).expect("profile written"));
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work.counts");
    if std::env::var_os("SDB_REGEN_GOLDEN").is_some() {
        std::fs::write(&golden, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden committed");
    assert!(
        want == text,
        "work counts drifted from {}:\n{text}",
        golden.display()
    );
}
