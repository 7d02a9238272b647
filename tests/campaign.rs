//! Integration tests of the campaign orchestrator: the kill-and-resume
//! property at every checkpoint boundary, the cross-engine differential,
//! the culprit minimizer's convergence on an injected divergence, and the
//! `sdb campaign` CLI surface end to end (including executing the repro
//! command the minimizer prints).

use sdb::campaign::runner::{cell_pack, driver, Driver, Sources};
use sdb::campaign::{
    compare, minimize, run_campaign, run_cell_device, Baseline, CampaignOptions, CampaignReport,
    CampaignRun, CampaignSpec, DeviceRecord,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdb-campaign-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sdb(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdb"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run sdb")
}

/// The 4-unit matrix the resume property test interrupts at every
/// boundary: 2 cells (fault none/moderate) × 2 devices.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        scenarios: vec!["standby".to_owned()],
        chemistries: vec!["co".to_owned()],
        faults: vec!["none".to_owned(), "moderate".to_owned()],
        policies: vec!["greedy".to_owned()],
        engines: vec!["scalar".to_owned()],
        master_seed: 0xC0FFEE,
        hours: 0.5,
        devices_per_cell: 2,
    }
}

fn complete(run: CampaignRun) -> CampaignReport {
    match run {
        CampaignRun::Complete(r) => *r,
        CampaignRun::Interrupted { completed, total } => {
            panic!("unexpected interrupt at {completed}/{total}")
        }
    }
}

#[test]
fn default_campaign_matches_the_committed_baseline() {
    let report = complete(
        run_campaign(
            &CampaignSpec::default(),
            &CampaignOptions {
                threads: 2,
                ..CampaignOptions::default()
            },
        )
        .unwrap(),
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("CAMPAIGN_BASELINE.txt");
    let text = std::fs::read_to_string(&path).expect("committed baseline");
    let cmp = compare(&report, &Baseline::parse(&text).unwrap()).unwrap();
    let diverged: Vec<&str> = cmp.divergences.iter().map(|d| d.key.as_str()).collect();
    assert_eq!(cmp.checked, 48, "new cells: {:?}", cmp.new_cells);
    assert!(
        diverged.is_empty(),
        "diverged from the baseline: {diverged:?}"
    );
    assert_eq!(report.total_violations(), 0);
}

#[test]
fn killed_campaign_resumes_to_a_byte_identical_report_at_every_boundary() {
    let spec = tiny_spec();
    let reference = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());
    let total = 4;

    for k in 0..total {
        let dir = scratch(&format!("resume-{k}"));
        let ck = dir.join("checkpoint.log");
        let _ = std::fs::remove_file(&ck);

        // Phase 1: run until the budget kills it after k fresh units.
        let run = run_campaign(
            &spec,
            &CampaignOptions {
                checkpoint: Some(ck.clone()),
                stop_after: Some(k),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        match run {
            CampaignRun::Interrupted {
                completed,
                total: t,
            } => {
                assert_eq!((completed, t), (k, total));
            }
            CampaignRun::Complete(_) => panic!("budget {k} must interrupt"),
        }

        // Phase 2: resume with no budget — and a different thread count,
        // so the resume path is also exercising thread invariance.
        let resumed = complete(
            run_campaign(
                &spec,
                &CampaignOptions {
                    checkpoint: Some(ck),
                    threads: 3,
                    ..CampaignOptions::default()
                },
            )
            .unwrap(),
        );
        assert_eq!(resumed, reference, "resume after {k} units diverged");
        assert_eq!(resumed.render_text(), reference.render_text());
        assert_eq!(resumed.to_json(), reference.to_json());
    }
}

/// The 8-unit matrix whose faulted SoA cell shares its records: 4 cells
/// (fault none/moderate × engine scalar/soa) × 2 devices. Cell 3
/// (`moderate/greedy/soa`) runs the linked driver, so it copies cell 2.
fn shared_spec() -> CampaignSpec {
    CampaignSpec {
        engines: vec!["scalar".to_owned(), "soa".to_owned()],
        ..tiny_spec()
    }
}

/// Interrupts a run after `k` fresh units, checkpointing to `ck`.
fn interrupt(spec: &CampaignSpec, ck: &Path, k: usize) {
    let _ = std::fs::remove_file(ck);
    let run = run_campaign(
        spec,
        &CampaignOptions {
            checkpoint: Some(ck.to_owned()),
            stop_after: Some(k),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    match run {
        CampaignRun::Interrupted { completed, .. } => assert_eq!(completed, k),
        CampaignRun::Complete(_) => panic!("budget {k} must interrupt"),
    }
    // Shared units are checkpointed like simulated ones: one line each.
    let log = std::fs::read_to_string(ck).unwrap();
    assert_eq!(log.lines().filter(|l| l.starts_with("dev ")).count(), k);
}

fn resume(spec: &CampaignSpec, ck: &Path) -> CampaignReport {
    complete(
        run_campaign(
            spec,
            &CampaignOptions {
                checkpoint: Some(ck.to_owned()),
                threads: 3,
                ..CampaignOptions::default()
            },
        )
        .unwrap(),
    )
}

#[test]
fn shared_units_resume_to_a_byte_identical_report_at_every_boundary() {
    let spec = shared_spec();
    let reference = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());
    let total = 8;
    let cells = spec.cells().unwrap();
    assert_eq!(cells.len() * spec.devices_per_cell, total);
    let copier = &cells[3];
    assert_eq!(copier.key(), "standby/co/moderate/greedy/soa");
    assert_eq!(driver(copier, &cell_pack(copier).unwrap()), Driver::Linked);

    let check = |resumed: &CampaignReport, what: &str| {
        assert_eq!(resumed, &reference, "{what} diverged");
        assert_eq!(resumed.render_text(), reference.render_text(), "{what}");
        assert_eq!(resumed.to_json(), reference.to_json(), "{what}");
    };
    for k in 0..total {
        let ck = scratch(&format!("shared-resume-{k}")).join("checkpoint.log");
        interrupt(&spec, &ck, k);
        check(&resume(&spec, &ck), &format!("resume after {k} units"));
    }

    // A checkpoint holding only the source cell's units: the copies take
    // their records from the resumed log while the cells before the
    // source re-run.
    let ck = scratch("shared-resume-sources").join("checkpoint.log");
    interrupt(&spec, &ck, total - 1);
    let log = std::fs::read_to_string(&ck).unwrap();
    let sources_only: String = log
        .lines()
        .filter(|l| !l.starts_with("dev ") || l.starts_with("dev 2 "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        sources_only
            .lines()
            .filter(|l| l.starts_with("dev "))
            .count(),
        spec.devices_per_cell
    );
    std::fs::write(&ck, sources_only).unwrap();
    check(&resume(&spec, &ck), "resume from source units only");
}

/// The 12-unit matrix with seed-blind cells: 4 cells (fault
/// none/moderate × engine scalar/soa) × 3 devices. The standby workload
/// ignores its seed, so cells 0 (`none/greedy/scalar`) and 1
/// (`none/greedy/soa`, the SoA driver) simulate only device 0; cell 3
/// copies cell 2 device by device.
fn seed_blind_spec() -> CampaignSpec {
    CampaignSpec {
        devices_per_cell: 3,
        ..shared_spec()
    }
}

#[test]
fn seed_blind_units_resume_to_a_byte_identical_report_at_every_boundary() {
    let spec = seed_blind_spec();
    let reference = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());
    let cells = spec.cells().unwrap();
    let total = cells.len() * spec.devices_per_cell;
    assert_eq!(total, 12);
    let sources = Sources::new(&cells).unwrap();
    let blind: Vec<usize> = (0..cells.len())
        .filter(|&c| sources.seed_blind(c))
        .collect();
    assert_eq!(blind, [0, 1]);
    assert_eq!(sources.unit_source(1, 2), Some((1, 0)));
    assert_eq!(sources.unit_source(3, 2), Some((2, 2)));

    let check = |resumed: &CampaignReport, what: &str| {
        assert_eq!(resumed, &reference, "{what} diverged");
        assert_eq!(resumed.render_text(), reference.render_text(), "{what}");
        assert_eq!(resumed.to_json(), reference.to_json(), "{what}");
    };
    for k in 0..total {
        let ck = scratch(&format!("blind-resume-{k}")).join("checkpoint.log");
        interrupt(&spec, &ck, k);
        check(&resume(&spec, &ck), &format!("resume after {k} units"));
    }

    // A checkpoint holding only device 0 of one seed-blind cell: the
    // cell's other devices copy the resumed record, everything else
    // re-runs.
    for cell in blind {
        let ck = scratch(&format!("blind-resume-only-{cell}")).join("checkpoint.log");
        interrupt(&spec, &ck, total - 1);
        let log = std::fs::read_to_string(&ck).unwrap();
        let source_line = format!("dev {cell} 0 ");
        let source_only: String = log
            .lines()
            .filter(|l| !l.starts_with("dev ") || l.starts_with(&source_line))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            source_only
                .lines()
                .filter(|l| l.starts_with("dev "))
                .count(),
            1
        );
        std::fs::write(&ck, source_only).unwrap();
        check(
            &resume(&spec, &ck),
            &format!("resume from device 0 of cell {cell} only"),
        );
    }
}

#[test]
fn checkpoint_truncated_mid_append_still_resumes_identically() {
    let spec = tiny_spec();
    let reference = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());
    let dir = scratch("truncate");
    let ck = dir.join("checkpoint.log");
    let _ = std::fs::remove_file(&ck);

    // Complete 2 of 4 units, then chop bytes off the final line — the
    // on-disk state a SIGKILL mid-append leaves behind.
    match run_campaign(
        &spec,
        &CampaignOptions {
            checkpoint: Some(ck.clone()),
            stop_after: Some(2),
            ..CampaignOptions::default()
        },
    )
    .unwrap()
    {
        CampaignRun::Interrupted { completed, .. } => assert_eq!(completed, 2),
        CampaignRun::Complete(_) => panic!("expected interrupt"),
    }
    let bytes = std::fs::read(&ck).unwrap();
    std::fs::write(&ck, &bytes[..bytes.len() - 7]).unwrap();

    let resumed = complete(
        run_campaign(
            &spec,
            &CampaignOptions {
                checkpoint: Some(ck),
                ..CampaignOptions::default()
            },
        )
        .unwrap(),
    );
    assert_eq!(resumed, reference);
}

#[test]
fn checkpoint_from_a_different_spec_is_rejected() {
    let dir = scratch("mismatch");
    let ck = dir.join("checkpoint.log");
    let _ = std::fs::remove_file(&ck);
    let spec = tiny_spec();
    match run_campaign(
        &spec,
        &CampaignOptions {
            checkpoint: Some(ck.clone()),
            stop_after: Some(1),
            ..CampaignOptions::default()
        },
    )
    .unwrap()
    {
        CampaignRun::Interrupted { .. } => {}
        CampaignRun::Complete(_) => panic!("expected interrupt"),
    }

    let other = CampaignSpec {
        master_seed: spec.master_seed ^ 1,
        ..spec
    };
    let err = run_campaign(
        &other,
        &CampaignOptions {
            checkpoint: Some(ck),
            ..CampaignOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("different spec"), "{err}");
}

#[test]
fn cross_engine_pairs_agree_within_the_soa_bounds() {
    // Engine is the last axis, so cells pair up adjacently. Faulted and
    // planner cells run the identical driver under either engine — their
    // pairs must be digest-equal. Fault-free greedy SoA cells fast-forward
    // quiescent stretches, so those pairs get the PR-9 numerical bounds.
    let spec = CampaignSpec {
        scenarios: vec!["standby".to_owned()],
        chemistries: vec!["co".to_owned(), "lfp".to_owned()],
        faults: vec!["none".to_owned(), "moderate".to_owned()],
        policies: vec!["greedy".to_owned(), "planned".to_owned()],
        engines: vec!["scalar".to_owned(), "soa".to_owned()],
        master_seed: 0xD1FF,
        hours: 0.5,
        devices_per_cell: 1,
    };
    let report = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());
    assert_eq!(report.cells.len(), 16);

    let mut checked_identical = 0;
    let mut checked_bounded = 0;
    for pair in report.cells.chunks_exact(2) {
        let (scalar, soa) = (&pair[0], &pair[1]);
        assert!(scalar.key.ends_with("/scalar"), "{}", scalar.key);
        assert!(soa.key.ends_with("/soa"), "{}", soa.key);
        let faulted = !scalar.key.contains("/none/");
        let planner = scalar.key.contains("/planned/");
        if faulted || planner {
            // Identical driver ⇒ identical per-device digests.
            for (a, b) in scalar.devices.iter().zip(&soa.devices) {
                assert_eq!(a.digest(), b.digest(), "pair {} not identical", scalar.key);
            }
            checked_identical += 1;
        } else {
            for (a, b) in scalar.devices.iter().zip(&soa.devices) {
                let rel = (a.supplied_j - b.supplied_j).abs() / a.supplied_j.abs().max(1.0);
                assert!(rel <= 1e-2, "{}: supplied rel err {rel:.3e}", scalar.key);
                assert!(
                    (a.mean_final_soc - b.mean_final_soc).abs() <= 1e-3,
                    "{}: soc drift {:.3e}",
                    scalar.key,
                    (a.mean_final_soc - b.mean_final_soc).abs()
                );
                if !a.browned_out && !b.browned_out {
                    assert_eq!(a.life_s, b.life_s, "{}: life drift", scalar.key);
                }
            }
            checked_bounded += 1;
        }
    }
    assert_eq!(checked_identical + checked_bounded, 8);
    assert!(checked_bounded >= 2, "no fast-path pairs were exercised");
    // The fast path actually fast-forwarded somewhere, or the bound
    // check above was vacuous.
    assert!(
        report.cells.iter().any(|c| c.ff_ticks() > 0),
        "no cell fast-forwarded:\n{}",
        report.render_text()
    );
}

#[test]
fn engine_pairs_share_a_record_exactly_when_the_driver_is_not_soa() {
    // The share rule's soundness at the unit level: run both cells of
    // every engine pair directly, without the runner's sharing. No
    // scenario builds a thermal pack, so `Soa` is decided by fault,
    // policy and engine alone here.
    let spec = CampaignSpec {
        scenarios: vec!["standby".to_owned()],
        chemistries: vec!["co".to_owned()],
        faults: vec!["none".to_owned(), "moderate".to_owned()],
        policies: vec![
            "greedy".to_owned(),
            "planned".to_owned(),
            "oracle".to_owned(),
        ],
        engines: vec!["scalar".to_owned(), "soa".to_owned()],
        master_seed: 0x5_4A2E,
        hours: 0.5,
        devices_per_cell: 1,
    };
    let cells = spec.cells().unwrap();
    let report = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());

    let mut soa_pairs = 0;
    for pair in cells.chunks_exact(2) {
        let (scalar, soa) = (&pair[0], &pair[1]);
        assert_eq!(scalar.seed_key(), soa.seed_key());
        let shares = driver(soa, &cell_pack(soa).unwrap()) != Driver::Soa;
        assert_ne!(driver(scalar, &cell_pack(scalar).unwrap()), Driver::Soa);
        let a = run_cell_device(&spec, scalar, 0).unwrap();
        let b = run_cell_device(&spec, soa, 0).unwrap();
        assert_eq!((a.cell, b.cell), (scalar.index, soa.index));
        let relabelled = DeviceRecord {
            cell: soa.index,
            ..a.clone()
        };
        assert_eq!(relabelled == b, shares, "pair {}", soa.key());
        if !shares {
            soa_pairs += 1;
            assert!(
                b.ff_ticks > 0,
                "{}: SoA unit fast-forwarded nothing",
                soa.key()
            );
        }
        // The record the runner handed the SoA cell is a fresh run's.
        assert_eq!(report.cells[soa.index].devices, vec![b], "{}", soa.key());
        assert_eq!(
            report.cells[scalar.index].devices,
            vec![a],
            "{}",
            scalar.key()
        );
    }
    assert_eq!(soa_pairs, 1, "only none/greedy runs the SoA driver");
}

#[test]
fn units_share_a_record_exactly_when_their_source_rule_says_so() {
    // The unit-level share rule's soundness: run every unit directly,
    // without the runner's sharing, and compare each with the unit
    // `unit_source` names. Devices of a cell differ exactly when the
    // cell is not seed-blind.
    let spec = CampaignSpec {
        scenarios: ["standby", "phone-day", "watch-day", "tablet-mixed"]
            .map(str::to_owned)
            .to_vec(),
        chemistries: vec!["co".to_owned()],
        faults: vec!["none".to_owned(), "light".to_owned()],
        policies: ["greedy", "planned", "oracle"].map(str::to_owned).to_vec(),
        engines: vec!["scalar".to_owned(), "soa".to_owned()],
        master_seed: 0xB11D,
        // Long enough that every `light` plan holds at least two faults
        // (0.35 per 10 min), so no faulted unit runs fault-free.
        hours: 1.0,
        devices_per_cell: 3,
    };
    let cells = spec.cells().unwrap();
    let sources = Sources::new(&cells).unwrap();
    let devices = spec.devices_per_cell as u64;
    let records: Vec<Vec<DeviceRecord>> = cells
        .iter()
        .map(|c| {
            (0..devices)
                .map(|d| run_cell_device(&spec, c, d).unwrap())
                .collect()
        })
        .collect();
    let relabel = |rec: &DeviceRecord, cell: usize, device: u64| DeviceRecord {
        cell,
        device,
        ..rec.clone()
    };

    let mut blind_cells = 0;
    for cell in &cells {
        let c = cell.index;
        let blind = sources.seed_blind(c);
        let expect_blind = cell.scenario == "standby" && cell.fault == "none";
        assert_eq!(blind, expect_blind, "{}", cell.key());
        blind_cells += usize::from(blind);
        for d in 0..devices {
            let rec = &records[c][d as usize];
            assert_eq!((rec.cell, rec.device), (c, d));
            if d > 0 {
                let same_as_device_0 = relabel(&records[c][0], c, d) == *rec;
                assert_eq!(same_as_device_0, blind, "{} device {d}", cell.key());
            }
            let source = sources.unit_source(c, d);
            assert_eq!(
                source.is_some_and(|(_, sd)| sd != d),
                blind && d > 0,
                "{} device {d}",
                cell.key()
            );
            if let Some((sc, sd)) = source {
                assert!((sc, sd) < (c, d), "a source precedes its copies");
                assert_eq!(sources.unit_source(sc, sd), None, "sources are simulated");
                assert_eq!(
                    relabel(&records[sc][sd as usize], c, d),
                    *rec,
                    "{} device {d} != its source {sc}/{sd}",
                    cell.key()
                );
            }
        }
    }
    // standby/none × 3 policies × 2 engines.
    assert_eq!(blind_cells, 6);
}

#[test]
fn minimizer_converges_on_an_injected_divergence_and_its_rerun_reproduces() {
    let spec = tiny_spec();
    let report = complete(run_campaign(&spec, &CampaignOptions::default()).unwrap());
    let mut baseline = Baseline::from_report(&report);

    // Perturb a middle cell's golden digests; the comparison must flag
    // exactly that cell and the minimizer must converge on it.
    let victim = report.cells[1].key.clone();
    baseline.inject_divergence(&victim).unwrap();

    let cmp = compare(&report, &baseline).unwrap();
    assert_eq!(cmp.checked, 2);
    assert_eq!(cmp.divergences.len(), 1);
    assert_eq!(cmp.divergences[0].key, victim);

    let culprit = minimize(&spec, &report, &cmp.divergences, "CAMPAIGN_BASELINE.txt")
        .expect("non-empty divergences minimize");
    assert_eq!(culprit.key, victim);
    assert_eq!(culprit.device, 0, "injection flips device 0's digest");
    assert!(
        culprit.reproduced,
        "fresh re-run must reproduce the observed digest:\n{}",
        culprit.render_text()
    );
    assert_eq!(culprit.rerun, culprit.observed);
    assert_ne!(culprit.rerun, culprit.expected);
    for frag in [
        "--scenarios standby",
        "--chemistries co",
        "--faults moderate",
        "--policies greedy",
        "--engines scalar",
        "--baseline CAMPAIGN_BASELINE.txt",
    ] {
        assert!(
            culprit.repro_command.contains(frag),
            "repro command missing `{frag}`: {}",
            culprit.repro_command
        );
    }
}

/// CLI end to end: list, write a golden baseline, compare clean, then
/// compare against a perturbed baseline — asserting exit code 2, the
/// culprit render, and that the printed repro command itself exits 2.
#[test]
fn cli_campaign_detects_divergence_and_prints_a_working_repro_command() {
    let dir = scratch("cli");
    let args = [
        "campaign",
        "--scenarios",
        "standby",
        "--chemistries",
        "co",
        "--faults",
        "none,moderate",
        "--policies",
        "greedy",
        "--engines",
        "scalar",
        "--seed",
        "9",
        "--hours",
        "0.25",
        "--devices-per-cell",
        "1",
    ];

    let out = sdb(&dir, &["campaign", "--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("48 cells"), "default matrix: {stdout}");

    // Record the golden baseline, then verify a re-run compares clean.
    let mut record = args.to_vec();
    record.extend(["--baseline", "golden.txt", "--write-baseline"]);
    let out = sdb(&dir, &record);
    assert!(
        out.status.success(),
        "write-baseline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut check = args.to_vec();
    check.extend(["--baseline", "golden.txt", "--threads", "2"]);
    let out = sdb(&dir, &check);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 divergent"), "clean compare: {stdout}");

    // Perturb the committed golden file on disk — from the CLI's view a
    // real divergence — and expect exit 2 plus the minimized culprit.
    let golden = std::fs::read_to_string(dir.join("golden.txt")).unwrap();
    let mut perturbed = Baseline::parse(&golden).unwrap();
    perturbed
        .inject_divergence("standby/co/moderate/greedy/scalar")
        .unwrap();
    std::fs::write(dir.join("perturbed.txt"), perturbed.render()).unwrap();

    let mut diff = args.to_vec();
    diff.extend(["--baseline", "perturbed.txt"]);
    let out = sdb(&dir, &diff);
    assert_eq!(out.status.code(), Some(2), "divergence must exit 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("DIVERGED standby/co/moderate/greedy/scalar"),
        "{stdout}"
    );
    assert!(stdout.contains("re-run REPRODUCED"), "{stdout}");

    // Execute the repro command it printed (swapping `sdb` for the test
    // binary path): the pruned single-cell run must also exit 2.
    let repro = stdout
        .lines()
        .find_map(|l| l.strip_prefix("repro: sdb "))
        .expect("repro line printed");
    let repro_args: Vec<&str> = repro.split_whitespace().collect();
    let out = sdb(&dir, &repro_args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "repro command must reproduce the divergence: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("DIVERGED standby/co/moderate/greedy/scalar"),
        "{stdout}"
    );

    // The injected-divergence self-test flag drives the same path
    // without touching the file.
    let mut inject = args.to_vec();
    inject.extend([
        "--baseline",
        "golden.txt",
        "--inject-divergence",
        "standby/co/none/greedy/scalar",
    ]);
    let out = sdb(&dir, &inject);
    assert_eq!(out.status.code(), Some(2));
}

/// `--stop-after` + `--checkpoint` from the CLI: exit 3 on interruption,
/// then a resumed run completes and its report matches a straight-through
/// run byte for byte.
#[test]
fn cli_campaign_interrupts_with_exit_3_and_resumes() {
    let dir = scratch("cli-resume");
    let args = [
        "campaign",
        "--scenarios",
        "standby",
        "--chemistries",
        "co",
        "--faults",
        "moderate",
        "--policies",
        "greedy",
        "--engines",
        "scalar",
        "--seed",
        "5",
        "--hours",
        "0.25",
        "--devices-per-cell",
        "2",
    ];

    // stop-after without a checkpoint is a usage error.
    let mut bad = args.to_vec();
    bad.extend(["--stop-after", "1"]);
    let out = sdb(&dir, &bad);
    assert_eq!(out.status.code(), Some(1));

    let mut partial = args.to_vec();
    partial.extend(["--checkpoint", "ck.log", "--stop-after", "1"]);
    let out = sdb(&dir, &partial);
    assert_eq!(out.status.code(), Some(3), "interrupt must exit 3");

    let mut resume = args.to_vec();
    resume.extend(["--checkpoint", "ck.log", "--out", "resumed.txt"]);
    let out = sdb(&dir, &resume);
    assert!(out.status.success());

    let mut straight = args.to_vec();
    straight.extend(["--out", "straight.txt"]);
    let out = sdb(&dir, &straight);
    assert!(out.status.success());

    let resumed = std::fs::read(dir.join("resumed.txt")).unwrap();
    let straight = std::fs::read(dir.join("straight.txt")).unwrap();
    assert_eq!(resumed, straight, "resumed report must be byte-identical");
}

/// The default campaign from the CLI: its text report is byte-identical
/// at 1 and 4 threads, and a run killed at `--stop-after` resumes from its
/// checkpoint to that same report. The three stops each split the 96
/// units at a different kind of boundary.
#[test]
fn cli_default_campaign_is_byte_identical_across_threads_and_resumes() {
    let dir = scratch("cli-default");
    let run = |args: &[&str]| {
        let out = sdb(&dir, args);
        assert!(out.status.success(), "sdb {args:?}: {out:?}");
        out.stdout
    };
    let [one, four] = ["1", "4"].map(|threads| {
        let out = format!("t{threads}.txt");
        run(&["campaign", "--threads", threads, "--out", &out]);
        std::fs::read_to_string(dir.join(out)).expect("report written")
    });
    assert!(one == four, "the report differs between 1 and 4 threads");
    // The pruned 48-cell grid, whose faulted cells injected faults with
    // every invariant held.
    assert!(four.starts_with("sdb campaign: 48 cells"), "{four}");
    let totals = four
        .lines()
        .find(|l| l.starts_with("violations: "))
        .expect("totals line");
    assert!(totals.starts_with("violations: 0 "), "{totals}");
    let faults = totals.split("faults injected: ").nth(1).expect("faults");
    assert!(faults.parse::<u64>().expect("a count") > 0, "{totals}");

    // Unit 0 is device 0 of cell 0; the standby workload ignores its
    // seed, so unit 1 (device 1) shares its record from the checkpoint.
    // 38 units end after cell 18, whose SoA twin, cell 19, shares its
    // records from the checkpoint. 40 units end after cell 19.
    let list = String::from_utf8(run(&["campaign", "--list"])).expect("utf-8 list");
    for cell in [
        "  [  0] standby/co/none/greedy/scalar",
        "  [ 18] standby/nmc-lto/none/planned/scalar",
    ] {
        assert!(list.lines().any(|l| l == cell), "no `{cell}` in\n{list}");
    }
    for (stop, resume_threads) in [("40", "4"), ("38", "1"), ("1", "1")] {
        let ck = format!("ck-{stop}.log");
        let out = sdb(
            &dir,
            &[
                "campaign",
                "--threads",
                "4",
                "--checkpoint",
                &ck,
                "--stop-after",
                stop,
            ],
        );
        assert_eq!(out.status.code(), Some(3), "stop at {stop}: {out:?}");
        let resumed = format!("resumed-{stop}.txt");
        run(&[
            "campaign",
            "--threads",
            resume_threads,
            "--checkpoint",
            &ck,
            "--out",
            &resumed,
        ]);
        let resumed = std::fs::read_to_string(dir.join(resumed)).expect("report written");
        assert!(
            resumed == four,
            "the run stopped at {stop} resumed to another report"
        );
    }
}
