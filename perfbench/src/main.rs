//! `perfbench`: the SDB end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record <first>-<last>     # print reference.txt lines
//! ```
//!
//! A run builds the named workload from the seed (timed as `setup_s`,
//! the median of several set-ups spread over the run), then repeats the
//! workload's timed call — the library entry point plus report render,
//! exactly as the `sdb` CLI makes it — for `--seconds`, checks every
//! output against the reference recorded for the seed (or, for an
//! unrecorded seed, against a fresh run on the reference path), and
//! prints one JSON result as the last stdout line. Every timed call and
//! set-up is bracketed by host-speed samples ([`host::speed_sample_s`]),
//! and the end-to-end times are scaled to the reference host speed.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` is a separate
//! run that drives the same workload one device (or campaign unit) at a
//! time through the public calls of each crate with an in-memory span
//! around each, asserts the traced report is byte-identical to the
//! untraced one, counts calls with `sdb-prof`, and reports the per-layer
//! metrics. Every run writes a record with host facts and provenance to
//! `.perfbench-out/` under the working directory.

mod campaign;
mod fleet;
mod host;
mod reference;
mod spans;

use campaign::CampaignBench;
use fleet::{FleetBench, ScalarReference};
use reference::Recorded;
use sdb_campaign::CampaignReport;
use sdb_emulator::fnv1a_64;
use sdb_fleet::{EngineKind, FleetReport, FleetSpec};
use sdb_prof::{Phase, PhaseNode, PHASE_COUNT};
use spans::{median, percentile, quantile, Name, Recorder};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run, spread over the run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Minimum timed calls per run, however short `--seconds` is.
const MIN_CALLS: usize = 3;
/// Where run records, spans and checkpoint logs go.
const OUT_DIR: &str = ".perfbench-out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetDay,
    FleetPlanned,
    CampaignFaults,
    FleetStandbySoa,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FleetDay,
        Workload::FleetPlanned,
        Workload::CampaignFaults,
        Workload::FleetStandbySoa,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet-day",
            Workload::FleetPlanned => "fleet-planned",
            Workload::CampaignFaults => "campaign-faults",
            Workload::FleetStandbySoa => "fleet-standby-soa",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}` (expected {})", names.join("|"))
            })
    }

    /// Worker threads of the timed call.
    fn threads(self) -> usize {
        match self {
            Workload::FleetDay => host::nproc().min(2),
            _ => 1,
        }
    }

    /// Threads of the reference path: a different shard count from the
    /// timed call where the host allows, so a recomputed reference also
    /// checks thread-count determinism.
    fn reference_threads(self) -> usize {
        if self.threads() > 1 {
            1
        } else {
            host::nproc().min(2)
        }
    }

    /// Layers the workload loads, then layers it bypasses.
    fn layers(self) -> (&'static str, &'static str) {
        match self {
            Workload::FleetDay => (
                "workloads,emulator.micro_step,core,fleet",
                "policy,chaos,campaign,emulator.link,emulator.soa",
            ),
            Workload::FleetPlanned => (
                "workloads,emulator.micro_step,core,policy,fleet",
                "chaos,campaign,emulator.link,emulator.soa",
            ),
            Workload::CampaignFaults => (
                "workloads,emulator.micro_step,emulator.link,emulator.soa,emulator.snapshot,core,chaos,campaign",
                "policy,fleet",
            ),
            Workload::FleetStandbySoa => (
                "emulator.soa,emulator.pack_build,core,fleet",
                "workloads (shared traces),policy,chaos,campaign,emulator.link",
            ),
        }
    }
}

/// One workload instance ready for timed calls.
enum Bench {
    Fleet(FleetBench),
    Campaign(CampaignBench),
}

/// One timed call: its report, the report JSON, the host seconds of
/// each part (one per fleet spec; one for the campaign), and host-speed
/// samples taken before each part and after the last.
struct Call {
    out: Output,
    json: String,
    part_s: Vec<f64>,
    speed_s: Vec<f64>,
}

impl Call {
    /// Host seconds of the whole call.
    fn host_s(&self) -> f64 {
        self.part_s.iter().sum()
    }

    /// Seconds of the whole call at the reference host speed: each part
    /// scaled by the speed samples on either side of it.
    fn adjusted_s(&self) -> f64 {
        self.part_s
            .iter()
            .zip(self.speed_s.windows(2))
            .map(|(s, w)| adjust(*s, w[0], w[1]))
            .sum()
    }
}

/// `host_s` at the reference host speed, given the host-speed samples
/// taken just before and just after it.
fn adjust(host_s: f64, speed_before_s: f64, speed_after_s: f64) -> f64 {
    host_s * host::SPEED_REF_S / ((speed_before_s + speed_after_s) / 2.0)
}

/// A timed call's report.
enum Output {
    Fleet(Vec<FleetReport>),
    Campaign(CampaignReport),
}

/// The seed of every warm-up call, so warm-up cost does not vary with
/// the workload seed.
const WARM_UP_SEED: u64 = 0;

/// A fleet workload's specs at `devices` devices, and its engine.
fn fleet_parts(w: Workload, seed: u64, devices: usize) -> (Vec<FleetSpec>, EngineKind) {
    match w {
        Workload::FleetDay => (fleet::day_spec(seed, devices), EngineKind::Scalar),
        Workload::FleetPlanned => (fleet::planned_spec(seed, devices), EngineKind::Scalar),
        Workload::FleetStandbySoa => (fleet::standby_spec(seed, devices), EngineKind::Soa),
        Workload::CampaignFaults => unreachable!("not a fleet workload"),
    }
}

fn fleet_devices(w: Workload) -> usize {
    match w {
        Workload::FleetDay => fleet::DAY_DEVICES,
        Workload::FleetPlanned => fleet::PLANNED_DEVICES,
        _ => fleet::STANDBY_DEVICES,
    }
}

impl Bench {
    /// Builds and validates the workload, generates its inputs, and
    /// warms up with a reduced call on [`WARM_UP_SEED`].
    fn setup(w: Workload, seed: u64, out_dir: &Path) -> Result<Self, String> {
        if w == Workload::CampaignFaults {
            let checkpoint = out_dir.join(format!("{}.ckpt", w.name()));
            let bench = CampaignBench::new(
                campaign::faults_spec(seed, campaign::DEVICES_PER_CELL),
                checkpoint.clone(),
            )?;
            CampaignBench::new(campaign::faults_spec(WARM_UP_SEED, 1), checkpoint)?
                .run_without_log(w.threads())?;
            return Ok(Bench::Campaign(bench));
        }
        let (parts, engine) = fleet_parts(w, seed, fleet_devices(w));
        let bench = FleetBench::new(parts, engine)?;
        let (warm, _) = fleet_parts(w, WARM_UP_SEED, (fleet_devices(w) / 8).max(1));
        for spec in &warm {
            sdb_fleet::run_fleet_with_engine(spec, w.threads(), engine)?;
        }
        Ok(Bench::Fleet(bench))
    }

    /// The timed call: library entry point plus JSON render, per part.
    fn run(&self, threads: usize) -> Result<Call, String> {
        match self {
            Bench::Fleet(b) => {
                let mut reports = Vec::with_capacity(b.parts.len());
                let mut jsons = Vec::with_capacity(b.parts.len());
                let mut part_s = Vec::with_capacity(b.parts.len());
                let mut speed_s = vec![host::speed_sample_s()];
                for spec in &b.parts {
                    let t0 = Instant::now();
                    let (report, _) = sdb_fleet::run_fleet_with_engine(spec, threads, b.engine)?;
                    jsons.push(report.to_json());
                    part_s.push(t0.elapsed().as_secs_f64());
                    speed_s.push(host::speed_sample_s());
                    reports.push(report);
                }
                Ok(Call {
                    out: Output::Fleet(reports),
                    json: jsons.join("\n"),
                    part_s,
                    speed_s,
                })
            }
            Bench::Campaign(b) => {
                let before = host::speed_sample_s();
                let t0 = Instant::now();
                let report = b.run(threads)?;
                let json = report.to_json();
                let part_s = vec![t0.elapsed().as_secs_f64()];
                Ok(Call {
                    out: Output::Campaign(report),
                    json,
                    part_s,
                    speed_s: vec![before, host::speed_sample_s()],
                })
            }
        }
    }

    /// Devices (fleet) or units (campaign) one call simulates.
    fn units(&self) -> u64 {
        match self {
            Bench::Fleet(b) => b.devices() as u64,
            Bench::Campaign(b) => b.units() as u64,
        }
    }

    fn sim_hours(&self) -> f64 {
        match self {
            Bench::Fleet(b) => b.sim_hours,
            Bench::Campaign(b) => b.sim_hours,
        }
    }

    /// Runs the traced path into `rec`; returns the report JSON.
    fn run_traced(&self, rec: &mut Recorder) -> Result<(String, TracedFacts), String> {
        match self {
            Bench::Fleet(b) => {
                let (json, f) = fleet::run_traced(b, rec);
                Ok((json, TracedFacts::Fleet(f)))
            }
            Bench::Campaign(b) => {
                let (json, f) = campaign::run_traced(b, rec)?;
                Ok((json, TracedFacts::Campaign(f)))
            }
        }
    }

    /// What the reference path produces: the report digest at the
    /// reference thread count, plus the scalar-engine numbers for SoA
    /// and per-cell digests for the campaign.
    fn compute_reference(&self, w: Workload) -> Result<Recorded, String> {
        let threads = w.reference_threads();
        match self {
            Bench::Fleet(b) => {
                let digest = digest(&self.run(threads)?.json);
                if b.engine != EngineKind::Soa {
                    return Ok(Recorded::Digest(digest));
                }
                let [spec] = b.parts.as_slice() else {
                    return Err("the SoA workload is one spec".to_owned());
                };
                let (scalar, _) =
                    sdb_fleet::run_fleet_with_engine(spec, threads, EngineKind::Scalar)?;
                Ok(Recorded::Standby(digest, ScalarReference::of(&scalar)))
            }
            Bench::Campaign(b) => {
                let report = b.run_without_log(threads)?;
                Ok(Recorded::Campaign(
                    report.baseline_config_digest,
                    report.cells.iter().map(|c| c.digest).collect(),
                ))
            }
        }
    }

    /// Devices of `out` that fail the check against `reference`.
    fn failed(&self, out: &Output, json: &str, reference: &Recorded) -> (u64, Vec<String>) {
        let all = self.units();
        match (self, out, reference) {
            (Bench::Fleet(_), Output::Fleet(_), Recorded::Digest(d)) => {
                if digest(json) == *d {
                    (0, Vec::new())
                } else {
                    (
                        all,
                        vec![format!(
                            "report digest {:016x} != recorded {d:016x}",
                            digest(json)
                        )],
                    )
                }
            }
            (Bench::Fleet(_), Output::Fleet(reports), Recorded::Standby(d, scalar)) => {
                let mut reasons = Vec::new();
                if digest(json) != *d {
                    reasons.push(format!(
                        "report digest {:016x} != recorded {d:016x}",
                        digest(json)
                    ));
                }
                match reports.as_slice() {
                    [r] => {
                        if let Err(e) = scalar.check(r) {
                            reasons.push(format!(
                                "outside the SoA bound of the scalar reference: {e}"
                            ));
                        }
                    }
                    _ => reasons.push("the SoA workload is one spec".to_owned()),
                }
                (if reasons.is_empty() { 0 } else { all }, reasons)
            }
            (Bench::Campaign(b), Output::Campaign(r), Recorded::Campaign(config, cells)) => {
                campaign::failed_devices(r, &campaign::baseline_from(*config, &b.cells, cells))
            }
            _ => (
                all,
                vec!["reference does not match the workload kind".to_owned()],
            ),
        }
    }
}

enum TracedFacts {
    Fleet(fleet::TracedFacts),
    Campaign(campaign::TracedFacts),
}

fn digest(json: &str) -> u64 {
    fnv1a_64(json.as_bytes())
}

/// One timed set-up; its seconds at the reference host speed.
fn timed_setup(w: Workload, seed: u64, out_dir: &Path) -> Result<(Bench, f64), String> {
    let before = host::speed_sample_s();
    let t0 = Instant::now();
    let bench = Bench::setup(w, seed, out_dir)?;
    let host_s = t0.elapsed().as_secs_f64();
    Ok((bench, adjust(host_s, before, host::speed_sample_s())))
}

/// The recorded reference for the seed, or a fresh one from the
/// reference path; with where it came from.
fn resolve_reference(
    w: Workload,
    seed: u64,
    bench: &Bench,
) -> Result<(Recorded, &'static str), String> {
    match reference::lookup(w.name(), seed)? {
        Some(r) => Ok((r, "recorded")),
        None => Ok((bench.compute_reference(w)?, "recomputed")),
    }
}

/// Call counts per profiler phase, summed over the whole forest.
type Counts = [u64; PHASE_COUNT];

fn flat_counts(nodes: &[PhaseNode], out: &mut Counts) {
    for n in nodes {
        out[n.phase as usize] += n.count;
        flat_counts(&n.children, out);
    }
}

/// The sampled p50 of `phase` from its most-sampled node, ns.
fn sampled_p50(nodes: &[PhaseNode], phase: Phase) -> Option<(u64, u64)> {
    let mut best: Option<(u64, u64)> = None;
    for n in nodes {
        if n.phase == phase && n.timed > best.map_or(0, |b| b.0) {
            best = Some((n.timed, n.p50_ns));
        }
        if let Some(child) = sampled_p50(&n.children, phase) {
            if child.0 > best.map_or(0, |b| b.0) {
                best = Some(child);
            }
        }
    }
    best
}

/// Summed self and total time (ns) of every `DeviceRun` node.
fn device_run_ns(nodes: &[PhaseNode], acc: &mut (u64, u64)) {
    for n in nodes {
        if n.phase == Phase::DeviceRun {
            acc.0 += n.self_ns();
            acc.1 += n.total_ns;
        }
        device_run_ns(&n.children, acc);
    }
}

/// What one `sdb-prof` counting pass yields.
struct CountPass {
    /// Exact call counts per phase.
    counts: Counts,
    /// Sampled p50 of `micro_step` and `runtime_tick`, ns.
    sampled: [f64; 2],
    /// Share of `device_run` time in no named child phase.
    unattributed: f64,
    json: String,
}

/// One untraced call with `sdb-prof` enabled.
fn count_pass(bench: &Bench, threads: usize) -> Result<CountPass, String> {
    sdb_prof::reset();
    sdb_prof::enable();
    let run = bench.run(threads);
    sdb_prof::disable();
    let snap = sdb_prof::snapshot();
    sdb_prof::reset();
    let json = run?.json;
    let mut counts = [0u64; PHASE_COUNT];
    flat_counts(&snap.phases, &mut counts);
    let p50 = |phase| sampled_p50(&snap.phases, phase).map_or(0.0, |(_, p)| p as f64);
    let mut device = (0, 0);
    device_run_ns(&snap.phases, &mut device);
    Ok(CountPass {
        counts,
        sampled: [p50(Phase::MicroStep), p50(Phase::RuntimeTick)],
        unattributed: device.0 as f64 / device.1.max(1) as f64,
        json,
    })
}

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra `key: value` facts for the run record.
    notes: Vec<(String, String)>,
}

fn run_untraced(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Result<RunResult, String> {
    let (bench, first_setup_s) = timed_setup(w, seed, out_dir)?;
    let mut setup_times = vec![first_setup_s];
    let threads = w.threads();
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut host_rates = Vec::new();
    let mut speeds = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<Call> = None;
    while rates.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        // The set-up is repeated at even intervals through the run, so
        // its median samples the whole run rather than its first moment.
        let due = seconds * setup_times.len() as f64 / SETUP_REPS as f64;
        if setup_times.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            setup_times.push(timed_setup(w, seed, out_dir)?.1);
        }
        let call = bench.run(threads)?;
        rates.push(bench.sim_hours() / call.adjusted_s());
        host_rates.push(bench.sim_hours() / call.host_s());
        speeds.extend_from_slice(&call.speed_s);
        digests.push(digest(&call.json));
        if first.is_none() {
            first = Some(call);
        }
    }
    while setup_times.len() < SETUP_REPS {
        setup_times.push(timed_setup(w, seed, out_dir)?.1);
    }
    let peak_rss_mb = host::peak_rss_mb();

    let first = first.expect("at least one call");
    let (reference, source) = resolve_reference(w, seed, &bench)?;
    let (first_failed, reasons) = bench.failed(&first.out, &first.json, &reference);
    let mut failed = 0;
    let mut nondeterministic = 0;
    for d in &digests {
        if *d == digests[0] {
            failed += first_failed;
        } else {
            failed += bench.units();
            nondeterministic += 1;
        }
    }
    let attempted = bench.units() * digests.len() as u64;
    let mut notes = vec![
        ("calls".to_owned(), digests.len().to_string()),
        ("threads".to_owned(), threads.to_string()),
        (
            "sim_hours_per_call".to_owned(),
            bench.sim_hours().to_string(),
        ),
        ("reference".to_owned(), source.to_owned()),
        ("report_digest".to_owned(), format!("{:016x}", digests[0])),
        (
            "failed_fraction".to_owned(),
            (failed as f64 / attempted as f64).to_string(),
        ),
    ];
    notes.push((
        "host_rate_p50_p90_max".to_owned(),
        format!(
            "{} {} {}",
            median(&host_rates),
            quantile(&host_rates, 0.9),
            quantile(&host_rates, 1.0)
        ),
    ));
    notes.push((
        "adjusted_rate_p10_p50_p90".to_owned(),
        format!(
            "{} {} {}",
            quantile(&rates, 0.1),
            median(&rates),
            quantile(&rates, 0.9)
        ),
    ));
    notes.push((
        "speed_sample_s_p10_p50_p90".to_owned(),
        format!(
            "{} {} {} (reference {})",
            quantile(&speeds, 0.1),
            median(&speeds),
            quantile(&speeds, 0.9),
            host::SPEED_REF_S
        ),
    ));
    if nondeterministic > 0 {
        notes.push((
            "nondeterministic_calls".to_owned(),
            nondeterministic.to_string(),
        ));
    }
    notes.extend(reasons.into_iter().map(|r| ("check".to_owned(), r)));
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("sim_hours_per_s", "h/s", median(&rates)),
            ("setup_s", "s", median(&setup_times)),
            ("peak_rss_mb", "MiB", peak_rss_mb),
        ],
        notes,
    })
}

fn run_traced(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Result<RunResult, String> {
    let (bench, _) = timed_setup(w, seed, out_dir)?;
    let units = bench.units();
    let mut calls = 0u64;
    let mut mismatches = Vec::new();

    // The untraced report every other pass must reproduce.
    let Call { out, json, .. } = bench.run(1)?;
    calls += 1;

    // Exact counts, twice: at 1 and 2 threads for fleets, repeated for
    // the campaign. They must agree exactly.
    let pass = count_pass(&bench, 1)?;
    let second_threads = match bench {
        Bench::Fleet(_) => host::nproc().min(2),
        Bench::Campaign(_) => 1,
    };
    let pass_b = count_pass(&bench, second_threads)?;
    calls += 2;
    let counts_stable = pass.counts == pass_b.counts;
    if !counts_stable {
        mismatches.push("sdb-prof call counts differ between counting passes".to_owned());
    }
    for (what, j) in [
        ("counting pass", &pass.json),
        ("second counting pass", &pass_b.json),
    ] {
        if *j != json {
            mismatches.push(format!("{what} report differs from the untraced report"));
        }
    }

    // Traced passes interleaved with untraced ones (both on one thread)
    // for the overhead figure; the first traced pass's spans are kept.
    let start = Instant::now();
    let mut untraced_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut kept: Option<(Recorder, TracedFacts)> = None;
    let mut capacity = 0;
    while traced_rates.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let call = bench.run(1)?;
        untraced_rates.push(bench.sim_hours() / call.host_s());
        if call.json != json {
            mismatches.push("repeated untraced report differs".to_owned());
        }
        let mut rec = Recorder::with_capacity(capacity);
        let t0 = Instant::now();
        let (j, facts) = bench.run_traced(&mut rec)?;
        traced_rates.push(bench.sim_hours() / t0.elapsed().as_secs_f64());
        calls += 2;
        if j != json {
            mismatches.push("traced report differs from the untraced report".to_owned());
        }
        capacity = rec.spans().len();
        if kept.is_none() {
            kept = Some((rec, facts));
        }
    }
    let (rec, facts) = kept.expect("at least one traced pass");
    // The headline metric's numerator, counted at set-up from the traces,
    // must match what the devices actually simulated.
    if let TracedFacts::Fleet(f) = &facts {
        let hours = f.simulated_s / 3600.0;
        if (hours - bench.sim_hours()).abs() > 1e-9 * bench.sim_hours() {
            mismatches.push(format!(
                "devices simulated {hours} h, set-up counted {} h",
                bench.sim_hours()
            ));
        }
    }

    let (reference, source) = resolve_reference(w, seed, &bench)?;
    let (ref_failed, reasons) = bench.failed(&out, &json, &reference);
    // Every call reproduced `json` unless a mismatch was recorded, so the
    // reference verdict applies to all of them.
    let failed = if mismatches.is_empty() {
        ref_failed * calls
    } else {
        units * calls
    };
    let attempted = units * calls;

    let mut metrics = layer_metrics(&bench, &out, &rec, &facts, &pass);
    metrics.push((
        "trace_overhead_pct",
        "%",
        (quantile(&untraced_rates, 1.0) / quantile(&traced_rates, 1.0) - 1.0) * 100.0,
    ));
    metrics.push((
        "failed_fraction",
        "fraction",
        failed as f64 / attempted as f64,
    ));

    let path = out_dir.join(format!("{}.spans.tsv", w.name()));
    rec.write_tsv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut notes = vec![
        ("calls".to_owned(), calls.to_string()),
        ("reference".to_owned(), source.to_owned()),
        (
            "report_digest".to_owned(),
            format!("{:016x}", digest(&json)),
        ),
        ("spans".to_owned(), path.display().to_string()),
        ("span_count".to_owned(), rec.spans().len().to_string()),
        ("counts_stable".to_owned(), counts_stable.to_string()),
    ];
    notes.extend(
        mismatches
            .iter()
            .map(|m| ("mismatch".to_owned(), m.clone())),
    );
    notes.extend(reasons.into_iter().map(|r| ("check".to_owned(), r)));
    Ok(RunResult {
        correct: failed == 0 && mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The per-layer metrics of a traced run (all but overhead and failures).
/// A layer the workload bypasses reads 0.
fn layer_metrics(
    bench: &Bench,
    out: &Output,
    rec: &Recorder,
    facts: &TracedFacts,
    pass: &CountPass,
) -> Vec<Metric> {
    let count = |p: Phase| pass.counts[p as usize] as f64;
    let units = [Name::UnitLinked, Name::UnitSoa, Name::UnitScalar];
    let device_ns: u64 = match bench {
        Bench::Fleet(_) => rec.total_ns(Name::FleetDevice),
        Bench::Campaign(_) => units.iter().map(|n| rec.total_ns(*n)).sum(),
    };
    let share = |name| rec.total_ns(name) as f64 / device_ns.max(1) as f64;
    let calls = |name| rec.durations(name).len() as f64;
    let pct = |name, p| percentile(&mut rec.durations(name), p);
    let total = |name| rec.total_ns(name) as f64;

    let (ff_ticks, real_ticks, faults, violations) = match (out, facts) {
        (Output::Fleet(reports), TracedFacts::Fleet(f)) => {
            let ff: u64 = reports
                .iter()
                .flat_map(|r| &r.counters)
                .filter(|(n, _)| n == "sdb_fleet_ff_ticks_total")
                .map(|(_, v)| *v)
                .sum();
            (ff as f64, f.scalar_ticks as f64, 0.0, 0.0)
        }
        (Output::Campaign(r), _) => {
            let ff: u64 = r
                .cells
                .iter()
                .map(sdb_campaign::CellOutcome::ff_ticks)
                .sum();
            (
                ff as f64,
                count(Phase::TraceStep) + count(Phase::SoaStep),
                r.total_faults() as f64,
                r.total_violations() as f64,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let (checkpoint_bytes, snapshot_bytes) = match facts {
        TracedFacts::Campaign(f) => (f.checkpoint_bytes as f64, f.snapshot_bytes),
        TracedFacts::Fleet(_) => (0.0, 0.0),
    };
    let plan_facts = match facts {
        TracedFacts::Fleet(f) => (f.plan_calls as f64, f.plan_commits as f64),
        TracedFacts::Campaign(_) => (0.0, 0.0),
    };
    let rollouts = count(Phase::PlannerRollout);
    let rollout_mean = rec.total_ns(Name::Plan) as f64 / rollouts.max(1.0);
    let micro_p50 = pct(Name::MicroStep, 0.5);
    let tick_p50 = pct(Name::RuntimeTick, 0.5);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    vec![
        (
            "workloads.trace_build.calls",
            "count",
            calls(Name::TraceBuild),
        ),
        (
            "workloads.trace_build.ns_p50",
            "ns",
            pct(Name::TraceBuild, 0.5),
        ),
        (
            "workloads.trace_build.share",
            "fraction",
            share(Name::TraceBuild),
        ),
        (
            "workloads.resample.share",
            "fraction",
            share(Name::Resample),
        ),
        ("emulator.micro_step.calls", "count", calls(Name::MicroStep)),
        ("emulator.micro_step.ns_p50", "ns", micro_p50),
        (
            "emulator.micro_step.ns_p99",
            "ns",
            pct(Name::MicroStep, 0.99),
        ),
        (
            "emulator.micro_step.share",
            "fraction",
            share(Name::MicroStep),
        ),
        (
            "emulator.pack_build.ns_p50",
            "ns",
            pct(Name::PackBuild, 0.5),
        ),
        (
            "emulator.pack_build.share",
            "fraction",
            share(Name::PackBuild),
        ),
        ("emulator.soa.ff_ticks", "count", ff_ticks),
        (
            "emulator.soa.ff_fraction",
            "fraction",
            ratio(ff_ticks, ff_ticks + real_ticks),
        ),
        ("emulator.snapshot.ns_p50", "ns", pct(Name::Snapshot, 0.5)),
        ("emulator.snapshot.bytes", "bytes", snapshot_bytes),
        ("core.runtime_tick.calls", "count", calls(Name::RuntimeTick)),
        ("core.runtime_tick.ns_p50", "ns", tick_p50),
        (
            "core.runtime_tick.share",
            "fraction",
            share(Name::RuntimeTick),
        ),
        (
            "core.scheduler.self_share",
            "fraction",
            rec.self_ns(Name::Scheduler) as f64 / device_ns.max(1) as f64,
        ),
        ("policy.plan.calls", "count", plan_facts.0),
        ("policy.plan.commits", "count", plan_facts.1),
        (
            "policy.plan.commit_ratio",
            "fraction",
            ratio(plan_facts.1, plan_facts.0),
        ),
        ("policy.plan.ns_p50", "ns", pct(Name::Plan, 0.5)),
        ("policy.plan.ns_p99", "ns", pct(Name::Plan, 0.99)),
        ("policy.plan.share", "fraction", share(Name::Plan)),
        ("policy.rollouts", "count", rollouts),
        ("policy.rollout.ns_mean", "ns", rollout_mean),
        (
            "policy.forecaster_build.ns_p50",
            "ns",
            pct(Name::ForecasterBuild, 0.5),
        ),
        ("chaos.fault_plan.ns_p50", "ns", pct(Name::FaultPlan, 0.5)),
        ("chaos.faults_injected", "count", faults),
        ("chaos.violations", "count", violations),
        (
            "campaign.unit_linked.ns_p50",
            "ns",
            pct(Name::UnitLinked, 0.5),
        ),
        (
            "campaign.unit_linked.ns_p99",
            "ns",
            pct(Name::UnitLinked, 0.99),
        ),
        ("campaign.unit_soa.ns_p50", "ns", pct(Name::UnitSoa, 0.5)),
        ("campaign.unit_soa.ns_p99", "ns", pct(Name::UnitSoa, 0.99)),
        (
            "campaign.unit_scalar.ns_p50",
            "ns",
            pct(Name::UnitScalar, 0.5),
        ),
        (
            "campaign.unit_scalar.ns_p99",
            "ns",
            pct(Name::UnitScalar, 0.99),
        ),
        ("campaign.checkpoint.bytes", "bytes", checkpoint_bytes),
        (
            "campaign.checkpoint_encode.share",
            "fraction",
            share(Name::CheckpointEncode),
        ),
        (
            "campaign.checkpoint_parse.ns",
            "ns",
            total(Name::CheckpointParse),
        ),
        ("campaign.fold.ns", "ns", total(Name::Fold)),
        ("campaign.render.ns", "ns", total(Name::CampaignRender)),
        ("fleet.device.ns_p50", "ns", pct(Name::FleetDevice, 0.5)),
        ("fleet.device.ns_p99", "ns", pct(Name::FleetDevice, 0.99)),
        ("fleet.report_merge.ns", "ns", total(Name::ReportMerge)),
        ("fleet.render.ns", "ns", total(Name::FleetRender)),
        (
            "fleet.unattributed_share",
            "fraction",
            pass.unattributed,
        ),
        (
            "prof.micro_step.bias",
            "ratio",
            ratio(pass.sampled[0], micro_p50),
        ),
        (
            "prof.runtime_tick.bias",
            "ratio",
            ratio(pass.sampled[1], tick_p50),
        ),
        ("count.trace_step", "count", count(Phase::TraceStep)),
        ("count.runtime_tick", "count", count(Phase::RuntimeTick)),
        ("count.micro_step", "count", count(Phase::MicroStep)),
        ("count.planner_rollout", "count", rollouts),
        ("count.soa_step", "count", count(Phase::SoaStep)),
        ("count.fast_forward", "count", count(Phase::FastForward)),
    ]
}

/// A finite number as JSON (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be non-negative, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Prints reference lines for every workload over a seed range.
fn record(range: &str, out_dir: &Path) -> Result<(), String> {
    let (a, b) = range
        .split_once('-')
        .ok_or_else(|| format!("--record expects <first>-<last>, got {range}"))?;
    let first: u64 = a.parse().map_err(|e| format!("--record: {e}"))?;
    let last: u64 = b.parse().map_err(|e| format!("--record: {e}"))?;
    for seed in first..=last {
        for w in Workload::ALL {
            let bench = Bench::setup(w, seed, out_dir)?;
            println!(
                "{}",
                reference::render(w.name(), seed, &bench.compute_reference(w)?)
            );
        }
    }
    Ok(())
}

fn write_record(
    path: &Path,
    args: &Args,
    result: &RunResult,
    load: [[f64; 3]; 2],
) -> Result<(), String> {
    let (loads, bypasses) = args.workload.layers();
    let mut s = String::from("{\n");
    let mut field = |k: &str, v: String| {
        let _ = writeln!(s, "  {}: {v},", json_str(k));
    };
    field("workload", json_str(args.workload.name()));
    field("seed", args.seed.to_string());
    field(
        "held_out_seed",
        reference::held_out_seed().map_or("null".to_owned(), |v| v.to_string()),
    );
    field("trace", u8::from(args.trace).to_string());
    field("seconds", num(args.seconds));
    field("nproc", host::nproc().to_string());
    field("cpu_model", json_str(&host::cpu_model()));
    field(
        "loadavg_start",
        format!("[{}, {}, {}]", load[0][0], load[0][1], load[0][2]),
    );
    field(
        "loadavg_end",
        format!("[{}, {}, {}]", load[1][0], load[1][1], load[1][2]),
    );
    field("rustc", json_str(host::RUSTC));
    field("git_hash", json_str(&host::git_hash()));
    field("layers_loaded", json_str(loads));
    field("layers_bypassed", json_str(bypasses));
    let notes: Vec<String> = result
        .notes
        .iter()
        .map(|(k, v)| format!("[{}, {}]", json_str(k), json_str(v)))
        .collect();
    field("notes", format!("[{}]", notes.join(", ")));
    field("correct", result.correct.to_string());
    field("attempted", result.attempted.to_string());
    field("failed", result.failed.to_string());
    let _ = writeln!(s, "  \"metrics\": {}\n}}", metrics_json(&result.metrics));
    std::fs::write(path, s).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    if argv.first().map(String::as_str) == Some("--record") {
        let range = argv.get(1).map_or("", String::as_str);
        if let Err(e) = record(range, &out_dir) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let load_start = host::loadavg();
    let run = if args.trace {
        run_traced(args.workload, args.seed, args.seconds, &out_dir)
    } else {
        run_untraced(args.workload, args.seed, args.seconds, &out_dir)
    };
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let load_end = host::loadavg();

    println!(
        "perfbench {} seed {} trace {} | nproc {} | {} | load {:.2} -> {:.2} | {} | git {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::cpu_model(),
        load_start[0],
        load_end[0],
        host::RUSTC,
        host::git_hash(),
    );
    for (k, v) in &result.notes {
        println!("  {k}: {v}");
    }
    for (name, unit, v) in &result.metrics {
        println!("  {name:<34} {:>16} {unit}", num(*v));
    }
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = write_record(&path, &args, &result, [load_start, load_end]) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics_json(&result.metrics)
    );
}
