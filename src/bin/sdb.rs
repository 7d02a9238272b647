//! `sdb` — command-line driver for the SDB simulation stack.
//!
//! The subcommands and their flags are declared once, in [`USAGE`]:
//! `sdb` prints it on a usage error, and each subcommand accepts exactly
//! the flags its usage line lists.
//!
//! Every subcommand returns `Ok` with its exit status, or `Err` with the
//! message of the failure that stopped it, which `main` prints before
//! exiting 1. A usage error exits 1 before any work starts.

use sdb::core::policy::{ChargeDirective, DischargeDirective};
use sdb::core::runtime::SdbRuntime;
use sdb::core::scheduler::{drive, run_charge_session, EmptyTimes, Hooks, SimOptions};
use sdb::emulator::{acpi, Microcontroller, PackTemplate};
use sdb::fleet;
use sdb::observe::{analyze_jsonl, to_chrome, to_jsonl, DeviceEvent, Observer};
use sdb::policy::{warmup_seeds, PolicySpec, WARMUP_DAYS};
use sdb::prof::Snapshot;
use sdb::workloads::{Trace, WorkloadSpec};
use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::ops::ControlFlow;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// `--policy planned` on `sdb sim` and `sdb fleet`: an 8 h lookahead
/// that re-plans every 30 minutes.
const PLANNED: PolicySpec = PolicySpec::Planned {
    horizon_s: 8.0 * 3600.0,
    replan_s: 1800.0,
};

/// A subcommand: its parsed flags in, its exit status or failure out.
type Command = fn(&HashMap<String, String>) -> Result<ExitCode, String>;

/// Every subcommand `sdb <name>` runs, by name. `sdb profile` runs the
/// four its usage line names.
const COMMANDS: [(&str, Command); 9] = [
    ("packs", |_| list(PackTemplate::catalog(), 14)),
    ("traces", |_| list(WorkloadSpec::catalog(), 16)),
    ("sim", cmd_sim),
    ("charge", cmd_charge),
    ("status", cmd_status),
    ("fleet", cmd_fleet),
    ("analyze", cmd_analyze),
    ("policy", cmd_policy),
    ("campaign", cmd_campaign),
];

/// Pipe-safe print: `println!` panics on `EPIPE`, but CLI output is
/// routinely piped into `head`/`grep` — treat a closed pipe as a normal
/// early exit.
fn emit(text: &str) {
    use std::io::{ErrorKind, Write};
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Err(e) = lock.write_all(text.as_bytes()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("write error: {e}");
        std::process::exit(1);
    }
    let _ = lock.flush();
}

/// Writes `text`, the `what` of a run, to `path` and says so on stderr.
fn write_file(path: &str, text: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("failed to write {what} to {path}: {e}"))?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}

/// Writes a report to `--out`, or prints it when there is none.
fn write_out(flags: &HashMap<String, String>, body: &str, what: &str) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => write_file(path, body, what),
        None => {
            emit(body);
            Ok(())
        }
    }
}

/// Parses `sdb <cmd>`'s arguments into `--name value` pairs (a flag
/// followed by another flag, or by nothing, is boolean, e.g. `--json`).
///
/// # Errors
///
/// Names the first flag missing from `cmd`'s usage lines, or the first
/// argument that is neither a flag nor a flag's value.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument `{}` for `sdb {cmd}`", args[i]));
        };
        if !accepted_flags(cmd).any(|f| f == key) {
            return Err(format!("unknown flag `--{key}` for `sdb {cmd}`"));
        }
        match args.get(i + 1) {
            Some(next) if !next.starts_with("--") => {
                flags.insert(key.to_owned(), next.clone());
                i += 2;
            }
            _ => {
                flags.insert(key.to_owned(), String::new());
                i += 1;
            }
        }
    }
    Ok(flags)
}

/// The flags `sdb <cmd>` accepts: every `--name` on its usage lines.
fn accepted_flags(cmd: &str) -> impl Iterator<Item = &'static str> + '_ {
    USAGE
        .lines()
        .filter(move |line| {
            line.trim_start()
                .strip_prefix("sdb ")
                .and_then(|rest| rest.strip_prefix(cmd))
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
        })
        .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .filter_map(|word| word.strip_prefix("--"))
}

/// One line per subcommand; also the source of each one's accepted flags.
const USAGE: &str = "\
usage:
  sdb packs | traces
  sdb sim --pack <name> --trace <name> [--policy preserve|rbl|ccb|blend:<v>|planned|oracle] [--seed N] [--trace-file <csv>] [--trace-out <jsonl>]
  sdb charge --pack <name> --watts <W> [--directive <0..1>] [--target <pct>]
  sdb status --pack <name> [--soc <0..1>]
  sdb fleet --devices <N> [--threads <N>] [--seed <N>] [--hours <H>] [--policy greedy|planned|oracle] [--engine scalar|soa] [--json] [--out <path>] [--metrics-out <path>] [--trace-out <jsonl>]
  sdb policy [--seed <N>] [--json] [--out <path>]
  sdb analyze --trace <jsonl> [--json] [--max-findings <N>]
  sdb profile [--format text|counts|json|flame] [--out <path>] sim|fleet|campaign|policy [that command's flags]
  sdb campaign [--scenarios <a,b>] [--chemistries <a,b>] [--faults <a,b>] [--policies <a,b>] [--engines <a,b>] [--seed <N>] [--hours <H>] [--devices-per-cell <N>] [--threads <N>] [--list] [--checkpoint <path>] [--stop-after <N>] [--baseline <path>] [--write-baseline] [--inject-divergence <key>] [--format text|json|html] [--out <path>]
  sdb --version";

/// Reports a usage error and exits with status 1. Flag helpers call it
/// before a subcommand starts work, so nothing is half written.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Parses the value of `--key`, if given. A value that does not parse is
/// a usage error naming the flag, never a silent default.
fn flag<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T>
where
    T::Err: Display,
{
    let raw = flags.get(key)?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) if raw.is_empty() => usage_error(&format!("--{key} needs a value")),
        Err(e) => usage_error(&format!("invalid --{key} `{raw}`: {e}")),
    }
}

/// [`flag`], or `default` when the flag is absent.
fn flag_or<T: FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T
where
    T::Err: Display,
{
    flag(flags, key).unwrap_or(default)
}

/// [`flag_or`] passed through `check`: a value it rejects is a usage
/// error naming the flag and `check`'s reason, so an out-of-range value
/// is refused before it can panic deep in a run or be answered.
fn flag_checked<T: FromStr, U, E: Display>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
    check: impl FnOnce(T) -> Result<U, E>,
) -> U
where
    T::Err: Display,
{
    check(flag_or(flags, key, default)).unwrap_or_else(|e| {
        let raw = flags.get(key).map_or("", String::as_str);
        usage_error(&format!("invalid --{key} `{raw}`: {e}"))
    })
}

/// A [`flag_checked`] check that accepts a number in `range` (never
/// NaN) and otherwise expects `what`.
fn in_range(
    range: std::ops::RangeInclusive<f64>,
    what: &'static str,
) -> impl FnOnce(f64) -> Result<f64, String> {
    move |v| {
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(format!("expected {what}"))
        }
    }
}

/// Parses `--policy greedy|planned|oracle` for a default-population
/// fleet: `None` (absent or `greedy`) keeps the cohorts' own policies.
fn fleet_policy_flag(flags: &HashMap<String, String>) -> Option<PolicySpec> {
    match flags.get("policy").map(String::as_str) {
        None | Some("greedy") => None,
        Some("planned") => Some(PLANNED),
        Some("oracle") => Some(PolicySpec::Oracle),
        Some(other) => usage_error(&format!(
            "unknown fleet policy `{other}` (expected greedy, planned, or oracle)"
        )),
    }
}

/// The catalog pack `--pack` names (`default` when absent), every cell
/// at `soc`. An unknown name is a usage error.
fn pack_flag<'a>(
    flags: &'a HashMap<String, String>,
    default: &'a str,
    soc: f64,
) -> (&'a str, Microcontroller) {
    let name = flags.get("pack").map_or(default, String::as_str);
    match PackTemplate::named(name, soc) {
        Some(template) => (name, template.instantiate()),
        None => usage_error(&format!("unknown pack `{name}` (try `sdb packs`)")),
    }
}

/// `sdb sim --policy`: a greedy policy by name (`rbl`, the default,
/// `ccb`, `preserve`), a `blend:<v>` of the two, or a planner.
fn sim_policy_flag(flags: &HashMap<String, String>) -> PolicySpec {
    match flags.get("policy").map_or("rbl", String::as_str) {
        "preserve" => PolicySpec::Preserve {
            efficient: 0,
            inefficient: 1,
            threshold_w: 0.3,
        },
        "rbl" => PolicySpec::Blend(1.0),
        "ccb" => PolicySpec::Blend(0.0),
        "planned" => PLANNED,
        "oracle" => PolicySpec::Oracle,
        other => match other.strip_prefix("blend:").map(str::parse::<f64>) {
            Some(Ok(v)) => match DischargeDirective::try_new(v) {
                Ok(_) => PolicySpec::Blend(v),
                Err(e) => usage_error(&format!("invalid --policy `{other}`: {e}")),
            },
            _ => usage_error(&format!("unknown policy `{other}`")),
        },
    }
}

/// Prints a catalog's `(name, description)` pairs, names padded to
/// `width`.
fn list(
    catalog: impl Iterator<Item = (&'static str, &'static str)>,
    width: usize,
) -> Result<ExitCode, String> {
    let mut out = String::new();
    for (name, about) in catalog {
        let _ = writeln!(out, "  {name:<width$} {about}");
    }
    emit(&out);
    Ok(ExitCode::SUCCESS)
}

/// `--trace-out` of `sdb sim` and `sdb fleet`: writes the replayable
/// JSONL to `path` and a Perfetto-loadable Chrome `trace_event` export
/// next to it (`fleet.jsonl` → `fleet.chrome.json`, anything else gets
/// `.chrome.json` appended).
fn write_trace(path: &str, events: &[DeviceEvent]) -> Result<(), String> {
    let chrome = match path.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{path}.chrome.json"),
    };
    let what = format!("trace ({} events)", events.len());
    write_file(path, &to_jsonl(events), &what)?;
    write_file(&chrome, &to_chrome(events), "Chrome trace")
}

fn cmd_sim(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let seed: u64 = flag_or(flags, "seed", 13);
    let (pack_name, mut micro) = pack_flag(flags, "watch", 1.0);
    // A recorded CSV trace replays as a workload that ignores its seed.
    let (workload, trace_name) = if let Some(path) = flags.get("trace-file") {
        let trace = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Trace::from_csv(&text))
            .map_err(|e| format!("cannot load trace file `{path}`: {e}"))?;
        (WorkloadSpec::Shared(Arc::new(trace)), path.clone())
    } else {
        let name = flags.get("trace").map_or("watch-day", String::as_str);
        match WorkloadSpec::named(name) {
            Some(workload) => (workload, name.to_owned()),
            None => usage_error(&format!("unknown trace `{name}` (try `sdb traces`)")),
        }
    };
    let trace = workload.build(seed);
    let mut runtime = SdbRuntime::new(micro.battery_count());
    // With --trace-out, a capturing observer records the run's event
    // stream (device 0) for writing afterwards.
    let trace_out = flags.get("trace-out").map(|path| {
        let obs = Observer::capturing();
        micro.set_observer(obs.clone());
        runtime.set_observer(obs.clone());
        (path, obs)
    });
    // The planner warms up on "previous days": the named generator under
    // derived seeds. A recorded trace has no generator, so it serves as
    // its own single day of history.
    let days = if workload.reads_seed() {
        WARMUP_DAYS
    } else {
        1
    };
    let history = warmup_seeds(seed, days).map(|d| workload.build(d));
    // 60 s is the runtime's default re-evaluation period.
    let mut planner = sim_policy_flag(flags).install(&mut runtime, 60.0, &trace, history);
    let opts = SimOptions::default();
    let hooks = Hooks {
        policy: planner.as_mut().map(|p| p as _),
        ..Hooks::default()
    };
    let mut empty = EmptyTimes::new(&micro);
    let result = drive(
        &mut micro,
        &mut runtime,
        &trace.runs(opts.max_dt_s),
        &opts,
        hooks,
        |_, _| {},
        |t, micro, _| {
            empty.note(t, micro);
            ControlFlow::Continue(())
        },
    );
    if let Some((path, obs)) = trace_out {
        write_trace(path, &obs.drain_events())?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "pack:          {pack_name}");
    let _ = writeln!(
        out,
        "trace:         {trace_name} ({:.1} h, mean {:.2} W)",
        trace.duration_s() / 3600.0,
        trace.mean_load_w()
    );
    let _ = writeln!(
        out,
        "battery life:  {:.2} h",
        result.battery_life_s() / 3600.0
    );
    let _ = writeln!(out, "delivered:     {:.1} kJ", result.supplied_j / 1e3);
    let _ = writeln!(
        out,
        "losses:        {:.1} J ({:.2}% of delivered)",
        result.total_loss_j(),
        result.total_loss_j() / result.supplied_j * 100.0
    );
    let _ = writeln!(out, "unserved:      {:.1} J", result.unmet_j);
    if let Some(p) = &planner {
        let _ = writeln!(
            out,
            "plans:         {} committed, final directive {:.3}, forecast mae {:.3} W",
            p.replans(),
            p.current_directive(),
            p.forecast_mae_w()
        );
    }
    for (i, (t, cell)) in empty.at_s.iter().zip(micro.cells()).enumerate() {
        match t {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "battery {i} ({}): empty at {:.1} h",
                    cell.spec().name,
                    s / 3600.0
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "battery {i} ({}): {:.1}% left",
                    cell.spec().name,
                    cell.soc() * 100.0
                );
            }
        }
    }
    emit(&out);
    Ok(ExitCode::SUCCESS)
}

fn cmd_charge(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let watts = flag_checked(
        flags,
        "watts",
        45.0,
        in_range(0.0..=f64::MAX, "a finite, non-negative supply"),
    );
    let directive = flag_checked(flags, "directive", 1.0, ChargeDirective::try_new);
    let target = flag_checked(
        flags,
        "target",
        80.0,
        in_range(0.0..=100.0, "a percentage in [0, 100]"),
    );
    let (pack_name, mut micro) = pack_flag(flags, "tablet-hybrid", 0.0);
    let mut runtime = SdbRuntime::new(micro.battery_count());
    runtime.set_charge_directive(directive);
    runtime.set_update_period(30.0);
    let targets: Vec<f64> = (1..=((target / 5.0) as usize))
        .map(|k| k as f64 * 0.05)
        .collect();
    let times = run_charge_session(
        &mut micro,
        &mut runtime,
        watts,
        &targets,
        12.0 * 3600.0,
        15.0,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pack: {pack_name}, supply: {watts} W, charge directive: {}",
        directive.value()
    );
    let _ = writeln!(out, "{:>9}  {:>10}", "% charged", "minutes");
    for (t, time) in targets.iter().zip(&times) {
        match time {
            Some(s) => {
                let _ = writeln!(out, "{:>9.0}  {:>10.1}", t * 100.0, s / 60.0);
            }
            None => {
                let _ = writeln!(out, "{:>9.0}  {:>10}", t * 100.0, "-");
            }
        }
    }
    emit(&out);
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let soc = flag_checked(
        flags,
        "soc",
        0.8,
        in_range(0.0..=1.0, "a state of charge in [0, 1]"),
    );
    let (_, micro) = pack_flag(flags, "phone", soc);
    let mut out = String::from("QueryBatteryStatus():\n");
    for (i, s) in micro.query_battery_status().iter().enumerate() {
        let _ = writeln!(
            out,
            "  battery {i} ({}): soc {:5.1}%  {:.3} V  {} cycles  {:.2} Ah left{}",
            micro.cells()[i].spec().name,
            s.soc * 100.0,
            s.terminal_v,
            s.cycle_count,
            s.remaining_ah,
            if s.present { "" } else { "  [absent]" },
        );
    }
    let info = acpi::report(&micro);
    let _ = writeln!(out, "\nLegacy ACPI view (single logical battery):");
    let _ = writeln!(
        out,
        "  design capacity:    {:.0} mWh",
        info.design_capacity_mwh
    );
    let _ = writeln!(
        out,
        "  last full capacity: {:.0} mWh",
        info.last_full_capacity_mwh
    );
    let _ = writeln!(
        out,
        "  remaining:          {:.0} mWh ({:.1}%)",
        info.remaining_capacity_mwh, info.percentage
    );
    let _ = writeln!(out, "  voltage:            {:.0} mV", info.voltage_mv);
    let _ = writeln!(out, "  state:              {:?}", info.state);
    emit(&out);
    Ok(ExitCode::SUCCESS)
}

/// Runs a deterministic multi-device fleet simulation and prints the
/// merged report (human-readable by default, canonical JSON with
/// `--json`). The report is a pure function of `--devices`/`--seed`/
/// `--hours`; `--threads` only changes wall-clock time.
fn cmd_fleet(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let devices: usize = flag_or(flags, "devices", 1000);
    let threads: usize = flag_or(
        flags,
        "threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let seed: u64 = flag_or(flags, "seed", 42);
    let hours = flag_checked(
        flags,
        "hours",
        4.0,
        in_range(f64::MIN_POSITIVE..=f64::MAX, "a finite, positive span"),
    );

    let mut spec = fleet::FleetSpec::default_population(devices, seed).with_hours(hours);
    if let Some(policy) = fleet_policy_flag(flags) {
        spec = spec.with_policy(policy);
    }
    let engine = flags.get("engine").map_or(fleet::EngineKind::Scalar, |s| {
        fleet::EngineKind::parse(s).unwrap_or_else(|e| usage_error(&e))
    });
    let opts = fleet::RunOptions {
        engine,
        capture_events: flags.contains_key("trace-out"),
        ..fleet::RunOptions::new(threads)
    };
    let (report, stats, events) =
        fleet::run_fleet(&spec, &opts).map_err(|e| format!("fleet run failed: {e}"))?;

    if let (Some(events), Some(path)) = (&events, flags.get("trace-out")) {
        write_trace(path, events)?;
    }

    if let Some(path) = flags.get("metrics-out") {
        let text = if path.ends_with(".json") {
            stats.registry.to_json()
        } else {
            stats.registry.to_prometheus_text()
        };
        write_file(path, &text, "metrics")?;
    }

    let body = if flags.contains_key("json") {
        report.to_json() + "\n"
    } else {
        format!(
            "{}threads: {}  engine: {}  wall: {:.2} s  throughput: {:.0} devices/sec\n",
            report.render_text(),
            stats.threads,
            engine.name(),
            stats.wall_s,
            stats.devices_per_sec
        )
    };
    write_out(flags, &body, "report")?;
    Ok(ExitCode::SUCCESS)
}

/// Replays a JSONL trace recorded by `--trace-out` through the default
/// health-rule set and prints the findings.
fn cmd_analyze(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let max_findings: usize = flag_or(flags, "max-findings", 20);
    let Some(path) = flags.get("trace") else {
        usage_error(
            "`sdb analyze` needs --trace <jsonl> (record one with `sdb fleet --trace-out`)",
        );
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let analysis = analyze_jsonl(&text).map_err(|e| format!("cannot parse trace `{path}`: {e}"))?;
    let body = if flags.contains_key("json") {
        analysis.to_json() + "\n"
    } else {
        analysis.render_text(max_findings)
    };
    emit(&body);
    Ok(ExitCode::SUCCESS)
}

fn cmd_policy(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let seed: u64 = flag_or(flags, "seed", 42);
    let h2h = sdb::policy::run_head_to_head(seed);
    let body = if flags.contains_key("json") {
        h2h.to_json() + "\n"
    } else {
        h2h.render_text()
    };
    write_out(flags, &body, "policy report")?;
    Ok(ExitCode::SUCCESS)
}

/// Parses a comma-separated axis flag, falling back to `default`.
fn axis_list(flags: &HashMap<String, String>, key: &str, default: &[String]) -> Vec<String> {
    match flags.get(key) {
        Some(s) => s
            .split(',')
            .map(|v| v.trim().to_owned())
            .filter(|v| !v.is_empty())
            .collect(),
        None => default.to_vec(),
    }
}

/// Runs (or resumes) a campaign: the scenario × chemistry × fault ×
/// policy × engine matrix, optionally checkpointed and compared against a
/// committed golden baseline. Exit codes: 0 clean, 1 error or an
/// invariant violation (after the report is written), 2 baseline
/// divergence (after printing the minimized culprit and its repro
/// command), 3 interrupted by `--stop-after` (resume with the same
/// `--checkpoint`).
fn cmd_campaign(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    use sdb::campaign::{self, CampaignOptions, CampaignReport, CampaignRun, CampaignSpec};

    let render: fn(&CampaignReport) -> String =
        match flags.get("format").map_or("text", String::as_str) {
            "text" => CampaignReport::render_text,
            "json" => |r| r.to_json() + "\n",
            "html" => CampaignReport::render_html,
            other => return Err(format!("unknown --format `{other}` (want text|json|html)")),
        };
    let baseline_path = flags.get("baseline");
    if baseline_path.is_none()
        && (flags.contains_key("write-baseline") || flags.contains_key("inject-divergence"))
    {
        return Err("--write-baseline / --inject-divergence require --baseline <path>".into());
    }

    let default = CampaignSpec::default();
    let spec = CampaignSpec {
        scenarios: axis_list(flags, "scenarios", &default.scenarios),
        chemistries: axis_list(flags, "chemistries", &default.chemistries),
        faults: axis_list(flags, "faults", &default.faults),
        policies: axis_list(flags, "policies", &default.policies),
        engines: axis_list(flags, "engines", &default.engines),
        master_seed: flag_or(flags, "seed", default.master_seed),
        hours: flag_or(flags, "hours", default.hours),
        devices_per_cell: flag_or(flags, "devices-per-cell", default.devices_per_cell),
    };
    let cells = spec.cells()?;

    if flags.contains_key("list") {
        let mut out = format!(
            "campaign matrix: {} cells x {} devices (seed {}, {} h horizon)\n",
            cells.len(),
            spec.devices_per_cell,
            spec.master_seed,
            spec.hours
        );
        for c in &cells {
            let _ = writeln!(out, "  [{:>3}] {}", c.index, c.key());
        }
        emit(&out);
        return Ok(ExitCode::SUCCESS);
    }

    let stop_after: Option<usize> = flag(flags, "stop-after");
    let checkpoint = flags.get("checkpoint").map(std::path::PathBuf::from);
    if stop_after.is_some() && checkpoint.is_none() {
        return Err(
            "--stop-after requires --checkpoint: an interrupted run without a \
                    checkpoint saves nothing"
                .to_owned(),
        );
    }
    let opts = CampaignOptions {
        threads: flag_or(flags, "threads", 1),
        checkpoint,
        stop_after,
    };

    let report = match campaign::run_campaign(&spec, &opts)? {
        CampaignRun::Complete(r) => *r,
        CampaignRun::Interrupted { completed, total } => {
            eprintln!(
                "campaign interrupted: {completed}/{total} units checkpointed; \
                 re-run with the same --checkpoint to resume"
            );
            return Ok(ExitCode::from(3));
        }
    };

    write_out(flags, &render(&report), "campaign report")?;

    let Some(baseline_path) = baseline_path else {
        return violations_exit(&report);
    };

    if flags.contains_key("write-baseline") {
        let text = campaign::Baseline::from_report(&report).render();
        let what = format!("golden baseline ({} cells)", report.cells.len());
        write_file(baseline_path, &text, &what)?;
        return violations_exit(&report);
    }

    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let mut baseline = campaign::Baseline::parse(&text)
        .map_err(|e| format!("cannot parse baseline {baseline_path}: {e}"))?;
    if let Some(key) = flags.get("inject-divergence") {
        baseline.inject_divergence(key)?;
        eprintln!("injected a synthetic divergence into baseline cell {key} for self-test");
    }
    let cmp = campaign::compare(&report, &baseline)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline {baseline_path}: {} cells checked, {} new, {} divergent",
        cmp.checked,
        cmp.new_cells.len(),
        cmp.divergences.len()
    );
    for d in &cmp.divergences {
        let _ = writeln!(
            out,
            "  DIVERGED {:<44} expected {:016x} observed {:016x} ({} device{})",
            d.key,
            d.expected,
            d.actual,
            d.devices.len(),
            if d.devices.len() == 1 { "" } else { "s" }
        );
    }
    if cmp.divergences.is_empty() {
        emit(&out);
        return violations_exit(&report);
    }
    if let Some(culprit) = campaign::minimize(&spec, &report, &cmp.divergences, baseline_path) {
        out.push_str(&culprit.render_text());
    }
    emit(&out);
    Ok(ExitCode::from(2))
}

/// The exit status of a campaign whose report is written: failure when
/// any device broke an invariant.
fn violations_exit(report: &sdb::campaign::CampaignReport) -> Result<ExitCode, String> {
    match report.total_violations() {
        0 => Ok(ExitCode::SUCCESS),
        violations => Err(format!("{violations} invariant violations detected")),
    }
}

/// Runs `sdb <cmd>` (`sim`, `fleet`, `campaign` or `policy`, with that
/// command's own flags) under the phase profiler and renders the
/// hierarchical phase tree to `--out`, or to stderr. The command's stdout
/// and exit status are its own, and the profile is written whatever that
/// status is. Call counts (and the tree shape) are deterministic —
/// bit-identical for any `--threads` — while ns timings are sampled
/// wall-clock facts quarantined in a separate section. `--format counts`
/// renders only the deterministic section; `--format flame` emits
/// collapsed stacks valued by deterministic call counts.
fn cmd_profile(args: &[String]) -> Result<ExitCode, String> {
    // The profiler's own flags, each with its value, come before the
    // command name.
    let mut split = 0;
    while args.get(split).is_some_and(|a| a.starts_with("--")) {
        split += if args.get(split + 1).is_some_and(|v| !v.starts_with("--")) {
            2
        } else {
            1
        };
    }
    let own = parse_flags("profile", &args[..split]).unwrap_or_else(|e| usage_error(&e));
    let Some((cmd, rest)) = args[split..].split_first() else {
        usage_error("`sdb profile` needs a command: sim, fleet, campaign, or policy");
    };
    let run = command(cmd)
        .filter(|_| ["sim", "fleet", "campaign", "policy"].contains(&cmd.as_str()))
        .unwrap_or_else(|| {
            usage_error(&format!(
                "`sdb profile` cannot run `{cmd}` (expected sim, fleet, campaign, or policy)"
            ))
        });
    let render: fn(&Snapshot) -> String = match own.get("format").map_or("text", String::as_str) {
        "text" => Snapshot::render_text,
        "counts" => Snapshot::render_counts,
        "json" => |snap| snap.to_json() + "\n",
        "flame" => Snapshot::render_flame,
        other => usage_error(&format!(
            "unknown --format `{other}` (expected text, counts, json, or flame)"
        )),
    };
    let flags = parse_flags(cmd, rest).unwrap_or_else(|e| usage_error(&e));

    sdb::prof::reset();
    sdb::prof::enable();
    // A failed command says so before the profile is written.
    let status = exit_status(run(&flags));
    // Fleet and campaign workers flush their own threads; this picks up
    // whatever the main thread recorded (e.g. the whole `sdb sim` run).
    sdb::prof::flush_thread();
    sdb::prof::disable();
    let body = render(&sdb::prof::snapshot());
    match own.get("out") {
        Some(path) => write_file(path, &body, "profile")?,
        None => eprint!("{body}"),
    }
    Ok(status)
}

/// The subcommand `sdb <name>` runs, if there is one.
fn command(name: &str) -> Option<Command> {
    COMMANDS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
}

/// The exit status of a subcommand's outcome, printing a failure's
/// message.
fn exit_status(outcome: Result<ExitCode, String>) -> ExitCode {
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    if matches!(cmd, "--version" | "-V" | "version") {
        // Build identity baked in by `build.rs` (each field falls back
        // to `unknown` when its probe failed at build time).
        emit(&format!(
            "sdb {} ({}; {})\n",
            env!("CARGO_PKG_VERSION"),
            env!("SDB_GIT_HASH"),
            env!("SDB_RUSTC_VERSION")
        ));
        return ExitCode::SUCCESS;
    }
    exit_status(if cmd == "profile" {
        cmd_profile(&args[1..])
    } else {
        let run = command(cmd).unwrap_or_else(|| usage_error(USAGE));
        run(&parse_flags(cmd, &args[1..]).unwrap_or_else(|e| usage_error(&e)))
    })
}
