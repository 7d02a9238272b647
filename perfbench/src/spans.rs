//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a public library function: its name,
//! start and end (ns since the recorder was created), the enclosing span
//! and the device it belongs to. Spans nest through an explicit stack, so
//! a layer's *self* time is its duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// Every span name the traced paths record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One fleet device, from pack build to outcome.
    FleetDevice,
    /// `FleetReport::from_outcomes` plus the registry merge before it.
    ReportMerge,
    /// `FleetReport::to_json`.
    FleetRender,
    /// `WorkloadSpec::build`.
    TraceBuild,
    /// `Trace::resampled`.
    Resample,
    /// `PackBuilder::build`.
    PackBuild,
    /// `Microcontroller::step`.
    MicroStep,
    /// One `SoaCohort::advance` call.
    FastForward,
    /// `snapshot().to_bytes()` plus `PackSnapshot::digest`.
    Snapshot,
    /// The scheduler loop of one device.
    Scheduler,
    /// `SdbRuntime::tick`.
    RuntimeTick,
    /// `LookaheadPolicy::plan` plus `SdbRuntime::commit_plan`.
    Plan,
    /// History days plus `HistoryForecaster::from_history`.
    ForecasterBuild,
    /// `FaultPlan::generate`.
    FaultPlan,
    /// `run_cell_device` on a faulted cell (linked chaos runner).
    UnitLinked,
    /// `run_cell_device` on a fault-free greedy SoA cell.
    UnitSoa,
    /// `run_cell_device` on any other cell (scalar loop).
    UnitScalar,
    /// `checkpoint::record_line` plus the append.
    CheckpointEncode,
    /// `checkpoint::parse` of the finished log.
    CheckpointParse,
    /// `CampaignReport::from_records`.
    Fold,
    /// `CampaignReport::to_json`.
    CampaignRender,
}

impl Name {
    /// The dotted name used in metrics and the spans file.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Name::FleetDevice => "fleet.device",
            Name::ReportMerge => "fleet.report_merge",
            Name::FleetRender => "fleet.render",
            Name::TraceBuild => "workloads.trace_build",
            Name::Resample => "workloads.resample",
            Name::PackBuild => "emulator.pack_build",
            Name::MicroStep => "emulator.micro_step",
            Name::FastForward => "emulator.fast_forward",
            Name::Snapshot => "emulator.snapshot",
            Name::Scheduler => "core.scheduler",
            Name::RuntimeTick => "core.runtime_tick",
            Name::Plan => "policy.plan",
            Name::ForecasterBuild => "policy.forecaster_build",
            Name::FaultPlan => "chaos.fault_plan",
            Name::UnitLinked => "campaign.unit_linked",
            Name::UnitSoa => "campaign.unit_soa",
            Name::UnitScalar => "campaign.unit_scalar",
            Name::CheckpointEncode => "campaign.checkpoint_encode",
            Name::CheckpointParse => "campaign.checkpoint_parse",
            Name::Fold => "campaign.fold",
            Name::CampaignRender => "campaign.render",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: Name,
    /// Device (fleet) or unit (campaign) index; `u32::MAX` outside one.
    pub device: u32,
    /// Index of the enclosing span, `u32::MAX` at top level.
    pub parent: u32,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into memory. Nothing is written until [`Recorder::write_tsv`].
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    device: u32,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            device: u32::MAX,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// An empty recorder with room for `spans` spans.
    #[must_use]
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            spans: Vec::with_capacity(spans),
            ..Self::new()
        }
    }

    /// Tags subsequent spans with `device`.
    pub fn set_device(&mut self, device: u64) {
        self.device = u32::try_from(device).unwrap_or(u32::MAX);
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: Name) {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            device: self.device,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn close(&mut self) {
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// All recorded spans, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Summed duration (ns) of every span called `name`.
    #[must_use]
    pub fn total_ns(&self, name: Name) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Summed self time (duration minus direct children) of every span
    /// called `name`.
    #[must_use]
    pub fn self_ns(&self, name: Name) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent device name start_ns end_ns` (`-` for none).
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "id\tparent\tdevice\tname\tstart_ns\tend_ns")?;
        let mut line = String::with_capacity(96);
        let opt = |v: u32, line: &mut String| {
            if v == u32::MAX {
                line.push('-');
            } else {
                let _ = write!(line, "{v}");
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(line, "{id}\t");
            opt(s.parent, &mut line);
            line.push('\t');
            opt(s.device, &mut line);
            let _ = writeln!(line, "\t{}\t{}\t{}", s.name.as_str(), s.start_ns, s.end_ns);
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Percentile of span durations (`p` in `[0, 1]`); 0 when empty.
///
/// Durations are whole nanoseconds, so a bare order statistic of a
/// ~400 ns call repeats exactly from run to run. The estimate is instead
/// the mean of the order statistics within ±0.5 % of rank (at least two
/// neighbours each side) around the nearest-rank position, which keeps
/// the sub-nanosecond digits the sample carries.
#[must_use]
pub fn percentile(values: &mut [u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let half = (n / 200).max(2);
    let window = &values[k.saturating_sub(half)..=(k + half).min(n - 1)];
    window.iter().map(|&v| v as f64).sum::<f64>() / window.len() as f64
}

/// Nearest-rank quantile of `values` (`p` in `[0, 1]`); 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[k - 1]
}

/// Median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
