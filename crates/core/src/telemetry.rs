//! Time-series telemetry capture for simulation runs.
//!
//! The paper's devices are "instrumented to obtain fine grained (100 Hz)
//! power-draw measurements" (Section 4.3); this module is the equivalent
//! instrumentation for the emulation: a [`Telemetry`] recorder captures
//! per-step rows — power, losses, per-battery SoC — exportable as CSV for
//! plotting. It plugs in two ways: as the `post_step` hook of
//! [`crate::scheduler::drive`], or as an
//! [`sdb_observe::EventSink`] on the event bus (it records the
//! [`ObsEvent::StepSample`] events the microcontroller emits and ignores
//! everything else).

use sdb_emulator::micro::StepReport;
use sdb_observe::{EventSink, ObsEvent};
use std::fmt::Write as _;

/// One recorded step.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRow {
    /// Elapsed simulation time, seconds.
    pub t_s: f64,
    /// Requested load, watts.
    pub load_w: f64,
    /// Load served, watts.
    pub supplied_w: f64,
    /// Total losses this step (circuit + cell heat), watts.
    pub loss_w: f64,
    /// Per-battery state of charge after the step.
    pub soc: Vec<f64>,
    /// Per-battery current (positive = discharge), amps.
    pub current_a: Vec<f64>,
}

/// A telemetry recorder with optional down-sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    rows: Vec<TelemetryRow>,
    /// Minimum spacing between recorded rows, seconds (0 = every step).
    min_interval_s: f64,
    last_t_s: f64,
}

impl Telemetry {
    /// Records every step.
    #[must_use]
    pub fn new() -> Self {
        Self::with_interval(0.0)
    }

    /// Records at most one row per `min_interval_s` of simulated time.
    #[must_use]
    pub fn with_interval(min_interval_s: f64) -> Self {
        Self {
            rows: Vec::new(),
            min_interval_s,
            last_t_s: f64::NEG_INFINITY,
        }
    }

    /// A shared recorder ready to attach to an
    /// [`sdb_observe::Observer`] as an event sink: attach a clone with
    /// `observer.add_sink(Box::new(telemetry.clone()))`, keep the original
    /// for reading the rows afterwards.
    #[must_use]
    pub fn shared(min_interval_s: f64) -> std::sync::Arc<std::sync::Mutex<Self>> {
        std::sync::Arc::new(std::sync::Mutex::new(Self::with_interval(min_interval_s)))
    }

    /// The `post_step` hook to hand to [`crate::scheduler::drive`].
    pub fn observe(&mut self, t_s: f64, report: &StepReport) {
        if t_s - self.last_t_s < self.min_interval_s {
            return;
        }
        self.push_row(
            t_s,
            report.load_w,
            report.supplied_w,
            report.circuit_loss_w + report.cell_heat_w,
            report.batteries.iter().map(|b| b.soc).collect(),
            report.batteries.iter().map(|b| b.current_a).collect(),
        );
    }

    fn push_row(
        &mut self,
        t_s: f64,
        load_w: f64,
        supplied_w: f64,
        loss_w: f64,
        soc: Vec<f64>,
        current_a: Vec<f64>,
    ) {
        if t_s - self.last_t_s < self.min_interval_s {
            return;
        }
        self.last_t_s = t_s;
        self.rows.push(TelemetryRow {
            t_s,
            load_w,
            supplied_w,
            loss_w,
            soc,
            current_a,
        });
    }

    /// Recorded rows.
    #[must_use]
    pub fn rows(&self) -> &[TelemetryRow] {
        &self.rows
    }

    /// Exports the series as CSV
    /// (`t_s,load_w,supplied_w,loss_w,soc_0..,i_0..`). Floats are written
    /// with full round-trip precision.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let n = self.rows.first().map_or(0, |r| r.soc.len());
        // Preallocate: ~24 bytes per float field plus separators covers
        // full round-trip precision without reallocating mid-export.
        let fields = 4 + 2 * n;
        let mut out = String::with_capacity(16 + 8 * fields + self.rows.len() * 24 * fields);
        out.push_str("t_s,load_w,supplied_w,loss_w");
        for i in 0..n {
            let _ = write!(out, ",soc_{i}");
        }
        for i in 0..n {
            let _ = write!(out, ",i_{i}");
        }
        out.push('\n');
        for r in &self.rows {
            let _ = write!(
                out,
                "{:?},{:?},{:?},{:?}",
                r.t_s, r.load_w, r.supplied_w, r.loss_w
            );
            for s in &r.soc {
                let _ = write!(out, ",{s:?}");
            }
            for i in &r.current_a {
                let _ = write!(out, ",{i:?}");
            }
            out.push('\n');
        }
        out
    }
}

impl EventSink for Telemetry {
    /// Records [`ObsEvent::StepSample`] events as telemetry rows; all other
    /// events are ignored.
    fn record(&mut self, t_s: f64, event: &ObsEvent) {
        if let ObsEvent::StepSample {
            load_w,
            supplied_w,
            loss_w,
            soc,
            current_a,
        } = event
        {
            self.push_row(
                t_s,
                *load_w,
                *supplied_w,
                *loss_w,
                soc.clone(),
                current_a.clone(),
            );
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SdbRuntime;
    use crate::scheduler::{drive, Hooks, SimOptions, SimResult};
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;
    use sdb_workloads::traces::Trace;
    use std::ops::ControlFlow;

    fn record(interval_s: f64) -> Telemetry {
        let mut micro = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .battery(BatterySpec::from_chemistry(
                "b",
                Chemistry::Type3CoPower,
                2.0,
            ))
            .build();
        let mut runtime = SdbRuntime::new(2);
        let mut telemetry = Telemetry::with_interval(interval_s);
        let runs = Trace::constant(4.0, 1800.0).runs(60.0);
        let _: SimResult = drive(
            &mut micro,
            &mut runtime,
            &runs,
            &SimOptions::default(),
            Hooks::default(),
            |_, _| {},
            |t, _, report| {
                telemetry.observe(t, report);
                ControlFlow::Continue(())
            },
        );
        telemetry
    }

    #[test]
    fn records_every_step_by_default() {
        let t = record(0.0);
        // 1800 s at 60 s steps = 30 rows.
        assert_eq!(t.rows().len(), 30);
        let first = &t.rows()[0];
        assert_eq!(first.soc.len(), 2);
        assert!((first.load_w - 4.0).abs() < 1e-12);
        // SoC declines monotonically under constant discharge.
        for w in t.rows().windows(2) {
            assert!(w[1].soc[0] <= w[0].soc[0] + 1e-12);
        }
    }

    #[test]
    fn downsampling_respects_interval() {
        let t = record(300.0);
        assert!(t.rows().len() <= 7, "{} rows", t.rows().len());
        assert!(t.rows().len() >= 5);
    }

    #[test]
    fn csv_shape() {
        let t = record(0.0);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, "t_s,load_w,supplied_w,loss_w,soc_0,soc_1,i_0,i_1");
        let cols = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols);
        }
    }

    #[test]
    fn empty_recorder_yields_header_only_csv() {
        let t = Telemetry::new();
        assert_eq!(t.to_csv(), "t_s,load_w,supplied_w,loss_w\n");
    }

    #[test]
    fn csv_floats_round_trip() {
        let mut t = Telemetry::new();
        let third = 1.0 / 3.0;
        t.push_row(third, third, third, third, vec![third], vec![third]);
        let csv = t.to_csv();
        let data = csv.lines().nth(1).unwrap();
        for field in data.split(',') {
            let parsed: f64 = field.parse().unwrap();
            assert_eq!(parsed, third, "field {field} lost precision");
        }
    }

    #[test]
    fn telemetry_works_as_event_sink() {
        use sdb_observe::Observer;
        let mut micro = PackBuilder::new()
            .battery(BatterySpec::from_chemistry(
                "a",
                Chemistry::Type2CoStandard,
                2.0,
            ))
            .build();
        let obs = Observer::new();
        let telemetry = Telemetry::shared(0.0);
        obs.add_sink(Box::new(telemetry.clone()));
        micro.set_observer(obs);
        for _ in 0..5 {
            micro.step(3.0, 0.0, 60.0);
        }
        let t = telemetry.lock().unwrap();
        assert_eq!(t.rows().len(), 5);
        assert_eq!(t.rows()[0].soc.len(), 1);
        assert!((t.rows()[0].load_w - 3.0).abs() < 1e-12);
        // Non-sample events are ignored.
        let mut solo = Telemetry::new();
        solo.record(
            1.0,
            &ObsEvent::BatteryPresence {
                battery: 0,
                present: false,
            },
        );
        assert!(solo.rows().is_empty());
    }
}
