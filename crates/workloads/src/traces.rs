//! Seeded workload trace generators.
//!
//! A trace is a sequence of `(duration, load power, external power)`
//! segments — the same shape as the paper's 100 Hz power-meter captures,
//! at coarser granularity. All generators are seeded and deterministic so
//! experiments are repeatable ("repeatable experiments that helped us in
//! debugging SDB policies", Section 4.2).

use crate::device::{Activity, DeviceClass, DevicePower};
use sdb_rng::DetRng;

/// One constant-power segment of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Segment duration, seconds.
    pub dur_s: f64,
    /// System load, watts.
    pub load_w: f64,
    /// External supply power available, watts (0 = unplugged).
    pub external_w: f64,
}

/// A workload trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A single constant-load segment.
    #[must_use]
    pub fn constant(load_w: f64, dur_s: f64) -> Self {
        let mut t = Self::new();
        t.push(load_w, 0.0, dur_s);
        t
    }

    /// Appends a segment.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn push(&mut self, load_w: f64, external_w: f64, dur_s: f64) {
        assert!(load_w.is_finite() && load_w >= 0.0, "bad load: {load_w}");
        assert!(
            external_w.is_finite() && external_w >= 0.0,
            "bad external: {external_w}"
        );
        assert!(dur_s.is_finite() && dur_s > 0.0, "bad duration: {dur_s}");
        self.points.push(TracePoint {
            dur_s,
            load_w,
            external_w,
        });
    }

    /// Appends another trace.
    pub fn extend(&mut self, other: &Trace) {
        self.points.extend_from_slice(&other.points);
    }

    /// The segments.
    #[must_use]
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Total duration, seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.points.iter().map(|p| p.dur_s).sum()
    }

    /// Total load energy, joules.
    #[must_use]
    pub fn load_energy_j(&self) -> f64 {
        self.points.iter().map(|p| p.load_w * p.dur_s).sum()
    }

    /// Mean load power, watts.
    #[must_use]
    pub fn mean_load_w(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.load_energy_j() / d
        } else {
            0.0
        }
    }

    /// Peak load power, watts.
    #[must_use]
    pub fn peak_load_w(&self) -> f64 {
        self.points.iter().map(|p| p.load_w).fold(0.0, f64::max)
    }

    /// Serializes the trace as CSV (`dur_s,load_w,external_w` with a
    /// header row) — the interchange format for captured power-meter
    /// traces.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("dur_s,load_w,external_w\n");
        for p in &self.points {
            out.push_str(&format!("{},{},{}\n", p.dur_s, p.load_w, p.external_w));
        }
        out
    }

    /// Parses a trace from the CSV format written by [`Trace::to_csv`].
    /// The `external_w` column is optional (defaults to 0); a header row
    /// is skipped if present; blank lines and `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_csv(text: &str) -> Result<Trace, String> {
        let mut t = Trace::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Header row: the first field of the first line is not numeric.
            if lineno == 0
                && line
                    .split(',')
                    .next()
                    .is_some_and(|f| f.trim().parse::<f64>().is_err())
            {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() < 2 || fields.len() > 3 {
                return Err(format!(
                    "line {}: expected 2–3 fields, got {}",
                    lineno + 1,
                    fields.len()
                ));
            }
            let parse = |s: &str, name: &str| -> Result<f64, String> {
                s.parse::<f64>()
                    .map_err(|_| format!("line {}: bad {name} `{s}`", lineno + 1))
            };
            let dur_s = parse(fields[0], "dur_s")?;
            let load_w = parse(fields[1], "load_w")?;
            let external_w = if fields.len() == 3 {
                parse(fields[2], "external_w")?
            } else {
                0.0
            };
            if !(dur_s.is_finite()
                && dur_s > 0.0
                && load_w.is_finite()
                && load_w >= 0.0
                && external_w.is_finite()
                && external_w >= 0.0)
            {
                return Err(format!("line {}: values out of range", lineno + 1));
            }
            t.push(load_w, external_w, dur_s);
        }
        if t.points.is_empty() {
            return Err("trace contains no segments".to_owned());
        }
        Ok(t)
    }

    /// Splits every segment into pieces no longer than `max_dt_s`
    /// (simulation granularity control) and returns them run-length
    /// encoded: maximal runs of bit-identical pieces as `(piece, count)`
    /// pairs. A `-0.0` external power becomes `0.0`, so two adjacent
    /// pieces with no external power are in one run exactly when their
    /// load and duration bits agree. O(segments): a quiet day of 1,440
    /// equal minutes is one run, found without visiting its pieces.
    ///
    /// # Panics
    ///
    /// Panics unless `max_dt_s` is positive.
    #[must_use]
    pub fn runs(&self, max_dt_s: f64) -> Vec<(TracePoint, usize)> {
        assert!(max_dt_s > 0.0);
        // A segment splits into full `max_dt_s` pieces and at most one
        // shorter remainder, so it opens at most two runs: reserving that
        // bound allocates once.
        let bound = self
            .points
            .iter()
            .map(|p| 1 + usize::from(p.dur_s > max_dt_s))
            .sum();
        let mut out: Vec<(TracePoint, usize)> = Vec::with_capacity(bound);
        let mut add = |piece: TracePoint, count: usize| match out.last_mut() {
            Some((q, n))
                if q.dur_s.to_bits() == piece.dur_s.to_bits()
                    && q.load_w.to_bits() == piece.load_w.to_bits()
                    && q.external_w.to_bits() == piece.external_w.to_bits() =>
            {
                *n += count;
            }
            _ => out.push((piece, count)),
        };
        for p in &self.points {
            // `push` checked the segment; adding 0.0 turns -0.0 into 0.0.
            let piece = |dur_s| TracePoint {
                dur_s,
                load_w: p.load_w,
                external_w: p.external_w + 0.0,
            };
            let (full, rest) = split(p.dur_s, max_dt_s);
            if full > 0 {
                add(piece(max_dt_s), full);
            }
            if rest > 1e-9 {
                add(piece(rest), 1);
            }
        }
        out
    }

    /// [`Trace::runs`] expanded: every piece as its own segment.
    #[must_use]
    pub fn resampled(&self, max_dt_s: f64) -> Trace {
        let runs = self.runs(max_dt_s);
        let mut points = Vec::with_capacity(runs.iter().map(|&(_, n)| n).sum());
        for &(p, n) in &runs {
            points.extend(std::iter::repeat_n(p, n));
        }
        Trace { points }
    }
}

/// How resampling cuts `dur_s` into pieces no longer than `max_dt_s`:
/// `(full, rest)` for `full` pieces of `max_dt_s`, then one of `rest`
/// seconds if `rest` exceeds 1 ns. Bit for bit the answer of the loop
/// `while remaining > 1e-9 { dt = remaining.min(max_dt_s); remaining -= dt }`.
/// When both durations are integer multiples of one power of two `q`
/// and `dur_s / q < 2^53`, every value the loop visits is such a
/// multiple below `2^53 q`, so each subtraction is exact and integer
/// division finds the count in O(1); otherwise the loop runs.
fn split(dur_s: f64, max_dt_s: f64) -> (usize, f64) {
    /// `(n, e)` with `x = n * 2^e`, `n` odd (`x` finite and positive).
    fn odd_scaled(x: f64) -> (u64, i32) {
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1 << 52) - 1);
        let (n, e) = if biased == 0 {
            (frac, -1074)
        } else {
            (frac | (1 << 52), biased - 1075)
        };
        let tz = n.trailing_zeros();
        (n >> tz, e + tz as i32)
    }
    if dur_s < max_dt_s {
        return (0, dur_s);
    }
    if max_dt_s > 1e-9 {
        if dur_s == max_dt_s {
            return (1, 0.0);
        }
        let (nd, ed) = odd_scaled(dur_s);
        let (nm, em) = odd_scaled(max_dt_s);
        let e = ed.min(em);
        let (shift_d, shift_m) = ((ed - e) as u32, (em - e) as u32);
        if 64 - nd.leading_zeros() + shift_d <= 53 {
            // `max_dt_s <= dur_s`, so its multiple of `q` fits too; the
            // product and difference below are exact for the same reason.
            let full = (nd << shift_d) / (nm << shift_m);
            return (full as usize, dur_s - full as f64 * max_dt_s);
        }
    }
    let mut full = 0;
    let mut remaining = dur_s;
    while remaining > 1e-9 && remaining >= max_dt_s {
        full += 1;
        remaining -= max_dt_s;
    }
    (full, remaining)
}

/// The Figure 13 watch day. Trace hour 0 is the user's wake-up: hours
/// 0–16 are the waking day of message checking (with the one-hour GPS run
/// starting at `run_hour`, the paper's hour 9), hours 16–24 are the idle
/// night. Pass `None` for the counterfactual day without a run.
#[must_use]
pub fn watch_day(seed: u64, run_hour: Option<f64>) -> Trace {
    let dev = DevicePower::for_class(DeviceClass::Watch);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut t = Trace::new();
    // Minute-granularity day.
    for minute in 0..(24 * 60) {
        let hour = minute as f64 / 60.0;
        let in_run = run_hour.is_some_and(|rh| hour >= rh && hour < rh + 1.0);
        let load = if in_run {
            // GPS tracking with occasional screen glances.
            dev.draw_w(Activity::GpsTracking) * rng.f64_range(0.9, 1.25)
        } else if hour >= 16.0 {
            // Night: idle with rare sync spikes.
            if rng.chance(0.02) {
                dev.draw_w(Activity::Network) * 0.6
            } else {
                dev.draw_w(Activity::Idle)
            }
        } else {
            // Waking day: message checking — mostly idle-with-glances,
            // frequent short interactive bursts.
            if rng.chance(0.45) {
                dev.draw_w(Activity::Interactive) * rng.f64_range(0.7, 1.3)
            } else {
                dev.draw_w(Activity::Idle) * rng.f64_range(1.0, 2.0)
            }
        };
        t.push(load, 0.0, 60.0);
    }
    t
}

/// A typical smartphone day (the paper's Snapdragon 800 platform): night
/// idle, a navigation burst on the morning commute, mixed
/// interactive/network use through the day, and streaming in the evening.
/// Trace hour 0 is midnight.
#[must_use]
pub fn phone_day(seed: u64) -> Trace {
    let dev = DevicePower::for_class(DeviceClass::Phone);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut t = Trace::new();
    for minute in 0..(24 * 60) {
        let hour = minute as f64 / 60.0;
        let load = if !(7.0..23.5).contains(&hour) {
            // Night: idle with rare sync wakes.
            if rng.chance(0.03) {
                dev.draw_w(Activity::Network) * 0.5
            } else {
                dev.draw_w(Activity::Idle)
            }
        } else if (8.0..8.5).contains(&hour) || (17.5..18.0).contains(&hour) {
            // Commutes: turn-by-turn navigation.
            dev.draw_w(Activity::GpsTracking) * rng.f64_range(0.9, 1.2)
        } else if (20.0..22.0).contains(&hour) {
            // Evening streaming (radio duty-cycled, display dimmed).
            dev.draw_w(Activity::Network) * rng.f64_range(0.55, 0.75)
        } else if rng.chance(0.22) {
            // Pocket time with periodic checks.
            dev.draw_w(Activity::Interactive) * rng.f64_range(0.7, 1.3)
        } else {
            dev.draw_w(Activity::Idle) * rng.f64_range(1.0, 2.5)
        };
        t.push(load, 0.0, 60.0);
    }
    t
}

/// Tablet mixed-use session alternating the given activities, with jitter.
#[must_use]
pub fn tablet_session(seed: u64, activities: &[Activity], segment_s: f64, total_s: f64) -> Trace {
    assert!(!activities.is_empty(), "need at least one activity");
    let dev = DevicePower::for_class(DeviceClass::Tablet);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut t = Trace::new();
    let mut elapsed = 0.0;
    let mut idx = 0usize;
    while elapsed < total_s {
        let dur = segment_s.min(total_s - elapsed);
        let base = dev.draw_w(activities[idx % activities.len()]);
        t.push(base * rng.f64_range(0.85, 1.15), 0.0, dur);
        elapsed += dur;
        idx += 1;
    }
    t
}

/// The named 2-in-1 workloads of Figure 14's x-axis.
#[must_use]
pub fn two_in_one_workloads(seed: u64) -> Vec<(&'static str, Trace)> {
    let mk = |s: u64, acts: &[Activity]| tablet_session(seed ^ s, acts, 300.0, 4.0 * 3600.0);
    vec![
        ("Email", mk(1, &[Activity::Network, Activity::Idle])),
        (
            "Browsing",
            mk(2, &[Activity::Network, Activity::Interactive]),
        ),
        ("Office", mk(3, &[Activity::Interactive, Activity::Idle])),
        (
            "Video",
            mk(
                4,
                &[Activity::Network, Activity::Compute, Activity::Network],
            ),
        ),
        (
            "Development",
            mk(5, &[Activity::Compute, Activity::Interactive]),
        ),
        ("Gaming", mk(6, &[Activity::Compute])),
        (
            "Conferencing",
            mk(
                7,
                &[Activity::Network, Activity::Network, Activity::Interactive],
            ),
        ),
        (
            "Mixed",
            mk(
                8,
                &[
                    Activity::Network,
                    Activity::Compute,
                    Activity::Interactive,
                    Activity::Idle,
                ],
            ),
        ),
    ]
}

/// A charging session as one trace run: the device idles on `external_w`
/// of supply in `n` points of `dt_s`, until they span `max_s` (the last
/// may run past it). As in [`Trace::runs`], a `-0.0` external power
/// becomes `0.0`.
///
/// # Panics
///
/// Panics unless `external_w` is finite and non-negative, `dt_s` finite
/// and positive, and `max_s` finite.
#[must_use]
pub fn charging_session(external_w: f64, max_s: f64, dt_s: f64) -> (TracePoint, usize) {
    assert!(max_s.is_finite(), "bad session length: {max_s}");
    assert!(
        external_w.is_finite() && external_w >= 0.0,
        "bad external: {external_w}"
    );
    assert!(dt_s.is_finite() && dt_s > 0.0, "bad duration: {dt_s}");
    // Sum as a point-by-point build would: `max_s / dt_s` can round to a
    // different count than the accumulated `elapsed` reaches.
    let mut n = 0;
    let mut elapsed = 0.0;
    while elapsed < max_s {
        n += 1;
        elapsed += dt_s;
    }
    let point = TracePoint {
        dur_s: dt_s,
        load_w: 0.0,
        external_w: external_w + 0.0,
    };
    (point, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_session_is_the_one_run_of_its_point_by_point_trace() {
        let cases = [
            (45.0, 12.0 * 3600.0, 15.0),
            (-0.0, 100.0, 0.1),
            (5.0, 1.0, 0.3),
            (2.0, 7.0, 7.0),
            (1.0, 0.0, 1.0),
        ];
        for (external_w, max_s, dt_s) in cases {
            let mut trace = Trace::new();
            let mut elapsed = 0.0;
            while elapsed < max_s {
                trace.push(0.0, external_w, dt_s);
                elapsed += dt_s;
            }
            let (p, n) = charging_session(external_w, max_s, dt_s);
            let bits = |p: &TracePoint| [p.dur_s, p.load_w, p.external_w].map(f64::to_bits);
            match trace.runs(dt_s).as_slice() {
                [] => assert_eq!(n, 0, "{max_s} s at {dt_s} s"),
                [(q, m)] => assert_eq!((bits(&p), n), (bits(q), *m), "{max_s} s at {dt_s} s"),
                more => panic!("{} runs for {max_s} s at {dt_s} s", more.len()),
            }
        }
    }

    #[test]
    fn watch_day_shape() {
        let t = watch_day(7, Some(9.0));
        assert_eq!(t.points().len(), 24 * 60);
        assert!((t.duration_s() - 86_400.0).abs() < 1e-6);
        // The day must demand slightly more than the 2×200 mAh pack
        // (≈1.5 Wh) holds — the scenario's point is that the pack dies
        // before the day ends, with the policy deciding *when*.
        let wh = t.load_energy_j() / 3600.0;
        assert!(wh > 1.3 && wh < 2.2, "day = {wh} Wh");
    }

    #[test]
    fn run_hour_is_the_peak() {
        let t = watch_day(7, Some(9.0));
        let pts = t.points();
        let hour_energy = |h: usize| -> f64 {
            pts[h * 60..(h + 1) * 60]
                .iter()
                .map(|p| p.load_w * p.dur_s)
                .sum()
        };
        let run = hour_energy(9);
        for h in 0..24 {
            if h != 9 {
                assert!(run > hour_energy(h), "hour {h} out-draws the run");
            }
        }
    }

    #[test]
    fn no_run_day_is_cheaper() {
        let with = watch_day(7, Some(9.0));
        let without = watch_day(7, None);
        assert!(with.load_energy_j() > without.load_energy_j());
    }

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(watch_day(42, Some(9.0)), watch_day(42, Some(9.0)));
        assert_ne!(watch_day(42, Some(9.0)), watch_day(43, Some(9.0)));
    }

    #[test]
    fn phone_day_fits_a_phone_battery() {
        let t = phone_day(11);
        assert!((t.duration_s() - 86_400.0).abs() < 1e-6);
        // A heavy-use day on a 3–4 Ah phone (11–15 Wh): uses most of it.
        let wh = t.load_energy_j() / 3600.0;
        assert!(wh > 6.0 && wh < 14.0, "day = {wh} Wh");
        // Commute navigation is the daytime peak.
        let pts = t.points();
        let hour_mean = |h: f64| -> f64 {
            let s = (h * 60.0) as usize;
            pts[s..s + 30].iter().map(|p| p.load_w).sum::<f64>() / 30.0
        };
        assert!(hour_mean(8.0) > 2.0 * hour_mean(14.0));
        assert!(hour_mean(3.0) < 0.2, "night is quiet");
    }

    #[test]
    fn tablet_session_respects_total() {
        let t = tablet_session(1, &[Activity::Network, Activity::Compute], 300.0, 3600.0);
        assert!((t.duration_s() - 3600.0).abs() < 1e-6);
        assert!(t.mean_load_w() > 3.0 && t.mean_load_w() < 20.0);
    }

    #[test]
    fn two_in_one_workloads_vary() {
        let wl = two_in_one_workloads(9);
        assert_eq!(wl.len(), 8);
        let gaming = wl.iter().find(|(n, _)| *n == "Gaming").unwrap();
        let email = wl.iter().find(|(n, _)| *n == "Email").unwrap();
        assert!(gaming.1.mean_load_w() > 1.5 * email.1.mean_load_w());
    }

    #[test]
    fn resample_preserves_energy_and_duration() {
        let t = Trace::constant(5.0, 1000.0);
        let r = t.resampled(60.0);
        assert!((r.duration_s() - 1000.0).abs() < 1e-6);
        assert!((r.load_energy_j() - 5000.0).abs() < 1e-6);
        assert!(r.points().iter().all(|p| p.dur_s <= 60.0 + 1e-9));
    }

    #[test]
    fn split_matches_the_subtraction_loop() {
        fn by_loop(dur_s: f64, max_dt_s: f64) -> (usize, u64) {
            let mut full = 0;
            let mut rest = 0.0f64;
            let mut remaining = dur_s;
            while remaining > 1e-9 {
                let dt = remaining.min(max_dt_s);
                if dt.to_bits() == max_dt_s.to_bits() {
                    full += 1;
                } else {
                    rest = dt;
                }
                remaining -= dt;
            }
            (full, rest.to_bits())
        }
        let mut rng = DetRng::seed_from_u64(0x5b1d);
        let steps = [60.0, 45.0, 7.5, 30.0, 0.1, 1.0 / 3.0, 1e-3, 5e-10, 86_400.0];
        let mut cases: Vec<(f64, f64)> = Vec::new();
        for &m in &steps {
            for whole in [0.0, 1.0, 2.0, 59.0, 1_440.0, 100_000.0] {
                cases.push((whole * m, m));
                cases.push((whole * m + rng.f64_range(0.0, m), m));
                cases.push((whole * m + rng.f64_range(0.0, 1e-9), m));
            }
            cases.push((86_400.0, m));
            cases.push((rng.f64_range(0.0, 1e4), m));
        }
        for (dur_s, m) in cases {
            if dur_s <= 0.0 || dur_s / m > 1e7 {
                continue;
            }
            let (full, rest) = split(dur_s, m);
            let rest_bits = if rest > 1e-9 { rest.to_bits() } else { 0 };
            assert_eq!((full, rest_bits), by_loop(dur_s, m), "{dur_s} / {m}");
        }
    }

    #[test]
    fn trace_stats() {
        let mut t = Trace::new();
        t.push(2.0, 0.0, 10.0);
        t.push(4.0, 0.0, 10.0);
        assert!((t.mean_load_w() - 3.0).abs() < 1e-12);
        assert_eq!(t.peak_load_w(), 4.0);
        assert!((t.load_energy_j() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn csv_roundtrip() {
        let original = watch_day(3, Some(9.0));
        let csv = original.to_csv();
        let parsed = Trace::from_csv(&csv).unwrap();
        assert_eq!(parsed.points().len(), original.points().len());
        assert!((parsed.load_energy_j() - original.load_energy_j()).abs() < 1e-6);
    }

    #[test]
    fn csv_parsing_flexibility() {
        let t =
            Trace::from_csv("# captured 100 Hz, downsampled\n60, 2.5\n30, 1.0, 5.0\n\n").unwrap();
        assert_eq!(t.points().len(), 2);
        assert_eq!(t.points()[0].external_w, 0.0);
        assert_eq!(t.points()[1].external_w, 5.0);
    }

    #[test]
    fn csv_parse_errors() {
        assert!(Trace::from_csv("").is_err());
        assert!(Trace::from_csv("dur_s,load_w\n").is_err());
        assert!(Trace::from_csv("60,abc")
            .unwrap_err()
            .contains("bad load_w"));
        assert!(Trace::from_csv("60").unwrap_err().contains("expected 2"));
        assert!(Trace::from_csv("-1,2.0")
            .unwrap_err()
            .contains("out of range"));
        assert!(Trace::from_csv("1,2,3,4")
            .unwrap_err()
            .contains("expected 2"));
        // `f64::from_str` accepts `inf` and `NaN`; none may reach `push`.
        for row in ["60,inf", "60,1.0,inf", "inf,1.0", "60,NaN", "60,1.0,NaN"] {
            assert!(
                Trace::from_csv(row).unwrap_err().contains("out of range"),
                "{row}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn rejects_zero_duration() {
        let mut t = Trace::new();
        t.push(1.0, 0.0, 0.0);
    }
}
