//! Offline-optimal discharge planning by dynamic programming.
//!
//! Section 3.3 observes that the instantaneously-optimal RBL algorithms
//! "are not globally optimal. Across the length of an entire workload,
//! these algorithms might not actually maximize battery lifetime ... if we
//! had knowledge of the future workload, we could improve upon the above
//! instantaneously-optimal algorithms by making temporarily sub-optimal
//! choices from which the system can profit later." The paper leaves the
//! algorithmics open; this module makes the claim quantitative.
//!
//! [`plan`] computes, for a **two-battery** pack and a *known* load trace,
//! the discharge-split schedule that maximizes survived time, by backward
//! dynamic programming over a discretized `(SoC₀, SoC₁)` state grid. The
//! result upper-bounds every online policy (at the chosen discretization),
//! so the gap between a heuristic and the plan measures how much future
//! knowledge is worth — the number behind Figure 13's story.

use sdb_battery_model::spec::BatterySpec;
use sdb_workloads::traces::Trace;

/// Per-cell quantities the planner needs (a static snapshot of a
/// [`BatterySpec`]).
#[derive(Debug, Clone)]
pub struct CellParams {
    ocp: sdb_battery_model::curves::Curve,
    dcir: sdb_battery_model::curves::Curve,
    concentration_r_ohm: f64,
    capacity_ah: f64,
    max_discharge_a: f64,
}

impl CellParams {
    /// Extracts planner parameters from a spec.
    #[must_use]
    pub fn from_spec(spec: &BatterySpec) -> Self {
        Self {
            ocp: spec.ocp.clone(),
            dcir: spec.dcir.clone(),
            concentration_r_ohm: spec.concentration_r_ohm,
            capacity_ah: spec.capacity_ah,
            max_discharge_a: spec.max_discharge_a,
        }
    }

    /// SoC decrease caused by delivering `power_w` at the terminals for
    /// `dur_s`, or `None` if infeasible at this SoC (power beyond the
    /// quadratic maximum or the current limit).
    fn dsoc_for(&self, soc: f64, power_w: f64, dur_s: f64) -> Option<f64> {
        if power_w <= 0.0 {
            return Some(0.0);
        }
        let ocv = self.ocp.eval(soc);
        let r = self.dcir.eval(soc) + self.concentration_r_ohm;
        let disc = ocv * ocv - 4.0 * r * power_w;
        if disc < 0.0 {
            return None;
        }
        let i = (ocv - disc.sqrt()) / (2.0 * r);
        if i > self.max_discharge_a {
            return None;
        }
        Some(i * dur_s / 3600.0 / self.capacity_ah)
    }
}

/// Planner configuration: discretization resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Grid points per battery's SoC axis (≥ 2).
    pub(crate) soc_levels: usize,
    /// Discrete split actions (shares of battery 0 from 0 to 1, ≥ 2).
    pub(crate) split_levels: usize,
    /// Trace resampling granularity, seconds.
    pub segment_s: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            soc_levels: 61,
            split_levels: 11,
            segment_s: 900.0,
        }
    }
}

/// The planner's output.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResult {
    /// Survived time under the optimal schedule, seconds.
    pub life_s: f64,
    /// Total trace duration, seconds.
    pub(crate) trace_s: f64,
    /// Battery-0 share chosen per segment while alive.
    pub schedule: Vec<f64>,
}

/// Computes the offline-optimal discharge split schedule for a two-battery
/// pack over a known trace, maximizing survived time (ties broken toward
/// more remaining charge).
///
/// # Panics
///
/// Panics on degenerate configs (fewer than 2 levels, non-positive
/// segment length).
#[must_use]
pub fn plan(cells: &[CellParams; 2], trace: &Trace, config: &PlanConfig) -> PlanResult {
    assert!(config.soc_levels >= 2 && config.split_levels >= 2);
    assert!(config.segment_s > 0.0);
    let n = config.soc_levels;
    let grid = |idx: usize| -> f64 { idx as f64 / (n - 1) as f64 };
    let segments: Vec<(f64, f64)> = coalesce(trace, config.segment_s);
    let t_count = segments.len();

    // Value = survivable seconds downstream + ε·(remaining SoC) tiebreak,
    // looked up by bilinear interpolation so grid quantization does not
    // leak charge between segments.
    const TIE_EPS: f64 = 1e-3;
    let interp = |value: &[f64], soc0: f64, soc1: f64| -> f64 {
        let pos0 = soc0.clamp(0.0, 1.0) * (n - 1) as f64;
        let pos1 = soc1.clamp(0.0, 1.0) * (n - 1) as f64;
        let (i0, i1) = (pos0.floor() as usize, pos1.floor() as usize);
        let (j0, j1) = ((i0 + 1).min(n - 1), (i1 + 1).min(n - 1));
        let (f0, f1) = (pos0 - i0 as f64, pos1 - i1 as f64);
        let v = |a: usize, b: usize| value[a * n + b];
        v(i0, i1) * (1.0 - f0) * (1.0 - f1)
            + v(j0, i1) * f0 * (1.0 - f1)
            + v(i0, j1) * (1.0 - f0) * f1
            + v(j0, j1) * f0 * f1
    };
    // Evaluates one action from a continuous state; returns the next
    // state if feasible.
    let try_action =
        |x: f64, soc0: f64, soc1: f64, load_w: f64, dur_s: f64| -> Option<(f64, f64)> {
            let p0 = x * load_w;
            let p1 = (1.0 - x) * load_w;
            let d0 = cells[0].dsoc_for(soc0, p0, dur_s)?;
            let d1 = cells[1].dsoc_for(soc1, p1, dur_s)?;
            if d0 > soc0 + 1e-12 || d1 > soc1 + 1e-12 {
                return None; // would empty mid-segment
            }
            Some((soc0 - d0, soc1 - d1))
        };

    // Backward induction, storing every layer's value table for the
    // forward extraction (≤ ~100 segments × 61² grid ≈ 372k floats —
    // cheap).
    let mut layers: Vec<Vec<f64>> = Vec::with_capacity(t_count + 1);
    layers.push(
        (0..n * n)
            .map(|k| TIE_EPS * (grid(k / n) + grid(k % n)))
            .collect(),
    );
    for t in (0..t_count).rev() {
        let (dur_s, load_w) = segments[t];
        let prev = layers.last().expect("at least the terminal layer");
        let mut table = vec![0.0f64; n * n];
        for s0 in 0..n {
            for s1 in 0..n {
                let soc0 = grid(s0);
                let soc1 = grid(s1);
                let mut best = TIE_EPS * (soc0 + soc1);
                for a in 0..config.split_levels {
                    let x = a as f64 / (config.split_levels - 1) as f64;
                    if let Some((ns0, ns1)) = try_action(x, soc0, soc1, load_w, dur_s) {
                        let cand = dur_s + interp(prev, ns0, ns1);
                        if cand > best {
                            best = cand;
                        }
                    }
                }
                table[s0 * n + s1] = best;
            }
        }
        layers.push(table);
    }
    // layers[k] is the value at the start of segment t_count - k.

    let mut soc0 = 1.0;
    let mut soc1 = 1.0;
    let mut schedule = Vec::new();
    let mut life_s = 0.0;
    for (t, &(dur_s, load_w)) in segments.iter().enumerate() {
        let downstream = &layers[t_count - t - 1];
        let mut best_x = None;
        let mut best_v = f64::NEG_INFINITY;
        for a in 0..config.split_levels {
            let x = a as f64 / (config.split_levels - 1) as f64;
            if let Some((ns0, ns1)) = try_action(x, soc0, soc1, load_w, dur_s) {
                let cand = dur_s + interp(downstream, ns0, ns1);
                if cand > best_v {
                    best_v = cand;
                    best_x = Some((x, ns0, ns1));
                }
            }
        }
        let Some((x, ns0, ns1)) = best_x else {
            break; // brownout
        };
        schedule.push(x);
        life_s += dur_s;
        soc0 = ns0;
        soc1 = ns1;
    }
    PlanResult {
        life_s,
        trace_s: trace.duration_s(),
        schedule,
    }
}

/// Coalesces a trace into fixed-width segments of mean power (the DP's
/// time discretization; distinct from [`Trace::resampled`], which only
/// splits).
fn coalesce(trace: &Trace, segment_s: f64) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut acc_e = 0.0;
    let mut acc_t = 0.0;
    for p in trace.points() {
        let mut remaining = p.dur_s;
        while remaining > 1e-9 {
            let take = remaining.min(segment_s - acc_t);
            acc_e += p.load_w * take;
            acc_t += take;
            remaining -= take;
            if acc_t >= segment_s - 1e-9 {
                out.push((acc_t, acc_e / acc_t));
                acc_e = 0.0;
                acc_t = 0.0;
            }
        }
    }
    if acc_t > 1e-9 {
        out.push((acc_t, acc_e / acc_t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::watch::{watch_scenario, WatchPolicy};
    use sdb_battery_model::library;
    use sdb_workloads::traces::watch_day;

    fn watch_cells() -> [CellParams; 2] {
        [
            CellParams::from_spec(library::watch_li_ion().spec()),
            CellParams::from_spec(library::watch_bendable().spec()),
        ]
    }

    #[test]
    fn trivial_trace_survives_with_any_split() {
        let cells = watch_cells();
        let trace = Trace::constant(0.05, 3600.0);
        let result = plan(&cells, &trace, &PlanConfig::default());
        assert!(result.life_s >= result.trace_s - 1e-9);
        assert_eq!(result.schedule.len(), 4);
    }

    #[test]
    fn impossible_load_dies_immediately() {
        let cells = watch_cells();
        // 50 W from two 200 mAh watch cells: infeasible at every split.
        let trace = Trace::constant(50.0, 3600.0);
        let result = plan(&cells, &trace, &PlanConfig::default());
        assert_eq!(result.life_s, 0.0);
        assert!(result.schedule.is_empty());
    }

    #[test]
    fn planner_upper_bounds_online_policies_on_the_watch_day() {
        let cells = watch_cells();
        let trace = watch_day(13, Some(9.0));
        let result = plan(&cells, &trace, &PlanConfig::default());
        // The online policies (which cannot see the future):
        let p1 = watch_scenario(WatchPolicy::MinimizeInstantaneousLosses, Some(9.0), 13);
        let p2 = watch_scenario(WatchPolicy::PreserveLiIon, Some(9.0), 13);
        // Discretization costs the planner a little; a small tolerance
        // keeps the comparison honest.
        let tol = 0.5 * 3600.0;
        assert!(
            result.life_s + tol >= p2.life_s,
            "plan {:.1} h vs preserve {:.1} h",
            result.life_s / 3600.0,
            p2.life_s / 3600.0
        );
        assert!(
            result.life_s > p1.life_s,
            "plan must beat the greedy policy"
        );
    }

    #[test]
    fn planner_preserves_the_efficient_cell_before_the_run() {
        let cells = watch_cells();
        let trace = watch_day(13, Some(9.0));
        let result = plan(&cells, &trace, &PlanConfig::default());
        // Mean battery-0 (Li-ion) share before the run vs during it: the
        // plan must hold the Li-ion back early and spend it in the run.
        let seg_per_h = (3600.0 / PlanConfig::default().segment_s) as usize;
        let before: f64 =
            result.schedule[..8 * seg_per_h].iter().sum::<f64>() / (8 * seg_per_h) as f64;
        let run_start = 9 * seg_per_h;
        let run_end = (10 * seg_per_h).min(result.schedule.len());
        assert!(run_end > run_start, "plan survives into the run");
        let during: f64 =
            result.schedule[run_start..run_end].iter().sum::<f64>() / (run_end - run_start) as f64;
        assert!(
            during > before,
            "Li-ion share before {before:.2} vs during the run {during:.2}"
        );
    }

    #[test]
    fn finer_grids_do_not_hurt() {
        let cells = watch_cells();
        let trace = watch_day(13, Some(9.0));
        let coarse = plan(
            &cells,
            &trace,
            &PlanConfig {
                soc_levels: 31,
                split_levels: 6,
                segment_s: 1800.0,
            },
        );
        let fine = plan(&cells, &trace, &PlanConfig::default());
        assert!(fine.life_s + 1800.0 >= coarse.life_s);
    }
}
