//! Turbo-capable CPU model.
//!
//! "Modern Intel CPUs have three active power levels: Long term system
//! limit, burst limit and battery protection limit" (Section 5.1). SDB's
//! discharging scenario lets the OS unlock higher levels when the battery
//! pack can supply them. This module models a CPU with those levels and
//! computes latency/energy outcomes for the two extreme users of Figure
//! 12: network-bottlenecked and CPU/GPU-bottlenecked.

/// The three SDB performance-priority settings of Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PowerLevel {
    /// High power-density battery disabled; CPU told of reduced capacity.
    Low,
    /// Both batteries enabled at the high-energy cell's peak each (2× peak).
    Medium,
    /// Maximum possible power from both batteries.
    High,
}

impl PowerLevel {
    /// All levels in ascending order.
    pub const ALL: [PowerLevel; 3] = [PowerLevel::Low, PowerLevel::Medium, PowerLevel::High];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Low => "Low Power",
            Self::Medium => "Medium Power",
            Self::High => "High Power",
        }
    }
}

/// A task to run, characterized by its serial network time and its compute
/// work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Time the task spends waiting on the network (cannot be shortened by
    /// frequency), seconds.
    pub network_s: f64,
    /// Compute work in "reference seconds": time the compute part takes at
    /// the Low level.
    pub compute_ref_s: f64,
}

impl Task {
    /// A network-bottlenecked task (email, browsing, calls): mostly radio
    /// waits with light compute.
    #[must_use]
    pub fn network_bound(total_s: f64) -> Self {
        Self {
            network_s: 0.92 * total_s,
            compute_ref_s: 0.08 * total_s,
        }
    }

    /// A compute-bottlenecked task (gaming, rendering, PassMark/3DMark-like
    /// kernels): pure local work.
    #[must_use]
    pub fn compute_bound(total_s: f64) -> Self {
        Self {
            network_s: 0.0,
            compute_ref_s: total_s,
        }
    }
}

/// Outcome of running a task at one power level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOutcome {
    /// Wall-clock latency, seconds.
    pub latency_s: f64,
    /// Device energy consumed, joules (battery losses are accounted
    /// separately by the pack simulation).
    pub energy_j: f64,
    /// Peak power drawn, watts.
    pub(crate) peak_w: f64,
}

/// The turbo CPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurboCpu {
    /// Package power at the Low level, watts.
    pub(crate) low_w: f64,
    /// Package power at the Medium level, watts.
    pub(crate) medium_w: f64,
    /// Package power at the High level, watts.
    pub(crate) high_w: f64,
    /// Power drawn while waiting on the network at the Low level, watts
    /// (interrupt handling, race-to-idle residue).
    pub(crate) wait_w: f64,
    /// Rest-of-device power (display, DRAM, radio) that runs for the whole
    /// task regardless of level, watts.
    pub rest_w: f64,
    /// Frequency-scaling exponent: perf ∝ (power)^exponent. Sub-linear —
    /// DVFS gives diminishing returns (P ≈ C·V²·f with V ∝ f).
    pub(crate) perf_exponent: f64,
    /// How much the network-wait power inflates per level step (higher
    /// turbo headroom keeps the package hotter during waits).
    pub(crate) wait_inflation: f64,
}

impl TurboCpu {
    /// A Core-class 2-in-1 CPU matching the paper's tablet: 9 W sustained,
    /// 18 W with both batteries, 27 W unrestricted.
    #[must_use]
    pub fn tablet() -> Self {
        Self {
            low_w: 9.0,
            medium_w: 18.0,
            high_w: 27.0,
            wait_w: 1.6,
            rest_w: 4.7,
            // 3× package power buys ≈ 1.35× performance — the ~26 % latency
            // gain the paper measures on PassMark/3DMark kernels.
            perf_exponent: 0.27,
            wait_inflation: 0.25,
        }
    }

    /// Package power at a level, watts.
    #[must_use]
    pub fn power_w(&self, level: PowerLevel) -> f64 {
        match level {
            PowerLevel::Low => self.low_w,
            PowerLevel::Medium => self.medium_w,
            PowerLevel::High => self.high_w,
        }
    }

    /// Performance (relative to Low) at a level: `(P/P_low)^exponent`.
    #[must_use]
    pub fn speedup(&self, level: PowerLevel) -> f64 {
        (self.power_w(level) / self.low_w).powf(self.perf_exponent)
    }

    /// Power burned while waiting on the network at a level, watts.
    #[must_use]
    pub fn wait_power_w(&self, level: PowerLevel) -> f64 {
        let steps = match level {
            PowerLevel::Low => 0.0,
            PowerLevel::Medium => 1.0,
            PowerLevel::High => 2.0,
        };
        self.wait_w * (1.0 + self.wait_inflation * steps)
    }

    /// Runs a task at a level.
    #[must_use]
    pub fn run(&self, task: Task, level: PowerLevel) -> TaskOutcome {
        let compute_s = task.compute_ref_s / self.speedup(level);
        let latency_s = task.network_s + compute_s;
        let energy_j = (self.power_w(level) + self.rest_w) * compute_s
            + (self.wait_power_w(level) + self.rest_w) * task.network_s;
        TaskOutcome {
            latency_s,
            energy_j,
            peak_w: self.power_w(level) + self.rest_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_monotone_and_sublinear() {
        let cpu = TurboCpu::tablet();
        let m = cpu.speedup(PowerLevel::Medium);
        let h = cpu.speedup(PowerLevel::High);
        assert!(m > 1.0 && h > m);
        // 3× the power buys less than 3× the speed.
        assert!(h < 3.0);
    }

    #[test]
    fn figure_12_compute_bound_latency_gain() {
        // Paper: up to 26 % better scores on compute benchmarks at High.
        let cpu = TurboCpu::tablet();
        let task = Task::compute_bound(100.0);
        let (low, high) = (
            cpu.run(task, PowerLevel::Low),
            cpu.run(task, PowerLevel::High),
        );
        let lat_high = high.latency_s / low.latency_s;
        let energy_high = high.energy_j / low.energy_j;
        // ~26 % latency improvement at High.
        assert!(lat_high < 0.80, "latency ratio {lat_high}");
        assert!(lat_high > 0.68, "latency ratio {lat_high}");
        // Turbo on compute work costs energy (race-to-finish at f² cost),
        // but less than the naive P-ratio of 3×.
        assert!(
            energy_high > 1.0 && energy_high < 2.0,
            "energy ratio {energy_high}"
        );
    }

    #[test]
    fn figure_12_network_bound_wastes_energy() {
        // Paper: up to 20.6 % more energy at High with no noticeable
        // latency benefit for network-bottlenecked workloads.
        let cpu = TurboCpu::tablet();
        let task = Task::network_bound(100.0);
        let (low, high) = (
            cpu.run(task, PowerLevel::Low),
            cpu.run(task, PowerLevel::High),
        );
        let lat_high = high.latency_s / low.latency_s;
        let energy_high = high.energy_j / low.energy_j;
        assert!(lat_high > 0.90, "latency ratio {lat_high}");
        assert!(
            energy_high > 1.10 && energy_high < 1.30,
            "energy ratio {energy_high}"
        );
        // Medium sits between.
        let energy_med = cpu.run(task, PowerLevel::Medium).energy_j / low.energy_j;
        assert!(energy_med > 1.0 && energy_med < energy_high);
    }

    #[test]
    fn network_time_not_shortened_by_turbo() {
        let cpu = TurboCpu::tablet();
        let task = Task {
            network_s: 60.0,
            compute_ref_s: 0.0,
        };
        let low = cpu.run(task, PowerLevel::Low);
        let high = cpu.run(task, PowerLevel::High);
        assert_eq!(low.latency_s, high.latency_s);
        assert!(high.energy_j > low.energy_j);
    }

    #[test]
    fn peak_power_tracks_level() {
        let cpu = TurboCpu::tablet();
        let t = Task::compute_bound(10.0);
        assert_eq!(cpu.run(t, PowerLevel::High).peak_w, 27.0 + cpu.rest_w);
        assert_eq!(cpu.run(t, PowerLevel::Low).peak_w, 9.0 + cpu.rest_w);
    }
}
