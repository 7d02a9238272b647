//! The CPU performance-priority scenario (Section 5.1, Figure 12).
//!
//! A 2-in-1 pack combines a high energy-density battery with a high
//! power-density battery. The OS exposes three performance priority
//! levels; each maps to a battery configuration and a CPU power cap:
//!
//! * **Low** — the high power-density battery is disabled and the CPU is
//!   informed of the reduced power capacity.
//! * **Medium** — both batteries enabled, the CPU may draw the high-energy
//!   battery's peak from each.
//! * **High** — the CPU may draw the maximum possible power from both.
//!
//! The figure compares latency and energy (including battery losses) for a
//! network-bottlenecked and a CPU/GPU-bottlenecked user at each level,
//! normalized to Low.

use crate::policy::{rbl_discharge, PolicyInput};
use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_workloads::cpu::{PowerLevel, Task, TurboCpu};

/// One bar of Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct TurboRow {
    /// Workload profile label ("Network Bottlenecked" / "CPU/GPU
    /// Bottlenecked").
    pub profile: &'static str,
    /// Performance priority level.
    pub level: PowerLevel,
    /// Latency normalized to the Low level.
    pub latency_ratio: f64,
    /// Total energy (device + battery losses) normalized to Low.
    pub energy_ratio: f64,
}

/// Builds the scenario pack: a 4 Ah high-energy cell plus a 4 Ah
/// high-power cell.
#[must_use]
pub(crate) fn build_pack() -> Microcontroller {
    PackBuilder::new()
        .battery(BatterySpec::from_chemistry(
            "high-energy",
            Chemistry::Type2CoStandard,
            4.0,
        ))
        .battery(BatterySpec::from_chemistry(
            "high-power",
            Chemistry::Type3CoPower,
            4.0,
        ))
        .build()
}

/// Total chemical energy a task consumes at one level: device energy plus
/// the battery heat and circuit losses incurred supplying it.
fn chemical_energy_j(cpu: &TurboCpu, task: Task, level: PowerLevel) -> f64 {
    let mut micro = build_pack();
    // Ratios per level: Low disables the power cell entirely; Medium splits
    // evenly; High uses the loss-optimal split at full power.
    let ratios = match level {
        PowerLevel::Low => vec![1.0, 0.0],
        PowerLevel::Medium => vec![0.5, 0.5],
        PowerLevel::High => {
            let input = PolicyInput::from_micro(&micro).with_load(cpu.power_w(level) + cpu.rest_w);
            rbl_discharge(&input).expect("fresh pack is dischargeable")
        }
    };
    micro.set_discharge_ratios(&ratios).expect("valid ratios");

    let outcome = cpu.run(task, level);
    let compute_s = task.compute_ref_s / cpu.speedup(level);
    // Two phases: compute at the level's package power, then network waits.
    if compute_s > 0.0 {
        let p = cpu.power_w(level) + cpu.rest_w;
        micro.step(p, 0.0, compute_s);
    }
    if task.network_s > 0.0 {
        let p = cpu.wait_power_w(level) + cpu.rest_w;
        micro.step(p, 0.0, task.network_s);
    }
    let (delivered, circuit_loss, cell_heat, unmet, _) = micro.energy_totals_j();
    assert!(unmet < 1e-6, "scenario pack must sustain the level");
    // Sanity: the device-side energy matches what the pack delivered.
    debug_assert!((delivered - outcome.energy_j).abs() / outcome.energy_j < 0.05);
    delivered + circuit_loss + cell_heat
}

/// Runs the full Figure 12 comparison: both user profiles at all three
/// levels, normalized to the Low level.
#[must_use]
pub fn turbo_comparison() -> Vec<TurboRow> {
    let cpu = TurboCpu::tablet();
    let profiles: [(&'static str, Task); 2] = [
        ("Network Bottlenecked", Task::network_bound(600.0)),
        ("CPU/GPU Bottlenecked", Task::compute_bound(600.0)),
    ];
    let mut rows = Vec::with_capacity(6);
    for (name, task) in profiles {
        let base_latency = cpu.run(task, PowerLevel::Low).latency_s;
        let base_energy = chemical_energy_j(&cpu, task, PowerLevel::Low);
        for level in PowerLevel::ALL {
            let latency = cpu.run(task, level).latency_s;
            let energy = chemical_energy_j(&cpu, task, level);
            rows.push(TurboRow {
                profile: name,
                level,
                latency_ratio: latency / base_latency,
                energy_ratio: energy / base_energy,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [TurboRow], profile: &str, level: PowerLevel) -> &'a TurboRow {
        rows.iter()
            .find(|r| r.profile == profile && r.level == level)
            .expect("row exists")
    }

    #[test]
    fn figure_12_shapes() {
        let rows = turbo_comparison();
        assert_eq!(rows.len(), 6);

        // Network-bottlenecked: no meaningful latency gain, energy grows
        // with the level (paper: up to ~20.6 % more energy).
        let net_high = row(&rows, "Network Bottlenecked", PowerLevel::High);
        assert!(net_high.latency_ratio > 0.90, "{}", net_high.latency_ratio);
        assert!(
            net_high.energy_ratio > 1.10 && net_high.energy_ratio < 1.35,
            "network high energy = {}",
            net_high.energy_ratio
        );
        let net_med = row(&rows, "Network Bottlenecked", PowerLevel::Medium);
        assert!(net_med.energy_ratio > 1.0 && net_med.energy_ratio < net_high.energy_ratio);

        // CPU-bottlenecked: real latency gains (paper: up to 26 % better).
        let cpu_high = row(&rows, "CPU/GPU Bottlenecked", PowerLevel::High);
        assert!(
            cpu_high.latency_ratio < 0.80 && cpu_high.latency_ratio > 0.65,
            "cpu high latency = {}",
            cpu_high.latency_ratio
        );
        let cpu_med = row(&rows, "CPU/GPU Bottlenecked", PowerLevel::Medium);
        assert!(cpu_med.latency_ratio < 1.0 && cpu_med.latency_ratio > cpu_high.latency_ratio);

        // Low rows are the 1.0 baselines.
        for profile in ["Network Bottlenecked", "CPU/GPU Bottlenecked"] {
            let low = row(&rows, profile, PowerLevel::Low);
            assert!((low.latency_ratio - 1.0).abs() < 1e-9);
            assert!((low.energy_ratio - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn battery_losses_amplify_high_power_cost() {
        // The chemical energy ratio at High must exceed the device-only
        // ratio: higher current means superlinear battery losses.
        let cpu = TurboCpu::tablet();
        let task = Task::compute_bound(600.0);
        let device_ratio = {
            let base = cpu.run(task, PowerLevel::Low).energy_j;
            cpu.run(task, PowerLevel::High).energy_j / base
        };
        let chem_ratio = chemical_energy_j(&cpu, task, PowerLevel::High)
            / chemical_energy_j(&cpu, task, PowerLevel::Low);
        assert!(
            chem_ratio > device_ratio * 0.98,
            "{chem_ratio} vs {device_ratio}"
        );
    }

    #[test]
    fn low_level_single_battery_sustains_load() {
        let cpu = TurboCpu::tablet();
        let mut micro = build_pack();
        micro.set_discharge_ratios(&[1.0, 0.0]).unwrap();
        let report = micro.step(cpu.power_w(PowerLevel::Low) + cpu.rest_w, 0.0, 60.0);
        assert!(report.unmet_w < 1e-9);
        assert!(micro.cells()[1].is_full(), "power cell untouched at Low");
    }
}
