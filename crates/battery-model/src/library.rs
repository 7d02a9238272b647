//! The modeled battery library.
//!
//! The paper characterizes 15 state-of-the-art mobile-device batteries on
//! cycler hardware (Figure 9): "two of Type 4, two of Type 3, eight of
//! Type 2 and 3 more of other types". This module reconstructs that library
//! synthetically (with deterministic unit-to-unit variation) and provides
//! the specific cells used by the Section 5 scenarios.

use crate::chemistry::Chemistry;
use crate::spec::BatterySpec;
use crate::thevenin::TheveninCell;

/// Deterministic unit-to-unit variation factors (±6 % resistance spread),
/// derived from the unit index so the library is reproducible.
fn unit_variation(index: usize) -> f64 {
    // A fixed low-discrepancy sequence in [0.94, 1.06].
    let frac = ((index as f64) * 0.618_033_988_749_895) % 1.0;
    0.94 + 0.12 * frac
}

/// Builds the paper's 15-battery library: 8× Type 2, 2× Type 3, 2× Type 4,
/// and 3 "other" cells (2× NMC, 1× LTO), each with deterministic
/// unit-to-unit resistance variation.
#[must_use]
pub fn paper_library() -> Vec<BatterySpec> {
    let mut specs = Vec::with_capacity(15);
    let mut idx = 0usize;
    let mut push = |specs: &mut Vec<BatterySpec>, chem: Chemistry, cap: f64, label: &str| {
        let name = format!("Library #{:02} ({label})", idx + 1);
        let spec =
            BatterySpec::from_chemistry(&name, chem, cap).with_dcir_scaled(unit_variation(idx));
        specs.push(spec);
        idx += 1;
    };
    // Eight Type 2 cells across phone/tablet capacities.
    for &cap in &[1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0] {
        push(&mut specs, Chemistry::Type2CoStandard, cap, "Type 2");
    }
    // Two Type 3 fast-charging cells.
    for &cap in &[2.0, 4.0] {
        push(&mut specs, Chemistry::Type3CoPower, cap, "Type 3");
    }
    // Two Type 4 bendable cells.
    for &cap in &[0.2, 0.5] {
        push(&mut specs, Chemistry::Type4Bendable, cap, "Type 4");
    }
    // Three other cells.
    push(&mut specs, Chemistry::OtherNmc, 2.6, "NMC");
    push(&mut specs, Chemistry::OtherNmc, 3.2, "NMC");
    push(&mut specs, Chemistry::OtherLto, 1.3, "LTO");
    specs
}

/// The smart-watch scenario's rigid cell: a 200 mAh Type 2 (Section 5.2).
#[must_use]
pub fn watch_li_ion() -> TheveninCell {
    TheveninCell::new(BatterySpec::from_chemistry(
        "Watch Li-ion 200 mAh",
        Chemistry::Type2CoStandard,
        0.2,
    ))
}

/// The smart-watch scenario's strap cell: a 200 mAh Type 4 bendable
/// (Section 5.2). The strap *prototype* is substantially more resistive
/// than the Figure 1(a) Type 4 pouch — the paper's prototypes were
/// "excellent at handling low power workloads but often very inefficient
/// for high power workloads" — modeled as a 2.5× DCIR scale on the base
/// chemistry.
#[must_use]
pub fn watch_bendable() -> TheveninCell {
    TheveninCell::new(
        BatterySpec::from_chemistry("Watch bendable 200 mAh", Chemistry::Type4Bendable, 0.2)
            .with_dcir_scaled(2.5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_paper_composition() {
        let lib = paper_library();
        assert_eq!(lib.len(), 15);
        let count = |chem: Chemistry| lib.iter().filter(|s| s.chemistry == chem).count();
        assert_eq!(count(Chemistry::Type2CoStandard), 8);
        assert_eq!(count(Chemistry::Type3CoPower), 2);
        assert_eq!(count(Chemistry::Type4Bendable), 2);
        assert_eq!(count(Chemistry::OtherNmc) + count(Chemistry::OtherLto), 3);
    }

    #[test]
    fn library_specs_are_valid_and_named_uniquely() {
        let lib = paper_library();
        for spec in &lib {
            spec.validate().unwrap();
        }
        let mut names: Vec<&str> = lib.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn library_is_deterministic() {
        let a = paper_library();
        let b = paper_library();
        assert_eq!(a, b);
    }

    #[test]
    fn units_vary() {
        let lib = paper_library();
        // Two same-chemistry cells scaled to 1 Ah should differ in DCIR.
        let r0 = lib[0].dcir.eval(0.5) * lib[0].capacity_ah;
        let r1 = lib[1].dcir.eval(0.5) * lib[1].capacity_ah;
        assert!((r0 - r1).abs() > 1e-6);
    }

    #[test]
    fn scenario_cells_match_paper_sizes() {
        assert!((watch_li_ion().spec().capacity_ah - 0.2).abs() < 1e-12);
        assert!((watch_bendable().spec().capacity_ah - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bendable_watch_cell_less_efficient_than_rigid() {
        let rigid = watch_li_ion();
        let flex = watch_bendable();
        assert!(
            flex.heat_loss_fraction_at_c_rate(1.0) > 2.0 * rigid.heat_loss_fraction_at_c_rate(1.0)
        );
    }

    #[test]
    fn fast_charge_cell_accepts_higher_charge_current() {
        let fast = BatterySpec::from_chemistry("fast", Chemistry::Type3CoPower, 4.0);
        let slow = BatterySpec::from_chemistry("slow", Chemistry::Type2CoStandard, 4.0);
        assert!(fast.max_charge_a > 2.0 * slow.max_charge_a);
    }
}
