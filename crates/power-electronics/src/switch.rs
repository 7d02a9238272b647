//! Battery switching and weighted round-robin packet scheduling.
//!
//! The SDB discharge design (Figure 4c) restructures the switched-mode
//! regulator's built-in switch to draw *packets of energy* from the
//! batteries in a weighted round-robin fashion; "the ratio of the current
//! draw is determined by the fraction of time the switch is connected to a
//! particular battery". This module provides:
//!
//! * [`SwitchPath`] — the conduction path (FET on-resistance / ideal-diode
//!   drop) through which a battery supplies the load, with its loss model.
//! * [`PacketScheduler`] — the deterministic weighted round-robin that
//!   decides which battery supplies each energy packet, with duty-ratio
//!   quantization matching a real timer resolution.

use crate::error::{check_ratios, PowerError};

/// A conduction path from one battery into the shared node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchPath {
    /// FET on-resistance, ohms.
    pub r_on_ohm: f64,
    /// Constant forward drop (ideal-diode controller), volts. Zero for the
    /// integrated-regulator design.
    pub drop_v: f64,
}

impl SwitchPath {
    /// The prototype's path: an ideal-diode switch (Section 4.1), which
    /// costs a small forward drop plus conduction resistance. The paper
    /// notes this *underestimates* the proposal's efficiency.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            r_on_ohm: 0.016,
            drop_v: 0.018,
        }
    }

    /// The proposed integrated design, where the battery switch is the
    /// regulator's own switch: no extra diode drop, minimal added
    /// resistance.
    #[must_use]
    pub fn integrated() -> Self {
        Self {
            r_on_ohm: 0.004,
            drop_v: 0.0,
        }
    }

    /// Power lost in the path at `current_a` amps.
    #[must_use]
    pub fn loss_w(&self, current_a: f64) -> f64 {
        let i = current_a.abs();
        i * i * self.r_on_ohm + i * self.drop_v
    }
}

/// Deterministic weighted round-robin packet scheduler over `n` batteries.
///
/// Uses a largest-remainder (stride) discipline: each packet goes to the
/// battery whose accumulated credit is furthest behind its target share, so
/// the realized share of any prefix deviates from the setpoint by at most
/// one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketScheduler {
    /// Target share per battery (sums to 1).
    shares: Vec<f64>,
    /// Packets issued per battery.
    issued: Vec<u64>,
    /// Total packets issued.
    total: u64,
    /// Duty quantization: shares are rounded to multiples of
    /// `1/quantization_steps` (a real timer has finite resolution).
    quantization_steps: u32,
}

impl PacketScheduler {
    /// Creates a scheduler over `shares` (must be non-negative and sum
    /// to 1) with the given timer resolution.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidRatios`] for bad shares;
    /// [`PowerError::InvalidParameter`] for zero quantization steps.
    pub fn new(shares: &[f64], quantization_steps: u32) -> Result<Self, PowerError> {
        check_ratios(shares)?;
        if quantization_steps == 0 {
            return Err(PowerError::InvalidParameter {
                name: "quantization_steps",
                value: 0.0,
            });
        }
        let quantized = quantize_shares(shares, quantization_steps);
        Ok(Self {
            issued: vec![0; shares.len()],
            shares: quantized,
            total: 0,
            quantization_steps,
        })
    }

    /// The quantized target shares actually enforced.
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Replaces the target shares, keeping issued-packet history.
    ///
    /// # Errors
    ///
    /// [`PowerError::WrongChannelCount`] if the length changed;
    /// [`PowerError::InvalidRatios`] for bad shares.
    pub fn set_shares(&mut self, shares: &[f64]) -> Result<(), PowerError> {
        if shares.len() != self.shares.len() {
            return Err(PowerError::WrongChannelCount {
                expected: self.shares.len(),
                got: shares.len(),
            });
        }
        check_ratios(shares)?;
        self.shares = quantize_shares(shares, self.quantization_steps);
        // Restart the credit race so old history does not distort the new
        // setpoint.
        self.issued.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        Ok(())
    }

    /// Chooses the battery to supply the next energy packet.
    pub fn next_packet(&mut self) -> usize {
        // Largest deficit: target·(total+1) − issued.
        let mut best = 0usize;
        let mut best_deficit = f64::NEG_INFINITY;
        let t = (self.total + 1) as f64;
        for (i, (&share, &issued)) in self.shares.iter().zip(&self.issued).enumerate() {
            let deficit = share * t - issued as f64;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = i;
            }
        }
        self.issued[best] += 1;
        self.total += 1;
        best
    }

    /// Realized share per battery over all packets issued so far.
    #[must_use]
    pub fn realized_shares(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.shares.len()];
        }
        self.issued
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Worst absolute deviation between realized and target shares.
    #[must_use]
    pub fn max_share_error(&self) -> f64 {
        self.realized_shares()
            .iter()
            .zip(&self.shares)
            .map(|(r, s)| (r - s).abs())
            .fold(0.0, f64::max)
    }
}

/// Rounds shares to the timer grid with the largest-remainder method:
/// every quantized share stays non-negative and the total is exactly 1
/// (dumping the remainder on one entry could drive it negative when many
/// small shares all round up).
fn quantize_shares(shares: &[f64], steps: u32) -> Vec<f64> {
    let steps_f = f64::from(steps);
    // Floor to integer grid steps, then hand the leftover steps to the
    // entries with the largest fractional remainders.
    let exact: Vec<f64> = shares.iter().map(|s| s * steps_f).collect();
    let mut grid: Vec<u32> = exact.iter().map(|e| e.floor() as u32).collect();
    let assigned: u32 = grid.iter().sum();
    let mut leftover = steps.saturating_sub(assigned) as usize;
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).expect("shares are finite")
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        grid[i] += 1;
        leftover -= 1;
    }
    grid.iter().map(|&g| f64::from(g) / steps_f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_lossier_than_integrated() {
        let proto = SwitchPath::prototype();
        let integ = SwitchPath::integrated();
        assert!(proto.loss_w(2.0) > integ.loss_w(2.0));
    }

    #[test]
    fn loss_grows_superlinearly() {
        let p = SwitchPath::integrated();
        assert!(p.loss_w(4.0) > 3.9 * p.loss_w(2.0));
        assert_eq!(p.loss_w(0.0), 0.0);
    }

    #[test]
    fn scheduler_enforces_shares() {
        let mut s = PacketScheduler::new(&[0.25, 0.75], 1024).unwrap();
        for _ in 0..10_000 {
            s.next_packet();
        }
        let realized = s.realized_shares();
        assert!((realized[0] - 0.25).abs() < 0.001, "{realized:?}");
        assert!((realized[1] - 0.75).abs() < 0.001);
        assert!(s.max_share_error() < 0.001);
    }

    #[test]
    fn prefix_deviation_bounded_by_one_packet() {
        let mut s = PacketScheduler::new(&[0.3, 0.3, 0.4], 1024).unwrap();
        for k in 1..=500u64 {
            s.next_packet();
            for (i, &issued) in s.issued.iter().enumerate() {
                let target = s.shares[i] * k as f64;
                assert!(
                    (issued as f64 - target).abs() <= 1.0 + 1e-9,
                    "packet {k} battery {i}: issued {issued}, target {target}"
                );
            }
        }
    }

    #[test]
    fn extreme_shares() {
        let mut s = PacketScheduler::new(&[0.01, 0.99], 1024).unwrap();
        for _ in 0..100_000 {
            s.next_packet();
        }
        assert!((s.realized_shares()[0] - s.shares()[0]).abs() < 1e-3);
    }

    #[test]
    fn single_battery_gets_everything() {
        let mut s = PacketScheduler::new(&[1.0], 256).unwrap();
        for _ in 0..100 {
            assert_eq!(s.next_packet(), 0);
        }
    }

    #[test]
    fn zero_share_battery_never_selected() {
        let mut s = PacketScheduler::new(&[0.0, 1.0], 256).unwrap();
        for _ in 0..1000 {
            assert_eq!(s.next_packet(), 1);
        }
    }

    #[test]
    fn quantization_limits_resolution() {
        // With only 8 steps, a 10 % request lands on the 12.5 % grid.
        let s = PacketScheduler::new(&[0.10, 0.90], 8).unwrap();
        assert!((s.shares()[0] - 0.125).abs() < 1e-12);
        assert!((s.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_shares_validates() {
        let mut s = PacketScheduler::new(&[0.5, 0.5], 1024).unwrap();
        assert!(s.set_shares(&[0.4, 0.6]).is_ok());
        assert!(matches!(
            s.set_shares(&[0.4, 0.4, 0.2]),
            Err(PowerError::WrongChannelCount { .. })
        ));
        assert!(s.set_shares(&[0.9, 0.2]).is_err());
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(PacketScheduler::new(&[0.5, 0.6], 1024).is_err());
        assert!(PacketScheduler::new(&[0.5, 0.5], 0).is_err());
    }

    #[test]
    fn quantize_many_small_shares_stays_nonnegative() {
        // Ten 10% shares on an 8-step grid: naive rounding sums to 1.25 and
        // would drive the adjusted entry negative.
        let shares = vec![0.1; 10];
        let s = PacketScheduler::new(&shares, 8).unwrap();
        assert!((s.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s.shares().iter().all(|&x| x >= 0.0), "{:?}", s.shares());
    }

    #[test]
    fn quantized_shares_always_sum_to_one() {
        for steps in [4u32, 16, 128, 1024] {
            let q = quantize_shares(&[0.123, 0.456, 0.421], steps);
            assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12, "steps {steps}");
        }
    }
}
