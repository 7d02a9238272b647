//! Recorded per-seed reference outputs (`reference.txt`).
//!
//! Each line pins what the reference path produced for one workload and
//! seed at the commit that recorded it:
//!
//! ```text
//! fleet-day <seed> <report digest>
//! fleet-planned <seed> <report digest>
//! fleet-standby-soa <seed> <report digest> <life mean> <brownout rate> <supplied J> <final SoC mean>
//! campaign-faults <seed> <baseline config digest> <cell digest>,<cell digest>,...
//! held-out-seed <seed>
//! ```
//!
//! The standby line's four numbers are the *scalar* engine's, which the
//! SoA report must stay within bounds of. Digests are 16-digit hex,
//! floats are shortest round-trip decimals.

use crate::fleet::ScalarReference;

/// The recorded references, compiled in.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// One workload's recorded reference for one seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Recorded {
    /// A fleet report digest.
    Digest(u64),
    /// A SoA report digest plus the scalar reference numbers.
    Standby(u64, ScalarReference),
    /// The baseline config digest and per-cell digests in matrix order.
    Campaign(u64, Vec<u64>),
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
}

fn float(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
}

/// The recorded reference for `workload` at `seed`, if any.
///
/// # Errors
///
/// Returns a message on a malformed line for this workload and seed.
pub fn lookup(workload: &str, seed: u64) -> Result<Option<Recorded>, String> {
    for line in REFERENCE.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || f[0] != workload || f[1].parse::<u64>().ok() != Some(seed) {
            continue;
        }
        let recorded = match (workload, f.len()) {
            ("fleet-day" | "fleet-planned", 3) => Recorded::Digest(hex(f[2])?),
            ("fleet-standby-soa", 7) => Recorded::Standby(
                hex(f[2])?,
                ScalarReference {
                    life_mean_s: float(f[3])?,
                    brownout_rate: float(f[4])?,
                    supplied_j: float(f[5])?,
                    final_soc_mean: float(f[6])?,
                },
            ),
            ("campaign-faults", 4) => Recorded::Campaign(
                hex(f[2])?,
                f[3].split(',').map(hex).collect::<Result<_, _>>()?,
            ),
            _ => return Err(format!("malformed reference line: {line}")),
        };
        return Ok(Some(recorded));
    }
    Ok(None)
}

/// The seed held out from tuning, for confirming later claims.
#[must_use]
pub fn held_out_seed() -> Option<u64> {
    REFERENCE.lines().find_map(|l| {
        l.strip_prefix("held-out-seed ")
            .and_then(|s| s.trim().parse().ok())
    })
}

/// Renders one reference line.
#[must_use]
pub fn render(workload: &str, seed: u64, recorded: &Recorded) -> String {
    match recorded {
        Recorded::Digest(d) => format!("{workload} {seed} {d:016x}"),
        Recorded::Standby(d, s) => format!(
            "{workload} {seed} {d:016x} {:?} {:?} {:?} {:?}",
            s.life_mean_s, s.brownout_rate, s.supplied_j, s.final_soc_mean
        ),
        Recorded::Campaign(config, cells) => {
            let cells: Vec<String> = cells.iter().map(|d| format!("{d:016x}")).collect();
            format!("{workload} {seed} {config:016x} {}", cells.join(","))
        }
    }
}
