//! Versioned, bit-exact pack state snapshots.
//!
//! A [`PackSnapshot`] captures the *entire mutable state* of a
//! [`Microcontroller`](crate::micro::Microcontroller) — cells (SoC, RC
//! branch, energy accounting, aging, thermal, fault multipliers), fuel
//! gauges (estimates, coulomb counters, learned capacity, faults), ratios,
//! presence, throttle latches, in-flight transfers, profile selections,
//! and the energy totals — such that restoring it into a pack built from
//! the same template is bit-identical to having cloned the pack at the
//! capture point. Immutable configuration (specs, circuit topologies, the
//! share chain) is *not* captured; it comes from the template.
//!
//! Three users:
//! - **Planner rollouts** restore a scratch pack per candidate instead of
//!   cloning the runtime (no allocation after warmup).
//! - **Campaigns** checkpoint via [`PackSnapshot::to_bytes`] and branch via
//!   [`PackSnapshot::from_bytes`]; the byte codec round-trips every `f64`
//!   bit pattern exactly.
//! - **The SoA engine** parks quiescent devices' state in
//!   [`SoaCohort`](crate::soa::SoaCohort) lanes and uses snapshots as the
//!   bridge in and out of the array representation.

use crate::profile::ProfileKind;
use sdb_battery_model::aging::AgingStateSnapshot;
use sdb_battery_model::thermal::ThermalModel;
use sdb_battery_model::thevenin::CellStateSnapshot;
use sdb_fuel_gauge::gauge::{GaugeFault, GaugeStateSnapshot};

use crate::micro::ThermalThrottle;

/// Current snapshot format version (bumped on any layout change).
pub(crate) const PACK_SNAPSHOT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash — the digest primitive for snapshot and campaign
/// fingerprints. Stable across platforms (pure integer arithmetic over
/// the byte stream), cheap, and good enough to flag any single-bit drift
/// in a serialized snapshot.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Magic prefix for serialized snapshots.
const MAGIC: &[u8; 8] = b"SDBSNAP\x01";

/// An in-flight battery-to-battery transfer, as captured state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TransferSnapshot {
    /// Source battery index.
    pub(crate) from: usize,
    /// Destination battery index.
    pub(crate) to: usize,
    /// Transfer power at the source terminals, watts.
    pub(crate) power_w: f64,
    /// Remaining transfer duration, seconds.
    pub(crate) remaining_s: f64,
}

/// Full mutable state of one pack at a point in time.
///
/// See the module docs for what is and is not captured. Restore via
/// [`Microcontroller::restore_from`](crate::micro::Microcontroller::restore_from),
/// which requires a pack of the same shape (same battery count).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackSnapshot {
    /// Emulation time, seconds.
    pub time_s: f64,
    /// Lifetime energy delivered to the load, joules.
    pub delivered_j: f64,
    /// Lifetime circuit losses, joules.
    pub(crate) circuit_loss_j: f64,
    /// Lifetime cell heat, joules.
    pub(crate) cell_heat_j: f64,
    /// Lifetime unmet load energy, joules.
    pub(crate) unmet_j: f64,
    /// Lifetime external energy consumed, joules.
    pub(crate) external_in_j: f64,
    /// Realized discharge ratios.
    pub(crate) discharge_ratios: Vec<f64>,
    /// Realized charge ratios.
    pub(crate) charge_ratios: Vec<f64>,
    /// Physical presence per battery.
    pub(crate) present: Vec<bool>,
    /// Thermal charge-throttle latch per battery.
    pub(crate) throttled: Vec<bool>,
    /// Selected charging profile per battery.
    pub(crate) profile_kinds: Vec<ProfileKind>,
    /// Firmware thermal throttle configuration, if installed.
    pub(crate) thermal_throttle: Option<ThermalThrottle>,
    /// In-flight battery-to-battery transfer, if any.
    pub(crate) transfer: Option<TransferSnapshot>,
    /// Per-cell mutable state.
    pub cells: Vec<CellStateSnapshot>,
    /// Per-gauge mutable state.
    pub(crate) gauges: Vec<GaugeStateSnapshot>,
}

impl PackSnapshot {
    /// Number of batteries in the captured pack.
    #[must_use]
    pub(crate) fn battery_count(&self) -> usize {
        self.cells.len()
    }

    /// The snapshot's FNV-1a 64 fingerprint over its serialized bytes.
    /// Because [`PackSnapshot::to_bytes`] round-trips every `f64` bit
    /// pattern exactly, two packs digest equal iff their entire mutable
    /// state is bit-identical — the equality primitive campaign baselines
    /// and cross-run differential checks are built on.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a_64(&self.to_bytes())
    }

    /// Serializes to a self-describing little-endian byte string. Every
    /// `f64` is written as its exact bit pattern, so
    /// `from_bytes(to_bytes(s)) == s` bit-for-bit.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.cells.len();
        let mut w = Writer(Vec::with_capacity(64 + n * 256));
        w.0.extend_from_slice(MAGIC);
        w.u32(PACK_SNAPSHOT_VERSION);
        w.u32(u32::try_from(n).expect("pack size fits u32"));
        w.f64(self.time_s);
        w.f64(self.delivered_j);
        w.f64(self.circuit_loss_j);
        w.f64(self.cell_heat_j);
        w.f64(self.unmet_j);
        w.f64(self.external_in_j);
        for i in 0..n {
            w.f64(self.discharge_ratios[i]);
            w.f64(self.charge_ratios[i]);
            w.bool(self.present[i]);
            w.bool(self.throttled[i]);
            w.u8(match self.profile_kinds[i] {
                ProfileKind::Standard => 0,
                ProfileKind::Fast => 1,
                ProfileKind::Gentle => 2,
            });
        }
        match self.thermal_throttle {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.f64(t.limit_c);
                w.f64(t.resume_c);
            }
        }
        match self.transfer {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.u32(u32::try_from(t.from).expect("index fits u32"));
                w.u32(u32::try_from(t.to).expect("index fits u32"));
                w.f64(t.power_w);
                w.f64(t.remaining_s);
            }
        }
        for c in &self.cells {
            w.f64(c.soc);
            w.f64(c.v_rc);
            w.f64(c.energy_out_j);
            w.f64(c.energy_in_j);
            w.f64(c.heat_j);
            w.f64(c.fault_r_mult);
            w.u32(c.aging.cycles);
            w.f64(c.aging.cumulative_frac);
            w.f64(c.aging.capacity_fraction);
            w.f64(c.aging.crate_accum);
            w.f64(c.aging.crate_weight);
            match c.thermal {
                None => w.u8(0),
                Some(t) => {
                    w.u8(1);
                    w.f64(t.temperature_c());
                    w.f64(t.ambient_c);
                    w.f64(t.r_th_k_per_w);
                    w.f64(t.c_th_j_per_k);
                }
            }
        }
        for g in &self.gauges {
            w.f64(g.net_c);
            w.f64(g.discharged_c);
            w.f64(g.charged_c);
            w.f64(g.soc_estimate);
            w.f64(g.rest_s);
            w.f64(g.last_v);
            w.f64(g.last_i);
            w.f64(g.cycle_accum);
            w.u32(g.cycles);
            match g.anchor_soc {
                None => w.u8(0),
                Some(a) => {
                    w.u8(1);
                    w.f64(a);
                }
            }
            w.f64(g.learned_capacity_ah);
            w.u32(g.capacity_observations);
            match g.fault {
                None => w.u8(0),
                Some(GaugeFault::StuckSoc) => w.u8(1),
                Some(GaugeFault::BiasRamp { amps_per_hour }) => {
                    w.u8(2);
                    w.f64(amps_per_hour);
                }
                Some(GaugeFault::QuantizationStorm { lsb_scale }) => {
                    w.u8(3);
                    w.f64(lsb_scale);
                }
            }
            w.f64(g.fault_elapsed_s);
            w.f64(g.fault_frozen_soc);
        }
        w.0
    }

    /// Deserializes a snapshot written by [`PackSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad magic,
    /// unsupported version, truncation, trailing bytes, invalid tags).
    pub fn from_bytes(bytes: &[u8]) -> Result<PackSnapshot, String> {
        let mut r = Reader { b: bytes, at: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err("not a pack snapshot (bad magic)".into());
        }
        let version = r.u32()?;
        if version != PACK_SNAPSHOT_VERSION {
            return Err(format!(
                "unsupported snapshot version {version} (expected {PACK_SNAPSHOT_VERSION})"
            ));
        }
        let n = r.u32()? as usize;
        let mut s = PackSnapshot {
            time_s: r.f64()?,
            delivered_j: r.f64()?,
            circuit_loss_j: r.f64()?,
            cell_heat_j: r.f64()?,
            unmet_j: r.f64()?,
            external_in_j: r.f64()?,
            ..PackSnapshot::default()
        };
        s.discharge_ratios.reserve(n);
        s.charge_ratios.reserve(n);
        s.present.reserve(n);
        s.throttled.reserve(n);
        s.profile_kinds.reserve(n);
        for _ in 0..n {
            s.discharge_ratios.push(r.f64()?);
            s.charge_ratios.push(r.f64()?);
            s.present.push(r.bool()?);
            s.throttled.push(r.bool()?);
            s.profile_kinds.push(match r.u8()? {
                0 => ProfileKind::Standard,
                1 => ProfileKind::Fast,
                2 => ProfileKind::Gentle,
                t => return Err(format!("bad profile kind tag {t}")),
            });
        }
        s.thermal_throttle = match r.u8()? {
            0 => None,
            1 => Some(ThermalThrottle {
                limit_c: r.f64()?,
                resume_c: r.f64()?,
            }),
            t => return Err(format!("bad throttle tag {t}")),
        };
        s.transfer = match r.u8()? {
            0 => None,
            1 => Some(TransferSnapshot {
                from: r.u32()? as usize,
                to: r.u32()? as usize,
                power_w: r.f64()?,
                remaining_s: r.f64()?,
            }),
            t => return Err(format!("bad transfer tag {t}")),
        };
        s.cells.reserve(n);
        for _ in 0..n {
            let soc = r.f64()?;
            let v_rc = r.f64()?;
            let energy_out_j = r.f64()?;
            let energy_in_j = r.f64()?;
            let heat_j = r.f64()?;
            let fault_r_mult = r.f64()?;
            let aging = AgingStateSnapshot {
                cycles: r.u32()?,
                cumulative_frac: r.f64()?,
                capacity_fraction: r.f64()?,
                crate_accum: r.f64()?,
                crate_weight: r.f64()?,
            };
            let thermal = match r.u8()? {
                0 => None,
                1 => {
                    let temperature_c = r.f64()?;
                    let ambient_c = r.f64()?;
                    let r_th = r.f64()?;
                    let c_th = r.f64()?;
                    let mut m = ThermalModel::new(ambient_c, r_th, c_th);
                    m.set_temperature_c(temperature_c);
                    Some(m)
                }
                t => return Err(format!("bad thermal tag {t}")),
            };
            s.cells.push(CellStateSnapshot {
                soc,
                v_rc,
                energy_out_j,
                energy_in_j,
                heat_j,
                fault_r_mult,
                aging,
                thermal,
            });
        }
        s.gauges.reserve(n);
        for _ in 0..n {
            let net_c = r.f64()?;
            let discharged_c = r.f64()?;
            let charged_c = r.f64()?;
            let soc_estimate = r.f64()?;
            let rest_s = r.f64()?;
            let last_v = r.f64()?;
            let last_i = r.f64()?;
            let cycle_accum = r.f64()?;
            let cycles = r.u32()?;
            let anchor_soc = match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                t => return Err(format!("bad anchor tag {t}")),
            };
            let learned_capacity_ah = r.f64()?;
            let capacity_observations = r.u32()?;
            let fault = match r.u8()? {
                0 => None,
                1 => Some(GaugeFault::StuckSoc),
                2 => Some(GaugeFault::BiasRamp {
                    amps_per_hour: r.f64()?,
                }),
                3 => Some(GaugeFault::QuantizationStorm {
                    lsb_scale: r.f64()?,
                }),
                t => return Err(format!("bad gauge fault tag {t}")),
            };
            s.gauges.push(GaugeStateSnapshot {
                net_c,
                discharged_c,
                charged_c,
                soc_estimate,
                rest_s,
                last_v,
                last_i,
                cycle_accum,
                cycles,
                anchor_soc,
                learned_capacity_ah,
                capacity_observations,
                fault,
                fault_elapsed_s: r.f64()?,
                fault_frozen_soc: r.f64()?,
            });
        }
        if r.at != bytes.len() {
            return Err(format!(
                "trailing bytes: {} of {} consumed",
                r.at,
                bytes.len()
            ));
        }
        Ok(s)
    }
}

struct Writer(Vec<u8>);

impl Writer {
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }
}

struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], String> {
        let end = self.at.checked_add(len).ok_or("length overflow")?;
        if end > self.b.len() {
            return Err("truncated snapshot".into());
        }
        let s = &self.b[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn f64(&mut self) -> Result<f64, String> {
        let s = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(s.try_into().unwrap())))
    }
    fn u32(&mut self) -> Result<u32, String> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("bad bool byte {t}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Canonical FNV-1a 64 vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_flags_any_single_bit_of_state() {
        let mut s = PackSnapshot {
            time_s: 12.5,
            delivered_j: 3.0,
            ..PackSnapshot::default()
        };
        let d0 = s.digest();
        assert_eq!(d0, s.clone().digest(), "digest is a pure function");
        s.delivered_j = f64::from_bits(s.delivered_j.to_bits() ^ 1);
        assert_ne!(d0, s.digest(), "one ulp of drift must change the digest");
    }
}
