//! The campaign checkpoint file: a line-oriented append-only log.
//!
//! Layout:
//!
//! ```text
//! # sdb-campaign checkpoint v1
//! config <16-hex full config digest>
//! dev <cell> <device> <life> <sup> <unmet> <loss> <soc> <bo> <viol> <faults> <ff> <snap-hex> <first-violation|->
//! ```
//!
//! Every float is serialized as the hex of its IEEE-754 bit pattern, and
//! the pack snapshot as hex of its [`sdb_emulator::PackSnapshot`] byte
//! encoding — the checkpoint round-trips records *bit-exactly*, which is
//! what lets a resumed campaign produce a byte-identical final report.
//!
//! The log is append-only and each record is one line, so a campaign
//! killed mid-write leaves at most one truncated final line; the parser
//! tolerates exactly that (the device is simply re-run on resume) while
//! rejecting any other corruption.

use crate::report::DeviceRecord;

/// First line of every checkpoint file.
pub(crate) const CHECKPOINT_HEADER: &str = "# sdb-campaign checkpoint v1";

fn hex_of(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
    }
    s
}

fn bytes_of(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex".to_owned());
    }
    (0..hex.len() / 2)
        .map(|i| {
            u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).map_err(|e| format!("bad hex: {e}"))
        })
        .collect()
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_of(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits `{s}`: {e}"))
}

/// Escapes a first-violation message into a single whitespace-free token:
/// `%`, whitespace, and every non-ASCII byte are percent-encoded.
fn escape(msg: &str) -> String {
    let mut s = String::with_capacity(msg.len());
    for b in msg.bytes() {
        match b {
            b'%' | 0..=b' ' | 0x7f.. => {
                let _ = std::fmt::Write::write_fmt(&mut s, format_args!("%{b:02x}"));
            }
            _ => s.push(b as char),
        }
    }
    s
}

fn unescape(tok: &str) -> Result<String, String> {
    let bytes = tok.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = tok
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated escape".to_owned())?;
            out.push(u8::from_str_radix(hex, 16).map_err(|e| format!("bad escape: {e}"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|e| format!("non-utf8 violation text: {e}"))
}

/// The header block written when a checkpoint file is created.
#[must_use]
pub fn header(config_digest: u64) -> String {
    format!("{CHECKPOINT_HEADER}\nconfig {config_digest:016x}\n")
}

/// One completed device as a checkpoint line (newline-terminated).
#[must_use]
pub fn record_line(rec: &DeviceRecord) -> String {
    format!(
        "dev {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        rec.cell,
        rec.device,
        f64_hex(rec.life_s),
        f64_hex(rec.supplied_j),
        f64_hex(rec.unmet_j),
        f64_hex(rec.loss_j),
        f64_hex(rec.mean_final_soc),
        u8::from(rec.browned_out),
        rec.violations,
        rec.faults_injected,
        rec.ff_ticks,
        hex_of(&rec.snapshot),
        rec.first_violation
            .as_deref()
            .map_or_else(|| "-".to_owned(), escape),
    )
}

fn parse_record(line: &str) -> Result<DeviceRecord, String> {
    let f: Vec<&str> = line.split_ascii_whitespace().collect();
    if f.len() != 14 || f[0] != "dev" {
        return Err(format!("malformed record ({} fields)", f.len()));
    }
    let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|e| format!("bad {what} `{s}`: {e}"))
    };
    Ok(DeviceRecord {
        cell: usize::try_from(parse_u64(f[1], "cell")?).map_err(|e| e.to_string())?,
        device: parse_u64(f[2], "device")?,
        life_s: f64_of(f[3])?,
        supplied_j: f64_of(f[4])?,
        unmet_j: f64_of(f[5])?,
        loss_j: f64_of(f[6])?,
        mean_final_soc: f64_of(f[7])?,
        browned_out: match f[8] {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad brownout flag `{other}`")),
        },
        violations: parse_u64(f[9], "violations")?,
        faults_injected: parse_u64(f[10], "faults")?,
        ff_ticks: parse_u64(f[11], "ff_ticks")?,
        snapshot: bytes_of(f[12])?,
        first_violation: if f[13] == "-" {
            None
        } else {
            Some(unescape(f[13])?)
        },
    })
}

/// Parses a checkpoint file's text, validating the config digest.
///
/// Returns the completed device records in file order (the caller
/// deduplicates and sorts). A truncated *final* line — the signature of a
/// kill mid-append — is silently dropped; corruption anywhere else is an
/// error.
///
/// # Errors
///
/// Returns a message on a missing/mismatching header or config digest, or
/// on a malformed non-final record.
pub fn parse(text: &str, expect_config: u64) -> Result<Vec<DeviceRecord>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l.trim_end() == CHECKPOINT_HEADER => {}
        other => {
            return Err(format!(
                "not a campaign checkpoint (first line {:?})",
                other.unwrap_or("")
            ))
        }
    }
    let config = lines
        .next()
        .and_then(|l| l.strip_prefix("config "))
        .ok_or_else(|| "checkpoint missing config line".to_owned())?;
    let config =
        u64::from_str_radix(config.trim(), 16).map_err(|e| format!("bad config digest: {e}"))?;
    if config != expect_config {
        return Err(format!(
            "checkpoint config digest {config:016x} does not match this campaign \
             ({expect_config:016x}); it was written by a different spec"
        ));
    }
    let body: Vec<&str> = lines.collect();
    let ends_with_newline = text.ends_with('\n');
    let mut records = Vec::with_capacity(body.len());
    for (i, line) in body.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Ok(r) => records.push(r),
            // Only an unterminated final line may be dropped: that is the
            // one state a kill mid-append can leave behind.
            Err(_) if i + 1 == body.len() && !ends_with_newline => {}
            Err(e) => return Err(format!("checkpoint line {}: {e}", i + 3)),
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(violation: Option<&str>) -> DeviceRecord {
        DeviceRecord {
            cell: 7,
            device: 1,
            life_s: 5400.125,
            supplied_j: 1234.5678,
            unmet_j: 0.0,
            loss_j: 17.25,
            mean_final_soc: 0.84375,
            browned_out: true,
            violations: u64::from(violation.is_some()),
            faults_injected: 3,
            ff_ticks: 99,
            first_violation: violation.map(ToString::to_string),
            snapshot: vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0x01],
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for r in [rec(None), rec(Some("t=60.0 s energy identity: |Δ| = 3 J"))] {
            let text = format!("{}{}", header(0xabcd), record_line(&r));
            let parsed = parse(&text, 0xabcd).unwrap();
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0], r);
            assert_eq!(parsed[0].digest(), r.digest());
        }
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let text = header(0x1111);
        let err = parse(&text, 0x2222).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
    }

    #[test]
    fn truncated_final_line_is_dropped_but_interior_corruption_errors() {
        let good = record_line(&rec(None));
        let full = format!("{}{}", header(9), good);
        // Kill mid-append: final line cut short, no trailing newline.
        let truncated = &full[..full.len() - 10];
        let parsed = parse(truncated, 9).unwrap();
        assert!(parsed.is_empty());
        // Two records with the first mangled: hard error.
        let bad = format!("{}dev 1 mangled\n{}", header(9), good);
        assert!(parse(&bad, 9).is_err());
        // Not a checkpoint at all.
        assert!(parse("hello\n", 9).is_err());
    }
}
