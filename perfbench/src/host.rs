//! Host facts stamped into every run record.

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The 1/5/15-minute load averages from `/proc/loadavg`.
#[must_use]
pub fn loadavg() -> [f64; 3] {
    let mut out = [0.0; 3];
    if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
        for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
            *slot = field.parse().unwrap_or(0.0);
        }
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `rustc --version` of the toolchain that built the benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Short hash of the checked-out commit, read when the run starts, or
/// `"unknown"` when the working directory is not the root of a git
/// checkout.
#[must_use]
pub fn git_hash() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Iterations of the host-speed kernel, about 2 ms of work.
const SPEED_ITERS: u32 = 100_000;

/// The host-speed kernel's time on the reference host (2-vCPU Intel
/// Xeon, at its fast end), seconds. Host-speed-adjusted times are
/// scaled to this speed.
pub const SPEED_REF_S: f64 = 0.0018;

/// Times one run of a fixed floating-point kernel (the exp, ln and
/// divide mix of a cell-model step over a small array), in seconds.
///
/// Other tenants of a shared host change how fast this process runs by
/// up to a third, over spells from milliseconds to hours. The kernel is
/// benchmark code that no change to the library touches, so a library
/// call's time × [`SPEED_REF_S`] ÷ the kernel's time next to it is the
/// call's time at the reference speed: host drift cancels, and a change
/// to the library still shows in full.
#[must_use]
pub fn speed_sample_s() -> f64 {
    let t0 = std::time::Instant::now();
    let mut v = [0.5f64; 64];
    let mut acc = 0.0;
    for k in 0..std::hint::black_box(SPEED_ITERS) {
        let i = (k as usize) & 63;
        let x = v[i];
        let y = (-(x * 0.37 + 0.01)).exp() * 0.9 + (x + 1.0).ln() * 0.05 + 1.0 / (x + 1.3);
        v[i] = y.fract().abs();
        acc += y;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}
