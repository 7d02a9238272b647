//! Captures the rustc version that built the benchmark, for the run
//! record; `"unknown"` when it cannot be probed. Cargo reruns build
//! scripts when the toolchain changes, so the stamp stays current.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC")
        .ok()
        .and_then(|rustc| Command::new(rustc).arg("--version").output().ok())
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc}");
    println!("cargo:rerun-if-changed=build.rs");
}
