//! The benchmark under `perfbench/` is its own workspace, built with
//! `--locked` against its committed `Cargo.lock`. A change to a library
//! crate's `[dependencies]`, or to the crate list that lock pins, breaks
//! that build without breaking this workspace's. Resolving the benchmark's
//! graph offline and locked catches it here, in well under a second,
//! without building anything or writing under `perfbench/`.

use std::path::Path;
use std::process::Command;

#[test]
fn perfbench_lock_file_matches_the_library_crates() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("perfbench/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args(["metadata", "--offline", "--locked", "--format-version", "1"])
        .arg("--manifest-path")
        .arg(&manifest)
        .output()
        .expect("run cargo metadata");
    assert!(
        out.status.success(),
        "perfbench's Cargo.lock no longer matches the crates it builds:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
