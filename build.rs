//! Build script for the `sdb` binary: captures build identity
//! (short git hash, rustc version) into compile-time env vars so
//! `sdb --version` can report them. Every probe
//! falls back to `"unknown"` — builds from a tarball (no `.git`) or with
//! an unusual toolchain layout must still succeed.

use std::process::Command;

fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_owned())
}

fn main() {
    let git_hash =
        probe("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::env::var("RUSTC")
        .ok()
        .and_then(|rustc| probe(&rustc, &["--version"]))
        .or_else(|| probe("rustc", &["--version"]))
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=SDB_GIT_HASH={git_hash}");
    println!("cargo:rustc-env=SDB_RUSTC_VERSION={rustc}");
    // Re-run when HEAD moves so the embedded hash stays honest. A
    // checkout without `.git` declares only this script: a missing
    // rerun path would make cargo re-run it, and re-link the binaries,
    // on every build.
    if std::path::Path::new(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=.git/HEAD");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
