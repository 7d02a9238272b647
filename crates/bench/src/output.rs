//! Pipe-safe stdout emission for the harness binaries.
//!
//! `println!` panics on `EPIPE`, so `figures all | head` would abort with
//! a backtrace. CLI tools are routinely piped into `head`/`grep`; treat a
//! closed pipe as a normal early exit instead.

use std::io::{ErrorKind, Write};

/// Writes `text` to stdout; exits the process cleanly (status 0) if the
/// reader closed the pipe.
pub fn emit(text: &str) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Err(e) = lock.write_all(text.as_bytes()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("write error: {e}");
        std::process::exit(1);
    }
    let _ = lock.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_without_panicking() {
        emit("");
        emit("ok\n");
    }
}
