//! A small self-contained micro-benchmark harness (no external crates).
//!
//! Replaces the Criterion dependency for this workspace's `harness =
//! false` bench targets. Each benchmark auto-calibrates an iteration count
//! to a target sample duration, takes several samples, and reports the
//! minimum and median ns/iteration (minimum is the least noisy estimator
//! on a shared machine; median guards against a lucky outlier).
//!
//! Environment knobs:
//!
//! * `SDB_BENCH_QUICK=1` — shrink sample counts/durations for CI smoke
//!   runs.
//! * A positional command-line argument filters benchmarks by substring
//!   (flags such as Cargo's `--bench` are ignored).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub(crate) name: String,
    /// Iterations per sample after calibration.
    pub(crate) iters: u64,
    /// Samples taken.
    pub(crate) samples: usize,
    /// Fastest observed ns/iteration.
    pub min_ns: f64,
    /// Median observed ns/iteration.
    pub(crate) median_ns: f64,
}

/// Collects and prints benchmark results for one bench binary.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    quick: bool,
    results: Vec<BenchResult>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_args()
    }
}

impl Harness {
    /// A harness configured from the process arguments and environment.
    #[must_use]
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "quick");
        let quick = std::env::var("SDB_BENCH_QUICK").is_ok_and(|v| v == "1");
        Self {
            filter,
            quick,
            results: Vec::new(),
        }
    }

    fn skip(&self, name: &str) -> bool {
        self.filter.as_ref().is_some_and(|f| !name.contains(f))
    }

    fn target_sample(&self) -> Duration {
        if self.quick {
            Duration::from_millis(20)
        } else {
            Duration::from_millis(150)
        }
    }

    fn sample_count(&self) -> usize {
        if self.quick {
            3
        } else {
            7
        }
    }

    /// Measures `f` (setup included in the loop body is measured; keep it
    /// out of `f` or use [`Harness::bench_batched`]).
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if self.skip(name) {
            return;
        }
        // Calibrate: double the iteration count until one sample takes at
        // least the target duration.
        let target = self.target_sample();
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= target || iters >= 1 << 30 {
                break;
            }
            // Jump close to the target, at least doubling.
            let scale = target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = (iters * 2).max((iters as f64 * scale).ceil() as u64);
        }
        let mut per_iter: Vec<f64> = (0..self.sample_count())
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        self.record(name, iters, per_iter.as_mut_slice());
    }

    /// Measures `routine` only, re-running `setup` before every iteration
    /// (the Criterion `iter_batched` pattern, for routines that consume or
    /// mutate their input).
    pub fn bench_batched<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        if self.skip(name) {
            return;
        }
        let target = self.target_sample();
        let mut iters: u64 = 1;
        loop {
            let mut measured = Duration::ZERO;
            for _ in 0..iters {
                let s = setup();
                let start = Instant::now();
                black_box(routine(black_box(s)));
                measured += start.elapsed();
            }
            if measured >= target || iters >= 1 << 30 {
                break;
            }
            let scale = target.as_secs_f64() / measured.as_secs_f64().max(1e-9);
            iters = (iters * 2).max((iters as f64 * scale).ceil() as u64);
        }
        let mut per_iter: Vec<f64> = (0..self.sample_count())
            .map(|_| {
                let mut measured = Duration::ZERO;
                for _ in 0..iters {
                    let s = setup();
                    let start = Instant::now();
                    black_box(routine(black_box(s)));
                    measured += start.elapsed();
                }
                measured.as_nanos() as f64 / iters as f64
            })
            .collect();
        self.record(name, iters, per_iter.as_mut_slice());
    }

    /// Like [`Harness::bench_batched`], but the routine performs `units`
    /// logical operations per call and the recorded numbers are divided by
    /// `units` — so a routine that steps an emulator 100 times reports
    /// ns/step rather than ns/routine-call.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn bench_batched_scaled<S, T>(
        &mut self,
        name: &str,
        units: u64,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        assert!(units > 0, "units must be positive");
        if self.skip(name) {
            return;
        }
        let target = self.target_sample();
        let mut iters: u64 = 1;
        loop {
            let mut measured = Duration::ZERO;
            for _ in 0..iters {
                let s = setup();
                let start = Instant::now();
                black_box(routine(black_box(s)));
                measured += start.elapsed();
            }
            if measured >= target || iters >= 1 << 30 {
                break;
            }
            let scale = target.as_secs_f64() / measured.as_secs_f64().max(1e-9);
            iters = (iters * 2).max((iters as f64 * scale).ceil() as u64);
        }
        let mut per_unit: Vec<f64> = (0..self.sample_count())
            .map(|_| {
                let mut measured = Duration::ZERO;
                for _ in 0..iters {
                    let s = setup();
                    let start = Instant::now();
                    black_box(routine(black_box(s)));
                    measured += start.elapsed();
                }
                measured.as_nanos() as f64 / (iters * units) as f64
            })
            .collect();
        self.record(name, iters, per_unit.as_mut_slice());
    }

    /// Measures `f` exactly once per sample with a small sample count, for
    /// multi-second end-to-end jobs where calibration would be wasteful.
    pub fn bench_heavy<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if self.skip(name) {
            return;
        }
        let samples = if self.quick { 1 } else { 3 };
        let mut per_iter: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        self.record(name, 1, per_iter.as_mut_slice());
    }

    fn record(&mut self, name: &str, iters: u64, per_iter: &mut [f64]) {
        per_iter.sort_unstable_by(f64::total_cmp);
        let result = BenchResult {
            name: name.to_owned(),
            iters,
            samples: per_iter.len(),
            min_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
        };
        println!(
            "{:<44} {:>14}  {:>14}   ({} iters x {} samples)",
            result.name,
            format_ns(result.min_ns),
            format_ns(result.median_ns),
            result.iters,
            result.samples
        );
        self.results.push(result);
    }

    /// All results so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing header line. Call once at the end of `main`.
    pub fn finish(&self) {
        println!(
            "\n{} benchmarks ({} mode); columns: min ns/iter, median ns/iter",
            self.results.len(),
            if self.quick { "quick" } else { "full" }
        );
    }
}

/// Pretty-prints nanoseconds with unit scaling.
#[must_use]
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut h = Harness {
            filter: None,
            quick: true,
            results: Vec::new(),
        };
        let mut n: u64 = 0;
        h.bench("spin", || {
            n = n.wrapping_add(1);
            n
        });
        assert_eq!(h.results().len(), 1);
        let r = &h.results()[0];
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness {
            filter: Some("only_this".to_owned()),
            quick: true,
            results: Vec::new(),
        };
        h.bench("something_else", || 1);
        assert!(h.results().is_empty());
        h.bench("only_this_one", || 1);
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn batched_setup_is_not_measured() {
        let mut h = Harness {
            filter: None,
            quick: true,
            results: Vec::new(),
        };
        h.bench_batched("batched", || vec![1u64; 16], |v| v.iter().sum::<u64>());
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(500.0), "500 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.00 s");
    }
}
