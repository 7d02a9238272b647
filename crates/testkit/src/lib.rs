//! A tiny property-test harness: seeded random cases, no shrinking, no
//! external dependencies.
//!
//! This replaces `proptest` for the workspace's property suites so the
//! whole repository builds and tests with zero registry access. The
//! trade-off is deliberate: we lose shrinking, but every case is derived
//! deterministically from `(suite seed, case index)` via
//! [`sdb_rng::derive_seed`], so a failure report names the exact case seed
//! and `check_case` replays it under a debugger.
//!
//! # Example
//!
//! ```
//! use sdb_testkit::{check, Gen};
//!
//! check(64, 0xC0FFEE, |g: &mut Gen| {
//!     let xs = g.vec_f64(0.0, 10.0, 1..20);
//!     let sum: f64 = xs.iter().sum();
//!     assert!(sum >= 0.0);
//! });
//! ```

pub mod alloc_counter;

pub use alloc_counter::CountingAllocator;

use sdb_rng::{derive_seed, DetRng};

/// Per-case value generator: a deterministic RNG plus sampling helpers
/// shaped like the strategies the old proptest suites used.
#[derive(Debug)]
pub struct Gen {
    rng: DetRng,
}

impl Gen {
    /// A generator for one case, seeded directly.
    #[must_use]
    pub(crate) fn from_seed(seed: u64) -> Self {
        Self {
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.f64_range(lo, hi)
    }

    /// A uniform `u64` in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    /// A uniform `usize` in `[lo, hi)` (like a `lo..hi` range strategy).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.rng.index(hi - lo)
    }

    /// A uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u32_range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.rng.below(u64::from(hi - lo)) as u32
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// A uniformly chosen element of `items` (like `sample::select`).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        self.rng.pick(items).clone()
    }

    /// A vector of uniform `f64`s in `[lo, hi)` with a length drawn from
    /// `len` (like `collection::vec(lo..hi, len)`).
    pub fn vec_f64(&mut self, lo: f64, hi: f64, len: std::ops::Range<usize>) -> Vec<f64> {
        let n = self.usize_range(len.start, len.end);
        (0..n).map(|_| self.f64_range(lo, hi)).collect()
    }

    /// A vector of values built by `f`, with a length drawn from `len`.
    pub fn vec_with<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let n = self.usize_range(len.start, len.end);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Runs `prop` against `cases` random cases derived from `seed`. Panics
/// (propagating the property's own assertion) after printing which case
/// failed and the seed that replays it.
pub fn check(cases: u64, seed: u64, mut prop: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let case_seed = derive_seed(seed, case);
        let mut g = Gen::from_seed(case_seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut g)));
        if let Err(payload) = result {
            eprintln!(
                "property failed on case {case}/{cases} (replay with \
                 sdb_testkit::check_case({case_seed:#x}, ..))"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Replays a single case by its seed (printed by [`check`] on failure).
pub fn check_case(case_seed: u64, mut prop: impl FnMut(&mut Gen)) {
    let mut g = Gen::from_seed(case_seed);
    prop(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_runs_every_case() {
        let mut n = 0;
        check(32, 7, |_| n += 1);
        assert_eq!(n, 32);
    }

    #[test]
    fn cases_differ_but_replay_identically() {
        let mut firsts = Vec::new();
        check(8, 9, |g| firsts.push(g.below(1_000_000)));
        let mut again = Vec::new();
        check(8, 9, |g| again.push(g.below(1_000_000)));
        assert_eq!(firsts, again);
        // Not all cases draw the same value.
        assert!(firsts.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_propagate() {
        check(4, 11, |_| panic!("deliberate"));
    }

    #[test]
    fn generators_stay_in_bounds() {
        check(64, 13, |g| {
            assert!((0.5..2.5).contains(&g.f64_range(0.5, 2.5)));
            assert!((3..9).contains(&g.usize_range(3, 9)));
            assert!((1..5).contains(&g.u32_range(1, 5)));
            let v = g.vec_f64(-1.0, 1.0, 2..6);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
            let picked = g.pick(&[1, 2, 3]);
            assert!([1, 2, 3].contains(&picked));
        });
    }
}
