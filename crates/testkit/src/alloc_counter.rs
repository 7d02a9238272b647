//! A counting global allocator for allocation-freedom tests.
//!
//! Wraps [`std::alloc::System`] and counts every allocation on
//! **thread-local** counters, so parallel `#[test]` threads never pollute
//! each other's measurements. Install it once per test binary:
//!
//! ```ignore
//! use sdb_testkit::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! #[test]
//! fn hot_path_is_allocation_free() {
//!     warm_up();
//!     let before = sdb_testkit::alloc_counter::allocs();
//!     hot_path();
//!     assert_eq!(sdb_testkit::alloc_counter::allocs() - before, 0);
//! }
//! ```
//!
//! Only `alloc`, `alloc_zeroed`, and `realloc` are counted — `dealloc` is
//! free in the sense that a steady-state loop that never allocates also
//! never frees, so the allocation count alone proves the property.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations made by the current thread since it started.
#[must_use]
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A [`GlobalAlloc`] that delegates to the system allocator while counting
/// each allocation on a thread-local counter.
#[derive(Debug, Default)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new counting allocator (stateless; all state is thread-local).
    #[must_use]
    pub const fn new() -> Self {
        Self
    }
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counters only touch thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}
