//! Allocation-counting harness (behind the test-only `alloc-count` feature).
//!
//! A thin wrapper over the system allocator that counts every allocation
//! and reallocation on the current thread, so benches and regression
//! tests can assert that a hot path is allocation-free without guessing
//! from throughput numbers.
//!
//! Install it in a test or bench **binary** (never in library code):
//!
//! ```ignore
//! use hpcmon_metrics::alloc_count::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let before = hpcmon_metrics::alloc_count::thread_allocations();
//! hot_path();
//! assert_eq!(hpcmon_metrics::alloc_count::thread_allocations(), before);
//! ```
//!
//! The count is per thread because test binaries run many tests
//! concurrently: only the current thread's count isolates the code under
//! measurement.  The counter is const-initialized thread-local state, so
//! reading it never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that counts allocations (and reallocations) before
/// delegating to the system allocator.  Frees are not counted: the signal
/// of interest is "how many times did this path hit the allocator".
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn count(&self) {
        // `try_with`: the TLS slot may already be torn down during thread
        // exit, and allocations from destructors must not panic.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: pure pass-through to `System` plus counter updates that never
// allocate (atomics and const-initialized TLS).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }
}

/// Allocations observed on the **current thread** since it started.  The
/// right counter for regression tests: concurrent test threads do not
/// pollute it.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}
