//! Counting global allocator: allocation events, live bytes and peak live
//! bytes, for `bench.alloc_count` and `peak_heap_mb`.
//!
//! The library crates stay `forbid(unsafe_code)`; the one `unsafe impl`
//! the measurement needs lives here, in the benchmark package.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts what passes through.
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// Relaxed throughout: the counters are statistics and publish no other data.
fn on_alloc(size: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counting around the
// calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` come from `System`; `new_size` is the
        // caller's, under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events since process start.
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Highest live heap, in bytes, since process start.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Run `f` without letting its allocations raise the recorded peak. The
/// benchmark's own correctness checks (re-snapshotting a restored service to
/// compare bytes) are not the measured workload.
pub fn outside_peak<T>(f: impl FnOnce() -> T) -> T {
    let before = PEAK_BYTES.load(Ordering::Relaxed);
    let out = f();
    let now = CURRENT_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before.max(now), Ordering::Relaxed);
    out
}
