//! A counting global allocator for the harness binary.
//!
//! Counting is off by default, so untraced runs pay one relaxed load per
//! allocation; the traced run switches it on around the passes whose
//! allocations it reports (`alloc.count`, `alloc.bytes`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus allocation counters. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (count, bytes requested) made while `f` ran, from every
/// thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    let (c1, b1) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    (out, c1 - c0, b1 - b0)
}
