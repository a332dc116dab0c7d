//! A counting global allocator: live heap bytes and their high-water
//! mark, so a workload can report how far its timed phase grew the
//! heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// [`System`] plus two counters: bytes currently allocated and the
/// highest value that count reached since the last [`reset_peak`].
pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static BASE: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread may allocate or free before folding its running
/// delta into the shared count. Keeps the shared cache line out of the
/// allocation fast path; the peak is exact to within this much per
/// thread.
const FOLD_BYTES: isize = 16 * 1024;

thread_local! {
    static DELTA: Cell<isize> = const { Cell::new(0) };
}

fn fold(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn track(bytes: isize) {
    let folded = DELTA.try_with(|delta| {
        let pending = delta.get() + bytes;
        if pending.abs() >= FOLD_BYTES {
            delta.set(0);
            fold(pending);
        } else {
            delta.set(pending);
        }
    });
    // Thread-local storage is gone while a thread exits: count directly.
    if folded.is_err() {
        fold(bytes);
    }
}

fn grow(bytes: usize) {
    track(bytes as isize);
}

fn shrink(bytes: usize) {
    track(-(bytes as isize));
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Starts a new high-water window at the current live heap, which
/// becomes the baseline [`peak_mb`] subtracts.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`] above the heap live at
/// that reset, in MiB: the timed phase's own heap growth, without the
/// set-up data it keeps resident. Zero unless the binary installed
/// [`CountingAlloc`] as its global allocator.
pub fn peak_mb() -> f64 {
    let growth = PEAK.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed);
    growth.max(0) as f64 / (1024.0 * 1024.0)
}
