//! Live-heap accounting: a global allocator that forwards to the
//! system allocator and counts the bytes currently allocated, except
//! inside [`uncounted`] (the benchmark's own host-speed references).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated and not yet freed. A statistic only: it
/// publishes no other data, so `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs inside [`uncounted`].
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The counting allocator installed as `#[global_allocator]`.
#[derive(Debug)]
pub struct Counting;

fn counted() -> bool {
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    if counted() {
        LIVE.fetch_add(bytes, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if counted() {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Runs `f` with its allocations and frees left out of the live heap.
/// Whatever `f` allocates must also be freed inside `uncounted`.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = UNCOUNTED.with(|u| u.replace(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(was));
    out
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters are
// only updated after the system call and never affect the returned
// pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Live heap the benchmark itself holds before any pass runs.
static BASELINE: AtomicUsize = AtomicUsize::new(0);

/// Records the current live heap as the benchmark's own footprint.
pub fn set_baseline() {
    BASELINE.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Live heap above the baseline, in bytes.
pub fn live_above_baseline() -> usize {
    LIVE.load(Ordering::Relaxed)
        .saturating_sub(BASELINE.load(Ordering::Relaxed))
}
