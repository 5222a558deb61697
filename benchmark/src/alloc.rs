//! The benchmark's own counting allocator.
//!
//! Memory metrics come from here rather than from RSS: live bytes, the
//! peak of live bytes, and the number and volume of allocations are a
//! pure function of the program and its inputs, so they repeat exactly
//! where `VmHWM` moves by percents between runs of identical code.
//!
//! The benchmark is single-threaded (`Campaign::jobs(1)` everywhere),
//! so the relaxed load/store pair that maintains the peak never races.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    let size = size as u64;
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the additions only update counters and never touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// What one rep allocated, read by [`Window::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// Highest live-byte count reached inside the window, counting what
    /// was already live when it opened (the reused worlds).
    pub peak_bytes: u64,
    /// Allocation calls (alloc, alloc_zeroed, realloc) inside the window.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
}

/// A measurement window over the global counters: opening one resets
/// the peak to the current live bytes.
pub struct Window {
    count0: u64,
    bytes0: u64,
}

impl Window {
    pub fn open() -> Window {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
        Window {
            count0: COUNT.load(Relaxed),
            bytes0: BYTES.load(Relaxed),
        }
    }

    pub fn close(self) -> HeapUse {
        HeapUse {
            peak_bytes: PEAK.load(Relaxed),
            allocs: COUNT.load(Relaxed) - self.count0,
            alloc_bytes: BYTES.load(Relaxed) - self.bytes0,
        }
    }
}
