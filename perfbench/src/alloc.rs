//! A counting global allocator: live and peak heap bytes for
//! `peak_heap_mb`. The benchmark binary installs it with
//! `#[global_allocator]`; without it (library tests) both counters read 0.
//! [`keep_freed_memory`] steadies the system allocator underneath it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`] and counts bytes. The counters are statistics
/// that publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

fn added(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn removed(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the memory handed out satisfies `GlobalAlloc`'s contract exactly as
// `System`'s does; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is what `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            added(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            added(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        removed(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size requirements.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            removed(layout.size());
            added(new_size);
        }
        new
    }
}

/// Highest live heap since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak at the heap that is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Makes glibc's `malloc` keep freed memory for reuse instead of handing
/// it back to the kernel. By default it maps large blocks afresh and trims
/// the heap as blocks are freed, so `lossy_30k` spent about 8% of its
/// run (on a 2-CPU virtual machine) faulting in pages it had just freed,
/// at a cost that swings with the host's memory load. Allocation calls
/// themselves still count.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // `mallopt` parameters from glibc's `malloc.h`.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only retunes the allocator and is safe to
        // call at any time; 32 MiB is glibc's largest mmap threshold.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}
