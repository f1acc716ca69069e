//! A counting global allocator: live and peak heap bytes per thread, so a
//! compile's peak heap is `peak − live-at-start` on the thread that ran
//! it. Plain thread-local cells keep the cost per allocation to a few
//! instructions; atomics shared by all threads cost ~13% of a compile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised cells without destructors: reading them never
    // allocates, so the allocator may use them.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting live and peak bytes per thread. Memory
/// freed by another thread than the one that allocated it moves both
/// threads' counts; a compile allocates and frees on its own thread.
pub struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.with(|l| {
        let now = l.get() + bytes as isize;
        l.set(now);
        now
    });
    PEAK.with(|p| p.set(p.get().max(now)));
}

fn shrank(bytes: usize) {
    LIVE.with(|l| l.set(l.get() - bytes as isize));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are bookkeeping only and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
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

/// Start a peak window on this thread: the peak is reset to the current
/// live bytes, which are returned as the window's baseline.
pub fn start_window() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

/// Peak live bytes on this thread since [`start_window`] returned
/// `baseline`, above it.
pub fn window_peak(baseline: isize) -> usize {
    PEAK.with(Cell::get).saturating_sub(baseline).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sees_the_peak_not_the_end() {
        let base = start_window();
        let big = vec![0u8; 1 << 20];
        drop(std::hint::black_box(big));
        let small = vec![0u8; 1 << 10];
        let peak = window_peak(base);
        assert!(peak >= 1 << 20, "{peak}");
        assert!(peak < (1 << 20) + (1 << 16), "{peak}");
        drop(small);
    }
}
