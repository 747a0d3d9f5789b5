//! The counting global allocator the zero-allocation tests share.
//!
//! It counts every allocation-side call in the whole process, because
//! worker threads must not allocate either. So each test binary holds
//! one measured test: the harness allocates on a test's thread when that
//! thread starts and after its test returns, and on a loaded machine
//! either can land inside another test's window, even with the two
//! tests serialized behind a lock.

use ptdg_core::exec::{ExecConfig, Executor};
use ptdg_core::rt::ThrottleConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation-side call; frees are uncounted (recycling is
/// allowed to release memory late, it just must not *acquire* any).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls so far. SeqCst snapshot: at both fence points of a
/// window the test's workers are parked or quiesced at a barrier.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// An executor with profiling off on the unbounded throttle.
#[allow(dead_code)] // unused by the discovery-only binary
pub fn quiet_executor(n_workers: usize) -> Executor {
    let exec = Executor::new(ExecConfig {
        n_workers,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        ..Default::default()
    });
    // A worker thread allocates once as it starts (the runtime records
    // its name): return once every worker has started and parked, so a
    // late start cannot land in a window.
    while exec.take_obs().counters.parks < n_workers as u64 {
        std::thread::yield_now();
    }
    exec
}
