//! The counting allocator shared by the allocation-budget tests. Each test
//! binary that needs it pulls this file in with
//! `#[path = "common/alloc_meter.rs"] mod alloc_meter;`, which also installs
//! it as that binary's global allocator.
//!
//! Counts are kept **per thread**: libtest runs a binary's tests on parallel
//! threads (and its own harness allocates), so a process-wide counter charges
//! one test with its neighbours' allocations. A test reads the counters of
//! the thread it runs on. That covers a whole sequential `Simulation` run:
//! events and simulated processes alike execute on the thread that calls
//! `run`. Work handed to other OS threads (sharded workers) is not counted.

// Each test binary uses its own subset of the readers below.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Const-initialised and without destructors: reading them never allocates
// and never registers a thread-exit hook, so the allocator may touch them.
thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct ThreadCountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`; the counters are
// plain thread-local cells and touch no allocator state.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread can still allocate while its locals are being
        // torn down; those allocations are nobody's measurement.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        let _ = LIVE.try_with(|l| l.set(l.get() + layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// Allocator calls (`alloc`, and `realloc` through its default) the calling
/// thread has made so far.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Bytes the calling thread has requested so far.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes the calling thread has requested and not freed: what it allocated
/// minus what it released, so memory one thread allocates and another frees
/// skews both threads' figures. Signed for that reason.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// `f`'s result and the allocator calls the calling thread made while it ran.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = calls();
    let r = f();
    (r, calls() - before)
}
