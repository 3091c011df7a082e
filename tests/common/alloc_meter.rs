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
//!
//! [`measure_sites`] also says where the allocations come from: opt-in, it
//! captures a backtrace per allocation and counts them by their innermost
//! `vorx`, `desim` and `hpcnet` frames.

// Each test binary uses its own subset of the readers below.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

// Const-initialised and without destructors: reading them never allocates
// and never registers a thread-exit hook, so the allocator may touch them.
thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    // `measure_sites` is running on this thread.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    // The allocator is recording a site: what that allocates is not counted
    // as a call.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

// One entry per sampled allocation. Its destructor is registered when
// `measure_sites` first touches it, outside the allocator.
thread_local! {
    static SITES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Frames of these crates name a site: a frame is theirs by its symbol's
/// path or, for an inlined frame that prints its bare name, by its source.
const SITE_CRATES: [(&str, &str); 3] = [
    ("vorx::", "crates/core/src/"),
    ("desim::", "crates/desim/src/"),
    ("hpcnet::", "crates/hpcnet/src/"),
];
/// How many of a backtrace's innermost such frames name its site.
const SITE_FRAMES: usize = 3;

struct ThreadCountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`; the counters are
// plain thread-local cells and touch no allocator state.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread can still allocate while its locals are being
        // torn down; those allocations are nobody's measurement.
        let _ = LIVE.try_with(|l| l.set(l.get() + layout.size() as i64));
        if !IN_HOOK.try_with(Cell::get).unwrap_or(true) {
            if SAMPLING.try_with(Cell::get).unwrap_or(false) {
                IN_HOOK.set(true);
                record_site();
                IN_HOOK.set(false);
            }
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        }
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
/// skews both threads' figures. Signed for that reason. Under
/// [`measure_sites`] it includes the site records.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// `f`'s result and the allocator calls the calling thread made while it ran.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = calls();
    let r = f();
    (r, calls() - before)
}

/// `f`'s result and the allocations the calling thread made while it ran,
/// counted by site, most frequent first. A site is the innermost
/// [`SITE_FRAMES`] frames of `vorx`, `desim` or `hpcnet` code on the
/// allocation's backtrace, innermost first, each with its source line when
/// the build carries debug info (an allocation none of them made is
/// `(outside)`); an optimised build names inlined frames by their bare
/// function name. Captures and symbolizes one backtrace per allocation, so it
/// is slow: measure a few hundred allocations, not a benchmark.
pub fn measure_sites<R>(f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    SITES.with(|s| s.borrow_mut().clear());
    SAMPLING.with(|s| s.set(true));
    let r = f();
    SAMPLING.with(|s| s.set(false));
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for site in SITES.with(|s| std::mem::take(&mut *s.borrow_mut())) {
        *counts.entry(site).or_default() += 1;
    }
    let mut sites: Vec<(String, u64)> = counts.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (r, sites)
}

/// Append the calling allocation's site to `SITES`. Runs inside the
/// allocator with `IN_HOOK` set, so what it allocates is neither counted
/// nor sampled.
fn record_site() {
    let trace = Backtrace::force_capture().to_string();
    let mut frames: Vec<String> = Vec::new();
    let mut lines = trace.lines().peekable();
    while let Some(line) = lines.next() {
        // "  12: crate::module::function" then, with debug info,
        // "             at ./path/file.rs:10:5".
        let Some((_, symbol)) = line.split_once(": ") else {
            continue;
        };
        let symbol = symbol.trim_start_matches('<');
        let at = lines.peek().and_then(|l| l.trim().strip_prefix("at "));
        let ours = |(path, dir): &(&str, &str)| {
            symbol.starts_with(path) || at.is_some_and(|a| a.contains(dir))
        };
        if !SITE_CRATES.iter().any(ours) {
            continue;
        }
        frames.push(match at {
            Some(at) => format!("{symbol} ({at})"),
            None => symbol.to_string(),
        });
        if frames.len() == SITE_FRAMES {
            break;
        }
    }
    let site = if frames.is_empty() {
        "(outside)".to_string()
    } else {
        frames.join(" <- ")
    };
    let _ = SITES.try_with(|s| s.borrow_mut().push(site));
}
