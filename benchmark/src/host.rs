//! The host side of a measurement: CPU pinning, memory high-water mark,
//! allocation counting, and the machine state recorded beside every number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Value;

/// Version of the report layout; bump when a field changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

// The two libc calls pinning needs, declared here so the benchmark does not
// depend on `desim::affinity` surviving a change to how processes run.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask handed to the kernel: 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// CPUs this process may run on, ascending. Empty where unsupported.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..MASK_WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Pin the calling thread (and every thread it later spawns) to the last CPU
/// it is allowed on. Returns the CPU, or `None` if pinning is unavailable.
///
/// Simulated processes are OS threads handed a baton, so every process switch
/// is a park/unpark pair; unpinned, the pair crosses CPUs and a run's wall
/// time becomes bimodal (README, "found while sizing"). One CPU makes it
/// repeat.
pub fn pin_to_last_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            return Some(cpu);
        }
    }
    None
}

/// The leading fields of `struct rusage` on 64-bit Linux: two `timeval`s,
/// then fourteen `long`s of which `ru_nvcsw` is the thirteenth.
#[cfg(target_os = "linux")]
#[repr(C)]
#[derive(Default)]
struct Rusage {
    times: [i64; 4],
    longs: [i64; 14],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Voluntary context switches of this process so far, exited threads
/// included. Every park of a simulated process's thread is one, so this
/// counts the thread handoffs a run made. 0 where unsupported.
pub fn voluntary_ctx_switches() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` (144 bytes on
        // 64-bit Linux, as laid out above); 0 is RUSAGE_SELF.
        if unsafe { getrusage(0, &mut ru) } == 0 {
            return u64::try_from(ru.longs[12]).unwrap_or(0);
        }
    }
    0
}

/// A named field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Counts allocations while [`CountingAlloc::count`] is on (a rep's run
/// phase: two relaxed adds per allocation); otherwise one relaxed load per
/// call on top of the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and guard no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

impl CountingAlloc {
    /// Turn counting on or off (on only inside a rep's run phase).
    pub fn count(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// `(allocations, bytes requested)` counted so far.
    pub fn totals() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine state a number was taken on. `pinned_cpu` is the CPU the
/// measuring children pin themselves to (the last allowed one).
pub fn metadata(seed: u64) -> Value {
    let cpus = allowed_cpus();
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    Value::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with(
            "git_rev",
            // The acceptance checkout is not a git repository; say so.
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        )
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        )
        .with("allowed_cpus", cpus.clone())
        .with(
            "pinned_cpu",
            cpus.last().map_or(Value::Null, |&c| Value::from(c)),
        )
        .with("loadavg_1m_at_start", load.map_or(Value::Null, Value::from))
        .with("seed", seed)
}
