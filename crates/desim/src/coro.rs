//! The user-space process switch: a stack per simulated process and a
//! hand-written register swap, so resuming or parking a process is a function
//! call on the executor's own OS thread instead of a kernel context-switch
//! pair. This module and its `switch` call sites in `sim` hold the engine's
//! stack-switching `unsafe`.
//!
//! # Contract
//!
//! * Exactly one side of a hand-over runs at a time: the executor is
//!   suspended inside its `switch` call for as long as the process runs, and
//!   the process inside its own while it is parked. Neither can observe the
//!   other half-way.
//! * A process may be resumed by a different OS thread than the one it last
//!   ran on (each `ShardedSim::run` starts fresh worker threads). Process
//!   code must therefore not hold a thread-local borrow or a lock guard
//!   across a park, and no value on a parked process's stack may depend on
//!   the thread that put it there.
//! * A stack is [`STACK_BYTES`] (what a Rust thread reserved when processes
//!   were threads) over one `PROT_NONE` guard page, mapped `MAP_NORESERVE` so
//!   only touched pages cost memory. Overflow hits the guard page and is a
//!   plain `SIGSEGV`: Rust's "stack overflow" message covers only stacks
//!   `std` created. A live process costs two mappings, so one address space
//!   holds about `vm.max_map_count / 2` of them.
//! * Only the integer callee-saved registers are switched. The MXCSR and x87
//!   control words are callee-saved too, but nothing in this program changes
//!   them from their defaults, so both sides always agree.
//!
//! # Porting
//!
//! [`switch`] and the frame [`Stack::new`] lays out for it are written for
//! the x86-64 System V ABI, and the `mmap` flag values are Linux's. There is
//! deliberately no fallback engine: a new target ports those two items.

use std::arch::naked_asm;
use std::io;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "desim::coro supports x86_64 Linux only: port `coro::switch` (the callee-saved \
     register swap) and `coro::Stack::new` (its initial frame and the mmap flag values)"
);

/// Usable bytes of a process stack.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` region below it; at least a page on every page size the
/// stack-probe stride (4 KiB) assumes.
const GUARD_BYTES: usize = 4096;
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

// From the libc `std` already links, as in `affinity`.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// What a process runs, on its own stack. It must not unwind, must drop
/// everything it owns before returning, and returns the stack pointer to
/// leave through (the one the executor's pending [`switch`] saved).
pub(crate) type Body = Box<dyn FnOnce() -> usize + Send>;

/// One process's stack mapping, unmapped on drop. Dropping it with a process
/// still parked on it abandons that process's frames without running their
/// destructors, and before the first switch it leaks the boxed body: the
/// engine enters every process it has not seen finish before letting go.
pub(crate) struct Stack {
    base: *mut u8,
}

// SAFETY: a `Stack` owns its mapping like a `Box<[u8]>` and gives no access to
// the bytes; moving or sharing the handle moves no data. What the bytes hold —
// the frames of a parked process — changes threads only under the module
// contract above.
unsafe impl Send for Stack {}
// SAFETY: as above; `&Stack` offers only `is_current`, which reads `base`.
unsafe impl Sync for Stack {}

impl Stack {
    /// Map a stack and lay out the frame that makes the first [`switch`] to
    /// the returned stack pointer run `body` (through [`boot`] and [`entry`]).
    ///
    /// Panics if the mapping cannot be made (`vm.max_map_count` reached).
    pub(crate) fn new(body: Body) -> (Stack, usize) {
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            let err = io::Error::last_os_error();
            panic!("failed to map a simulated process stack: {err}");
        }
        let stack = Stack { base };
        // SAFETY: the range is the low end of the mapping just made.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            panic!("failed to protect a simulated process stack guard: {err}");
        }
        // From the top of the mapping downwards: a null return address
        // (`entry` runs as if called from nowhere, so an unwinder or backtrace
        // stops there), `boot` for `switch`'s `ret`, then what `switch` pops:
        // the boxed body for `rbx` and null for the other five registers (a
        // null `rbp` ends a frame-pointer walk). After the `ret`, `rsp` ≡ 8
        // (mod 16), as the ABI has it at a function's first instruction.
        let body = Box::into_raw(Box::new(body)) as usize;
        let frame = [0, 0, 0, 0, body, 0, boot as *const () as usize, 0];
        // SAFETY: the mapping's end is page-aligned and the 64 bytes below it
        // are the top of its read-write part.
        let sp = unsafe {
            let sp = base.add(MAP_BYTES).cast::<[usize; 8]>().sub(1);
            sp.write(frame);
            sp as usize
        };
        (stack, sp)
    }

    /// True when the caller is executing on this stack.
    pub(crate) fn is_current(&self) -> bool {
        let probe = 0u8;
        let here = std::ptr::addr_of!(probe) as usize;
        (self.base as usize..self.base as usize + MAP_BYTES).contains(&here)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours, and nothing runs on it: whoever
        // switches onto a stack holds its owner for the length of the call.
        let rc = unsafe { munmap(self.base, MAP_BYTES) };
        debug_assert_eq!(rc, 0, "munmap of a process stack failed");
    }
}

/// Suspend the caller and continue whoever saved the stack pointer `load`:
/// push the callee-saved registers, store `rsp` to `*save`, adopt `load`, pop
/// the other side's registers and return into it. The other side sees its own
/// `switch` call return (a stack fresh from [`Stack::new`] starts its body
/// instead). Returns when someone switches back to `*save`.
///
/// # Safety
///
/// `load` must be a stack pointer that [`Stack::new`] returned or that a
/// `switch` stored, on a stack that is still mapped, and it must be used at
/// most once: the frame it names is consumed. Nothing else may be running on
/// that stack. `save` must be valid for a write and stay valid until someone
/// switches back through the value stored there.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut usize, load: usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh stack's first `switch` lands: `ret` brings it here with the
/// boxed body in `rbx`, which becomes [`entry`]'s argument.
#[unsafe(naked)]
unsafe extern "C" fn boot() -> ! {
    naked_asm!("mov rdi, rbx", "jmp {entry}", entry = sym entry)
}

/// Run the boxed body, then leave this stack for good through the stack
/// pointer it returned. An unwind out of the body aborts here, at the
/// `extern "C"` boundary, rather than running off the top of the stack.
extern "C" fn entry(body: usize) -> ! {
    // SAFETY: `body` is the pointer `Stack::new` leaked into this stack's
    // first frame, and that frame is consumed exactly once.
    let body = unsafe { Box::from_raw(body as *mut Body) };
    let back = body();
    let mut unused = 0;
    // SAFETY: `back` is what the executor's pending `switch` into this
    // process saved (the body's contract), so that call is suspended on a
    // live stack. This stack owns nothing any more, and `unused` is never
    // switched to, so it need not outlive this frame.
    unsafe { switch(&mut unused, back) };
    unreachable!("a finished simulated process was resumed")
}
