//! The user-space process switch: one run stack per simulation, a saved frame
//! image per suspended process, and a hand-written register swap, so resuming
//! or parking a process is a function call on the executor's own OS thread
//! instead of a kernel context-switch pair. This module and its call sites in
//! `sim` hold the engine's stack-switching `unsafe`.
//!
//! # Contract
//!
//! * Exactly one side of a hand-over runs at a time: the executor is
//!   suspended inside its `switch` call for as long as the process runs, and
//!   a parked process is not on any stack at all: its frames are plain bytes
//!   in its image until the executor copies them back to where they were.
//! * Every process of a simulation runs at the same addresses: its frames
//!   occupy the top of the run stack while it runs and nowhere else. Nothing
//!   outside a process may therefore hold a pointer into its frames across a
//!   park — once it parks, those addresses hold another process's frames.
//!   All code today keeps to that, and `'static` bounds on process bodies,
//!   events and the world guarantee it for safe code.
//! * A process may be resumed by a different OS thread than the one it last
//!   ran on (each `ShardedSim::run` starts fresh worker threads). Process
//!   code must therefore not hold a thread-local borrow or a lock guard
//!   across a park, and no value in a parked process's frames may depend on
//!   the thread that put it there.
//! * The run stack is [`STACK_BYTES`] (what a Rust thread reserved when
//!   processes were threads) over one `PROT_NONE` guard page, mapped
//!   `MAP_NORESERVE` so only touched pages cost memory. Overflow hits the
//!   guard page and is a plain `SIGSEGV`: Rust's "stack overflow" message
//!   covers only stacks `std` created.
//! * A process parked *D* bytes deep costs *D* bytes of heap and no mapping
//!   ([`Stack::save`] sizes a buffer to the depth exactly and keeps it while
//!   later parks go no deeper), and each resume copies 2 × *D* bytes: the
//!   image in, and the frames back out at the next park.
//! * Only the integer callee-saved registers are switched. The MXCSR and x87
//!   control words are callee-saved too, but nothing in this program changes
//!   them from their defaults, so both sides always agree.
//!
//! # Porting
//!
//! [`switch`] and the frame [`boot_frame`] lays out for it are written for
//! the x86-64 System V ABI, and the `mmap` flag values are Linux's. There is
//! deliberately no fallback engine: a new target ports those items.

use std::arch::naked_asm;
use std::io;
use std::mem::MaybeUninit;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "desim::coro supports x86_64 Linux only: port `coro::switch` (the callee-saved \
     register swap), `coro::boot_frame` (its initial frame) and `coro::Stack::new` \
     (the mmap flag values)"
);

/// Usable bytes of a run stack: how deep a process can go.
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

// From the libc `std` already links.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// What a process runs, on the run stack. It must not unwind, must drop
/// everything it owns before returning, and returns the stack pointer to
/// leave through (the one the executor's pending [`switch`] saved).
pub(crate) type Body = Box<dyn FnOnce() -> usize + Send>;

/// A process's frames while it is suspended: the bytes from its saved stack
/// pointer up to the top of the run stack, lowest address first.
pub(crate) enum Image {
    /// Not started yet: the address of the boxed [`Body`], from which
    /// [`Stack::restore`] lays out the frame [`boot_frame`] describes.
    Fresh(usize),
    /// What the last park left on the run stack, padding and dead slots
    /// included. The buffer's capacity is the deepest park so far.
    Parked(Vec<MaybeUninit<u8>>),
}

/// No frames and no allocation: what stands in for a process's image while
/// it runs, or once it has finished.
impl Default for Image {
    fn default() -> Self {
        Image::Parked(Vec::new())
    }
}

/// The image whose first [`switch`] runs `body` (through [`boot`] and
/// [`entry`]).
///
/// The body is leaked into the image: an image dropped before its first
/// switch leaks it, and a parked one dropped abandons the process's frames
/// without running their destructors. The engine enters every process it has
/// not seen finish before letting go.
pub(crate) fn first_frame(body: Body) -> Image {
    Image::Fresh(Box::into_raw(Box::new(body)) as usize)
}

/// The frame that makes a [`switch`] into it run the boxed body at `body`, to
/// sit at the very top of a run stack. From the top downwards: a null return
/// address (`entry` runs as if called from nowhere, so an unwinder or
/// backtrace stops there), `boot` for `switch`'s `ret`, then what `switch`
/// pops: the body for `rbx` and null for the other five registers (a null
/// `rbp` ends a frame-pointer walk). After the `ret`, `rsp` ≡ 8 (mod 16), as
/// the ABI has it at a function's first instruction.
fn boot_frame(body: usize) -> [usize; 8] {
    [0, 0, 0, 0, body, 0, boot as *const () as usize, 0]
}

/// A simulation's run stack, unmapped on drop: the one mapping every process
/// of the simulation runs on, one at a time.
pub(crate) struct Stack {
    base: *mut u8,
}

// SAFETY: a `Stack` owns its mapping like a `Box<[u8]>`; moving or sharing the
// handle moves no data. What the bytes hold — the frames of the one process
// that is running — changes threads only under the module contract above.
unsafe impl Send for Stack {}
// SAFETY: as above; through `&Stack` safe code can only call `is_current`,
// which reads `base`, and `restore`/`save` are `unsafe fn`s whose callers
// vouch nothing else touches the bytes.
unsafe impl Sync for Stack {}

impl Stack {
    /// Map a run stack.
    ///
    /// Panics if the mapping cannot be made (`vm.max_map_count` reached).
    pub(crate) fn new() -> Stack {
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
            panic!("failed to map a simulation's run stack: {err}");
        }
        let stack = Stack { base };
        // SAFETY: the range is the low end of the mapping just made.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            panic!("failed to protect a run stack's guard page: {err}");
        }
        stack
    }

    /// The address just past the stack's highest byte; page-aligned.
    fn top(&self) -> usize {
        self.base as usize + MAP_BYTES
    }

    /// True when the caller is executing on this stack.
    pub(crate) fn is_current(&self) -> bool {
        let probe = 0u8;
        let here = std::ptr::addr_of!(probe) as usize;
        (self.base as usize..self.top()).contains(&here)
    }

    /// Put a suspended process's frames back at the top of the stack, where
    /// they were saved from, and return the stack pointer to [`switch`] to.
    ///
    /// # Safety
    ///
    /// Nothing may be running on this stack, the caller included, and nothing
    /// else may touch its bytes during the call.
    pub(crate) unsafe fn restore(&self, image: &Image) -> usize {
        let frame;
        let (bytes, len) = match image {
            Image::Fresh(body) => {
                frame = boot_frame(*body);
                (frame.as_ptr().cast::<u8>(), size_of_val(&frame))
            }
            Image::Parked(buf) => (buf.as_ptr().cast::<u8>(), buf.len()),
        };
        assert!(len <= STACK_BYTES, "image deeper than the run stack");
        let sp = self.top() - len;
        // SAFETY: `bytes` is valid for `len` bytes (a whole array, a whole
        // `Vec`), `[sp, top)` lies in the mapping's read-write part (checked
        // above), which the caller vouches is idle and ours alone, and a heap
        // buffer or a local of the caller's (who is not on this stack) cannot
        // overlap it.
        unsafe { std::ptr::copy_nonoverlapping(bytes, sp as *mut u8, len) };
        sp
    }

    /// Copy the frames of the process that just parked at `sp` — `[sp, top)`
    /// — out into `image`. Nothing below `sp` is live: the process got there
    /// through a real call to [`switch`], so it left no red zone.
    ///
    /// # Safety
    ///
    /// `sp` must be the stack pointer a [`switch`] running on this stack just
    /// stored, and nothing may be running on this stack, the caller included.
    pub(crate) unsafe fn save(&self, sp: usize, image: &mut Image) {
        let depth = self
            .top()
            .checked_sub(sp)
            .filter(|&d| d <= STACK_BYTES)
            .expect("a parked process's stack pointer lies on the run stack");
        // Reuse the buffer when it is big enough; otherwise replace it with
        // one of exactly this depth, so an image never holds more than the
        // deepest park so far.
        let mut buf = match std::mem::replace(image, Image::Parked(Vec::new())) {
            Image::Parked(buf) if buf.capacity() >= depth => buf,
            _ => Vec::with_capacity(depth),
        };
        // SAFETY: `[sp, top)` is `depth` bytes of the mapping's read-write
        // part that nothing is writing (the caller's contract), `buf` has
        // room for them, and a heap buffer cannot overlap the mapping.
        // `MaybeUninit` elements need no initialising, so any length within
        // the capacity is sound.
        unsafe {
            std::ptr::copy_nonoverlapping(sp as *const u8, buf.as_mut_ptr().cast(), depth);
            buf.set_len(depth);
        }
        *image = Image::Parked(buf);
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours, and nothing runs on it: whoever
        // switches onto a stack borrows its owner for the length of the call.
        let rc = unsafe { munmap(self.base, MAP_BYTES) };
        debug_assert_eq!(rc, 0, "munmap of a run stack failed");
    }
}

/// Suspend the caller and continue whoever saved the stack pointer `load`:
/// push the callee-saved registers, store `rsp` to `*save`, adopt `load`, pop
/// the other side's registers and return into it. The other side sees its own
/// `switch` call return (a frame fresh from [`boot_frame`] starts its body
/// instead). Returns when someone switches back to `*save`.
///
/// # Safety
///
/// `load` must be a stack pointer that [`Stack::restore`] returned or that a
/// `switch` stored, on a stack that is still mapped and whose bytes from
/// `load` up are unchanged since, and it must be used at most once: the frame
/// it names is consumed. Nothing else may be running on
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

/// Where a fresh process's first `switch` lands: `ret` brings it here with the
/// boxed body in `rbx`, which becomes [`entry`]'s argument.
#[unsafe(naked)]
unsafe extern "C" fn boot() -> ! {
    naked_asm!("mov rdi, rbx", "jmp {entry}", entry = sym entry)
}

/// Run the boxed body, then leave the run stack for good through the stack
/// pointer it returned. An unwind out of the body aborts here, at the
/// `extern "C"` boundary, rather than running off the top of the stack.
extern "C" fn entry(body: usize) -> ! {
    // SAFETY: `body` is the pointer `first_frame` leaked into this process's
    // first frame, and that frame is consumed exactly once.
    let body = unsafe { Box::from_raw(body as *mut Body) };
    let back = body();
    let mut unused = 0;
    // SAFETY: `back` is what the executor's pending `switch` into this
    // process saved (the body's contract), so that call is suspended on a
    // live stack. This process owns nothing any more, and `unused` is never
    // switched to, so it need not outlive this frame.
    unsafe { switch(&mut unused, back) };
    unreachable!("a finished simulated process was resumed")
}
