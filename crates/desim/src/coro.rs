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
//! * A process parked *D* bytes deep costs a *D*-byte slot and no mapping:
//!   [`Images`] keeps the slot while later parks go no deeper, and packs
//!   slots of one depth up to 32 to a chunk, so a process holds no heap
//!   block of its own; what is unused is the empty slots of part-filled
//!   chunks (31 × *D* when 33 processes share one depth). Each resume
//!   copies 2 × *D* bytes: the image in, and the frames back out at the next
//!   park.
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

/// Where a process's frames are while it is suspended: a parked image names
/// its slot in the simulation's [`Images`], which holds the bytes.
#[derive(Clone, Copy, Default)]
pub(crate) enum Image {
    /// No frames and no slot: a process on its first run, or one that has
    /// finished.
    #[default]
    Empty,
    /// Not started yet: the address of the boxed [`Body`], from which
    /// [`Images::restore`] lays out the frame [`boot_frame`] describes.
    Fresh(usize),
    /// What the last park left on the run stack, padding and dead slots
    /// included: the first `len` bytes of slot `slot` of chunk `chunk`,
    /// whose slots are as deep as the process's deepest park so far.
    Parked { chunk: u32, slot: u32, len: u32 },
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
// SAFETY: as above; through `&Stack` safe code can only call `is_current`
// and `depth`, which read `base`, and `Images::restore`/`save` are
// `unsafe fn`s whose callers vouch nothing else touches the bytes.
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

    /// How deep the process that parked at `sp` is: the bytes from `sp` to
    /// the top.
    fn depth(&self, sp: usize) -> usize {
        self.top()
            .checked_sub(sp)
            .filter(|&d| d <= STACK_BYTES)
            .expect("a parked process's stack pointer lies on the run stack")
    }
}

/// A chunk's slots: at most this many, and at most as many as fit in
/// [`CHUNK_BYTES`] (at least one). So images up to 4 KiB deep — every
/// blocking VORX call's, optimised or not — pack 32 to a chunk, and one
/// over 64 KiB deep is a chunk of its own.
const CHUNK_SLOTS: usize = 32;
const CHUNK_BYTES: usize = 128 << 10;

/// Chunk entries a simulation's [`Images`] is made with room for, so that
/// a run with no more chunks than this at once allocates only the chunks.
const CHUNKS_RESERVED: usize = 8;

/// The frames of every parked process of one simulation, packed by depth.
/// The images of one exact depth — a *class* — share chunks of up to
/// [`CHUNK_SLOTS`] slots of that depth, each with a bit per slot for whether
/// a process holds it. A chunk never moves, and is freed when its last slot
/// is let go, so a simulation whose processes have all finished holds no
/// image bytes. A process keeps its slot from its first park to its end,
/// running included: a park no deeper than the slot reuses it in place, and
/// a deeper one moves the process to a slot of its new depth. So an image
/// never holds more than the deepest park so far, and a park allocates only
/// when it claims a slot in a chunk not yet made.
pub(crate) struct Images {
    /// Chunks of every class by index; `None` where one was freed, for the
    /// next chunk made, of any class, to reuse.
    chunks: Vec<Option<Chunk>>,
    /// Every entry of `chunks` below this index is a full chunk.
    open: usize,
}

struct Chunk {
    /// Bytes per slot: the depth of the class.
    depth: usize,
    /// Bit `i` set: a process holds slot `i`.
    used: u32,
    bytes: Box<[MaybeUninit<u8>]>,
}

impl Chunk {
    fn is_full(&self) -> bool {
        let slots = self.bytes.len() / self.depth;
        self.used == u32::MAX >> (CHUNK_SLOTS - slots)
    }

    /// The first `len` bytes of slot `slot`.
    fn range(&self, slot: u32, len: u32) -> std::ops::Range<usize> {
        let at = slot as usize * self.depth;
        at..at + len as usize
    }
}

impl Images {
    pub(crate) fn new() -> Images {
        Images {
            chunks: Vec::with_capacity(CHUNKS_RESERVED),
            open: 0,
        }
    }

    fn chunk(&self, chunk: u32) -> &Chunk {
        self.chunks[chunk as usize]
            .as_ref()
            .expect("a held slot's chunk is live")
    }

    /// Put a suspended process's frames back at the top of `stack`, where
    /// they were saved from, and return the stack pointer to [`switch`] to.
    /// A fresh image becomes [`Image::Empty`]: its body is the switch's to
    /// consume.
    ///
    /// # Safety
    ///
    /// Nothing may be running on `stack`, the caller included, and nothing
    /// else may touch its bytes during the call.
    pub(crate) unsafe fn restore(&self, stack: &Stack, image: &mut Image) -> usize {
        let frame;
        let (bytes, len) = match *image {
            Image::Fresh(body) => {
                frame = boot_frame(body);
                *image = Image::Empty;
                (frame.as_ptr().cast::<u8>(), size_of_val(&frame))
            }
            Image::Parked { chunk, slot, len } => {
                let chunk = self.chunk(chunk);
                let bytes = &chunk.bytes[chunk.range(slot, len)];
                (bytes.as_ptr().cast::<u8>(), bytes.len())
            }
            Image::Empty => panic!("restored a process with no frames"),
        };
        assert!(len <= STACK_BYTES, "image deeper than the run stack");
        let sp = stack.top() - len;
        // SAFETY: `bytes` is valid for `len` bytes (a whole array, a slot's
        // part of a chunk), `[sp, top)` lies in the mapping's read-write part
        // (checked above), which the caller vouches is idle and ours alone,
        // and a chunk or a local of the caller's (who is not on this stack)
        // cannot overlap it.
        unsafe { std::ptr::copy_nonoverlapping(bytes, sp as *mut u8, len) };
        sp
    }

    /// Copy the frames of the process that just parked at `sp` — `[sp, top)`
    /// of `stack` — into its slot, or into a slot of their depth if they do
    /// not fit there, and make `image` name them. Nothing below `sp` is live:
    /// the process got there through a real call to [`switch`], so it left
    /// no red zone.
    ///
    /// # Safety
    ///
    /// `sp` must be the stack pointer a [`switch`] running on `stack` just
    /// stored, and nothing may be running on `stack`, the caller included.
    pub(crate) unsafe fn save(&mut self, stack: &Stack, sp: usize, image: &mut Image) {
        let depth = stack.depth(sp);
        let (chunk, slot) = match *image {
            Image::Parked { chunk, slot, .. } if self.chunk(chunk).depth >= depth => (chunk, slot),
            _ => {
                self.free(image);
                self.claim(depth)
            }
        };
        let len = u32::try_from(depth).expect("a run stack is under 4 GiB");
        let live = self.chunks[chunk as usize]
            .as_mut()
            .expect("a claimed slot's chunk is live");
        let range = live.range(slot, len);
        let bytes = &mut live.bytes[range];
        // SAFETY: `[sp, top)` is `depth` bytes of the mapping's read-write
        // part that nothing is writing (the caller's contract), `bytes` is
        // as long, and a chunk cannot overlap the mapping.
        unsafe {
            std::ptr::copy_nonoverlapping(sp as *const MaybeUninit<u8>, bytes.as_mut_ptr(), depth)
        };
        *image = Image::Parked { chunk, slot, len };
    }

    /// Let go of `image`'s slot, if it holds one, and of its chunk if that
    /// was the chunk's last; `image` is left empty.
    pub(crate) fn free(&mut self, image: &mut Image) {
        if let Image::Parked { chunk, slot, .. } = std::mem::take(image) {
            let entry = &mut self.chunks[chunk as usize];
            let live = entry.as_mut().expect("a held slot's chunk is live");
            debug_assert!(live.used & 1 << slot != 0, "slot freed twice");
            live.used &= !(1 << slot);
            if live.used == 0 {
                *entry = None;
            }
            self.open = self.open.min(chunk as usize);
        }
    }

    /// A free slot of exactly `depth` bytes: in the lowest chunk of that
    /// depth with room, else in a chunk made in the lowest freed entry or
    /// at the end. Returns (chunk, slot).
    fn claim(&mut self, depth: usize) -> (u32, u32) {
        // The first entry past the full ones that is free or has room, of
        // any depth; the first free one; the first of `depth` with room.
        let (mut gap, mut hole, mut room) = (None, None, None);
        for (i, entry) in self.chunks.iter().enumerate().skip(self.open) {
            match entry {
                Some(chunk) if chunk.is_full() => continue,
                Some(chunk) if chunk.depth == depth => {
                    gap = gap.or(Some(i));
                    room = Some(i);
                    break;
                }
                Some(_) => {}
                None => hole = hole.or(Some(i)),
            }
            gap = gap.or(Some(i));
        }
        let at = room.or(hole).unwrap_or_else(|| {
            self.chunks.push(None);
            self.chunks.len() - 1
        });
        let chunk = self.chunks[at].get_or_insert_with(|| Chunk {
            depth,
            used: 0,
            bytes: Box::new_uninit_slice((CHUNK_BYTES / depth).clamp(1, CHUNK_SLOTS) * depth),
        });
        let slot = chunk.used.trailing_ones();
        chunk.used |= 1 << slot;
        self.open = match gap {
            Some(g) if g < at => g,
            _ if chunk.is_full() => at + 1,
            _ => at,
        };
        let at = u32::try_from(at).expect("under 2^32 chunks");
        (at, slot)
    }

    /// The bytes every live chunk holds: 0 once no process holds a slot.
    pub(crate) fn bytes(&self) -> usize {
        self.chunks.iter().flatten().map(|c| c.bytes.len()).sum()
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
/// `load` must be a stack pointer that [`Images::restore`] returned or that a
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
