//! In-place storage for event closures.
//!
//! An [`EventFn`] is a type-erased `FnOnce(&mut W, &mut Scheduler<W>) + Send`.
//! A closure whose capture is at most [`INLINE_BYTES`] long and at most
//! 8-aligned is stored inside the value itself, next to a call/drop
//! function-pointer pair instantiated for its concrete type, so scheduling
//! it allocates nothing. A larger or over-aligned capture is boxed once and
//! the (two-word) box is what gets stored inline — the same type, one path.
//!
//! All of the executor's `unsafe` lives in this module. The invariant the
//! blocks rely on: from `new` until `call` or `drop`, `buf` holds an
//! initialised value of exactly the type `call` and `drop` were instantiated
//! for. The fields are private and only `new` writes them.

use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

use crate::sim::Scheduler;

/// Largest capture stored in place. Sized from the captures the VORX kernel
/// and the shard bridge schedule per frame: the largest holds a fabric
/// `NetEvent` or a `Frame` (72 bytes, 8-aligned); a size histogram over the
/// six benchmark workloads found nothing larger outside a node crash.
pub(crate) const INLINE_BYTES: usize = 72;

type Buf = MaybeUninit<[u64; INLINE_BYTES / 8]>;

/// What a capture that does not fit in a [`Buf`] is moved into.
type Boxed<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>) + Send>;

/// A scheduled event callback. `Send` because [`EventFn::new`] only accepts
/// `Send` closures (the erased capture is the only non-`'static` data).
pub(crate) struct EventFn<W> {
    buf: Buf,
    call: unsafe fn(*mut u8, &mut W, &mut Scheduler<W>),
    drop: unsafe fn(*mut u8),
}

impl<W: 'static> EventFn<W> {
    pub(crate) fn new<F>(f: F) -> Self
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    {
        if size_of::<F>() > INLINE_BYTES || align_of::<F>() > align_of::<Buf>() {
            return Self::boxed(Box::new(f));
        }
        let mut buf = Buf::uninit();
        // SAFETY: the check above guarantees `buf` is large enough and
        // aligned for an `F`; it is uninitialised, so nothing is overwritten.
        unsafe { ptr::write(buf.as_mut_ptr().cast::<F>(), f) };
        EventFn {
            buf,
            call: call_in_place::<W, F>,
            drop: drop_in_place::<F>,
        }
    }

    /// The fallback: the capture does not fit, so it lives in one heap
    /// allocation and the box is the inline capture. Not generic over the
    /// original closure, which keeps `new` from instantiating itself without
    /// end.
    fn boxed(f: Boxed<W>) -> Self {
        Self::new(move |w: &mut W, s: &mut Scheduler<W>| f(w, s))
    }

    /// Run the callback, consuming it.
    pub(crate) fn call(self, w: &mut W, s: &mut Scheduler<W>) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `buf` holds the initialised closure `call` was instantiated
        // for (module invariant). `call` moves it out, and `ManuallyDrop`
        // keeps `Drop` from touching `buf` afterwards — also when the
        // closure unwinds, in which case the unwinding frame drops it.
        unsafe { (this.call)(this.buf.as_mut_ptr().cast(), w, s) }
    }
}

impl<W> Drop for EventFn<W> {
    fn drop(&mut self) {
        // SAFETY: a value that reaches `Drop` was never called (`call` takes
        // `self` out of reach), so `buf` still holds the closure `drop` was
        // instantiated for.
        unsafe { (self.drop)(self.buf.as_mut_ptr().cast()) }
    }
}

/// # Safety
/// `p` must point to an initialised, suitably aligned `F`. The value is moved
/// out: the caller must treat `*p` as uninitialised afterwards.
unsafe fn call_in_place<W, F>(p: *mut u8, w: &mut W, s: &mut Scheduler<W>)
where
    F: FnOnce(&mut W, &mut Scheduler<W>),
{
    // SAFETY: guaranteed by the caller.
    let f = unsafe { ptr::read(p.cast::<F>()) };
    f(w, s)
}

/// # Safety
/// `p` must point to an initialised, suitably aligned `F`, which is dropped:
/// the caller must treat `*p` as uninitialised afterwards.
unsafe fn drop_in_place<F>(p: *mut u8) {
    // SAFETY: guaranteed by the caller.
    unsafe { ptr::drop_in_place(p.cast::<F>()) }
}
