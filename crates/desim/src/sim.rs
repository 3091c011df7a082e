//! The deterministic discrete-event executor.
//!
//! Two kinds of simulated activity coexist:
//!
//! * **Events** — closures over the world state `W`, used for hardware
//!   models (links freeing, messages arriving, interrupts firing). They run
//!   to completion and never block.
//! * **Processes** — stackful coroutines on the executor's own OS thread,
//!   taking turns on the simulation's one run stack, used for software (VORX
//!   subprocesses, host programs). Process code is written in direct blocking
//!   style: it parks and is resumed by events or other processes. Exactly one
//!   simulated activity executes at a time, and which one is the event
//!   queue's decision alone, so the simulation is fully deterministic.
//!
//! Determinism contract: the event queue is ordered by `(time, sequence
//! number)`, numbered at the scheduling call (a spawn's start wake too), so
//! ties fire in call order. Randomness must come from a seeded [`crate::rng`]
//! generator in `W`.
//!
//! # Hot-path design
//!
//! [`Scheduler`] is the queue (`crate::queue::EventQueue`, and the closures,
//! timers and processes its entries name) and scheduling is a push on it: no
//! batch, no pool. It and the world sit behind one lock, because the executor
//! and a process inside the executor's call both reach them and a lock is how
//! safe Rust hands out that `&mut`; one activity runs at a time, so a busy lock
//! is a bug and panics (`SimInner::core`). A run segment holds it across every
//! event callback, which is handed `&mut` of both, so dispatching an event
//! takes no lock; it lets go only around a process resume, whose [`Ctx::with`]
//! blocks take it once each.
//!
//! The queue is sized by what will still fire. A cancelled timer stays queued
//! at first — `cancel` takes no lock and cannot reach the heap — and is
//! discarded when it comes to the head; but cancelled cells are counted, and
//! whenever they number more than `SWEEP_FLOOR` and at least as many as the
//! live entries, the run loop takes them all out in one pass before its next
//! pop. So the heap, the closure slab and the timer cells stop growing at
//! twice the live entries, a protocol that arms a long timeout per message
//! and cancels it early pays a constant per timer, and `(time, seq)` order is
//! untouched: keys are unique, whatever shape the heap has.
//!
//! The executor⇄process handoff is the simulation's one [`Baton`] — a payload
//! word each way, the entered process, and the two stack pointers of a
//! user-space register swap (`coro::switch`) — and the image of the
//! process's frames: a slot in the scheduler's `coro::Images`, which packs
//! every image of one exact depth into chunks of up to 32 slots. Only one
//! process of a simulation is entered at a time, so a process is its
//! `ProcSlot` and its image, and nothing more. A resume puts the frames on the run stack
//! before it lets go of the lock and saves them after it takes the lock back,
//! so a switch is a function call, one lock and two copies of however deep
//! the process parked (0.78–0.83 KiB on average in the benchmark's `vorx`
//! workloads): no system call, no allocation unless the park claims a slot
//! in a chunk not yet made (a first park at some depth, or a deeper park),
//! and no mapping at spawn (a fresh image is one word, the boxed body, and
//! the first frame is laid out on the run stack at the first resume). What a
//! blocking call does before it parks — a `wait_until` condition under the
//! lock, arming a `sleep`'s timer — runs in out-of-line frames (`Ctx::poll`,
//! `Ctx::wake_me_in`), as does the body's panic report (`Baton::unwound`),
//! so none of it is copied with every park.
//! Same-instant wakes (`wake` + `park` chains, the common case in protocol
//! code) bypass the heap through a FIFO *lane*, O(1); [`Ctx::now`] reads an
//! atomic mirror of the clock.
//!
//! Scheduling and dispatching an event allocates nothing in steady state. A
//! closure capturing at most 72 bytes, at most 8-aligned, is stored in place
//! (`event_fn`); a larger or over-aligned one costs one box. Queued closures
//! sit in one [`Slab`], and the heap carries 32-byte entries (the lane
//! 16-byte ones) that name a slot, so a sift never moves a capture. A
//! [`TimerHandle`] names its event's slot's cell in the one `TimerCells`
//! table, so arming and cancelling a timer allocates nothing either, nor
//! does a sweep. What allocates: each buffer named here, as it grows to the
//! most it ever holds at once — at most twice the most ever live.

use std::any::Any;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering as AtomicOrdering,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError, Weak};

use crate::coro::{self, Image, Images, Stack};
use crate::event_fn::EventFn;
use crate::lock;
use crate::queue::EventQueue;
use crate::slab::{self, Slab};
use crate::time::{SimDuration, SimTime};

/// Identifies a simulated process for the lifetime of a [`Simulation`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Token delivered to a parked process when it is woken.
///
/// Wakeups are *advisory*: a process may be woken for a reason other than the
/// one it parked for (e.g. a stale timer). Blocking code must therefore
/// re-check its condition in a loop, condition-variable style.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Wakeup(pub u64);

impl Wakeup {
    /// Wakeup used for process start and generic notifications.
    pub const START: Wakeup = Wakeup(0);
    /// Wakeup used by [`Ctx::sleep`] timers.
    pub(crate) const TIMER: Wakeup = Wakeup(u64::MAX);
}

type ProcFn<W> = Box<dyn FnOnce(Ctx<W>) + Send + 'static>;

/// Handle to a cancellable scheduled event (see
/// [`Scheduler::schedule_cancellable_in`]). Cancelling disarms the event: it
/// will neither run nor advance simulated time when its slot comes up, so a
/// protocol timeout that was disarmed (e.g. the awaited ack arrived) leaves
/// no trace in the simulated timeline. Cheap to clone; cancelling any clone
/// cancels the event.
#[derive(Clone)]
pub struct TimerHandle {
    timers: Arc<TimerCells>,
    /// The event's cell in `timers`, for as long as it is at `gen`.
    cell: u32,
    gen: u32,
}

impl TimerHandle {
    /// Disarm the event. Idempotent; a no-op if the event already ran.
    pub fn cancel(&self) {
        self.timers.cancel(self.cell, self.gen);
    }
}

impl fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerHandle")
            .field("cell", &self.cell)
            .field("gen", &self.gen)
            .finish_non_exhaustive()
    }
}

/// The cancel flags of a simulation's armed timers, which is all of a timer
/// that a [`TimerHandle`] reaches: a cancellable event's cell is its
/// closure's slot in the [`Scheduler`]'s slab, from the call that arms it
/// until the queue retires it (fired, or found disarmed). The queue retires
/// the cell before it frees the slot, so whoever claims the slot next —
/// the fired event's own callback, re-arming — finds the next generation.
///
/// A cell is a *generation* and, in its low bit, the *cancelled* flag of the
/// event that holds it now. Retiring the event moves the cell on to the next
/// generation, which is what makes a handle kept past its event harmless: its
/// compare-and-set names a generation that is gone. A generation is 32 bits,
/// so a stale handle would have to sit out 2³² timers *on its own cell* to
/// cancel a stranger's.
///
/// Cells never move (a `cancel` takes no lock, and a handle may be anywhere),
/// so the table is a fixed row of lazily made chunks, laid out as the slab's.
struct TimerCells {
    chunks: [OnceLock<Box<[AtomicU64]>>; slab::CHUNKS],
    /// Cells whose cancelled flag is set: timers that are disarmed and still
    /// queued, which is what a sweep of the queue would take out. `Relaxed`:
    /// a tally, read by the queue to decide *when* to sweep, never *what*. A
    /// `cancel` on another thread than the queue's adds its one after its
    /// flag is visible, so a `retire` in between wraps the tally for that
    /// moment; the worst a wrong reading does is one sweep that finds nothing.
    dead: AtomicUsize,
}

impl TimerCells {
    fn new() -> Self {
        TimerCells {
            chunks: [const { OnceLock::new() }; slab::CHUNKS],
            dead: AtomicUsize::new(0),
        }
    }

    fn cell(&self, idx: u32) -> &AtomicU64 {
        let (k, at) = slab::chunk_of(idx);
        let chunk = self.chunks[k].get_or_init(|| {
            std::iter::repeat_with(AtomicU64::default)
                .take(slab::chunk_len(k))
                .collect()
        });
        &chunk[at]
    }

    /// The generation `idx` is at: what a handle to the event that claims it
    /// now must name.
    fn generation(&self, idx: u32) -> u32 {
        (self.cell(idx).load(AtomicOrdering::Relaxed) >> 1) as u32
    }

    /// Set the cancelled flag of `idx` if it is still at `gen`. `Relaxed`:
    /// the flag publishes nothing but itself.
    fn cancel(&self, idx: u32, gen: u32) {
        let armed = u64::from(gen) << 1;
        let disarmed = self.cell(idx).compare_exchange(
            armed,
            armed | 1,
            AtomicOrdering::Relaxed,
            AtomicOrdering::Relaxed,
        );
        if disarmed.is_ok() {
            self.dead.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Whether the event holding `idx` has been cancelled.
    fn is_cancelled(&self, idx: u32) -> bool {
        self.cell(idx).load(AtomicOrdering::Relaxed) & 1 == 1
    }

    /// The queue is done with the event holding `idx`: move the cell to its
    /// next generation. Returns whether the event had been cancelled; a
    /// `cancel` racing with this from another thread either made it or names
    /// a generation that is gone.
    fn retire(&self, idx: u32) -> bool {
        let cell = self.cell(idx);
        let word = cell.load(AtomicOrdering::Relaxed);
        let gen = (word >> 1) as u32;
        cell.store(u64::from(gen.wrapping_add(1)) << 1, AtomicOrdering::Relaxed);
        let cancelled = word & 1 == 1;
        if cancelled {
            self.dead.fetch_sub(1, AtomicOrdering::Relaxed);
        }
        cancelled
    }
}

/// A scheduled action, from the call that schedules it to its dispatch. A
/// closure stays in [`Scheduler::events`] and the entry carries its slot, so
/// heap sifts move 32-byte entries whatever the closures capture.
enum Queued {
    Run(u32),
    Wake(ProcId, Wakeup),
    /// Closure slot, which is also the timer cell: skipped (without
    /// advancing time) if the cell is cancelled by the time it reaches the
    /// head of the queue. Whoever dequeues the entry retires the cell, then
    /// frees the slot.
    Cancellable(u32),
}

/// Disarmed timers a [`Scheduler`] leaves queued however few entries are
/// live, so that a near-empty queue is not swept for every handful.
const SWEEP_FLOOR: usize = 64;

/// `Baton::report`: the process parked and can be resumed again.
const REPORT_PARKED: u32 = 0;
/// `Baton::report`: the process body returned.
const REPORT_FINISHED: u32 = 1;
/// `Baton::report`: the process body panicked; `panic_msg` is set.
const REPORT_PANICKED: u32 = 2;

/// The executor⇄process handoff cell, one per simulation beside the run stack
/// it hands over. A handoff is: write your payload (`token` or `report`),
/// then `coro::switch` to the other side's saved stack pointer, leaving your
/// own behind; around it, under the lock, the executor moves the process's
/// frames between its image slot and the run stack. No lock is held across
/// it, and there is no system call and no allocation.
///
/// Every field is `Sync` by itself, so the baton is shared and sent between
/// threads with no argument of ours. Exactly one side of it runs at a time
/// (the `coro` contract: the executor, or the one process it entered), so
/// every field but `panic_msg` has one accessor at any moment and the atomics
/// are plain cells — `Relaxed` throughout, the stack pointers written by
/// `switch` through `as_ptr`.
/// Within one run both sides are the same OS thread, and a `switch` is a jump
/// on it, so program order is all the ordering there is to keep. A process
/// resumed by a *different* thread than last time (sharded workers) is
/// resumed by whoever holds `&mut Simulation` now, and whatever moved that
/// borrow between the threads — the scoped spawn and join of a
/// `ShardedSim::run`, a channel, a mutex — already orders these cells along
/// with it. `Default` is a fresh baton: no process entered, no teardown.
#[derive(Default)]
struct Baton {
    /// Wakeup token payload; written by the executor before switching in.
    token: AtomicU64,
    /// What the process reported when handing back: `REPORT_*`.
    report: AtomicU32,
    /// Set once when the simulation is dropped with parked processes: every
    /// process entered from then on unwinds instead of resuming.
    kill: AtomicBool,
    /// The entered process's id + 1, 0 for none: set exactly while a
    /// process runs, between `enter`'s switch in and its switch back.
    entered: AtomicU64,
    /// Where the executor left off when it switched in; live exactly while
    /// a process runs.
    exec_sp: AtomicUsize,
    /// Where the last process to park left off, for the executor to save
    /// its frames from.
    proc_sp: AtomicUsize,
    /// Panic message, set before reporting `REPORT_PANICKED`.
    panic_msg: Mutex<Option<String>>,
}

impl Baton {
    /// Executor side: switch to process `pid` at `sp`, run it until it
    /// parks or finishes, and return its report. A parked one leaves its
    /// stack pointer in `proc_sp`, for its frames to be saved from.
    ///
    /// # Safety
    ///
    /// The process must be suspended — parked, or not yet started — and not
    /// finished, and `sp` what [`Images::restore`] just returned for it, on
    /// the run stack of the simulation this baton belongs to. The caller
    /// must be the executor of that simulation: not on that stack itself,
    /// and the only one entering any of its processes.
    unsafe fn enter(&self, pid: ProcId, sp: usize) -> u32 {
        self.entered
            .store(u64::from(pid.0) + 1, AtomicOrdering::Relaxed);
        // SAFETY: `sp` names the frame `restore` laid out for a fresh image
        // or the one the process's last `park` saved, just put back where it
        // was and unused since. `exec_sp` lives as long as `self`, which the
        // caller's borrow of its simulation keeps alive.
        unsafe { coro::switch(self.exec_sp.as_ptr(), sp) };
        self.entered.store(0, AtomicOrdering::Relaxed);
        self.report.load(AtomicOrdering::Relaxed)
    }

    /// Process side: what a body that unwound reports — finished, when the
    /// unwind is [`Baton::park`]'s teardown, otherwise panicked, with the
    /// message stored for the executor. Cold and out of line: it runs at most
    /// once per process, and its frame would otherwise sit at the bottom of
    /// every parked process's image.
    #[cold]
    #[inline(never)]
    fn unwound(&self, payload: Box<dyn Any + Send>) -> u32 {
        if payload.is::<Killed>() {
            return REPORT_FINISHED;
        }
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into());
        *lock(&self.panic_msg) = Some(msg);
        REPORT_PANICKED
    }

    /// Process side: hand `pid` back to the executor until it enters it
    /// again. Returns the wakeup token; unwinds with [`Killed`] if the
    /// simulation is tearing down.
    fn park(&self, stack: &Stack, pid: ProcId) -> Wakeup {
        // A `Ctx` can be cloned and carried anywhere; only its own process,
        // while it runs, has an executor waiting behind `exec_sp` — and the
        // run stack is every process's, so being on it is not enough to tell.
        assert!(
            stack.is_current()
                && self.entered.load(AtomicOrdering::Relaxed) == u64::from(pid.0) + 1,
            "Ctx::park called outside the simulated process the Ctx belongs to"
        );
        self.report.store(REPORT_PARKED, AtomicOrdering::Relaxed);
        // SAFETY: `pid` is the process entered and we run on its
        // simulation's run stack, so the frames below us are its own, and
        // `enter` stored the executor's stack pointer in `exec_sp` and stays
        // suspended on a live stack until this switch returns into it.
        // `proc_sp` lives as long as `self`, which the suspended `enter`'s
        // borrow of the simulation keeps alive.
        unsafe {
            coro::switch(
                self.proc_sp.as_ptr(),
                self.exec_sp.load(AtomicOrdering::Relaxed),
            )
        };
        if self.kill.load(AtomicOrdering::Relaxed) {
            resume_unwind(Box::new(Killed));
        }
        Wakeup(self.token.load(AtomicOrdering::Relaxed))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcState {
    Parked,
    Running,
    Finished,
}

/// A process, from its spawn on: its name, its state and where its frames
/// are. What it hands over when it runs is the simulation's one [`Baton`].
struct ProcSlot {
    name: String,
    state: ProcState,
    /// Where the process's frames are while it is suspended: its slot in
    /// [`Scheduler::images`], which it keeps while it runs and lets go of
    /// when it finishes.
    image: Image,
}

struct SimInner<W> {
    /// The queue and the world, taken together through [`SimInner::core`].
    core: Mutex<(Scheduler<W>, W)>,
    /// Lock-free mirror of `Scheduler::now` (ns). Written only by the
    /// executor while it holds `core`; read by [`Ctx::now`] /
    /// [`Simulation::now`] without locking.
    now_ns: AtomicU64,
    /// The run stack: every process of this simulation runs on it, one at a
    /// time, whichever OS thread drives the run.
    stack: Stack,
    /// The handoff onto `stack` and back, for whichever process is entered.
    baton: Baton,
}

impl<W> SimInner<W> {
    /// Take the queue and the world. Each activity lets go of them before
    /// the next can run, so finding them taken is a bug: it panics where
    /// waiting would deadlock (inside a process, re-raised by its name).
    fn core(&self) -> MutexGuard<'_, (Scheduler<W>, W)> {
        self.try_core().expect(
            "the simulation's queue and world are already taken: a Ctx or \
             Simulation call inside Ctx::with, setup or an event callback, a \
             Ctx used outside its process's run, or a world() guard still held",
        )
    }

    /// The queue and the world, or `None` if they are taken. A lock poisoned
    /// by a process that panicked is recovered, as [`crate::lock`] does.
    fn try_core(&self) -> Option<MutexGuard<'_, (Scheduler<W>, W)>> {
        match self.core.try_lock() {
            Ok(core) => Some(core),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// The world of a [`Simulation`] between runs, from [`Simulation::world`].
/// It holds the simulation's one lock: any other call on the simulation or
/// its `Ctx`s while it lives panics.
pub struct WorldGuard<'a, W>(MutexGuard<'a, (Scheduler<W>, W)>);

impl<W> Deref for WorldGuard<'_, W> {
    type Target = W;
    fn deref(&self) -> &W {
        &self.0 .1
    }
}

impl<W> DerefMut for WorldGuard<'_, W> {
    fn deref_mut(&mut self) -> &mut W {
        &mut self.0 .1
    }
}

/// Marker payload used to unwind process stacks when the simulation is
/// dropped while they are still parked.
struct Killed;

/// The event queue of a [`Simulation`], as event callbacks and
/// [`Ctx::with`] / [`Simulation::setup`] blocks are handed it: each call
/// below claims what it needs (closure slot, timer cell, process id,
/// sequence number) and takes its place in `(time, seq)` order at once.
pub struct Scheduler<W> {
    /// The clock and every action still to fire.
    queue: EventQueue<Queued>,
    /// Activities executed so far (events run + process resumes), for
    /// load accounting in the sharded engine and campaign reports.
    dispatched: u64,
    /// The closures the `Run`/`Cancellable` entries of the queue refer to.
    events: Slab<EventFn<W>>,
    /// Every process ever spawned; a [`ProcId`] is an index here.
    procs: Vec<ProcSlot>,
    /// Processes spawned and not yet finished.
    unfinished: usize,
    /// The frames of every process that has parked and not finished.
    images: Images,
    timers: Arc<TimerCells>,
    /// The slots a sweep has taken out of the queues and not yet retired;
    /// empty between sweeps.
    swept: Vec<u32>,
    /// The simulation this is the queue of, for a spawned process's `Ctx`.
    sim: Weak<SimInner<W>>,
}

impl<W: Send + 'static> Scheduler<W> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.queue.now())
    }

    /// Run `f` against the world after `d` has elapsed.
    pub fn schedule_in<F>(&mut self, d: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    {
        let slot = self.events.insert(EventFn::new(f));
        self.queue.push_in(d.as_ns(), Queued::Run(slot));
    }

    /// Like [`Scheduler::schedule_in`], but returns a [`TimerHandle`] that
    /// can disarm the event before it fires. Meant for protocol timeouts:
    /// the common case is that the awaited reply arrives and the timeout is
    /// cancelled, and a cancelled event must not drag the simulated clock
    /// out to its (never-meaningful) fire time.
    pub fn schedule_cancellable_in<F>(&mut self, d: SimDuration, f: F) -> TimerHandle
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    {
        let cell = self.events.insert(EventFn::new(f));
        // `&mut self` orders this load after the `retire` that came before
        // the slot was freed; until we return, nobody else names the cell.
        let gen = self.timers.generation(cell);
        self.queue.push_in(d.as_ns(), Queued::Cancellable(cell));
        TimerHandle {
            timers: Arc::clone(&self.timers),
            cell,
            gen,
        }
    }

    /// Wake `pid` with `token` after `d` has elapsed.
    pub fn wake_in(&mut self, d: SimDuration, pid: ProcId, token: Wakeup) {
        self.queue.push_in(d.as_ns(), Queued::Wake(pid, token));
    }

    /// Wake `pid` with `token` at the current instant (ordered after all
    /// actions already scheduled for this instant).
    pub fn wake(&mut self, pid: ProcId, token: Wakeup) {
        self.wake_in(SimDuration::ZERO, pid, token);
    }

    /// Spawn a new process whose body starts running after `d`.
    /// Returns its id immediately so it can be recorded in world state.
    pub fn spawn_in<F>(&mut self, d: SimDuration, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(Ctx<W>) + Send + 'static,
    {
        self.start_proc(self.now() + d, name.into(), Box::new(f))
    }

    /// Spawn a new process that starts at the current instant.
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(Ctx<W>) + Send + 'static,
    {
        self.spawn_in(SimDuration::ZERO, name, f)
    }

    /// Let go of a disarmed timer that has left the queue: its cell, then
    /// its closure, which is dropped unrun, and with it the slot.
    fn discard(&mut self, slot: u32) {
        self.timers.retire(slot);
        drop(self.events.remove(slot));
    }

    /// At an empty queue, nothing of an event is left: no closure in the
    /// slab, and no cancelled cell in the tally a sweep would go by. Once
    /// every process has finished, nothing of a process is left either: no
    /// image slot, hence no chunk.
    fn assert_quiescent(&self) {
        debug_assert_eq!(self.events.len(), 0, "closure slots outlived their events");
        let dead = self.timers.dead.load(AtomicOrdering::Relaxed);
        debug_assert_eq!(
            dead, 0,
            "cancelled timers counted after they left the queue"
        );
        if self.unfinished == 0 {
            debug_assert_eq!(
                self.images.bytes(),
                0,
                "image chunks outlived every process"
            );
        }
    }

    /// Take every disarmed timer out of the heap and the lane in one pass,
    /// once they outnumber the entries that will still fire: a protocol that
    /// arms a long timeout per message and cancels it early (an ack timer)
    /// would otherwise size the heap, the closure slab and the timer cells
    /// for every timer armed within one timeout instead of for the work
    /// outstanding. A sweep costs a pass over at most twice the entries it
    /// removes, so a constant per cancelled timer, and it removes all of them
    /// — the lane's too, or those would trigger the next sweep on their own.
    /// `(time, seq)` keys are unique, so what is left pops in the same order.
    fn sweep_cancelled(&mut self) {
        let dead = self.timers.dead.load(AtomicOrdering::Relaxed);
        if dead <= SWEEP_FLOOR {
            return;
        }
        let live = self.queue.len().saturating_sub(dead);
        if dead < live {
            return;
        }
        // The closures are dropped below, outside `retain`: a capture's
        // destructor is foreign code, and may not run over a half-kept heap.
        self.queue.retain(|act| match *act {
            Queued::Cancellable(slot) if self.timers.is_cancelled(slot) => {
                self.swept.push(slot);
                false
            }
            _ => true,
        });
        while let Some(slot) = self.swept.pop() {
            self.discard(slot);
        }
    }

    /// Discard disarmed timers at the head of the heap before their
    /// timestamps are ever consulted: a cancelled event must neither advance
    /// the clock nor keep the simulation from going idle.
    fn pop_cancelled_heads(&mut self) {
        self.sweep_cancelled();
        while let Some(&Queued::Cancellable(slot)) = self.queue.heap_head() {
            if !self.timers.is_cancelled(slot) {
                break;
            }
            self.queue.take_heap_head();
            self.discard(slot);
        }
    }

    /// `pid` is done: its image slot goes.
    fn finish(&mut self, pid: ProcId) {
        let slot = &mut self.procs[pid.0 as usize];
        slot.state = ProcState::Finished;
        self.images.free(&mut slot.image);
        self.unfinished -= 1;
    }

    /// Make a process's first frame, register it under the next id and
    /// queue its start wake. Out of line: `spawn` is called from inside
    /// `Ctx::with` blocks in a process's own frames, which every park copies.
    #[inline(never)]
    fn start_proc(&mut self, at: SimTime, name: String, f: ProcFn<W>) -> ProcId {
        let pid = ProcId(u32::try_from(self.procs.len()).expect("over u32::MAX processes"));
        let inner = self
            .sim
            .upgrade()
            .expect("a scheduler is reached through its simulation");
        // Runs on the run stack at the process's first resume, and drops all
        // it captured or made before it returns (the `coro::Body` contract).
        let image = coro::first_frame(Box::new(move || {
            let baton = &inner.baton;
            let report = if baton.kill.load(AtomicOrdering::Relaxed) {
                // Torn down before it ever ran: only drop what it captured.
                REPORT_FINISHED
            } else {
                let ctx = Ctx {
                    inner: Arc::clone(&inner),
                    pid,
                };
                match catch_unwind(AssertUnwindSafe(|| f(ctx))) {
                    Ok(()) => REPORT_FINISHED,
                    Err(payload) => baton.unwound(payload),
                }
            };
            baton.report.store(report, AtomicOrdering::Relaxed);
            baton.exec_sp.load(AtomicOrdering::Relaxed)
        }));
        self.procs.push(ProcSlot {
            name,
            state: ProcState::Parked,
            image,
        });
        self.unfinished += 1;
        self.queue
            .push(at.as_ns(), Queued::Wake(pid, Wakeup::START));
        pid
    }
}

/// Handle a process uses to interact with the simulation. Bound to the
/// process it was created for; do not move it to another simulated process.
pub struct Ctx<W> {
    inner: Arc<SimInner<W>>,
    pid: ProcId,
}

impl<W> Clone for Ctx<W> {
    fn clone(&self) -> Self {
        Ctx {
            inner: Arc::clone(&self.inner),
            pid: self.pid,
        }
    }
}

impl<W: Send + 'static> Ctx<W> {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Current simulated time. Lock-free: reads the executor-maintained
    /// atomic clock.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.inner.now_ns.load(AtomicOrdering::Acquire))
    }

    /// Access the world and scheduler without simulated time passing.
    ///
    /// Do not call other `Ctx` methods from inside `f` (that panics: the
    /// lock is held) and do not park: `with` blocks are instantaneous.
    pub fn with<R>(&self, f: impl FnOnce(&mut W, &mut Scheduler<W>) -> R) -> R {
        let (sched, world) = &mut *self.inner.core();
        f(world, sched)
    }

    /// Park until woken. Returns the (advisory) wakeup token.
    pub fn park(&self) -> Wakeup {
        self.inner.baton.park(&self.inner.stack, self.pid)
    }

    /// Advance this process's local time by `d` (modelling computation or a
    /// fixed-cost operation). Tolerates spurious wakeups: always sleeps the
    /// full duration.
    pub fn sleep(&self, d: SimDuration) {
        let deadline = self.now() + d;
        self.wake_me_in(d);
        while self.now() < deadline {
            self.park();
        }
    }

    /// Queue this process's own timer wake, `d` from now. Out of line, as is
    /// [`Ctx::poll`]: what a blocking call does before it parks stays out of
    /// the frames every park copies.
    #[inline(never)]
    fn wake_me_in(&self, d: SimDuration) {
        self.inner.core().0.wake_in(d, self.pid, Wakeup::TIMER);
    }

    /// Park repeatedly until `cond` (evaluated against the world) yields
    /// `Some(r)`. The standard condition-loop: immune to spurious wakeups.
    pub fn wait_until<R>(&self, mut cond: impl FnMut(&mut W, &mut Scheduler<W>) -> Option<R>) -> R {
        loop {
            if let Some(r) = self.poll(&mut cond) {
                return r;
            }
            self.park();
        }
    }

    /// One evaluation of a [`Ctx::wait_until`] condition, out of line so
    /// that the lock and the condition's own locals are gone from the stack
    /// by the time the process parks.
    #[inline(never)]
    fn poll<R>(&self, cond: &mut impl FnMut(&mut W, &mut Scheduler<W>) -> Option<R>) -> Option<R> {
        self.with(cond)
    }
}

/// Why a call to [`Simulation::run_until`] / [`Simulation::run_to_idle`]
/// returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remain. Carries a report of processes still parked — a
    /// non-empty list after an application "finished" usually means deadlock.
    Idle(IdleReport),
    /// The time bound was reached with events still outstanding.
    DeadlineReached,
}

/// Snapshot of the simulation at quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleReport {
    /// Time of the last executed event.
    pub now: SimTime,
    /// Processes that are still parked (id, name).
    pub parked: Vec<(ProcId, String)>,
}

impl IdleReport {
    /// True iff every spawned process ran to completion.
    pub fn all_finished(&self) -> bool {
        self.parked.is_empty()
    }
}

/// A deterministic discrete-event simulation over world state `W`.
pub struct Simulation<W: Send + 'static> {
    inner: Arc<SimInner<W>>,
}

impl<W: Send + 'static> Simulation<W> {
    /// Create a simulation owning `world`, at time zero.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one run stack: every process of the simulation runs on it"
    )]
    pub fn new(world: W) -> Self {
        let inner = Arc::new_cyclic(|me: &Weak<SimInner<W>>| SimInner {
            core: Mutex::new((
                Scheduler {
                    queue: EventQueue::default(),
                    dispatched: 0,
                    events: Slab::default(),
                    procs: Vec::new(),
                    unfinished: 0,
                    images: Images::new(),
                    timers: Arc::new(TimerCells::new()),
                    swept: Vec::new(),
                    sim: Weak::clone(me),
                },
                world,
            )),
            now_ns: AtomicU64::new(0),
            stack: Stack::new(),
            baton: Baton::default(),
        });
        Simulation { inner }
    }

    /// Current simulated time. Lock-free: reads the executor-maintained
    /// atomic clock.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.inner.now_ns.load(AtomicOrdering::Acquire))
    }

    /// Mutable access to the world between runs (inspection, setup).
    pub fn world(&self) -> WorldGuard<'_, W> {
        WorldGuard(self.inner.core())
    }

    /// Schedule and spawn from outside the run loop (setup).
    pub fn setup(&self, f: impl FnOnce(&mut W, &mut Scheduler<W>)) {
        let (sched, world) = &mut *self.inner.core();
        f(world, sched);
    }

    /// Spawn a process starting at the current time. Convenience wrapper
    /// around [`Simulation::setup`].
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(Ctx<W>) + Send + 'static,
    {
        self.inner.core().0.spawn(name, f)
    }

    /// Schedule an event callback after `d`.
    pub fn schedule_in<F>(&self, d: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    {
        self.inner.core().0.schedule_in(d, f);
    }

    /// Run until no events remain.
    pub fn run_to_idle(&mut self) -> IdleReport {
        match self.run_until(SimTime::MAX) {
            RunOutcome::Idle(r) => r,
            RunOutcome::DeadlineReached => unreachable!("MAX deadline reached"),
        }
    }

    /// Run until no events remain or the next event is later than `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        if self.run_segment(deadline) {
            RunOutcome::Idle(self.idle_report())
        } else {
            RunOutcome::DeadlineReached
        }
    }

    /// [`Simulation::run_until`] without the report: `true` when no events
    /// remain, `false` at the deadline. The sharded engine runs thousands of
    /// segments that end idle and wants none of their reports (a `Vec` and a
    /// name per parked process each).
    pub(crate) fn run_segment(&mut self, deadline: SimTime) -> bool {
        let inner = &*self.inner;
        // Held across event callbacks, which are handed the queue and the
        // world through it; let go of around every process resume, which
        // takes it from the inside.
        let mut core = inner.core();
        loop {
            let (sched, world) = &mut *core;
            sched.pop_cancelled_heads();
            let popped = sched.queue.pop(deadline.as_ns());
            inner
                .now_ns
                .store(sched.queue.now(), AtomicOrdering::Release);
            let Some(act) = popped else {
                let idle = sched.queue.is_empty();
                if idle {
                    sched.assert_quiescent();
                }
                return idle;
            };
            let f = match act {
                Queued::Run(slot) => sched.events.remove(slot),
                Queued::Cancellable(slot) => {
                    // Retired first: cancelling a timer that is running, or
                    // has run, is a no-op, and a timer its callback arms in
                    // the freed slot is a generation on.
                    let cancelled = sched.timers.retire(slot);
                    let f = sched.events.remove(slot);
                    if cancelled {
                        // Cancelled same-instant (lane) entry: time is
                        // already `now`, just skip it.
                        continue;
                    }
                    f
                }
                Queued::Wake(pid, token) => {
                    core = self.resume(core, pid, token);
                    continue;
                }
            };
            sched.dispatched += 1;
            f.call(world, sched);
        }
    }

    /// Dispatch a wake: switch into `pid` with `token` unless it has
    /// finished, and when it hands back record how it yielded. Takes the
    /// lock and returns it, because in between the process must be able to
    /// take it: the happy path (process parks again) costs one acquisition
    /// to re-mark it parked and nothing else.
    fn resume<'a>(
        &'a self,
        mut core: MutexGuard<'a, (Scheduler<W>, W)>,
        pid: ProcId,
        token: Wakeup,
    ) -> MutexGuard<'a, (Scheduler<W>, W)> {
        let sched = &mut core.0;
        let slot = sched.procs.get_mut(pid.0 as usize).expect("unknown ProcId");
        if slot.state == ProcState::Finished {
            return core; // stale wakeup for a completed process
        }
        // The `enter` below rests on this: a process is entered only while
        // it is suspended.
        assert_eq!(slot.state, ProcState::Parked, "woke a running process");
        slot.state = ProcState::Running;
        sched.dispatched += 1;
        let SimInner { stack, baton, .. } = &*self.inner;
        // SAFETY: we found the process `Parked` and marked it `Running`
        // under the lock, so it is suspended, unfinished, and entered by no
        // one else until we mark it otherwise below. We are this simulation's
        // executor, and not on its run stack: running takes `&mut
        // Simulation`, which nothing a process can reach holds while the run
        // that resumed it does.
        let sp = unsafe { sched.images.restore(stack, &mut slot.image) };
        drop(core);
        baton.token.store(token.0, AtomicOrdering::Relaxed);
        // SAFETY: as above, and `sp` is what `restore` just returned for it.
        let report = unsafe { baton.enter(pid, sp) };
        let mut core = self.inner.core();
        let sched = &mut core.0;
        match report {
            REPORT_PARKED => {
                let slot = &mut sched.procs[pid.0 as usize];
                slot.state = ProcState::Parked;
                let sp = baton.proc_sp.load(AtomicOrdering::Relaxed);
                // SAFETY: the process handed back through `park`, whose
                // `switch` ran on `stack` (asserted there) and stored `sp`;
                // we are back on the executor's stack.
                unsafe { sched.images.save(stack, sp, &mut slot.image) };
            }
            REPORT_FINISHED => sched.finish(pid),
            _ => {
                sched.finish(pid);
                let msg = lock(&baton.panic_msg).take();
                let msg = msg.as_deref().unwrap_or("<missing panic message>");
                let name = &sched.procs[pid.0 as usize].name;
                panic!("simulated process '{name}' panicked: {msg}");
            }
        }
        core
    }

    /// Names of processes that are still parked.
    pub fn parked_processes(&self) -> Vec<(ProcId, String)> {
        self.idle_report().parked
    }

    /// The current time and the processes parked at it.
    pub(crate) fn idle_report(&self) -> IdleReport {
        let sched = &self.inner.core().0;
        let parked = sched
            .procs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == ProcState::Parked)
            .map(|(i, s)| (ProcId(i as u32), s.name.clone()))
            .collect();
        IdleReport {
            now: sched.now(),
            parked,
        }
    }

    /// Time of the earliest pending activity, or `None` when idle. Disarmed
    /// (cancelled) timers at the head of the queue are discarded first, so
    /// the answer matches what `run_until` would execute next; same-instant
    /// lane entries report the current time. Used by the sharded engine to
    /// pick the next lookahead window.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let sched = &mut self.inner.core().0;
        sched.pop_cancelled_heads();
        sched.queue.peek_time().map(SimTime::from_ns)
    }

    /// Move the clock of an idle simulation forward to `t` (never back; the
    /// queue refuses to pass an event). With nothing queued no activity can
    /// tell when the clock moved, and
    /// the next one scheduled counts its delay from `t`. The sharded engine
    /// ends a run with this, so that all its shards start the next together.
    pub(crate) fn rest_until(&mut self, t: SimTime) {
        let queue = &mut self.inner.core().0.queue;
        queue.advance_to(t.as_ns());
        self.inner
            .now_ns
            .store(queue.now(), AtomicOrdering::Release);
    }

    /// Bytes of heap the simulation holds for parked processes' frames: its
    /// image chunks, 0 once every process has finished.
    pub fn image_bytes(&self) -> usize {
        self.inner.core().0.images.bytes()
    }

    /// Total activities executed so far (event callbacks run plus process
    /// resumes). Monotone across `run_until` calls; the sharded engine
    /// reports it per shard as a load-balance signal.
    pub fn events_dispatched(&self) -> u64 {
        self.inner.core().0.dispatched
    }

    /// Schedule an event callback at *absolute* simulated time `t`, which
    /// must not be in the past (that panics). The sharded engine uses this to
    /// inject cross-shard deliveries between lookahead windows; injection
    /// order at equal `t` is preserved by the queue's sequence numbers.
    pub fn schedule_at<F>(&self, t: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + Send + 'static,
    {
        let sched = &mut self.inner.core().0;
        let slot = sched.events.insert(EventFn::new(f));
        sched.queue.push(t.as_ns(), Queued::Run(slot));
    }
}

impl<W: Send + 'static> Drop for Simulation<W> {
    fn drop(&mut self) {
        // A parked process owns live values; it gets to unwind its own frames
        // so their destructors run. The parked ids are collected first, the
        // baton told to unwind whoever it enters, and each process's frames
        // put back and its slot let go with the lock held, but the lock is
        // released around entering it, because a destructor may use its
        // `Ctx`. A process that parked inside `Ctx::with` still holds the
        // lock, and the run that found it so has panicked: leave every
        // process be, and do not panic again.
        let Some(core) = self.inner.try_core() else {
            return;
        };
        let parked: Vec<ProcId> = core
            .0
            .procs
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.state == ProcState::Parked)
            .map(|(pid, _)| ProcId(pid as u32))
            .collect();
        drop(core);
        let SimInner { stack, baton, .. } = &*self.inner;
        baton.kill.store(true, AtomicOrdering::Relaxed);
        for pid in parked {
            let Some(mut core) = self.inner.try_core() else {
                return;
            };
            let sched = &mut core.0;
            let image = &mut sched.procs[pid.0 as usize].image;
            // SAFETY: the process is `Parked`, so it is suspended and
            // unfinished; `&mut self` means no run loop is entering anything
            // — nor, for the same reason, are we on the run stack.
            let sp = unsafe { sched.images.restore(stack, image) };
            sched.finish(pid);
            drop(core);
            // SAFETY: as above, `sp` is what `restore` just returned for it,
            // and the slot no longer names it. Its report does not matter any
            // more.
            unsafe { baton.enter(pid, sp) };
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests of the timer itself")]
mod tests {
    use super::*;

    #[derive(Default)]
    struct TestWorld {
        log: Vec<(u64, String)>,
        flag: bool,
        counter: u64,
    }

    impl TestWorld {
        fn log(&mut self, now: SimTime, msg: impl Into<String>) {
            self.log.push((now.as_ns(), msg.into()));
        }
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.schedule_in(SimDuration::from_ns(20), |w: &mut TestWorld, s| {
            w.log(s.now(), "b")
        });
        sim.schedule_in(SimDuration::from_ns(10), |w: &mut TestWorld, s| {
            w.log(s.now(), "a")
        });
        sim.schedule_in(SimDuration::from_ns(20), |w: &mut TestWorld, s| {
            w.log(s.now(), "c")
        });
        sim.run_to_idle();
        let w = sim.world();
        assert_eq!(
            w.log,
            vec![(10, "a".into()), (20, "b".into()), (20, "c".into())]
        );
    }

    #[test]
    fn nested_event_scheduling() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.schedule_in(SimDuration::from_ns(5), |w: &mut TestWorld, s| {
            w.log(s.now(), "outer");
            s.schedule_in(SimDuration::from_ns(7), |w: &mut TestWorld, s| {
                w.log(s.now(), "inner");
            });
        });
        let report = sim.run_to_idle();
        assert_eq!(report.now, SimTime::from_ns(12));
        assert_eq!(
            sim.world().log,
            vec![(5, "outer".into()), (12, "inner".into())]
        );
    }

    #[test]
    fn process_sleep_advances_time() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.spawn("sleeper", |ctx: Ctx<TestWorld>| {
            ctx.sleep(SimDuration::from_us(3));
            let now = ctx.now();
            ctx.with(|w, _| w.log(now, "woke"));
        });
        let report = sim.run_to_idle();
        assert!(report.all_finished());
        assert_eq!(sim.world().log, vec![(3_000, "woke".into())]);
    }

    #[test]
    fn wait_until_sees_event_updates() {
        let mut sim = Simulation::new(TestWorld::default());
        let pid = sim.spawn("waiter", |ctx: Ctx<TestWorld>| {
            ctx.wait_until(|w, _| if w.flag { Some(()) } else { None });
            let now = ctx.now();
            ctx.with(|w, _| w.log(now, "flagged"));
        });
        sim.schedule_in(SimDuration::from_us(7), move |w: &mut TestWorld, s| {
            w.flag = true;
            s.wake(pid, Wakeup::START);
        });
        let report = sim.run_to_idle();
        assert!(report.all_finished());
        assert_eq!(sim.world().log, vec![(7_000, "flagged".into())]);
    }

    #[test]
    fn spurious_wakeups_do_not_break_sleep_or_wait() {
        let mut sim = Simulation::new(TestWorld::default());
        let pid = sim.spawn("sleeper", |ctx: Ctx<TestWorld>| {
            ctx.sleep(SimDuration::from_us(10));
            assert_eq!(ctx.now(), SimTime::from_ns(10_000));
        });
        // Hammer the sleeper with early spurious wakeups.
        for i in 1..5u64 {
            sim.schedule_in(SimDuration::from_us(i), move |_w: &mut TestWorld, s| {
                s.wake(pid, Wakeup(99));
            });
        }
        assert!(sim.run_to_idle().all_finished());
    }

    #[test]
    fn processes_communicate_through_world() {
        let mut sim = Simulation::new(TestWorld::default());
        let consumer = sim.spawn("consumer", |ctx: Ctx<TestWorld>| {
            let got = ctx.wait_until(|w, _| (w.counter >= 3).then_some(w.counter));
            assert_eq!(got, 3);
        });
        sim.spawn("producer", move |ctx: Ctx<TestWorld>| {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_us(1));
                ctx.with(|w, s| {
                    w.counter += 1;
                    s.wake(consumer, Wakeup::START);
                });
            }
        });
        assert!(sim.run_to_idle().all_finished());
        assert_eq!(sim.now(), SimTime::from_ns(3_000));
    }

    #[test]
    fn deadlocked_process_reported_parked() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.spawn("stuck", |ctx: Ctx<TestWorld>| {
            ctx.wait_until(|w, _| w.flag.then_some(())); // never set
        });
        let report = sim.run_to_idle();
        assert_eq!(report.parked.len(), 1);
        assert_eq!(report.parked[0].1, "stuck");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.schedule_in(SimDuration::from_us(10), |w: &mut TestWorld, s| {
            w.log(s.now(), "late")
        });
        let outcome = sim.run_until(SimTime::from_ns(5_000));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.now(), SimTime::from_ns(5_000));
        assert!(sim.world().log.is_empty());
        let report = sim.run_to_idle();
        assert_eq!(report.now, SimTime::from_ns(10_000));
        assert_eq!(sim.world().log.len(), 1);
    }

    #[test]
    fn processes_can_spawn_processes() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.spawn("parent", |ctx: Ctx<TestWorld>| {
            ctx.sleep(SimDuration::from_us(1));
            ctx.with(|_, s| {
                s.spawn("child", |ctx: Ctx<TestWorld>| {
                    ctx.sleep(SimDuration::from_us(2));
                    let now = ctx.now();
                    ctx.with(|w, _| w.log(now, "child done"));
                });
            });
        });
        assert!(sim.run_to_idle().all_finished());
        assert_eq!(sim.world().log, vec![(3_000, "child done".into())]);
    }

    #[test]
    #[should_panic(expected = "simulated process 'bad' panicked")]
    fn process_panic_propagates_to_executor() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.spawn("bad", |_ctx: Ctx<TestWorld>| {
            panic!("boom");
        });
        sim.run_to_idle();
    }

    #[test]
    fn dropping_simulation_with_parked_processes_does_not_hang() {
        let mut sim = Simulation::new(TestWorld::default());
        for i in 0..8 {
            sim.spawn(format!("p{i}"), |ctx: Ctx<TestWorld>| {
                ctx.wait_until(|w, _| w.flag.then_some(()));
            });
        }
        sim.run_to_idle();
        drop(sim); // must join all eight threads without deadlock
    }

    #[test]
    fn determinism_two_runs_identical_log() {
        fn run() -> Vec<(u64, String)> {
            let mut sim = Simulation::new(TestWorld::default());
            for i in 0..10u64 {
                sim.schedule_in(
                    SimDuration::from_ns(100 - i * 3),
                    move |w: &mut TestWorld, s| {
                        w.log(s.now(), format!("e{i}"));
                    },
                );
            }
            for i in 0..4u64 {
                sim.spawn(format!("p{i}"), move |ctx: Ctx<TestWorld>| {
                    ctx.sleep(SimDuration::from_ns(50 + i));
                    let now = ctx.now();
                    ctx.with(|w, _| w.log(now, format!("p{i}")));
                });
            }
            sim.run_to_idle();
            let w = sim.world();
            w.log.clone()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn cancelled_timer_neither_fires_nor_advances_time() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.setup(|_, s| {
            let h = s.schedule_cancellable_in(SimDuration::from_us(50), |w: &mut TestWorld, s| {
                w.log(s.now(), "timeout");
            });
            s.schedule_in(SimDuration::from_us(1), move |w: &mut TestWorld, s| {
                w.log(s.now(), "ack");
                h.cancel();
            });
        });
        let report = sim.run_to_idle();
        // Idle time is the ack, not the disarmed 50us timeout.
        assert_eq!(report.now, SimTime::from_ns(1_000));
        assert_eq!(sim.world().log, vec![(1_000, "ack".into())]);
    }

    #[test]
    fn uncancelled_timer_fires_normally() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.setup(|_, s| {
            let _armed =
                s.schedule_cancellable_in(SimDuration::from_us(5), |w: &mut TestWorld, s| {
                    w.log(s.now(), "timeout");
                });
        });
        let report = sim.run_to_idle();
        assert_eq!(report.now, SimTime::from_ns(5_000));
        assert_eq!(sim.world().log, vec![(5_000, "timeout".into())]);
    }

    #[test]
    fn a_stale_generation_is_inert_and_every_index_has_its_own_cell() {
        let cells = TimerCells::new();
        assert_eq!(cells.generation(0), 0);
        cells.cancel(0, 0);
        assert!(cells.is_cancelled(0));
        assert!(cells.retire(0));
        // Same cell, next generation, armed: the old handle can do nothing.
        assert_eq!(cells.generation(0), 1);
        cells.cancel(0, 0);
        assert!(!cells.is_cancelled(0));
        cells.cancel(0, 1);
        assert!(cells.is_cancelled(0));
        // Every index has a cell of its own, across chunk boundaries.
        let n = 197;
        for idx in 1..n {
            assert_eq!(cells.generation(idx), 0);
            cells.cancel(idx, 0);
        }
        assert!(cells.retire(0));
        assert!((1..n).all(|idx| cells.is_cancelled(idx)));
        assert!(!cells.is_cancelled(0));
        assert_eq!(cells.generation(0), 2);
    }

    #[test]
    fn a_retired_timer_cell_is_armed_again_before_the_table_grows() {
        let mut sim = Simulation::new(TestWorld::default());
        let arm = |s: &mut Scheduler<TestWorld>| {
            s.schedule_cancellable_in(SimDuration::from_us(1), |_, _| {})
        };
        let at = |h: TimerHandle| (h.cell, h.gen);
        // Fired or cancelled, the one cell comes back a generation on.
        sim.setup(|_, s| assert_eq!(at(arm(s)), (0, 0)));
        sim.run_to_idle();
        sim.setup(|_, s| {
            let h = arm(s);
            h.cancel();
            assert_eq!(at(h), (0, 1));
        });
        sim.run_to_idle();
        // Timers outstanding together get a cell each, spare ones first.
        let n = 197;
        sim.setup(|_, s| {
            assert_eq!(at(arm(s)), (0, 2));
            for idx in 1..n {
                assert_eq!(at(arm(s)), (idx, 0));
            }
            assert_eq!((s.events.len(), s.events.capacity()), (n as usize, 256));
        });
        sim.run_to_idle();
        sim.setup(|_, s| {
            let mut cells: Vec<_> = (0..n).map(|_| at(arm(s))).collect();
            cells.sort_unstable();
            let again = (0..n).map(|idx| (idx, if idx == 0 { 3 } else { 1 }));
            assert!(cells.into_iter().eq(again));
            assert_eq!(s.events.capacity(), 256, "the slab did not grow");
        });
    }

    /// What the queue holds, as an event callback sees it: entries, and
    /// cancelled timers among them.
    fn queued<W>(s: &Scheduler<W>) -> (usize, usize) {
        (s.queue.len(), s.timers.dead.load(AtomicOrdering::Relaxed))
    }

    #[test]
    fn cancelled_timers_are_swept_once_they_outnumber_the_live_past_the_floor() {
        #[derive(Default)]
        struct World {
            timers: Vec<TimerHandle>,
            seen: Vec<(usize, usize)>,
            fired: usize,
        }
        let mut sim = Simulation::new(World::default());
        sim.setup(|w, s| {
            w.timers = (0..300)
                .map(|_| {
                    s.schedule_cancellable_in(SimDuration::from_us(50), |w: &mut World, _| {
                        w.fired += 1
                    })
                })
                .collect();
            // Each step sees what the cancellations of the one before left
            // queued (the steps still to come included), then cancels more.
            for (step, upto) in [SWEEP_FLOOR, 150, 152, 152].into_iter().enumerate() {
                let at = SimDuration::from_us(1 + step as u64);
                s.schedule_in(at, move |w: &mut World, s| {
                    w.seen.push(queued(s));
                    w.timers[..upto].iter().for_each(TimerHandle::cancel);
                });
            }
        });
        sim.run_to_idle();
        sim.setup(|_, sched| {
            assert_eq!(queued(sched), (0, 0));
            // Nothing is left in the slab, which grew for the 304 events
            // outstanding at the start and not since.
            assert_eq!((sched.events.len(), sched.events.capacity()), (0, 512));
        });
        let w = sim.world();
        // At the floor: left alone. 150 dead of 302: left alone. 152 dead of
        // 301: all out, and the tally with them.
        assert_eq!(w.seen, [(303, 0), (302, 64), (301, 150), (148, 0)]);
        assert_eq!(w.fired, 148);
    }

    #[test]
    fn a_sweep_takes_cancelled_same_instant_timers_too_and_keeps_the_lane_in_order() {
        let mut sim = Simulation::new(TestWorld::default());
        sim.schedule_in(SimDuration::from_us(1), |_: &mut TestWorld, s| {
            for i in 0..100 {
                s.schedule_cancellable_in(SimDuration::ZERO, |w: &mut TestWorld, s| {
                    w.log(s.now(), "cancelled")
                })
                .cancel();
                if i % 40 == 0 {
                    s.schedule_in(SimDuration::ZERO, move |w: &mut TestWorld, s| {
                        // Left in the lane they would bring on a sweep at
                        // every event, or sit out their turn one by one.
                        assert_eq!(queued(s), (2 - i / 40, 0));
                        w.log(s.now(), format!("lane {i}"));
                    });
                }
            }
            assert_eq!(queued(s), (103, 100));
        });
        let report = sim.run_to_idle();
        assert_eq!(report.now, SimTime::from_ns(1_000));
        let lane = |i| (1_000, format!("lane {i}"));
        assert_eq!(sim.world().log, [lane(0), lane(40), lane(80)]);
    }

    #[test]
    fn same_instant_cancellation_is_honored() {
        // Cancel at the very instant the timer is due: the earlier-seq event
        // runs first and disarms it.
        let mut sim = Simulation::new(TestWorld::default());
        sim.setup(|_, s| {
            s.schedule_in(SimDuration::from_us(2), |w: &mut TestWorld, s| {
                let h = s.schedule_cancellable_in(SimDuration::ZERO, |w: &mut TestWorld, s| {
                    w.log(s.now(), "zero-delay timeout");
                });
                w.log(s.now(), "arm+cancel");
                h.cancel();
            });
        });
        sim.run_to_idle();
        assert_eq!(sim.world().log, vec![(2_000, "arm+cancel".into())]);
    }

    #[test]
    fn stale_wake_for_finished_process_is_ignored() {
        let mut sim = Simulation::new(TestWorld::default());
        let pid = sim.spawn("quick", |ctx: Ctx<TestWorld>| {
            ctx.sleep(SimDuration::from_ns(1));
        });
        sim.schedule_in(SimDuration::from_us(1), move |_w: &mut TestWorld, s| {
            s.wake(pid, Wakeup(7)); // fires long after 'quick' finished
        });
        assert!(sim.run_to_idle().all_finished());
    }
}
