//! # desim — deterministic discrete-event simulation kernel
//!
//! The foundation of the HPC/VORX reproduction. Everything the paper
//! measures happens in *simulated* time on simulated 1988 hardware; this
//! crate provides that substrate:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Simulation`] — the executor. Hardware models run as **event
//!   callbacks** over a user-defined world state `W`; software (operating
//!   system code, application processes) runs as **processes** — stackful
//!   coroutines switched in user space on the executor's own thread —
//!   written in ordinary blocking style via [`Ctx`]. Queue and world share
//!   one lock; a call that finds it taken (inside [`Ctx::with`]) panics.
//! * [`sync`] — wait sets for simulated processes.
//! * [`Trace`] — timestamped event recording for the measurement tools.
//! * [`ShardedSim`] — asynchronous conservative parallel execution: several
//!   `Simulation` shards advance independently to their earliest input
//!   time (peer frontier + per-link lookahead), exchanging messages over
//!   locked per-link mailboxes ([`spsc`], never locked empty) with
//!   deterministic injection order.
//! * [`queue`] — the one `(time, seq)` event queue, and the keyed min-heap
//!   under it.
//! * [`rng`] — the one seeded PRNG every simulated stream draws from.
//! * [`lock`] — the one way the workspace takes a `std::sync::Mutex`.
//! * [`hash`] — the one hasher every hash map in the workspace uses.
//!
//! ## Determinism
//!
//! Exactly one simulated activity executes at any moment; the event queue is
//! ordered by `(time, sequence)`, and every random draw comes from a seeded
//! [`rng`] generator. Two runs of the same scenario produce bit-identical
//! traces. A process has a stack of its own but no thread:
//! the executor switches into it and it switches back, one at a time, so the
//! host scheduler has no say in the order. Process code must not hold a
//! thread-local borrow or a lock guard across a park (the sharded engine may
//! resume it on another OS thread).
//!
//! ## Example
//!
//! ```
//! use desim::{Simulation, SimDuration, Ctx};
//!
//! #[derive(Default)]
//! struct World { delivered: bool }
//!
//! let mut sim = Simulation::new(World::default());
//! let rx = sim.spawn("receiver", |ctx: Ctx<World>| {
//!     ctx.wait_until(|w, _| w.delivered.then_some(()));
//!     assert_eq!(ctx.now().as_us_f64(), 5.0);
//! });
//! sim.schedule_in(SimDuration::from_us(5), move |w: &mut World, s| {
//!     w.delivered = true;          // "hardware" delivers a message
//!     s.wake(rx, desim::Wakeup::START);
//! });
//! assert!(sim.run_to_idle().all_finished());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod coro;
#[allow(unsafe_code)]
mod event_fn;
#[allow(unsafe_code)]
mod sim;
mod time;

pub mod fault;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod spsc;
pub mod sync;
pub mod trace;

pub use fault::{Disposition, FaultAction, FaultEvent, FaultSchedule, LinkFaults, LinkStats};
pub use hash::{FixedMap, FixedSet, FixedState};
pub use shard::{host_cpus, OutMsg, PdesMonitor, PdesStats, ShardWorld, ShardedSim};
pub use sim::{
    Ctx, IdleReport, ProcId, RunOutcome, Scheduler, Simulation, TimerHandle, Wakeup, WorldGuard,
};
pub use time::{SimDuration, SimTime};
pub use trace::Trace;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Take `m`, recovering it if a panic poisoned it.
///
/// The workspace's one poisoning policy. A simulated process that panics
/// unwinds through whatever it holds — [`Ctx::with`]'s queue and world (the
/// executor recovers them the same way), a test's result collector — and
/// the executor re-raises the panic to its caller by name, so the panic is
/// never lost; the data it left behind is still what later readers
/// (teardown, a test's post-mortem) should see.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
