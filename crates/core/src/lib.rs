//! # vorx — the VORX distributed operating system
//!
//! Reproduction of the operating system from *The Evolution of HPC/VORX*
//! (Katseff, Gaglianello, Robinson — PPoPP 1990), running on a simulated HPC
//! interconnect (`hpcnet`) under a deterministic discrete-event engine
//! (`desim`). Everything the paper describes is here:
//!
//! * [`channel`] — named channels with single-call open (rendezvous),
//!   stop-and-wait kernel protocol, fragmentation, multiplexed read (§4).
//! * [`objmgr`] — centralized (Meglos) vs distributed-hashing (VORX)
//!   communications object managers (§3.2).
//! * [`udco`] — user-defined communications objects: direct hardware
//!   access, user ISRs, polled input (§4.1).
//! * [`sched`] — subprocesses with priorities and 80 µs context switches,
//!   plus the cheaper coroutine / interrupt-level structurings (§5).
//! * [`host`] — host workstations, stub processes, forwarded UNIX system
//!   calls, per-process vs shared stubs, tree download (§3.3).
//! * [`alloc`] — processor allocation and the "processors not available"
//!   story (§3.1).
//! * [`multicast`] — the flow-controlled multicast primitive (§4.2).
//! * [`calib`] — the 1988 cost model, tuned to reproduce Tables 1 and 2.
//!
//! ## Quick start
//!
//! ```
//! use vorx::{VorxBuilder, channel};
//! use hpcnet::{NodeAddr, Payload};
//!
//! let mut v = VorxBuilder::single_cluster(3).build();
//! v.spawn("n1:writer", |ctx| {
//!     let ch = channel::open(&ctx, NodeAddr(1), "pipe");
//!     ch.write(&ctx, Payload::copy_from(b"hello")).unwrap();
//! });
//! v.spawn("n2:reader", |ctx| {
//!     let ch = channel::open(&ctx, NodeAddr(2), "pipe");
//!     assert_eq!(ch.read(&ctx).unwrap().bytes().unwrap().as_ref(), b"hello");
//! });
//! v.run_all();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
// Recovery-aware kernel code must degrade, not die: every `unwrap` on a
// public API path is a latent panic under fault injection. Tests may still
// unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod alloc;
pub mod api;
pub mod appmgr;
pub mod calib;
pub mod channel;
pub mod collective;
pub mod cpu;
pub mod debug;
pub mod error;
pub mod fault;
pub mod host;
pub mod invariants;
pub mod kernel;
pub mod membership;
pub mod multicast;
pub mod objmgr;
pub mod proto;
pub mod protocols;
pub mod retry;
pub mod rtt;
pub mod sched;
pub mod udco;
pub mod world;

pub use calib::Calibration;
pub use cpu::{BlockReason, CpuCat, TraceEvent};
pub use error::{VorxError, VorxResult};
pub use fault::{FaultState, FaultStats};
pub use objmgr::Name;
pub use world::{ShardCtx, VCtx, VSched, VorxBuilder, VorxShardedSim, VorxSim, World};

/// Re-export of the interconnect crate for convenience.
pub use hpcnet;
