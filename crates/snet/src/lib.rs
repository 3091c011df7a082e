//! # snet — the S/NET single-bus multicomputer (baseline)
//!
//! The predecessor hardware of HPC/VORX: the S/NET connected up to twelve
//! processors over a single bus, with a 2048-byte receive FIFO per
//! processor and *software* responsibility for overflow recovery. §2 of the
//! paper ("Hardware Flow Control") documents how that design failed under
//! the many-to-one communication patterns real applications exhibit, and
//! evaluates three recovery schemes:
//!
//! * **busy retry** (the original plan) — suffers *lockout*: rejected
//!   messages leave truncated junk in the FIFO, the receiver drains slower
//!   than the bus refills, and some messages are never received;
//! * **random backoff** — avoids lockout but "communications runs at the
//!   timeout rate; at least an order of magnitude slower";
//! * **reservation** — eliminates overflow but taxes every message with a
//!   request/grant round trip.
//!
//! This crate reproduces all three, plus the workaround Meglos actually
//! shipped (application-level message-length limits). The `E-SNET`
//! experiment harness in `crates/bench` turns these into the paper's
//! comparison.
//!
//! The machine is the paper's one S/NET: its bus, FIFO and software timings
//! are constants in [`config`], so a simulator is chosen by processor count,
//! recovery [`Strategy`] and seed alone ([`SnetSim::new`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod config;
pub mod sim;

pub use config::Strategy;
pub use sim::{Delivery, SnetReport, SnetSim};
