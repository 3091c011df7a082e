//! # vorx-tools — program development tools (§6)
//!
//! The measurement and debugging tools the paper built for VORX:
//!
//! * [`cdb`] — the communications debugger: channel-state listings with
//!   filters, plus wait-for-graph deadlock detection (§6.1).
//! * [`oscillo`] — the software oscilloscope: synchronized per-node
//!   timelines of user/system/idle-input/idle-output/idle-mixed time, with
//!   freeze/zoom/seek over any recorded window (§6.2).
//! * [`prof`] — flat region profiling: where does the time go (§6.2).
//! * [`vdb`] — the symbolic debugger: attach to running processes, stop at
//!   breakpoints, examine variables, switch between processes (§6).
//!
//! All three consume state the `vorx` kernels and trace already maintain —
//! exactly the paper's observation that `cdb` "was easy to implement because
//! most of the information that it needs was already encoded in the
//! communications driver".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod cdb;
pub mod oscillo;
pub mod prof;
pub mod vdb;

pub use cdb::{deadlock_cycles, CdbFilter, ChanReport, EndState};
pub use oscillo::{Cat, Oscilloscope, Utilization};
pub use prof::ProfReport;
