//! # hpc-vorx — umbrella crate
//!
//! Re-exports the public API of the HPC/VORX reproduction (PPoPP 1990):
//!
//! * [`desim`] — the deterministic discrete-event simulation kernel.
//! * [`hpcnet`] — the HPC interconnect (clusters, hypercube, hardware flow
//!   control).
//! * [`snet`] — the S/NET single-bus predecessor used as a baseline.
//! * [`vorx`] — the VORX distributed operating system (channels, object
//!   managers, subprocesses, stubs, user-defined communications objects).
//! * [`vorx_tools`] — `cdb`, the software oscilloscope, and the profiler.
//! * [`vorx_apps`] — the workloads used by the paper's evaluation.
//!
//! The `examples/` directory of this package contains runnable end-to-end
//! scenarios; `crates/bench` regenerates every table and figure of the
//! paper's evaluation.

#![forbid(unsafe_code)]

pub use desim;
pub use hpcnet;
pub use snet;
pub use vorx;
pub use vorx_apps;
pub use vorx_tools;
