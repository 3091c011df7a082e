//! # vorx-apps — the paper's workloads
//!
//! Applications exercising the HPC/VORX public API, standing in for the
//! programs the paper's evaluation is built around:
//!
//! * [`fft`] / [`fft2d`] — the §4.2 two-dimensional complex FFT, with
//!   multicast vs point-to-point redistribution (verified numerically).
//! * [`bitmap`] — §4.1 real-time bitmap streaming with no software flow
//!   control (the 3.2 MB/s / 30 Hz claim).
//! * [`spice`] — the §4.1 parallel-SPICE stand-in: a distributed sparse
//!   solver with raw-UDCO halo exchange (the 60 µs claim).
//! * [`cemu`] — a CEMU-style distributed circuit timing simulator, the
//!   paper's cited sliding-window/coroutine application (§4.1, §5).
//! * [`conference`] — a Rapport-style real-time audio/video conference
//!   between workstations (§1's motivating application).
//! * [`linda`] — a Linda tuple-space kernel, the S/NET's marquee
//!   application (§1) whose implementors drove the UDCO design (§4.1).
//! * [`patterns`] — ping-pong and the §2 many-to-one burst.
//! * [`download`] — the §3.3 program-download scenarios.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod cemu;
pub mod conference;
pub mod download;
pub mod fft;
pub mod fft2d;
pub mod linda;
pub mod patterns;
pub mod spice;
