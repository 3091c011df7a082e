//! # hpcnet — the HPC interconnect
//!
//! An event-driven model of the HPC, the interconnect underlying the
//! HPC/VORX local area multicomputer (PPoPP 1990):
//!
//! * **Clusters** — twelve-port self-routing star networks
//!   ([`topology::Topology`]). Single-cluster systems, arbitrary graphs, and
//!   the paper's incomplete hypercube (up to "more than a thousand nodes")
//!   are all constructible.
//! * **Ports** — independent input and output sections running at
//!   160 Mbit/s ([`config::NS_PER_BYTE`]).
//! * **Hardware flow control** — a link accepts a frame only when it has
//!   room to buffer the whole frame, so the interconnect *never loses
//!   messages* and software needs no recovery protocol
//!   ([`fabric::Fabric`], §2 of the paper).
//! * **Hardware multicast** — frames are replicated at branch clusters, not
//!   at the source (§4.2).
//!
//! The fabric is a pure, `desim`-free state machine with an explicit event
//! interface, so it can be embedded in the `desim`-based VORX simulation,
//! driven by the bundled [`driver::StandaloneNet`] (a loop over `desim`'s
//! event queue alone), or unit-tested directly.
//!
//! The contrasting previous-generation interconnect (single-bus S/NET with
//! software flow-control recovery) lives in the sibling `snet` crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod combine;
pub mod config;
pub mod driver;
pub mod fabric;
pub mod frame;
pub mod topology;

pub use config::{NetConfig, PORTS_PER_CLUSTER};
pub use fabric::{
    Fabric, FaultHook, LinkId, NetEvent, NoFaults, Notify, Output, SendError, Stats, Transit, Work,
};
pub use frame::{
    copymeter, Dest, Frame, FrameError, NodeAddr, Payload, HEADER_BYTES, MAX_FRAME, MAX_PAYLOAD,
};
pub use topology::{Attachment, ClusterId, PortRef, Topology, TopologyBuilder, TopologyError};
