//! The ten campaigns: each module holds what is particular to it — its
//! reasons (the doc header), its machine and fault scripts, its cell table,
//! the run of one cell, its named oracles and cross-cell gates — as one
//! `CAMPAIGN` constant for [`crate::campaign::drive`]. Eight hold the claims
//! of DESIGN.md §9–§16; [`paper`] holds the paper's own numbers and
//! [`engine`] the host speed of the layers they all run on.

pub mod collective;
pub mod datapath;
pub mod engine;
pub mod faults;
pub mod gray;
pub mod paper;
pub mod partition;
pub mod pdes;
pub mod scale;
pub mod soak;
