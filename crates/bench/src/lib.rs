//! Experiment harnesses regenerating every table and figure of
//! *The Evolution of HPC/VORX* (PPoPP 1990), plus the in-text measurements.
//!
//! Each `src/bin/*` binary prints one experiment as paper-vs-measured rows;
//! the runners live here so the criterion benches and integration tests can
//! share them. See `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md`
//! (recorded results) at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod campaigns;
pub mod experiments;
pub mod report;

pub use experiments::*;
