//! Measurement harnesses for the reproduction of *The Evolution of
//! HPC/VORX* (PPoPP 1990).
//!
//! Every committed `BENCH_<name>.json` is a campaign: a cell table, the run
//! of one cell, its oracles and gates (`campaigns/<name>.rs`) over the one
//! harness ([`campaign`]), host speed included. The paper's own tables,
//! figure and in-text measurements are [`campaigns::paper`]; the engine's
//! kernels, simulated and timed, are [`campaigns::engine`]. The two cell
//! runners of Tables 1 and 2 are re-exported here for the property tests.
//! See `DESIGN.md` §4 (per-experiment index) and `EXPERIMENTS.md` (the
//! report as a table) at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod campaigns;

pub use campaigns::paper::{table1_cell, table2_cell};
