//! The pinned, seeded benchmark of the HPC/VORX reproduction.
//!
//! Six workloads over the public functions of `desim`, `hpcnet` and `vorx`,
//! measured from outside: end-to-end metrics (host speed and simulated
//! results, never mixed) with tracing off, and a separate traced run for the
//! per-layer numbers and the layer budget. `README.md` in this directory has
//! the tables; `BENCHMARK.json` at the repository root declares the names.

pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod kernels;
pub mod rep;
pub mod runner;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workloads;
