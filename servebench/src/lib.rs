//! Wall-clock serving benchmark for the LServe reproduction.
//!
//! One binary (`src/main.rs`) builds the weights and the engine, drives a
//! fixed traffic mix against a [`lserve_core::Scheduler`] from a single thread
//! on the wall clock, checks every output against a solo replay, and prints
//! end-to-end metrics (untraced run) or per-layer metrics (traced run). The
//! modules here are the pieces of that binary that carry their own logic and
//! tests: seeded input generation, the percentile rule, span bookkeeping, the
//! serving driver, the output check and the per-layer probes.

pub mod check;
pub mod config;
pub mod driver;
pub mod json;
pub mod probes;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workload;
