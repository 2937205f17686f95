//! The repository benchmark: four named workloads timed end to end through
//! the public functions of the simulator crates, plus a per-layer trace
//! taken from outside them. See `README.md` for the workloads, the metrics
//! and the A/B protocol.

#![warn(missing_docs)]

pub mod metrics;
mod pass;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
