//! # krispbench — the repository's benchmark
//!
//! Host throughput of the simulated KRISP serving stack on three seeded
//! workloads, measured end to end by an untraced run and layer by layer
//! by a traced run. See `README.md` in this directory for the workloads,
//! the metrics, the predictions linking them, and how to read a report.

pub mod count_alloc;
pub mod digests;
pub mod layers;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod workload;
