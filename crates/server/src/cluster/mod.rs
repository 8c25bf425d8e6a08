//! Multi-GPU inference serving: several simulated GPUs behind one
//! request router — the ScaleServe-style deployment the paper's server
//! framework comes from, with KRISP running independently on every
//! device.
//!
//! Each GPU is its own [`krisp_runtime::Runtime`] (own clock, queues,
//! energy meter). The cluster's event loop (the `drive` module)
//! synchronizes them **conservatively** with one front-end event queue
//! of arrivals, hedge checks and the scripted crash: whichever event is
//! globally earliest steps first, and the front-end wins an equal
//! instant, so routing decisions made at an arrival instant observe
//! every GPU's true state at that instant. Routing, health and hedging
//! live in the cluster itself; each GPU runs the same per-model workers
//! as the single-GPU server.
//!
//! ## Health-aware serving
//!
//! Every GPU carries a [`GpuHealth`] state. Watchdog-abandoned kernels
//! and CU failures move a GPU from `Healthy` to `Degraded`; once its
//! failure count reaches the [`BreakerConfig`] threshold the circuit
//! breaker trips, the GPU stops receiving new requests (`Draining`),
//! finishes what is in flight, `Restarting` re-warms its stream masks,
//! and the breaker resets. A scripted [`CrashScript`] models a worker
//! process dying outright: in-flight requests are lost, queued requests
//! are retried on surviving GPUs, and the GPU re-warms after its
//! downtime. Per-request deadlines get one retry on another GPU before
//! the request is dropped.

pub mod config;
pub mod drive;
pub mod health;
pub mod hedge;
pub mod result;
#[cfg(test)]
mod tests;

pub use config::{ClusterConfig, CrashScript, Routing};
pub use drive::{run_cluster, run_cluster_observed};
pub use health::{BreakerConfig, GpuHealth};
pub use hedge::HedgeConfig;
pub use result::{ClusterResult, ClusterRobustness};
