//! The experiment harness: sets up workers under a partitioning policy,
//! drives the simulated server, and measures throughput / tail latency /
//! energy inside a warmup-delimited window.
//!
//! Split by concern, with the GPU bring-up and the workers shared with
//! the cluster:
//!
//! - [`config`] — [`ServerConfig`] and its policy knobs.
//! - [`perfdb`] — the oracle Required-CUs table and model-wise knees.
//! - [`drive`] — the runtime-event handler and the [`run_server`] /
//!   [`run_server_observed`] entry points.
//! - [`result`] — window filtering and conservation-book assembly into
//!   [`crate::metrics::ExperimentResult`].

pub mod config;
pub mod drive;
pub mod perfdb;
pub mod result;

#[cfg(test)]
mod tests;

pub use config::{RightSizeSource, ServerConfig};
pub use drive::{run_server, run_server_observed};
pub use perfdb::{model_right_size, oracle_perfdb};
