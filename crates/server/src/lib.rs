//! # krisp-server — a spatially partitioned GPU inference server
//! (simulated)
//!
//! Mirrors the paper's custom inference server (§VI-A): a front-end that
//! enqueues client requests, per-model request queues, and independent
//! **workers** — each with its own GPU stream — that process batches
//! back-to-back. The evaluation drives the server at **maximum load**
//! (closed loop), exactly as the paper does; an open-loop Poisson
//! arrival process is also available for latency-under-load studies.
//!
//! The server realizes the five spatial-partitioning policies of §VI-A
//! ([`krisp::Policy`]): the stream-masking policies set each worker's CU
//! mask once at startup; the KRISP policies run the runtime in
//! kernel-scoped mode with Algorithm 1 and a per-policy overlap limit.
//!
//! ```rust
//! use krisp::Policy;
//! use krisp_models::ModelKind;
//! use krisp_server::{run_server, oracle_perfdb, ServerConfig};
//! use krisp_sim::SimDuration;
//!
//! let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
//! let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
//! cfg.warmup = Some(SimDuration::from_millis(20));
//! cfg.duration = Some(SimDuration::from_millis(200));
//! let result = run_server(&cfg, &db);
//! assert!(result.total_rps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod cluster;
pub mod experiment;
pub mod metrics;

mod gpu;

pub use capacity::{plan_capacity, CapacityOptions, CapacityPlan};
pub use cluster::{
    run_cluster, run_cluster_observed, BreakerConfig, ClusterConfig, ClusterResult,
    ClusterRobustness, CrashScript, GpuHealth, HedgeConfig, Routing,
};
pub use experiment::{
    model_right_size, oracle_perfdb, run_server, run_server_observed, Arrival, RightSizeSource,
    ServerConfig,
};
pub use krisp_serve_core::{
    BrownoutConfig, BrownoutController, InferenceRequest, RequestQueue, SentinelConfig,
    SentinelState, TokenBucket, TokenBucketConfig,
};
pub use metrics::{
    ExperimentResult, FlowCounters, RobustnessCounters, SentinelCounters, WorkerResult,
};
