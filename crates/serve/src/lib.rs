//! # krisp-serve-core — the event-driven serving engine
//!
//! One serving engine under every front-end. The single-GPU server
//! (`krisp_server::experiment`) and the multi-GPU cluster
//! (`krisp_server::cluster`) both serve through this crate's
//! [`Worker`]s, request queues, admission guardrails, arrival
//! generators, and flow books. Each front-end owns its event loop: the
//! single-GPU server steps its one runtime directly, and the cluster
//! merges one front-end event queue (arrivals, hedge checks, crashes)
//! with its GPUs' runtimes, keeping routing, health, and hedging to
//! itself.
//!
//! The pieces, bottom-up:
//!
//! - [`queue`] — [`InferenceRequest`] and the bounded [`RequestQueue`]
//!   with optional CoDel sojourn shedding.
//! - [`sentinel`] — token-bucket admission, the brownout hysteresis
//!   state machine, and the [`AdmissionChain`] that composes them in
//!   guardrail order.
//! - [`books`] — [`FlowCounters`] / [`RobustnessCounters`] /
//!   [`SentinelCounters`], the conservation books every result carries.
//! - [`arrival`] — the [`Arrival`] process descriptions plus the
//!   deterministic Poisson stream generators ([`ExternalArrival`]s).
//! - [`worker`] — the per-model [`Worker`] lifecycle (queue → batch →
//!   tagged launch → end or discard the run).
//!
//! Everything is driven by simulation time and seeded RNGs only: same
//! seed, same trace, bit-identical results — the property the golden
//! fixtures in `krisp-server` pin across refactors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod books;
pub mod queue;
pub mod sentinel;
pub mod worker;

pub use arrival::{exp_sample, poisson_arrivals, Arrival, ExternalArrival};
pub use books::{FlowCounters, RobustnessCounters, SentinelCounters};
pub use queue::{InferenceRequest, RequestQueue};
pub use sentinel::{
    AdmissionChain, BrownoutConfig, BrownoutController, SentinelConfig, SentinelState, TokenBucket,
    TokenBucketConfig,
};
pub use worker::{worker_on, Worker};
