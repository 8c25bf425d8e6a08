//! # krisp-serve-core — the event-driven serving engine
//!
//! One serving engine under every front-end. The single-GPU server
//! (`krisp_server::experiment`) and the multi-GPU cluster
//! (`krisp_server::cluster`) both serve through this crate's
//! [`Worker`]s, request queues, admission guardrails, arrival
//! generators, and flow books. Routing, health, and hedging stay with
//! the cluster, which drives its fleet through the [`engine::Dispatcher`]
//! trait; the single-GPU server steps its one runtime directly.
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
//!   deterministic Poisson stream generators.
//! - [`worker`] — the per-model [`Worker`] lifecycle (queue → batch →
//!   tagged launch → end or discard the run).
//! - [`calendar`] — the invalidating [`EventCalendar`] multi-device
//!   dispatchers use to answer `next_device_at` without re-scanning
//!   every device per event.
//! - [`engine`] — the conservative event loop ([`engine::drive`]) that
//!   interleaves control events, external arrivals, and device events
//!   behind the [`engine::Dispatcher`] trait.
//!
//! Everything is driven by simulation time and seeded RNGs only: same
//! seed, same trace, bit-identical results — the property the golden
//! fixtures in `krisp-server` pin across refactors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod books;
pub mod calendar;
pub mod engine;
pub mod queue;
pub mod sentinel;
pub mod worker;

pub use arrival::{exp_sample, poisson_arrivals, Arrival};
pub use books::{FlowCounters, RobustnessCounters, SentinelCounters};
pub use calendar::EventCalendar;
pub use engine::{drive, Dispatcher, ExternalArrival};
pub use queue::{InferenceRequest, RequestQueue};
pub use sentinel::{
    AdmissionChain, BrownoutConfig, BrownoutController, SentinelConfig, SentinelState, TokenBucket,
    TokenBucketConfig,
};
pub use worker::{worker_on, Worker};
