//! # krisp-suite — umbrella crate for the KRISP reproduction
//!
//! Re-exports the whole stack so examples and integration tests can
//! `use krisp_suite::...`. See the individual crates:
//!
//! * [`sim`] — the discrete-event GPU simulator substrate;
//! * [`models`] — the synthetic inference-model zoo (Table III);
//! * [`runtime`] — the ROCm-like runtime layer with KRISP interception
//!   and the paper's emulation methodology;
//! * [`core`] — KRISP itself: Algorithm 1, distribution policies,
//!   right-sizing, and the offline profiler;
//! * [`server`] — the spatially partitioned inference server and the
//!   experiment harness;
//! * [`obs`] — the event stream, metrics registry and their exporters
//!   (Perfetto trace, Prometheus text, ASCII Gantt chart).

pub use krisp as core;
pub use krisp_models as models;
pub use krisp_obs as obs;
pub use krisp_runtime as runtime;
pub use krisp_server as server;
pub use krisp_sim as sim;
