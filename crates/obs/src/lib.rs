//! # krisp-obs — observability for the KRISP reproduction
//!
//! A small, dependency-free observability layer threaded through the
//! whole stack (simulator → runtime → server → benches):
//!
//! * a typed **event bus** ([`EventBus`]) carrying sim-time-stamped
//!   [`Event`]s — kernel dispatches and completions, mask applications,
//!   barrier drains, emulated reconfigurations, request lifecycle — into
//!   a pluggable [`Sink`] (normally a bounded [`RingBufferSink`]);
//! * a **metrics registry** ([`Metrics`] / [`Registry`]) of labelled
//!   counters, gauges and log-bucketed [`Histogram`]s. A series recorded
//!   on a hot path is registered once and recorded through a handle
//!   ([`CounterHandle`], [`GaugeHandle`], [`HistogramHandle`]) that
//!   indexes the registry's storage: no key is built and no map is
//!   searched per call. The simulated machine keeps its per-CU and
//!   per-queue series in slots of its own and publishes them once, when
//!   the run ends. Every series is reproducible bit for bit except the
//!   wall-clock `krisp_mask_generation_ns` histogram (see
//!   [`metrics`]);
//! * **exporters**: a Chrome-trace-event / Perfetto JSON builder
//!   ([`perfetto::chrome_trace`]), an ASCII CU × time Gantt chart
//!   ([`gantt::gantt`], [`gantt::occupancy_profile`]), and Prometheus
//!   text exposition plus a JSON snapshot ([`prometheus::render_text`],
//!   [`prometheus::render_json`]).
//!
//! Everything is **zero-cost when disabled**: a disabled [`EventBus`] or
//! [`Metrics`] is a `None` behind one branch, and [`EventBus::emit`]
//! takes a closure so event payloads are never even constructed unless a
//! sink is attached. Handles are `Arc`-shared and `Send`, so they can
//! ride inside simulator configs that cross thread boundaries (the bench
//! harness runs experiments on worker threads).
//!
//! ```rust
//! use krisp_obs::{EventKind, Obs};
//!
//! // Disabled observability costs one branch per call site.
//! let off = Obs::disabled();
//! off.bus.emit(0, || unreachable!("payload closure never runs"));
//!
//! // Recording: events land in a bounded ring buffer.
//! let (obs, sink) = Obs::recording(1024);
//! obs.bus.emit(5_000, || EventKind::KernelDispatch {
//!     queue: 0,
//!     tag: 7,
//!     required_cus: 15,
//! });
//! obs.metrics.observe("krisp_mask_generation_ns", &[], 800.0);
//! assert_eq!(sink.lock().unwrap().events().len(), 1);
//!
//! // Hot paths register a series once and record by handle.
//! let done = obs.metrics.register_counter("krisp_requests_total", &[("worker", "0")]);
//! done.inc(1);
//! let registry = obs.metrics.snapshot().unwrap();
//! assert_eq!(registry.counter("krisp_requests_total", &[("worker", "0")]), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod gantt;
pub mod metrics;
pub mod perfetto;
pub mod prometheus;
pub mod sink;

use std::fmt;
use std::sync::{Arc, Mutex};

pub use event::{Event, EventKind};
pub use metrics::{
    CounterHandle, GaugeHandle, Histogram, HistogramHandle, MetricKey, Metrics, Registry,
};
pub use sink::{EventBus, RingBufferSink, Sink};

/// The observability bundle handed down through configuration structs:
/// an event bus and a metrics registry handle.
///
/// `Obs::default()` is fully disabled; cloning shares the underlying
/// sink and registry.
#[derive(Clone, Default)]
pub struct Obs {
    /// Typed event stream (trace spans, lifecycle markers).
    pub bus: EventBus,
    /// Labelled counters / gauges / histograms.
    pub metrics: Metrics,
}

impl Obs {
    /// A disabled bundle: every emission is a no-op.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// An enabled bundle recording events into a fresh ring buffer of
    /// `capacity` events, with a fresh metrics registry. Returns the
    /// bundle and the sink handle to drain afterwards.
    pub fn recording(capacity: usize) -> (Obs, Arc<Mutex<RingBufferSink>>) {
        let sink = Arc::new(Mutex::new(RingBufferSink::new(capacity)));
        let obs = Obs {
            bus: EventBus::to_sink(sink.clone()),
            metrics: Metrics::recording(),
        };
        (obs, sink)
    }

    /// True if either the bus or the metrics registry is live.
    pub fn enabled(&self) -> bool {
        self.bus.enabled() || self.metrics.enabled()
    }

    /// A clone of this bundle whose events are tagged with `worker`.
    pub fn for_worker(&self, worker: u32) -> Obs {
        Obs {
            bus: self.bus.for_worker(worker),
            metrics: self.metrics.clone(),
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("worker", &self.bus.worker())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.bus.emit(0, || panic!("must not construct the payload"));
        obs.metrics.inc("x", &[], 1);
        assert!(obs.metrics.snapshot().is_none());
    }

    #[test]
    fn recording_bundle_shares_one_sink_across_clones() {
        let (obs, sink) = Obs::recording(16);
        let w1 = obs.for_worker(1);
        obs.bus
            .emit(10, || EventKind::RequestEnqueued { request_id: 0 });
        w1.bus
            .emit(20, || EventKind::RequestEnqueued { request_id: 1 });
        let sink = sink.lock().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].worker, 0);
        assert_eq!(events[1].worker, 1);
        assert_eq!(events[1].ts_ns, 20);
    }
}
