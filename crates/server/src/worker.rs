//! The per-model worker: queue → batch → launch → record.
//!
//! One [`Worker`] owns one stream on one device and serves one model.
//! It is deployment-agnostic: the single-GPU server and every GPU of the
//! cluster hold a vector of them, one per model. Kernel traces are
//! shared [`Arc`]s, so co-located workers of the same model (and the
//! same model's workers across a cluster's GPUs) reference one trace
//! instead of carrying per-worker copies.
//!
//! A worker runs one inference run at a time and tags its kernels so a
//! completion can be matched to the run that launched it
//! ([`Worker::end_run`]). Runs normally end with their final kernel, and
//! the next run's tags restart at 0 — the stream is serial, so nothing
//! older is left on it. A run the deployment discards mid-flight (a
//! crash, [`Worker::discard_run`]) keeps draining on the stream, so the
//! next run's tags start past the discarded ones and the stale tail can
//! never end the new run.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_obs::{EventBus, EventKind};
use krisp_runtime::{Runtime, StreamId};
use krisp_sim::{KernelDesc, SimDuration, SimTime};

use crate::queue::{InferenceRequest, RequestQueue};

/// One model's serving state: its stream, trace, request queue, and the
/// completion records the result layer later window-filters.
pub(crate) struct Worker {
    /// The runtime stream this worker launches on.
    pub stream: StreamId,
    /// The model this worker serves.
    pub model: ModelKind,
    /// Trace for the configured batch size (closed loop / Poisson),
    /// shared across same-model workers.
    pub trace: Arc<Vec<KernelDesc>>,
    /// Traces per formed batch size (dynamic batching), filled lazily.
    pub traces_by_batch: HashMap<u32, Arc<Vec<KernelDesc>>>,
    /// Launch overhead the dynamic-batching traces are generated with.
    pub launch_overhead: SimDuration,
    /// The bounded request queue (with optional CoDel shedding).
    pub queue: RequestQueue,
    /// Samples awaiting batch formation (OpenBatched).
    pub sample_queue: VecDeque<InferenceRequest>,
    /// Requests (or batched samples) of the in-flight run; empty exactly
    /// when `final_tag` is `None`.
    inflight: Vec<InferenceRequest>,
    /// Tag of the in-flight run's final kernel (`None` when idle).
    final_tag: Option<u64>,
    /// Tag of the next run's first kernel.
    next_tag: u64,
    /// (completion time, latency ms) per finished request or sample.
    pub records: Vec<(SimTime, f64)>,
    /// Next request/sample id this worker will assign.
    pub next_request_id: u64,
    /// Event bus tagged with this worker's track (disabled by default).
    pub bus: EventBus,
    /// Queued requests dropped for exceeding the deadline.
    pub timed_out: u64,
    /// Requests whose final kernel the watchdog abandoned.
    pub failed_requests: u64,
    /// Kernels the watchdog abandoned on this worker's stream.
    pub failed_kernels: u64,
}

impl Worker {
    /// An idle worker serving `model` on `stream` with the given trace,
    /// queue, and event bus.
    pub fn new(
        stream: StreamId,
        model: ModelKind,
        trace: Arc<Vec<KernelDesc>>,
        launch_overhead: SimDuration,
        queue: RequestQueue,
        bus: EventBus,
    ) -> Worker {
        Worker {
            stream,
            model,
            trace,
            traces_by_batch: HashMap::new(),
            launch_overhead,
            queue,
            sample_queue: VecDeque::new(),
            inflight: Vec::new(),
            final_tag: None,
            next_tag: 0,
            records: Vec::new(),
            next_request_id: 0,
            bus,
            timed_out: 0,
            failed_requests: 0,
            failed_kernels: 0,
        }
    }

    /// Whether an inference run is in flight on this worker's stream.
    pub fn busy(&self) -> bool {
        self.final_tag.is_some()
    }

    /// Requests (or batched samples) of the in-flight run; empty when
    /// idle.
    pub fn inflight(&self) -> &[InferenceRequest] {
        &self.inflight
    }

    /// Requests queued or in flight (the router's load signal).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// A fresh request for this worker's model arriving at `at`, with
    /// the next request id.
    pub fn new_request(&mut self, batch: u32, at: SimTime) -> InferenceRequest {
        let id = self.next_request_id;
        self.next_request_id += 1;
        InferenceRequest::new(id, self.model, batch, at)
    }

    /// Pops the next request still worth serving: CoDel (when the queue
    /// carries one) sheds heads with excessive sojourn, then queued
    /// requests that already exceeded the deadline are dropped.
    pub fn pop_runnable(
        &mut self,
        now: SimTime,
        deadline: Option<SimDuration>,
    ) -> Option<InferenceRequest> {
        loop {
            let (dropped, head) = self.queue.pop_at(now);
            for d in dropped {
                let depth = self.queue.len() as u32;
                self.bus.emit(now.as_nanos(), || EventKind::RequestShed {
                    request_id: d.id,
                    depth,
                });
            }
            let req = head?;
            let waited = now.saturating_since(req.enqueued_at);
            if deadline.is_some_and(|d| waited > d) {
                self.timed_out += 1;
                self.bus
                    .emit(now.as_nanos(), || EventKind::RequestTimedOut {
                        request_id: req.id,
                        waited_ns: waited.as_nanos(),
                    });
                continue;
            }
            return Some(req);
        }
    }

    /// Starts `req` as one whole run of the configured batch size.
    pub fn start_inference(&mut self, rt: &mut Runtime, req: InferenceRequest) {
        debug_assert!(!self.busy());
        self.inflight.push(req);
        let trace = Arc::clone(&self.trace);
        self.launch(rt, &trace);
    }

    /// Dynamic batching: forms and launches a batch when the front-end
    /// policy (full batch or aged head-of-line sample) allows.
    pub fn try_form_batch(
        &mut self,
        rt: &mut Runtime,
        now: SimTime,
        max_batch: u32,
        batch_timeout: SimDuration,
    ) {
        if self.busy() {
            return;
        }
        let Some(oldest) = self.sample_queue.front().map(|s| s.enqueued_at) else {
            return;
        };
        let full = self.sample_queue.len() >= max_batch as usize;
        let aged = now.saturating_since(oldest) >= batch_timeout;
        if !(full || aged) {
            return;
        }
        let take = self.sample_queue.len().min(max_batch as usize);
        self.inflight.extend(self.sample_queue.drain(..take));
        let batch = take as u32;
        self.bus.emit(now.as_nanos(), || EventKind::BatchFormed {
            batch,
            waited_ns: now.saturating_since(oldest).as_nanos(),
        });
        let model = self.model;
        let overhead = self.launch_overhead;
        let trace = Arc::clone(self.traces_by_batch.entry(batch).or_insert_with(|| {
            Arc::new(generate_trace(
                model,
                &TraceConfig {
                    batch,
                    launch_overhead: overhead,
                    ..TraceConfig::default()
                },
            ))
        }));
        self.launch(rt, &trace);
    }

    /// Launches `trace` as the in-flight run, tagged from `next_tag`.
    fn launch(&mut self, rt: &mut Runtime, trace: &[KernelDesc]) {
        debug_assert!(!trace.is_empty(), "a run launches at least one kernel");
        let base = self.next_tag;
        for (i, k) in trace.iter().enumerate() {
            rt.launch(self.stream, k.clone(), base + i as u64);
        }
        self.next_tag = base + trace.len() as u64;
        self.final_tag = Some(self.next_tag - 1);
    }

    /// Ends the in-flight run if `tag` is its final kernel (completed or
    /// abandoned) and returns the requests it carried. Any other kernel
    /// — including the tail of a discarded run — returns `None`.
    pub fn end_run(&mut self, tag: u64) -> Option<Vec<InferenceRequest>> {
        if self.final_tag != Some(tag) {
            return None;
        }
        self.final_tag = None;
        self.next_tag = 0;
        Some(std::mem::take(&mut self.inflight))
    }

    /// Discards the in-flight run (its process died): the kernels keep
    /// draining on the stream but no longer end a run. Returns the
    /// requests it carried.
    pub fn discard_run(&mut self) -> Vec<InferenceRequest> {
        self.final_tag = None;
        std::mem::take(&mut self.inflight)
    }
}

/// Index of the worker that owns `stream`.
///
/// # Panics
///
/// Panics if no worker launches on `stream`.
pub(crate) fn worker_on(workers: &[Worker], stream: StreamId) -> usize {
    workers
        .iter()
        .position(|w| w.stream == stream)
        .expect("runtime event on a stream no worker owns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use krisp_runtime::{RtEvent, RuntimeConfig};

    fn worker(rt: &mut Runtime) -> Worker {
        let trace = generate_trace(ModelKind::Squeezenet, &TraceConfig::default());
        Worker::new(
            rt.create_stream(),
            ModelKind::Squeezenet,
            Arc::new(trace[..3].to_vec()),
            SimDuration::ZERO,
            RequestQueue::new(),
            EventBus::disabled(),
        )
    }

    /// Steps `rt` to its next kernel completion and returns the tag.
    fn next_completion(rt: &mut Runtime) -> Option<u64> {
        loop {
            match rt.step()? {
                RtEvent::KernelCompleted { tag, .. } => return Some(tag),
                _ => continue,
            }
        }
    }

    #[test]
    fn completed_runs_end_on_their_final_kernel_and_restart_tags() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut w = worker(&mut rt);
        for id in 0..2 {
            let req = w.new_request(32, rt.now());
            w.start_inference(&mut rt, req);
            assert_eq!(next_completion(&mut rt), Some(0));
            assert_eq!(w.end_run(0), None);
            assert_eq!(next_completion(&mut rt), Some(1));
            assert_eq!(next_completion(&mut rt), Some(2));
            assert_eq!(w.end_run(2).map(|r| r[0].id), Some(id));
            assert!(!w.busy());
        }
    }

    #[test]
    fn a_discarded_runs_tail_never_ends_the_next_run() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut w = worker(&mut rt);
        let stale = w.new_request(32, rt.now());
        w.start_inference(&mut rt, stale);
        assert_eq!(next_completion(&mut rt), Some(0));
        assert_eq!(w.discard_run(), vec![stale]);
        assert!(!w.busy());

        let fresh = w.new_request(32, rt.now());
        w.start_inference(&mut rt, fresh);
        let mut ends = Vec::new();
        let mut last = None;
        while let Some(tag) = next_completion(&mut rt) {
            if let Some(reqs) = w.end_run(tag) {
                ends.push((tag, reqs));
            }
            last = Some(tag);
        }
        // The stale run's final kernel (tag 2) completes while the fresh
        // run is in flight; only the fresh run's own final kernel ends it.
        assert_eq!(last, Some(5));
        assert_eq!(ends, vec![(5, vec![fresh])]);
    }
}
